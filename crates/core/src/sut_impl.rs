//! The two halves of a benchmark run: the device and the validation set.
//!
//! [`DeviceSut`] is a compiled deployment running on the simulated SoC.
//! It answers LoadGen queries with simulated latencies and nothing else,
//! so one type serves the benchmark cell and every server and
//! multi-stream search probe. [`ValidationSet`] is the task's synthetic
//! dataset plus the quality model: it produces the prediction accuracy
//! mode scores for each sample, and no performance loop ever sees it.

use crate::sim_infer;
use crate::task::{BenchmarkDef, Task};
use mobile_backend::backend::Deployment;
use mobile_data::datasets::{
    Dataset, SyntheticAde20k, SyntheticCoco, SyntheticImageNet, SyntheticSquad, ADE20K_CLASSES,
};
use mobile_data::extended::{SyntheticDiv2k, SyntheticLibriSpeech};
use mobile_data::image::Image;
use mobile_data::types::{AnswerSpan, Detection, LabelMap};
use loadgen::sut::SystemUnderTest;
use loadgen::trace::{QueryTelemetry, StageTelemetry};
use mobile_metrics::miou::IouCounts;
use quant::{quality::nominal_retention, Scheme, Sensitivity};
use soc_sim::executor::QueryResult;
use soc_sim::plan::{ExecMemo, OfflinePlan, QueryPlan, QueryStep};
use soc_sim::soc::{Soc, SocState};
use soc_sim::time::SimDuration;
use std::cell::Cell;
use std::sync::Arc;

/// Offline batch size used when amortizing per-query overheads.
pub const OFFLINE_BATCH: usize = 32;

/// A deployment together with its compiled execution plans: the
/// single-stream [`QueryPlan`] and (when the backend emitted offline
/// streams) the [`OfflinePlan`], both built once per `(soc, deployment)`
/// and shared across runs behind `Arc`s.
///
/// Planning happens at deployment time, so the per-query hot path never
/// re-validates schedules or re-traverses the graph — bit-identically to
/// the unplanned executor (see [`QueryPlan`] for the contract).
#[derive(Debug, Clone)]
pub struct PlannedDeployment {
    /// The compiled deployment the plans were lowered from.
    pub deployment: Arc<Deployment>,
    /// Compiled single-stream query plan.
    pub query: Arc<QueryPlan>,
    /// Compiled offline plan; `None` when the deployment has no offline
    /// streams (executing a batch then panics, exactly like the unplanned
    /// executor would).
    pub offline: Option<Arc<OfflinePlan>>,
}

impl PlannedDeployment {
    /// Compiles both plans for a deployment on a SoC.
    ///
    /// # Panics
    ///
    /// Panics if any schedule in the deployment is invalid for its graph
    /// or places work on an engine that cannot execute it — the same
    /// panics the unplanned executor raises per query, surfaced once at
    /// plan time.
    #[must_use]
    pub fn compile(soc: &Soc, deployment: Arc<Deployment>) -> Self {
        let query = Arc::new(QueryPlan::new(soc, &deployment.graph, &deployment.schedule));
        let offline = if deployment.offline_streams.is_empty() {
            None
        } else {
            Some(Arc::new(OfflinePlan::new(
                soc,
                &deployment.graph,
                &deployment.offline_streams,
            )))
        };
        PlannedDeployment { deployment, query, offline }
    }
}

/// How large the synthetic validation sets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetScale {
    /// Full paper-sized splits (50k / 5k / 2k / 2k).
    Full,
    /// Reduced splits for fast tests and examples.
    Reduced(usize),
}

impl DatasetScale {
    fn len(self, full: usize) -> usize {
        match self {
            DatasetScale::Full => full,
            DatasetScale::Reduced(n) => n.min(full).max(1),
        }
    }
}

/// Task-specific dataset + prediction state.
#[derive(Debug, Clone)]
pub enum TaskData {
    /// ImageNet classification.
    Classification(SyntheticImageNet),
    /// COCO detection.
    Detection(SyntheticCoco),
    /// ADE20K segmentation with the calibrated per-pixel accuracy.
    Segmentation(SyntheticAde20k, f64),
    /// SQuAD question answering.
    Qa(SyntheticSquad),
    /// Speech recognition (extension task).
    Speech(SyntheticLibriSpeech),
    /// Super-resolution with the calibrated noise sigma (extension task).
    SuperRes(SyntheticDiv2k, f64),
}

impl TaskData {
    /// Number of validation samples.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            TaskData::Classification(d) => d.len(),
            TaskData::Detection(d) => d.len(),
            TaskData::Segmentation(d, _) => d.len(),
            TaskData::Qa(d) => d.len(),
            TaskData::Speech(d) => d.len(),
            TaskData::SuperRes(d, _) => d.len(),
        }
    }

    /// Whether the dataset is empty (never).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A task-specific prediction, scored later by the real metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Prediction {
    /// Predicted class label.
    Class(u32),
    /// Predicted detections.
    Detections(Vec<Detection>),
    /// Predicted segmentation map.
    Map(LabelMap),
    /// Predicted answer span.
    Span(AnswerSpan),
    /// Predicted transcript (word ids).
    Transcript(Vec<u32>),
    /// Reconstructed high-resolution image.
    Reconstruction(Image),
}

/// A compiled deployment running on a simulated SoC: the device the
/// LoadGen drives.
///
/// It answers queries with simulated latencies only; predictions come
/// from a [`ValidationSet`]. The SoC description and the compiled
/// deployment are immutable for the lifetime of a run and held behind
/// [`Arc`] so the suite runner's caches can share one compile across
/// concurrent runs; all mutable per-run state lives in [`SocState`]. A
/// fresh device is a few `Arc` bumps plus a cold [`SocState`], so the
/// server and multi-stream searches mint one per probe and thermal state
/// cannot leak between candidates.
#[derive(Debug)]
pub struct DeviceSut {
    /// SoC description (immutable, shareable across runs).
    pub soc: Arc<Soc>,
    /// Compiled deployment under test (immutable, shareable across runs).
    pub deployment: Arc<Deployment>,
    /// Mutable device state (thermal, energy) — persists across queries.
    pub state: SocState,
    /// Compiled single-stream plan (graph traversal hoisted out of the
    /// per-query hot loop).
    plan: Arc<QueryPlan>,
    /// Compiled offline plan, when the deployment has offline streams.
    offline_plan: Option<Arc<OfflinePlan>>,
    /// Scalars of the most recent single-stream query: the DVFS reading
    /// the run loops take after every query. A trace sink's
    /// [`SystemUnderTest::last_telemetry`] rebuilds the full record from
    /// this step, the plan and the memo, without re-running or perturbing
    /// the simulation.
    last_step: Option<QueryStep>,
    /// Telemetry records rebuilt so far (see [`Self::telemetry_rebuilds`]).
    telemetry_rebuilds: Cell<u64>,
    /// Steady-state fast-forward memo: once a query has executed at a
    /// given DVFS operating point, later queries at the same frequency
    /// bits replay the recorded roofline results in O(1) — bit-identical
    /// by construction (see [`QueryPlan::step_memo`]). Per-run state,
    /// never part of a score; traced telemetry reads the last step's
    /// recorded stage times back from it.
    memo: ExecMemo,
}

impl DeviceSut {
    /// A fresh device at `ambient_c` running a deployment, compiling its
    /// plans first. Owned values and pre-shared `Arc`s are both accepted
    /// (`Arc<T>: From<T>`), so one-off callers keep passing plain
    /// `Soc`/`Deployment` while cached deployments go in without a clone.
    #[must_use]
    pub fn new(
        soc: impl Into<Arc<Soc>>,
        deployment: impl Into<Arc<Deployment>>,
        ambient_c: f64,
    ) -> Self {
        let soc = soc.into();
        let planned = PlannedDeployment::compile(&soc, deployment.into());
        Self::with_plans(soc, planned, ambient_c)
    }

    /// A fresh device at `ambient_c` running an already-planned
    /// deployment — [`Self::new`] minus the plan compilation. The suite
    /// runner's plan cache hands the same [`PlannedDeployment`] to every
    /// run of a `(chip, backend, model)` triple and to every search probe.
    #[must_use]
    pub fn with_plans(
        soc: impl Into<Arc<Soc>>,
        planned: PlannedDeployment,
        ambient_c: f64,
    ) -> Self {
        let soc = soc.into();
        let PlannedDeployment { deployment, query: plan, offline: offline_plan } = planned;
        let state = soc.new_state(ambient_c);
        DeviceSut {
            soc,
            deployment,
            state,
            plan,
            offline_plan,
            last_step: None,
            telemetry_rebuilds: Cell::new(0),
            memo: ExecMemo::new(),
        }
    }

    /// Queries served by the steady-state fast-forward memo (excludes the
    /// recording walk at each new DVFS operating point). Observability
    /// only — never part of a score.
    #[must_use]
    pub fn fast_forward_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Distinct DVFS operating points the fast-forward memo has recorded.
    #[must_use]
    pub fn fast_forward_operating_points(&self) -> usize {
        self.memo.operating_points()
    }

    /// Telemetry records this device has rebuilt for
    /// [`SystemUnderTest::last_telemetry`]: one per query of a traced run
    /// loop, none in an untraced one. Observability only — never part of
    /// a score.
    #[must_use]
    pub fn telemetry_rebuilds(&self) -> u64 {
        self.telemetry_rebuilds.get()
    }
}

impl SystemUnderTest for DeviceSut {
    fn issue_query(&mut self, _sample_index: usize) -> SimDuration {
        let step = self.plan.step_memo(&mut self.state, &mut self.memo);
        self.last_step = Some(step);
        step.latency
    }

    fn issue_batch(&mut self, sample_indices: &[usize]) -> SimDuration {
        self.offline_plan
            .as_ref()
            .expect("offline needs at least one stream")
            .execute(&mut self.state, sample_indices.len() as u64, OFFLINE_BATCH)
            .duration
    }

    fn description(&self) -> String {
        format!(
            "{} / {} / {} on {}",
            self.soc.name,
            self.deployment.backend,
            self.deployment.scheme,
            self.deployment.accelerator_summary(&self.soc),
        )
    }

    fn last_telemetry(&self) -> Option<QueryTelemetry> {
        let step = self.last_step?;
        self.telemetry_rebuilds.set(self.telemetry_rebuilds.get() + 1);
        Some(query_telemetry(&self.soc, &self.plan.step_result(step, &self.memo)))
    }

    fn last_dvfs(&self) -> Option<(f64, f64)> {
        self.last_step.map(|s| (s.freq_factor, s.temperature_c))
    }

    fn idle(&mut self, dt: SimDuration) {
        self.state.thermal.cooldown(dt);
    }
}

/// A benchmark's validation set and the quality model that degrades its
/// predictions: the prediction half of accuracy mode.
///
/// Every prediction is a pure function of the sample index, so accuracy
/// mode can synthesize them on any thread, apart from the device
/// ([`loadgen::run::run_accuracy`]).
#[derive(Debug, Clone)]
pub struct ValidationSet {
    /// Dataset and quality-model state.
    pub data: TaskData,
    /// Achieved quality level (FP32 quality x numerics retention).
    pub target_quality: f64,
    seed: u64,
}

impl ValidationSet {
    /// Synthesizes a benchmark's validation set for a deployment's
    /// numerics.
    ///
    /// The achieved quality is the FP32 reference quality degraded by the
    /// scheme's retention (the `quant` quality model).
    #[must_use]
    pub fn new(def: &BenchmarkDef, scheme: Scheme, scale: DatasetScale, seed: u64) -> Self {
        let retention = nominal_retention(scheme, Sensitivity::for_model(def.model));
        let target_quality = def.fp32_quality * retention;
        let data = match def.task {
            Task::ImageClassification => TaskData::Classification(SyntheticImageNet::with_len(
                seed,
                scale.len(mobile_data::datasets::IMAGENET_VAL_LEN),
            )),
            Task::ObjectDetection => TaskData::Detection(SyntheticCoco::with_len(
                seed,
                scale.len(mobile_data::datasets::COCO_VAL_LEN),
            )),
            Task::ImageSegmentation => {
                let ds = SyntheticAde20k::with_params(
                    seed,
                    scale.len(mobile_data::datasets::ADE20K_VAL_LEN),
                    64,
                );
                let pixel_acc = sim_infer::pixel_accuracy_for_miou(&ds, target_quality);
                TaskData::Segmentation(ds, pixel_acc)
            }
            Task::QuestionAnswering => TaskData::Qa(SyntheticSquad::with_len(
                seed,
                scale.len(mobile_data::datasets::SQUAD_MINI_DEV_LEN),
            )),
            Task::SpeechRecognition => TaskData::Speech(SyntheticLibriSpeech::with_len(
                seed,
                scale.len(mobile_data::extended::SPEECH_DEV_LEN),
            )),
            Task::SuperResolution => {
                // target_quality is PSNR in dB; invert to a noise level.
                // Reduced-scale SR datasets also shrink the image so tests
                // stay fast (class statistics are resolution independent).
                let (h, w) = match scale {
                    DatasetScale::Full => (720, 1280),
                    DatasetScale::Reduced(_) => (72, 128),
                };
                let ds = SyntheticDiv2k::with_params(
                    seed,
                    scale.len(mobile_data::extended::SR_VAL_LEN),
                    h,
                    w,
                );
                let sigma = sim_infer::noise_sigma_for_psnr(&ds, target_quality);
                TaskData::SuperRes(ds, sigma)
            }
        };
        ValidationSet { data, target_quality, seed }
    }

    /// Number of validation samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the set is empty (never).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole set's segmentation tally: every sample's [`Self::predict`]
    /// map is counted against its ground truth and dropped, on up to
    /// `threads` workers with one [`IouCounts`] each. `None` for other
    /// tasks. The counts are integers, so the split changes nothing: the
    /// tally's mIoU is bit-equal to
    /// [`score_accuracy`](crate::harness::score_accuracy) over the
    /// collected maps, without holding them.
    #[must_use]
    pub fn segmentation_counts(&self, threads: usize) -> Option<IouCounts> {
        let TaskData::Segmentation(d, pixel_acc) = &self.data else { return None };
        let len = d.len();
        let chunk = len.div_ceil(threads.clamp(1, len));
        let starts: Vec<usize> = (0..len).step_by(chunk).collect();
        let tallies = loadgen::par::par_map_chunked(&starts, starts.len(), |&start| {
            let mut counts = IouCounts::new(ADE20K_CLASSES as usize);
            for s in start..(start + chunk).min(len) {
                sim_infer::segment_counts(d, s, *pixel_acc, self.seed, &mut counts);
            }
            counts
        });
        let mut total = IouCounts::new(ADE20K_CLASSES as usize);
        for t in &tallies {
            total.merge(t);
        }
        Some(total)
    }

    /// The quality-model prediction for one sample, scored later by the
    /// real metrics.
    #[must_use]
    pub fn predict(&self, sample_index: usize) -> Prediction {
        match &self.data {
            TaskData::Classification(d) => {
                Prediction::Class(sim_infer::classify(d, sample_index, self.target_quality, self.seed))
            }
            TaskData::Detection(d) => {
                Prediction::Detections(sim_infer::detect(d, sample_index, self.target_quality, self.seed))
            }
            TaskData::Segmentation(d, pixel_acc) => {
                Prediction::Map(sim_infer::segment(d, sample_index, *pixel_acc, self.seed))
            }
            TaskData::Qa(d) => {
                Prediction::Span(sim_infer::answer(d, sample_index, self.target_quality, self.seed))
            }
            TaskData::Speech(d) => Prediction::Transcript(sim_infer::transcribe(
                d,
                sample_index,
                self.target_quality,
                self.seed,
            )),
            TaskData::SuperRes(d, sigma) => {
                Prediction::Reconstruction(sim_infer::reconstruct(d, sample_index, *sigma, self.seed))
            }
        }
    }
}

/// Builds the trace-facing telemetry record for one simulator
/// [`QueryResult`]: per-stage engine occupancy (named after the SoC's
/// engines), the compute/transfer/launch/sync decomposition, and the
/// cumulative energy reading. Shared by [`DeviceSut`] and by examples that
/// drive [`soc_sim::executor::run_query`] directly.
#[must_use]
pub fn query_telemetry(soc: &Soc, result: &QueryResult) -> QueryTelemetry {
    let stages = result
        .breakdown
        .stage_engines
        .iter()
        .zip(&result.breakdown.stage_compute)
        .map(|(&id, &compute)| StageTelemetry {
            engine: soc.engine(id).name.clone(),
            compute_ns: compute.as_nanos(),
        })
        .collect();
    QueryTelemetry {
        freq_factor: result.freq_factor,
        dvfs_level: result.dvfs_level,
        temperature_c: result.temperature_c,
        compute_ns: result.breakdown.compute().as_nanos(),
        transfer_ns: result.breakdown.transfer.as_nanos(),
        overhead_ns: result.breakdown.overhead.as_nanos(),
        launch_ns: result.breakdown.launch.as_nanos(),
        sync_ns: result.breakdown.sync.as_nanos(),
        energy_j: result.total_joules,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{suite, SuiteVersion};
    use mobile_backend::backend::Backend;
    use mobile_backend::backends::Neuron;
    use soc_sim::catalog::ChipId;

    fn sut_for(task_index: usize) -> (DeviceSut, ValidationSet) {
        let soc = ChipId::Dimensity1100.build();
        let def = &suite(SuiteVersion::V1_0)[task_index];
        let deployment = Neuron.compile(&def.model.build(), &soc).unwrap();
        let validation = ValidationSet::new(def, deployment.scheme, DatasetScale::Reduced(64), 42);
        (DeviceSut::new(soc, deployment, 22.0), validation)
    }

    #[test]
    fn query_returns_latency_and_prediction() {
        let (mut sut, validation) = sut_for(0);
        assert!(sut.issue_query(0).as_millis_f64() > 0.5);
        assert!(matches!(validation.predict(0), Prediction::Class(_)));
    }

    #[test]
    fn each_task_produces_its_prediction_kind() {
        let kinds: Vec<Prediction> = (0..4).map(|i| sut_for(i).1.predict(0)).collect();
        assert!(matches!(kinds[0], Prediction::Class(_)));
        assert!(matches!(kinds[1], Prediction::Detections(_)));
        assert!(matches!(kinds[2], Prediction::Map(_)));
        assert!(matches!(kinds[3], Prediction::Span(_)));
    }

    #[test]
    fn segmentation_fold_matches_the_confusion_matrix() {
        use crate::harness::score_accuracy;
        use mobile_metrics::miou::{benchmark_eval_classes, benchmark_miou, ConfusionMatrix};
        let (_, validation) = sut_for(2);
        let TaskData::Segmentation(d, _) = &validation.data else { panic!("segmentation set") };
        let predictions: Vec<(usize, Prediction)> =
            (0..validation.len()).map(|i| (i, validation.predict(i))).collect();
        let gts: Vec<LabelMap> = (0..validation.len()).map(|i| d.label_map(i)).collect();
        let maps: Vec<&LabelMap> = predictions
            .iter()
            .map(|(_, p)| match p {
                Prediction::Map(m) => m,
                other => panic!("expected a map, got {other:?}"),
            })
            .collect();
        let mut cm = ConfusionMatrix::new(ADE20K_CLASSES as usize);
        for (g, p) in gts.iter().zip(&maps) {
            cm.record_maps(g, p);
        }
        let want = benchmark_miou(&gts, &maps).to_bits();
        assert_eq!(score_accuracy(&validation.data, &predictions).to_bits(), want);
        for threads in [1, 3, 8, 1000] {
            let counts = validation.segmentation_counts(threads).unwrap();
            for c in 0..ADE20K_CLASSES {
                let (got, want) = (counts.class_counts(c), cm.class_counts(c));
                assert_eq!(got, want, "class {c}, {threads} threads");
            }
            assert_eq!(counts.mean_iou(&benchmark_eval_classes()).to_bits(), want);
        }
        assert!(sut_for(0).1.segmentation_counts(4).is_none());
    }

    #[test]
    fn thermal_state_persists_across_queries() {
        let (mut sut, _) = sut_for(2); // segmentation: heavy
        let t0 = sut.state.thermal.temperature_c();
        for _ in 0..50 {
            let _ = sut.issue_query(0);
        }
        assert!(sut.state.thermal.temperature_c() > t0);
    }

    #[test]
    fn telemetry_rebuilds_the_full_query_result() {
        // A shadow state driven through execute_memo yields the full
        // result the device once kept per query: the rebuilt telemetry,
        // stage breakdown included, must match it bit for bit, through
        // the heating that moves the DVFS operating point.
        let (mut sut, _) = sut_for(2);
        // Start hot, so the run descends the DVFS ladder as it goes.
        sut.state.thermal.advance(4.0, SimDuration::from_secs(600));
        let mut shadow = sut.state.clone();
        let mut shadow_memo = ExecMemo::new();
        for s in 0..400 {
            let latency = sut.issue_query(s);
            let want = sut.plan.execute_memo(&mut shadow, &mut shadow_memo);
            assert_eq!(latency, want.latency);
            assert_eq!(sut.last_telemetry(), Some(query_telemetry(&sut.soc, &want)), "query {s}");
            assert_eq!(sut.last_dvfs(), Some((want.freq_factor, want.temperature_c)));
        }
        assert_eq!(sut.state, shadow);
        assert!(sut.fast_forward_operating_points() > 1, "the run must cross DVFS points");
    }

    #[test]
    fn untraced_loops_rebuild_no_telemetry() {
        use loadgen::log::RunLog;
        use loadgen::run::{run_multi_stream, run_server, run_single_stream};
        use loadgen::scenario::TestSettings;
        use loadgen::trace::RunTrace;
        let settings = TestSettings::smoke_test();
        let (mut sut, _) = sut_for(0);
        let _ = run_single_stream(&mut sut, 64, &settings, &mut RunLog::new(), None);
        let _ = run_server(&mut sut, 64, 200.0, &settings, &mut RunLog::new(), None);
        let _ = run_multi_stream(&mut sut, 64, 3, &settings, &mut RunLog::new(), None);
        assert_eq!(sut.telemetry_rebuilds(), 0, "untraced loops read only the DVFS pair");
        // A traced loop rebuilds one record per span.
        let mut trace = RunTrace::new();
        let _ = run_single_stream(&mut sut, 64, &settings, &mut RunLog::new(), Some(&mut trace));
        assert_eq!(sut.telemetry_rebuilds(), trace.span_count());
    }

    #[test]
    fn batch_uses_offline_streams() {
        let (mut sut, _) = sut_for(0);
        let samples: Vec<usize> = (0..64).map(|i| i % 64).collect();
        assert!(sut.issue_batch(&samples) > SimDuration::ZERO);
    }

    #[test]
    fn description_names_the_stack() {
        let (sut, _) = sut_for(0);
        let desc = sut.description();
        assert!(desc.contains("Dimensity 1100"));
        assert!(desc.contains("Neuron"));
    }
}
