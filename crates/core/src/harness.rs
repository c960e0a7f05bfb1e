//! The benchmark harness: runs one (chip, backend, task) combination under
//! the run rules — accuracy mode first, then performance mode, with
//! cooldown intervals — and scores it.

use crate::metrics::{metrics, TraceCollector};
use crate::sut_impl::{
    DatasetScale, DeviceSut, PlannedDeployment, Prediction, TaskData, ValidationSet,
};
use crate::task::{BenchmarkDef, Task};
use loadgen::checker::{check_log, Violation};
use loadgen::log::RunLog;
use loadgen::run::{
    find_max_qps, find_max_streams, run_accuracy, run_accuracy_advance, run_multi_stream,
    run_offline_scenario, run_server, run_single_stream, PerformanceResult,
};
use loadgen::scenario::TestSettings;
use loadgen::trace::RunTrace;
use mobile_backend::backend::{Backend, BackendId, CompileError};
use mobile_data::datasets::ADE20K_CLASSES;
use mobile_metrics::miou::{benchmark_eval_classes, IouCounts};
use serde::{Deserialize, Serialize};
use soc_sim::battery::{BatterySpec, BatteryState};
use soc_sim::catalog::ChipId;
use soc_sim::soc::Soc;
use soc_sim::time::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Run-rule environment (paper Section 6.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRules {
    /// Room temperature; rules require 20-25 °C.
    pub ambient_c: f64,
    /// Cooldown break between individual tests (rules allow 0-5 minutes).
    pub cooldown: SimDuration,
    /// LoadGen settings (counts, durations, seed).
    pub settings: TestSettings,
    /// Initial battery state of charge, `None` for mains power. The rules
    /// run phones on battery and recommend a full charge "to avoid
    /// entering power-saving mode".
    pub battery_soc: Option<f64>,
}

impl Default for RunRules {
    fn default() -> Self {
        RunRules {
            ambient_c: 22.0,
            cooldown: SimDuration::from_secs(120),
            settings: TestSettings::default(),
            battery_soc: Some(1.0),
        }
    }
}

impl RunRules {
    /// Whether the ambient temperature complies with the rules (20-25 °C).
    #[must_use]
    pub fn ambient_compliant(&self) -> bool {
        (20.0..=25.0).contains(&self.ambient_c)
    }

    /// Scaled-down rules for fast tests (non-compliant by design).
    #[must_use]
    pub fn smoke_test() -> Self {
        RunRules {
            ambient_c: 22.0,
            cooldown: SimDuration::from_secs(10),
            settings: TestSettings::smoke_test(),
            battery_soc: Some(1.0),
        }
    }
}

/// Which performance scenarios run after the mandatory single-stream leg
/// (paper Section 4: single-stream always runs; offline, server, and
/// multi-stream are per-benchmark options).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioMix {
    /// Run the offline throughput scenario.
    pub offline: bool,
    /// Run the server scenario: binary-search the maximum Poisson offered
    /// load whose p90 latency stays under the per-model bound.
    pub server: bool,
    /// Run the multi-stream scenario: search the widest frame that still
    /// fits the fixed frame interval.
    pub multi_stream: bool,
}

impl ScenarioMix {
    /// The historical two-scenario mix: single-stream plus optionally
    /// offline.
    #[must_use]
    pub const fn offline_only(offline: bool) -> Self {
        ScenarioMix { offline, server: false, multi_stream: false }
    }

    /// All four scenarios.
    #[must_use]
    pub const fn all() -> Self {
        ScenarioMix { offline: true, server: true, multi_stream: true }
    }
}

/// The server scenario's latency bound as a multiple of the measured
/// single-stream p90: a device meets the bound while queueing delay stays
/// within two extra service times of the knee.
pub const SERVER_LATENCY_BOUND_X: u64 = 3;

/// How far past the device's zero-queueing capacity the QPS search
/// brackets: the knee always lies below `capacity x this factor`.
pub const SERVER_SEARCH_HEADROOM: f64 = 2.0;

/// Scored outcome of the server scenario's offered-load search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerScore {
    /// Headline: the largest offered load (queries/s) whose p90 latency
    /// met the bound; `0.0` if even the lightest probe missed it.
    pub max_qps: f64,
    /// The per-model latency bound the search held probes to (ns) —
    /// [`SERVER_LATENCY_BOUND_X`] times the measured single-stream p90.
    pub target_latency_ns: u64,
    /// Probe runs the bisection executed.
    pub probes: u64,
    /// The winning probe's full performance result (arrival-to-completion
    /// latency statistics, queueing included).
    pub result: PerformanceResult,
}

/// Scored outcome of the multi-stream scenario's stream-count search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStreamScore {
    /// Headline: the widest frame (streams per frame) whose p90 frame
    /// latency fits the frame interval; `0` if one stream already misses.
    pub streams: u64,
    /// The fixed frame interval the search held probes to (ns).
    pub interval_ns: u64,
    /// Probe runs the search executed.
    pub probes: u64,
    /// The winning probe's full performance result (frame-latency
    /// statistics: each frame scores the max over its lanes).
    pub result: PerformanceResult,
}

/// Complete scored result of one benchmark run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkScore {
    /// Benchmark definition (Table 1 row).
    pub def: BenchmarkDef,
    /// Platform.
    pub chip: ChipId,
    /// Code path used.
    pub backend: BackendId,
    /// Numerics of the deployment (Table 2 cell, top).
    pub scheme: quant::Scheme,
    /// Accelerator summary (Table 2 cell, bottom).
    pub accelerator: String,
    /// Measured quality (metric units).
    pub accuracy: f64,
    /// Required minimum quality.
    pub quality_target: f64,
    /// Whether the quality gate passed.
    pub accuracy_passed: bool,
    /// Single-stream performance.
    pub single_stream: PerformanceResult,
    /// Offline performance (when run).
    pub offline: Option<PerformanceResult>,
    /// Server-scenario search outcome (when run).
    pub server: Option<ServerScore>,
    /// Multi-stream-scenario search outcome (when run).
    pub multi_stream: Option<MultiStreamScore>,
    /// Run-rule violations found by the submission checker.
    pub violations: Vec<Violation>,
    /// Whether the ambient temperature was rule-compliant.
    pub ambient_compliant: bool,
    /// Energy per single-stream query (joules).
    pub joules_per_query: f64,
    /// Average device power over the single-stream performance run
    /// (watts): the energy-meter delta across the run divided by the
    /// run's simulated duration.
    pub average_power_w: f64,
    /// Whether the device entered battery power-saving mode during the
    /// run (the hazard the full-charge recommendation avoids).
    pub power_saving_entered: bool,
    /// The unedited performance-run log (shipped with submissions).
    pub log: RunLog,
}

impl BenchmarkScore {
    /// Whether this would be a valid submission (quality gate + rules).
    #[must_use]
    pub fn is_valid_submission(&self) -> bool {
        self.accuracy_passed && self.violations.is_empty() && self.ambient_compliant
    }

    /// Headline single-stream latency in milliseconds (p90).
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.single_stream.score()
    }

    /// Headline server metric: max passing offered load (queries/s), when
    /// the scenario ran.
    #[must_use]
    pub fn server_qps(&self) -> Option<f64> {
        self.server.as_ref().map(|s| s.max_qps)
    }

    /// Headline multi-stream metric: max passing stream count, when the
    /// scenario ran.
    #[must_use]
    pub fn multi_stream_streams(&self) -> Option<u64> {
        self.multi_stream.as_ref().map(|s| s.streams)
    }
}

/// One engine's share of a run's activity, attributed from the per-stage
/// telemetry in the single-stream span timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineActivity {
    /// Engine name ("npu0", "gpu", ...).
    pub engine: String,
    /// The engine's active power while computing (watts).
    pub active_power_w: f64,
    /// Total time the engine spent computing across the run (ns).
    pub busy_ns: u64,
    /// `busy_ns` over the run's simulated duration.
    pub busy_fraction: f64,
    /// Energy attributed to this engine: active power x busy time (J).
    pub joules: f64,
}

/// Run-end energy accounting stamped into a [`BenchmarkTrace`]: the
/// [`soc_sim::power::EnergyMeter`] totals surfaced per run, plus a
/// per-engine attribution derived from the span timeline.
///
/// `total_joules` is the meter's exact accumulator at run end (a unit test
/// ties it to [`soc_sim::power::EnergyMeter::total_joules`] at 0 ULPs);
/// the per-engine joules are a decomposition of the *active* energy only —
/// rail/idle power and inter-engine transfer time belong to no single
/// engine and are not attributed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEnergy {
    /// The energy meter's total at run end (accuracy + performance +
    /// offline), in joules — exactly `EnergyMeter::total_joules`.
    pub total_joules: f64,
    /// The meter's recorded busy time at run end (ns).
    pub busy_ns: u64,
    /// Energy-meter delta across the single-stream performance run (J).
    pub single_stream_joules: f64,
    /// Energy per single-stream query (J) — same value as
    /// [`BenchmarkScore::joules_per_query`].
    pub joules_per_query: f64,
    /// Average power over the single-stream run (W) — same value as
    /// [`BenchmarkScore::average_power_w`].
    pub average_power_w: f64,
    /// Per-engine activity attribution over the single-stream run, in
    /// first-appearance order along the timeline.
    pub engines: Vec<EngineActivity>,
}

impl RunEnergy {
    /// Captures run-end energy accounting from the device state and the
    /// single-stream span timeline.
    ///
    /// `ss_joules` and `ss_duration` describe the single-stream
    /// performance window; `state` is read at run end, so `total_joules`
    /// is the meter's accumulator verbatim.
    #[must_use]
    pub fn capture(
        soc: &Soc,
        state: &soc_sim::soc::SocState,
        ss_trace: &RunTrace,
        ss_joules: f64,
        ss_duration: SimDuration,
        queries: u64,
    ) -> RunEnergy {
        let duration_ns = ss_duration.as_nanos();
        // Aggregate per-engine busy time from the per-stage telemetry, in
        // first-appearance order (deterministic — no map iteration).
        let mut names: Vec<&str> = Vec::new();
        let mut busy: Vec<u64> = Vec::new();
        for span in &ss_trace.spans {
            let Some(t) = &span.telemetry else { continue };
            for stage in &t.stages {
                match names.iter().position(|n| *n == stage.engine.as_str()) {
                    Some(i) => busy[i] += stage.compute_ns,
                    None => {
                        names.push(&stage.engine);
                        busy.push(stage.compute_ns);
                    }
                }
            }
        }
        let engines = names
            .iter()
            .zip(&busy)
            .map(|(name, &busy_ns)| {
                let active_power_w = soc
                    .engines
                    .iter()
                    .find(|e| e.name == **name)
                    .map_or(0.0, |e| e.active_power_w);
                EngineActivity {
                    engine: (*name).to_owned(),
                    active_power_w,
                    busy_ns,
                    busy_fraction: if duration_ns > 0 {
                        busy_ns as f64 / duration_ns as f64
                    } else {
                        0.0
                    },
                    joules: active_power_w * (busy_ns as f64 / 1e9),
                }
            })
            .collect();
        RunEnergy {
            total_joules: state.energy.total_joules(),
            busy_ns: state.energy.busy_time().as_nanos(),
            single_stream_joules: ss_joules,
            joules_per_query: if queries > 0 { ss_joules / queries as f64 } else { 0.0 },
            average_power_w: if duration_ns > 0 {
                ss_joules / ss_duration.as_secs_f64()
            } else {
                0.0
            },
            engines,
        }
    }
}

/// Per-query observability record of one benchmark run: the single-stream
/// span timeline (with per-query SoC telemetry) plus the offline burst
/// when that scenario ran.
///
/// [`run_benchmark_planned`] pushes one into its trace sink when given
/// one; purely observational — a traced run scores bit-identically to an
/// untraced one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkTrace {
    /// Platform the run executed on.
    pub chip: ChipId,
    /// Benchmark task (Table 1 row).
    pub task: Task,
    /// Code path used.
    pub backend: BackendId,
    /// Span timeline of the single-stream performance run.
    pub single_stream: RunTrace,
    /// Burst record of the offline run, when one ran.
    pub offline: Option<RunTrace>,
    /// Span timeline of the server scenario's winning probe (overlapping
    /// spans; dispatch may lag arrival), when the scenario ran.
    pub server: Option<RunTrace>,
    /// Span timeline of the multi-stream scenario's winning probe, when
    /// the scenario ran.
    pub multi_stream: Option<RunTrace>,
    /// Run-end energy accounting (meter totals + per-engine attribution).
    pub energy: RunEnergy,
}

impl BenchmarkTrace {
    /// `chip/task/backend` label identifying the benchmark-matrix cell.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{:?}/{}", self.chip, self.task, self.backend)
    }

    /// Queries dispatched while the device was throttled.
    #[must_use]
    pub fn throttled_queries(&self) -> u64 {
        self.single_stream.throttled_queries()
    }

    /// Transitions into throttling along the single-stream timeline.
    #[must_use]
    pub fn throttle_events(&self) -> u64 {
        self.single_stream.throttle_events()
    }

    /// Hottest die temperature observed at any query dispatch.
    #[must_use]
    pub fn peak_temperature_c(&self) -> Option<f64> {
        self.single_stream.peak_temperature_c()
    }

    /// Checks the structural invariants of both contained traces.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, prefixed with the cell label.
    pub fn validate(&self) -> Result<(), String> {
        self.single_stream
            .validate()
            .map_err(|e| format!("{}: single-stream: {e}", self.label()))?;
        if let Some(offline) = &self.offline {
            offline.validate().map_err(|e| format!("{}: offline: {e}", self.label()))?;
        }
        if let Some(server) = &self.server {
            server.validate().map_err(|e| format!("{}: server: {e}", self.label()))?;
        }
        if let Some(ms) = &self.multi_stream {
            ms.validate().map_err(|e| format!("{}: multi-stream: {e}", self.label()))?;
        }
        Ok(())
    }
}

/// Scores accuracy-mode predictions with the real metric implementations.
///
/// Predictions are scored *by reference*: the metric entry points are
/// generic over borrowed inputs, so no detection list, label map,
/// transcript, or reconstructed image is cloned on this path. At full
/// dataset scale the prediction buffers run to tens of megabytes per
/// benchmark, and the old clone-per-sample scoring dominated accuracy-mode
/// allocation.
#[must_use]
pub fn score_accuracy(data: &TaskData, predictions: &[(usize, Prediction)]) -> f64 {
    match data {
        TaskData::Classification(d) => {
            let gt: Vec<u32> = predictions.iter().map(|(i, _)| d.label(*i)).collect();
            let pred: Vec<u32> = predictions
                .iter()
                .map(|(_, p)| match p {
                    Prediction::Class(c) => *c,
                    other => panic!("expected class prediction, got {other:?}"),
                })
                .collect();
            mobile_metrics::accuracy::top1_accuracy(&gt, &pred)
        }
        TaskData::Detection(d) => {
            let gts: Vec<_> = predictions.iter().map(|(i, _)| d.objects(*i)).collect();
            let preds: Vec<&Vec<_>> = predictions
                .iter()
                .map(|(_, p)| match p {
                    Prediction::Detections(v) => v,
                    other => panic!("expected detections, got {other:?}"),
                })
                .collect();
            mobile_metrics::map::coco_map(&gts, &preds)
        }
        TaskData::Segmentation(d, _) => {
            // The same per-sample fold as `ValidationSet::segmentation_counts`.
            let mut counts = IouCounts::new(ADE20K_CLASSES as usize);
            for (i, p) in predictions {
                match p {
                    Prediction::Map(m) => counts.record_maps(&d.label_map(*i), m),
                    other => panic!("expected label map, got {other:?}"),
                }
            }
            counts.mean_iou(&benchmark_eval_classes())
        }
        TaskData::Qa(d) => {
            let gts: Vec<_> = predictions.iter().map(|(i, _)| d.sample(*i).answer).collect();
            let preds: Vec<_> = predictions
                .iter()
                .map(|(_, p)| match p {
                    Prediction::Span(s) => *s,
                    other => panic!("expected answer span, got {other:?}"),
                })
                .collect();
            mobile_metrics::accuracy::squad_scores(&gts, &preds).0
        }
        TaskData::Speech(d) => {
            let gts: Vec<Vec<u32>> =
                predictions.iter().map(|(i, _)| d.utterance(*i).transcript).collect();
            let preds: Vec<&Vec<u32>> = predictions
                .iter()
                .map(|(_, p)| match p {
                    Prediction::Transcript(t) => t,
                    other => panic!("expected transcript, got {other:?}"),
                })
                .collect();
            1.0 - mobile_metrics::wer::corpus_wer(&gts, &preds)
        }
        TaskData::SuperRes(d, _) => {
            let gts: Vec<_> = predictions.iter().map(|(i, _)| d.high_res(*i)).collect();
            let preds: Vec<&_> = predictions
                .iter()
                .map(|(_, p)| match p {
                    Prediction::Reconstruction(img) => img,
                    other => panic!("expected reconstruction, got {other:?}"),
                })
                .collect();
            mobile_metrics::psnr::mean_psnr_db(&gts, &preds, 1.0)
        }
    }
}

/// Runs one benchmark end-to-end: compile, accuracy mode, cooldown,
/// single-stream performance, then whatever `mix` adds (offline, server,
/// multi-stream) — per the test-control order of paper Section 6.1 ("the
/// model runs on the validation set to calculate the accuracy;
/// performance mode follows").
///
/// This is the fresh-compile path: it builds the SoC, compiles and plans
/// the deployment, then runs [`run_benchmark_planned`] untraced.
///
/// # Examples
///
/// ```no_run
/// use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
/// use mlperf_mobile::sut_impl::DatasetScale;
/// use mlperf_mobile::task::{suite, SuiteVersion};
/// use mobile_backend::backends::Snpe;
/// use soc_sim::catalog::ChipId;
///
/// let def = &suite(SuiteVersion::V1_0)[0]; // classification
/// let score = run_benchmark(
///     ChipId::Snapdragon888,
///     &Snpe,
///     def,
///     &RunRules::default(),
///     DatasetScale::Full,
///     ScenarioMix::offline_only(true),
/// )?;
/// println!("p90 {:.2} ms, accuracy {:.4}", score.latency_ms(), score.accuracy);
/// # Ok::<(), mobile_backend::backend::CompileError>(())
/// ```
///
/// # Errors
///
/// Propagates backend compilation failures.
pub fn run_benchmark(
    chip: ChipId,
    backend: &dyn Backend,
    def: &BenchmarkDef,
    rules: &RunRules,
    scale: DatasetScale,
    mix: ScenarioMix,
) -> Result<BenchmarkScore, CompileError> {
    let soc = Arc::new(chip.build());
    let deployment = Arc::new(backend.compile(&def.model.build(), &soc)?);
    let planned = PlannedDeployment::compile(&soc, deployment);
    Ok(run_benchmark_planned(chip, soc, planned, def, rules, scale, mix, None))
}

/// Accuracy-mode scores keyed by everything the prediction + scoring
/// pipeline reads, shared process-wide across chips and backends.
static ACCURACY_SCORES: OnceLock<Mutex<HashMap<String, f64>>> = OnceLock::new();

/// Produces the accuracy score for this run, reusing a previously
/// computed one when the whole prediction pipeline's input is identical.
///
/// This is the only reader of the [`ValidationSet`]. A miss runs
/// [`run_accuracy`] with the set's predictions spread over one thread per
/// core, then [`score_accuracy`]; a segmentation miss runs the device half
/// ([`run_accuracy_advance`]) and folds the predicted maps into
/// per-class counts ([`ValidationSet::segmentation_counts`]) instead of
/// collecting them. A hit replays only the device half. All of them
/// advance the device and write the log identically, and a hit returns
/// the score the miss computed. Hits and misses feed the sweep-cache
/// counters in the [`metrics`] registry.
fn cached_accuracy_score(
    sut: &mut DeviceSut,
    validation: &ValidationSet,
    def: &BenchmarkDef,
    scale: DatasetScale,
    rules: &RunRules,
    log: &mut RunLog,
) -> f64 {
    let dataset_len = validation.len();
    // The scale discriminator is part of the key even though the length
    // already is: super-resolution datasets change *resolution* (not just
    // length) between Full and Reduced, so equal lengths can still mean
    // different data.
    let key = format!(
        "{:?}|{:?}|{:?}|{dataset_len}|{}|{:016x}",
        def.task,
        def.model,
        scale,
        rules.settings.seed,
        validation.target_quality.to_bits()
    );
    let cache = ACCURACY_SCORES.get_or_init(|| Mutex::new(HashMap::new()));
    let cached = cache.lock().unwrap().get(&key).copied();
    if let Some(score) = cached {
        metrics().sweep_hits.inc();
        let _ = run_accuracy_advance(sut, dataset_len, &rules.settings, log);
        return score;
    }
    metrics().sweep_misses.inc();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Segmentation folds each sample's map into per-class counts and
    // drops it, rather than holding the whole set's maps for scoring.
    let score = match validation.segmentation_counts(threads) {
        Some(counts) => {
            let _ = run_accuracy_advance(sut, dataset_len, &rules.settings, log);
            counts.mean_iou(&benchmark_eval_classes())
        }
        None => {
            let acc = run_accuracy(sut, dataset_len, &rules.settings, log, threads, |s| {
                validation.predict(s)
            });
            score_accuracy(&validation.data, &acc.predictions)
        }
    };
    cache.lock().unwrap().insert(key, score);
    score
}

/// Runs one benchmark on an already-planned deployment: compilation and
/// query-plan lowering both happened earlier (the suite runner's caches),
/// so this goes straight to execution. Every harness run, traced or not,
/// takes this path.
///
/// All mutable state (thermal, energy, battery) is created fresh here and
/// the simulated inference is seeded from `rules.settings.seed`, so scores
/// are bit-identical to [`run_benchmark`] for the same inputs
/// (`tests/parallel_determinism.rs` proves fresh == planned == cached).
///
/// With `trace` set, the run also records a [`BenchmarkTrace`] and pushes
/// it into the sink. Tracing is purely observational: the score is
/// bit-identical either way.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_benchmark_planned(
    chip: ChipId,
    soc: Arc<Soc>,
    planned: PlannedDeployment,
    def: &BenchmarkDef,
    rules: &RunRules,
    scale: DatasetScale,
    mix: ScenarioMix,
    trace: Option<&TraceCollector>,
) -> BenchmarkScore {
    let traced = trace.is_some();
    let backend_id = planned.deployment.backend;
    let scheme = planned.deployment.scheme;
    let accelerator = planned.deployment.accelerator_summary(&soc);
    // Host-side self-observability: the cell label feeds the `/runs`
    // board either way, the span only materializes while recording is on.
    // None of this touches simulated time or scores.
    let run_started = std::time::Instant::now();
    let cell_label = format!("{chip}/{:?}/{backend_id}", def.task);
    let _cell_span = crate::obs::span::span(crate::obs::span::Phase::Cell, || cell_label.clone());
    // The cell's device and every search probe are fresh devices minted
    // from the shared plans (a few `Arc` bumps each).
    let new_device = || DeviceSut::with_plans(Arc::clone(&soc), planned.clone(), rules.ambient_c);
    let mut sut = new_device();
    if let Some(soc_level) = rules.battery_soc {
        sut.state.battery = Some(BatteryState::new(BatterySpec::default(), soc_level));
    }
    let validation = ValidationSet::new(def, scheme, scale, rules.settings.seed);
    let dataset_len = validation.len();

    // 1. Accuracy mode over the whole validation set. The prediction and
    // scoring half is a pure function of (task, model, scale, dataset
    // length, seed, quality target) — notably *not* of the chip or
    // backend — so a process-wide sweep cache shares the score across
    // deployments while the device-state half still advances every query
    // (thermals must carry into the cooldown and performance phases
    // exactly as in an uncached run).
    let mut accuracy_log = RunLog::new();
    let accuracy = {
        let _span =
            crate::obs::span::span(crate::obs::span::Phase::Calibrate, || cell_label.clone());
        cached_accuracy_score(&mut sut, &validation, def, scale, rules, &mut accuracy_log)
    };

    // 2. Cooldown before the performance run.
    sut.state.thermal.cooldown(rules.cooldown);

    // 3. Single-stream performance.
    let exec_span =
        crate::obs::span::span(crate::obs::span::Phase::Execute, || cell_label.clone());
    let mut log = RunLog::new();
    let energy_before = sut.state.energy.total_joules();
    let mut ss_trace = RunTrace::new();
    let single_stream = run_single_stream(
        &mut sut,
        dataset_len,
        &rules.settings,
        &mut log,
        traced.then_some(&mut ss_trace),
    );
    let ss_joules = sut.state.energy.total_joules() - energy_before;
    let joules_per_query = ss_joules / single_stream.queries as f64;
    let average_power_w = ss_joules / single_stream.duration.as_secs_f64();

    // 4. Offline, after another cooldown.
    let mut offline_trace = RunTrace::new();
    let offline = if mix.offline {
        sut.state.thermal.cooldown(rules.cooldown);
        Some(run_offline_scenario(
            &mut sut,
            dataset_len,
            &rules.settings,
            &mut log,
            traced.then_some(&mut offline_trace),
        ))
    } else {
        None
    };
    drop(exec_span);

    // 5. Server: bisect the maximum Poisson offered load whose p90
    // arrival-to-completion latency meets the per-model bound (3x the
    // single-stream p90 just measured). Every probe runs on a fresh
    // device so one candidate's thermal history cannot leak into the
    // next; the winning probe's log is spliced into the submission log so
    // the checker validates that segment alongside the others.
    let ss_p90_ns = single_stream.latency.as_ref().map_or(0, |l| l.p90_ns).max(1);
    let mut server_trace = None;
    let server = if mix.server {
        let _span = crate::obs::span::span(crate::obs::span::Phase::SearchProbe, || {
            format!("server {cell_label}")
        });
        let target = SimDuration::from_nanos(ss_p90_ns.saturating_mul(SERVER_LATENCY_BOUND_X));
        // Zero-queueing capacity of the device: concurrency lanes each
        // retiring a query per p90. The knee sits below it; bracket past
        // it so the bisection always straddles.
        let capacity =
            rules.settings.server_concurrency.max(1) as f64 / (ss_p90_ns as f64 / 1e9);
        let search = find_max_qps(
            new_device,
            dataset_len,
            &rules.settings,
            target,
            capacity * SERVER_SEARCH_HEADROOM,
        );
        log.append(search.log);
        if traced {
            // Re-run the winning probe traced: same seed, same fresh
            // device, so the result must reproduce exactly.
            let mut t = RunTrace::new();
            let mut probe = new_device();
            let mut probe_log = RunLog::new();
            let replay = run_server(
                &mut probe,
                dataset_len,
                search.result.offered_qps.expect("server result carries its offered load"),
                &rules.settings,
                &mut probe_log,
                Some(&mut t),
            );
            assert_eq!(replay, search.result, "traced server replay must be bit-identical");
            server_trace = Some(t);
        }
        Some(ServerScore {
            max_qps: search.max_passing_qps,
            target_latency_ns: search.target_latency.as_nanos(),
            probes: search.probes,
            result: search.result,
        })
    } else {
        None
    };

    // 6. Multi-stream: search the widest frame whose p90 frame latency
    // fits the fixed frame interval, again on fresh probe devices.
    let mut multi_stream_trace = None;
    let multi_stream = if mix.multi_stream {
        let _span = crate::obs::span::span(crate::obs::span::Phase::SearchProbe, || {
            format!("multi-stream {cell_label}")
        });
        let search = find_max_streams(new_device, dataset_len, &rules.settings);
        log.append(search.log);
        if traced {
            let mut t = RunTrace::new();
            let mut probe = new_device();
            let mut probe_log = RunLog::new();
            let replay = run_multi_stream(
                &mut probe,
                dataset_len,
                search.result.streams.expect("multi-stream result carries its width"),
                &rules.settings,
                &mut probe_log,
                Some(&mut t),
            );
            assert_eq!(replay, search.result, "traced multi-stream replay must be bit-identical");
            multi_stream_trace = Some(t);
        }
        Some(MultiStreamScore {
            streams: search.streams,
            interval_ns: search.interval.as_nanos(),
            probes: search.probes,
            result: search.result,
        })
    } else {
        None
    };

    metrics().runs_completed.inc();
    metrics().queries_issued.add(single_stream.queries);
    let run_wall = run_started.elapsed();
    crate::obs::pool::run_wall_hist()
        .record(run_wall.as_nanos().min(u128::from(u64::MAX)) as u64);
    crate::obs::pool::runs_board().push(crate::obs::pool::RunEntry {
        label: cell_label,
        wall_ms: run_wall.as_secs_f64() * 1e3,
        queries: single_stream.queries,
    });
    if let Some(sink) = trace {
        let energy = RunEnergy::capture(
            &sut.soc,
            &sut.state,
            &ss_trace,
            ss_joules,
            single_stream.duration,
            single_stream.queries,
        );
        let trace = BenchmarkTrace {
            chip,
            task: def.task,
            backend: backend_id,
            single_stream: ss_trace,
            offline: mix.offline.then_some(offline_trace),
            server: server_trace,
            multi_stream: multi_stream_trace,
            energy,
        };
        metrics().throttled_queries.add(trace.throttled_queries());
        metrics().throttle_events.add(trace.throttle_events());
        sink.push(trace);
    }

    let violations = check_log(&log, &rules.settings);
    let power_saving_entered = sut
        .state
        .battery
        .as_ref()
        .is_some_and(soc_sim::battery::BatteryState::power_saving);
    let quality_target = def.quality_target();
    BenchmarkScore {
        def: def.clone(),
        chip,
        backend: backend_id,
        scheme,
        accelerator,
        accuracy,
        quality_target,
        accuracy_passed: accuracy >= quality_target,
        single_stream,
        offline,
        server,
        multi_stream,
        violations,
        ambient_compliant: rules.ambient_compliant(),
        joules_per_query,
        average_power_w,
        power_saving_entered,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{suite, SuiteVersion};
    use mobile_backend::backends::Neuron;

    #[test]
    fn classification_benchmark_end_to_end() {
        let def = &suite(SuiteVersion::V1_0)[0];
        let score = run_benchmark(
            ChipId::Dimensity1100,
            &Neuron,
            def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(256),
            ScenarioMix::offline_only(true),
        )
        .unwrap();
        assert!(score.accuracy_passed, "accuracy {} vs target {}", score.accuracy, score.quality_target);
        assert!(score.latency_ms() > 1.0 && score.latency_ms() < 10.0);
        assert!(score.offline.unwrap().throughput_fps > 100.0);
        assert!(score.joules_per_query > 0.0);
    }

    #[test]
    fn hot_ambient_flagged() {
        let def = &suite(SuiteVersion::V1_0)[0];
        let mut rules = RunRules::smoke_test();
        rules.ambient_c = 40.0; // out of the 20-25 °C window
        let score = run_benchmark(
            ChipId::Dimensity1100,
            &Neuron,
            def,
            &rules,
            DatasetScale::Reduced(64),
            ScenarioMix::offline_only(false),
        )
        .unwrap();
        assert!(!score.ambient_compliant);
        assert!(!score.is_valid_submission());
    }

    #[test]
    fn trace_energy_matches_meter_exactly() {
        // The trace's energy accounting is the meter's accumulator
        // verbatim — 0 ULPs — and the per-engine attribution is sane.
        let def = &suite(SuiteVersion::V1_0)[0];
        let soc = Arc::new(ChipId::Dimensity1100.build());
        let deployment =
            Arc::new(Neuron.compile(&def.model.build(), &soc).unwrap());
        let rules = RunRules::smoke_test();
        let mut sut = DeviceSut::new(Arc::clone(&soc), Arc::clone(&deployment), rules.ambient_c);
        let mut log = RunLog::new();
        let mut ss_trace = RunTrace::new();
        let before = sut.state.energy.total_joules();
        let perf = run_single_stream(
            &mut sut,
            64,
            &rules.settings,
            &mut log,
            Some(&mut ss_trace),
        );
        let ss_joules = sut.state.energy.total_joules() - before;
        let energy = RunEnergy::capture(
            &sut.soc,
            &sut.state,
            &ss_trace,
            ss_joules,
            perf.duration,
            perf.queries,
        );
        assert_eq!(
            energy.total_joules.to_bits(),
            sut.state.energy.total_joules().to_bits(),
            "trace energy must be the meter accumulator verbatim"
        );
        assert_eq!(energy.busy_ns, sut.state.energy.busy_time().as_nanos());
        assert!(energy.single_stream_joules > 0.0);
        assert!(!energy.engines.is_empty());
        for e in &energy.engines {
            assert!(e.busy_fraction > 0.0 && e.busy_fraction <= 1.0, "{e:?}");
            assert!(e.joules >= 0.0);
        }
        // Attributed active energy never exceeds the metered single-stream
        // total (rail/idle/transfer power belongs to no engine).
        let attributed: f64 = energy.engines.iter().map(|e| e.joules).sum();
        assert!(attributed <= energy.single_stream_joules * (1.0 + 1e-9));
    }

    #[test]
    fn smoke_runs_fail_real_rules() {
        // Smoke-scale runs violate query-count/duration rules — the
        // checker must notice, so nobody can submit shortened runs.
        let def = &suite(SuiteVersion::V1_0)[0];
        let mut rules = RunRules::smoke_test();
        rules.settings = TestSettings::default();
        rules.settings.min_query_count = 1024;
        // Deliberately cut the duration requirement into the run settings
        // mismatch: run with smoke settings but check against defaults.
        let score = run_benchmark(
            ChipId::Dimensity1100,
            &Neuron,
            def,
            &RunRules::smoke_test(),
            DatasetScale::Reduced(64),
            ScenarioMix::offline_only(false),
        )
        .unwrap();
        let violations = check_log(&score.log, &rules.settings);
        assert!(!violations.is_empty());
    }
}
