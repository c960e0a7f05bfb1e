//! End-to-end measurement: the "AI tax" of pre- and post-processing.
//!
//! Paper Appendix E: "user-perceived latency includes often includes pre-
//! and post-processing overheads, and it has been shown to be
//! non-negligible (Buch et al., 2021a). In the future, we may consider
//! extending the scope of measurements." This module implements that
//! extension: a cost model for the stages *outside* the model graph
//! (image decode/resize/normalize, tokenization, output formatting),
//! always executed by the CPU, plus a SUT wrapper that folds them into
//! every query. The wrapper adds host time only: the device's telemetry,
//! its DVFS reading and idle cooling pass straight through to the wrapped
//! [`DeviceSut`], and offline bursts stay at the trait's default of
//! sequential queries.

use crate::sut_impl::DeviceSut;
use crate::task::Task;
use loadgen::sut::SystemUnderTest;
use loadgen::trace::QueryTelemetry;
use serde::{Deserialize, Serialize};
use soc_sim::soc::Soc;
use soc_sim::time::SimDuration;

/// Estimated CPU work (flops-equivalent) of the host-side stages per task.
///
/// Derived from the reference preprocessing pipelines (paper Section 4.1):
/// bilinear resize ~ 12 ops/output value, crop/copy ~ 2, normalize ~ 2,
/// JPEG-ish decode ~ 25 ops/pixel; tokenization ~ 2k ops/token;
/// post-processing covers argmax/top-k or output assembly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostStages {
    /// Pre-processing work in flops-equivalent.
    pub preprocess_flops: u64,
    /// Post-processing work in flops-equivalent.
    pub postprocess_flops: u64,
}

/// Host-stage cost model per task.
#[must_use]
pub fn host_stages(task: Task) -> HostStages {
    let px = |h: usize, w: usize| (h * w * 3) as u64;
    match task {
        Task::ImageClassification => HostStages {
            // Decode + resize(256) + crop(224) + normalize.
            preprocess_flops: px(256, 256) * 25 + px(224, 224) * 16,
            // Top-1 over 1001 logits.
            postprocess_flops: 2 * 1001,
        },
        Task::ObjectDetection => HostStages {
            preprocess_flops: px(480, 640) * 25 + px(320, 320) * 14,
            // Box list formatting (NMS itself is in the graph).
            postprocess_flops: 100 * 64,
        },
        Task::ImageSegmentation => HostStages {
            preprocess_flops: px(512, 683) * 25 + px(512, 512) * 14,
            // Per-pixel argmax over 32 classes.
            postprocess_flops: (512 * 512 * 32) as u64,
        },
        Task::QuestionAnswering => HostStages {
            // WordPiece tokenization of the passage + question.
            preprocess_flops: 384 * 2_000,
            // Span argmax + detokenization.
            postprocess_flops: 384 * 64,
        },
        Task::SpeechRecognition => HostStages {
            // Log-mel feature extraction: FFT-ish ~ 5k ops per frame.
            preprocess_flops: 300 * 5_000,
            postprocess_flops: 25 * 2_000, // decode lattice to words
        },
        Task::SuperResolution => HostStages {
            preprocess_flops: px(360, 640) * 25,
            // Clamp + format the 720p output.
            postprocess_flops: px(720, 1280) * 4,
        },
    }
}

/// Simulated duration of the host stages on the SoC's CPU.
///
/// Host code is scalar-ish: we charge it at the CPU's FP32 rate with the
/// CPU's generic efficiency.
#[must_use]
pub fn host_stage_time(task: Task, soc: &Soc) -> (SimDuration, SimDuration) {
    let cpu = soc.engine(soc.cpu());
    let rate = cpu.peak_ops(nn_graph::DataType::F32) * 0.25;
    let stages = host_stages(task);
    (
        SimDuration::from_secs_f64(stages.preprocess_flops as f64 / rate),
        SimDuration::from_secs_f64(stages.postprocess_flops as f64 / rate),
    )
}

/// A SUT wrapper measuring end-to-end latency: host pre-processing + model
/// inference + host post-processing per query.
#[derive(Debug)]
pub struct EndToEndSut {
    inner: DeviceSut,
    task: Task,
    preprocess: SimDuration,
    postprocess: SimDuration,
}

impl EndToEndSut {
    /// Wraps a device SUT for the given task.
    #[must_use]
    pub fn new(inner: DeviceSut, task: Task) -> Self {
        let (preprocess, postprocess) = host_stage_time(task, &inner.soc);
        EndToEndSut { inner, task, preprocess, postprocess }
    }

    /// The wrapped device SUT.
    #[must_use]
    pub fn inner(&self) -> &DeviceSut {
        &self.inner
    }

    /// Host overhead added to every query.
    #[must_use]
    pub fn host_overhead(&self) -> SimDuration {
        self.preprocess + self.postprocess
    }

    /// The fraction of end-to-end latency spent outside the model for a
    /// given model-only latency.
    #[must_use]
    pub fn tax_fraction(&self, model_latency: SimDuration) -> f64 {
        let host = self.host_overhead().as_secs_f64();
        host / (host + model_latency.as_secs_f64())
    }
}

impl SystemUnderTest for EndToEndSut {
    fn issue_query(&mut self, sample_index: usize) -> SimDuration {
        self.preprocess + self.inner.issue_query(sample_index) + self.postprocess
    }

    fn last_telemetry(&self) -> Option<QueryTelemetry> {
        self.inner.last_telemetry()
    }

    fn last_dvfs(&self) -> Option<(f64, f64)> {
        self.inner.last_dvfs()
    }

    fn idle(&mut self, dt: SimDuration) {
        self.inner.idle(dt);
    }

    fn description(&self) -> String {
        format!("{} (end-to-end, {})", self.inner.description(), self.task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{suite, SuiteVersion};
    use mobile_backend::backend::Backend;
    use mobile_backend::backends::Neuron;
    use soc_sim::catalog::ChipId;

    fn e2e(task_index: usize) -> (EndToEndSut, SimDuration) {
        let soc = ChipId::Dimensity1100.build();
        let def = &suite(SuiteVersion::V1_0)[task_index];
        let deployment = Neuron.compile(&def.model.build(), &soc).unwrap();
        let mut inner = DeviceSut::new(soc, deployment, 22.0);
        let model_latency = inner.issue_query(0);
        (EndToEndSut::new(inner, def.task), model_latency)
    }

    #[test]
    fn end_to_end_exceeds_model_only() {
        let (mut sut, model_latency) = e2e(0);
        let total = sut.issue_query(0);
        assert!(total > model_latency);
        assert_eq!(total, model_latency + sut.host_overhead());
    }

    #[test]
    fn wrapper_forwards_device_telemetry_and_cooldown() {
        // Segmentation heats the die, so both the telemetry and the
        // cooldown have something to show.
        let (mut sut, _) = e2e(2);
        for s in 0..200 {
            let _ = sut.issue_query(s);
        }
        // The throttle log's DVFS reading comes straight from the device:
        // a wrapper that left it to the trait default would rebuild a
        // whole telemetry record per query to derive it.
        let dvfs = sut.last_dvfs();
        assert!(dvfs.is_some(), "the run loops read the DVFS pair through the wrapper");
        assert_eq!(dvfs, sut.inner().last_dvfs());
        assert_eq!(sut.inner().telemetry_rebuilds(), 0, "the wrapper must forward last_dvfs");
        let telemetry = sut.last_telemetry();
        assert!(telemetry.is_some(), "the run loops read device telemetry through the wrapper");
        assert_eq!(telemetry, sut.inner().last_telemetry());
        let hot = sut.inner().state.thermal.temperature_c();
        sut.idle(SimDuration::from_secs(60));
        let cooled = sut.inner().state.thermal.temperature_c();
        assert!(cooled < hot, "a 60 s idle gap must cool the wrapped device: {hot} -> {cooled}");
    }

    #[test]
    fn classification_tax_is_non_negligible() {
        // Buch et al. (cited by the paper): the AI tax is non-negligible —
        // for a ~2 ms classifier, host stages are several percent.
        let (sut, model_latency) = e2e(0);
        let tax = sut.tax_fraction(model_latency);
        assert!(
            (0.02..0.60).contains(&tax),
            "classification tax {tax:.3} should be a visible fraction"
        );
    }

    #[test]
    fn tax_shrinks_for_heavy_models() {
        let (cls_sut, cls_lat) = e2e(0);
        let (seg_sut, seg_lat) = e2e(2);
        assert!(
            cls_sut.tax_fraction(cls_lat) > seg_sut.tax_fraction(seg_lat),
            "relative tax must fall as model time grows"
        );
    }

    #[test]
    fn every_task_has_host_stages() {
        let soc = ChipId::Snapdragon888.build();
        for task in Task::ALL.into_iter().chain(Task::EXTENSIONS) {
            let (pre, post) = host_stage_time(task, &soc);
            assert!(pre > SimDuration::ZERO, "{task} preprocess");
            assert!(post > SimDuration::ZERO, "{task} postprocess");
        }
    }
}
