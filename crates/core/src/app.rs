//! The "MLPerf Mobile app": runs the whole suite on a device in the
//! prescribed order with per-vendor backend selection (paper Appendix A
//! and Table 2), producing a submission-shaped report.

use crate::harness::{BenchmarkScore, RunRules};
use crate::runner::SuiteRunner;
use crate::sut_impl::DatasetScale;
use crate::task::{SuiteVersion, Task};
use mobile_backend::backend::{BackendId, CompileError};
use mobile_backend::tune::TunerConfig;
use serde::{Deserialize, Serialize};
use soc_sim::catalog::ChipId;

/// The backend a competitive submission uses for a given task — the
/// configuration matrix of paper Table 2.
///
/// Vendors use their SDK for vision; for NLP, MediaTek and Qualcomm use the
/// TFLite GPU delegate while Samsung's ENN drives the GPU itself; laptops
/// use OpenVINO everywhere. MediaTek's v0.7 vision path went through NNAPI
/// (`neuron-ann`), upgraded to the Neuron delegate in v1.0 (Table 3).
#[must_use]
pub fn submission_backend(chip: ChipId, version: SuiteVersion, task: Task) -> BackendId {
    let soc = chip.build();
    if soc.is_laptop {
        return BackendId::OpenVino;
    }
    match (soc.vendor.as_str(), task) {
        ("MediaTek", Task::QuestionAnswering) => BackendId::TfliteGpu,
        ("MediaTek", _) => match version {
            SuiteVersion::V0_7 => BackendId::Nnapi,
            SuiteVersion::V1_0 => BackendId::Neuron,
        },
        ("Samsung", _) => BackendId::Enn,
        ("Qualcomm", Task::QuestionAnswering) => BackendId::TfliteGpu,
        ("Qualcomm", _) => BackendId::Snpe,
        _ => BackendId::TfliteCpu,
    }
}

/// A full suite run on one device.
#[derive(Debug, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Platform.
    pub chip: ChipId,
    /// Suite version run.
    pub version: SuiteVersion,
    /// Per-task scores, in run order.
    pub scores: Vec<BenchmarkScore>,
}

impl SuiteReport {
    /// Whether every task passed its quality gate and run rules.
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.scores.iter().all(BenchmarkScore::is_valid_submission)
    }

    /// Score lookup by task.
    #[must_use]
    pub fn score(&self, task: Task) -> Option<&BenchmarkScore> {
        self.scores.iter().find(|s| s.def.task == task)
    }

    /// Serializes the full report (scores, configs, unedited logs) to
    /// pretty JSON — the publishable submission artifact (transparency
    /// requirement, paper Section 8).
    ///
    /// # Panics
    ///
    /// Never for these types.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a published report.
    ///
    /// # Errors
    ///
    /// Returns the JSON error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Options controlling a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppConfig {
    /// Run rules in force.
    pub rules: RunRules,
    /// Whether to run the offline scenario for classification (optional
    /// for submitters, paper Section 7.2).
    pub offline_classification: bool,
    /// Whether to also run the server and multi-stream scenario searches
    /// for classification — the full four-scenario matrix.
    pub scenario_matrix: bool,
    /// When set, every run uses the schedule auto-tuner: per-op engine
    /// assignments are searched (beam + branch-and-bound) instead of
    /// taking the backend's heuristic schedule as-is.
    pub tuner: Option<TunerConfig>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            rules: RunRules::default(),
            offline_classification: true,
            scenario_matrix: false,
            tuner: None,
        }
    }
}

/// Runs the full suite on a device, tasks in the prescribed order, with
/// cooldown between tests, using the per-task submission backends.
///
/// Executes through the parallel [`SuiteRunner`]; results are bit-identical
/// to a serial [`run_benchmark`][crate::harness::run_benchmark] loop (the
/// `suite_integration` tests assert exactly that) because every run owns
/// its mutable state and the shared deployments are immutable.
///
/// # Errors
///
/// Propagates the first backend compilation failure (in task order).
pub fn run_suite(
    chip: ChipId,
    version: SuiteVersion,
    config: &AppConfig,
    scale: DatasetScale,
) -> Result<SuiteReport, CompileError> {
    SuiteRunner::new().suite_report(chip, version, config, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TraceCollector;
    use std::sync::Arc;

    #[test]
    fn table2_backend_matrix() {
        use BackendId::*;
        // Vision rows.
        assert_eq!(
            submission_backend(ChipId::Dimensity820, SuiteVersion::V0_7, Task::ImageClassification),
            Nnapi
        );
        assert_eq!(
            submission_backend(ChipId::Dimensity1100, SuiteVersion::V1_0, Task::ImageClassification),
            Neuron
        );
        assert_eq!(
            submission_backend(ChipId::Exynos990, SuiteVersion::V0_7, Task::ImageSegmentation),
            Enn
        );
        assert_eq!(
            submission_backend(ChipId::Snapdragon865Plus, SuiteVersion::V0_7, Task::ObjectDetection),
            Snpe
        );
        // NLP rows: TFLite GPU delegate except Samsung (ENN) and laptops.
        assert_eq!(
            submission_backend(ChipId::Dimensity820, SuiteVersion::V0_7, Task::QuestionAnswering),
            TfliteGpu
        );
        assert_eq!(
            submission_backend(ChipId::Exynos990, SuiteVersion::V0_7, Task::QuestionAnswering),
            Enn
        );
        assert_eq!(
            submission_backend(ChipId::Snapdragon888, SuiteVersion::V1_0, Task::QuestionAnswering),
            TfliteGpu
        );
        assert_eq!(
            submission_backend(ChipId::CoreI7_1165G7, SuiteVersion::V0_7, Task::QuestionAnswering),
            OpenVino
        );
    }

    #[test]
    fn report_json_round_trips_with_logs() {
        let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: false, scenario_matrix: false, tuner: None };
        let report = run_suite(
            ChipId::Dimensity1100,
            SuiteVersion::V1_0,
            &config,
            DatasetScale::Reduced(32),
        )
        .unwrap();
        let text = report.to_json();
        let parsed = SuiteReport::from_json(&text).unwrap();
        assert_eq!(parsed.scores.len(), report.scores.len());
        for (a, b) in report.scores.iter().zip(parsed.scores.iter()) {
            assert_eq!(a.log, b.log, "unedited logs survive publication");
            assert!((a.latency_ms() - b.latency_ms()).abs() < 1e-12);
        }
    }

    #[test]
    fn full_suite_runs_on_a_phone() {
        let config = AppConfig {
            rules: RunRules::smoke_test(),
            offline_classification: true,
            scenario_matrix: true,
            tuner: None,
        };
        let report =
            run_suite(ChipId::Exynos2100, SuiteVersion::V1_0, &config, DatasetScale::Reduced(48))
                .unwrap();
        assert_eq!(report.scores.len(), 4);
        for s in &report.scores {
            assert!(s.accuracy_passed, "{}: {} < {}", s.def.task, s.accuracy, s.quality_target);
        }
        // Offline and the scenario searches ran for classification only.
        let classification = report.score(Task::ImageClassification).unwrap();
        assert!(classification.offline.is_some());
        assert!(classification.server_qps().unwrap() > 0.0);
        assert!(classification.multi_stream_streams().unwrap() >= 1);
        assert!(report.score(Task::ObjectDetection).unwrap().offline.is_none());
        let qa = report.score(Task::QuestionAnswering).unwrap();
        assert!(qa.server.is_none() && qa.multi_stream.is_none());
    }

    #[test]
    fn traced_suite_is_bit_identical_and_traces_validate() {
        let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: true, scenario_matrix: false, tuner: None };
        let chip = ChipId::Dimensity1100;
        let scale = DatasetScale::Reduced(32);
        let plain = run_suite(chip, SuiteVersion::V1_0, &config, scale).unwrap();
        let sink = Arc::new(TraceCollector::new());
        let traced = SuiteRunner::new()
            .with_trace(Arc::clone(&sink))
            .suite_report(chip, SuiteVersion::V1_0, &config, scale)
            .unwrap();
        let traces = sink.drain();
        assert_eq!(plain.to_json(), traced.to_json(), "tracing must not perturb scores");
        assert_eq!(traces.len(), 4, "one trace per task");
        for trace in &traces {
            trace.validate().unwrap();
            let score = traced.score(trace.task).unwrap();
            assert_eq!(trace.single_stream.span_count(), score.single_stream.queries);
            assert_eq!(trace.offline.is_some(), score.offline.is_some());
        }
    }

    #[test]
    fn laptop_suite_runs_headless() {
        let config = AppConfig {
            rules: RunRules::smoke_test(),
            offline_classification: false,
            scenario_matrix: false,
            tuner: None,
        };
        let report = run_suite(
            ChipId::CoreI7_1165G7,
            SuiteVersion::V0_7,
            &config,
            DatasetScale::Reduced(48),
        )
        .unwrap();
        assert_eq!(report.scores.len(), 4);
        // All laptop submissions are INT8 (paper Insight 4).
        for s in &report.scores {
            assert!(s.scheme.is_quantized(), "{}: {}", s.def.task, s.scheme);
        }
    }
}
