//! `mlperf-mobile` — a Rust reproduction of the MLPerf Mobile inference
//! benchmark (MLSys 2022).
//!
//! This is the top-level harness tying the substrates together:
//!
//! - [`task`]: the Table 1 suite (tasks, reference models, quality gates),
//! - [`sut_impl`]: the device SUT running a compiled backend deployment
//!   on a simulated SoC, and the synthetic validation set accuracy mode
//!   predicts over,
//! - [`sim_infer`]: the statistical quality model producing predictions
//!   that the real metrics score,
//! - [`harness`]: the accuracy-then-performance run flow with run rules,
//! - [`app`]: the full-suite "mobile app" with per-vendor backend
//!   selection (Table 2),
//! - [`runner`]: the parallel suite runner with compilation caching
//!   (bit-identical to the serial app, many times faster on a sweep),
//! - [`metrics`](mod@metrics): the process-wide metrics registry and the
//!   trace collector behind `SuiteRunner::with_trace`,
//! - [`profile`]: trace analysis & export — Perfetto timelines, engine
//!   occupancy and energy attribution, Prometheus exposition,
//! - [`obs`]: harness self-observability — wall-clock span tracing of
//!   the runner pool, sharded streaming metrics, and the live `/metrics`
//!   HTTP endpoint,
//! - [`fleet`]: fleet-scale population sweeps — millions of sampled
//!   field devices streamed through the batched lockstep executor into
//!   sharded percentile histograms,
//! - [`tuning`]: the heuristic-vs-optimal scheduling-gap artifact —
//!   the schedule auto-tuner run over the benchmark matrix, quantifying
//!   what vendor placement heuristics leave on the table,
//! - [`audit`](mod@audit): submission validation and independent
//!   reproduction (Section 6.2),
//! - [`related`]: the Table 4 comparison matrix,
//! - [`report`]: plain-text result rendering.
//!
//! # Examples
//!
//! ```no_run
//! use mlperf_mobile::app::{run_suite, AppConfig};
//! use mlperf_mobile::sut_impl::DatasetScale;
//! use mlperf_mobile::task::SuiteVersion;
//! use soc_sim::catalog::ChipId;
//!
//! let report = run_suite(
//!     ChipId::Dimensity1100,
//!     SuiteVersion::V1_0,
//!     &AppConfig::default(),
//!     DatasetScale::Full,
//! )?;
//! println!("{}", mlperf_mobile::report::format_report(&report));
//! # Ok::<(), mobile_backend::backend::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ai_tax;
pub mod app;
pub mod audit;
pub mod extensions;
pub mod fleet;
pub mod harness;
pub mod metrics;
pub mod obs;
pub mod profile;
pub mod related;
pub mod report;
pub mod runner;
pub mod sim_infer;
pub mod submission;
pub mod sut_impl;
pub mod task;
pub mod tuning;

pub use app::{run_suite, submission_backend, AppConfig, SuiteReport};
pub use ai_tax::{host_stage_time, EndToEndSut};
pub use extensions::{extended_suite, extension_defs};
pub use fleet::{
    fleet_report_text, render_fleet_report, run_fleet, FleetConfig, FleetReport, FleetUnitMemo,
};
pub use submission::{Date, SubmissionEntry, SubmissionRegistry};
pub use audit::{audit, AuditFinding, AuditReport, SubmissionPackage};
pub use harness::{run_benchmark, BenchmarkScore, BenchmarkTrace, RunRules};
pub use harness::{EngineActivity, RunEnergy};
pub use metrics::{metrics, MetricsRegistry, MetricsSnapshot, SpecTiming, TraceCollector};
pub use obs::{ObsServer, SelfProfile};
pub use profile::{
    benchmark_perfetto_json, profile_report, prometheus_exposition, ArtifactTrace, CellProfile,
};
pub use runner::{par_map, CompileCache, RunSpec, SuiteRunner};
pub use sut_impl::{DatasetScale, DeviceSut, Prediction, TaskData, ValidationSet};
pub use task::{suite, BenchmarkDef, SuiteVersion, Task};
pub use tuning::{render_tuning_report, run_tuning, tuning_report_text, TuningConfig, TuningReport};
