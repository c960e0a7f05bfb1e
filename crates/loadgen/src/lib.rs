//! The MLPerf LoadGen (paper Section 4), on a simulated clock.
//!
//! "To enable testing of various inference platforms and use cases, we
//! devised the Load Generator, which creates inference requests in a
//! pattern and measures some parameters." This crate reproduces it:
//! scenario-driven query generation (single-stream, offline, server,
//! multi-stream), seeded sample selection, performance and accuracy modes,
//! run-rule enforcement (1024 samples / 60 s / 24 576-sample bursts /
//! frame accounting), structured logging, and the submission checker that
//! validates logs. The server and multi-stream scenarios run on a
//! deterministic discrete-event executor ([`event`]) so overlapping
//! in-flight queries stay bit-reproducible.
//!
//! Submitter modification of the LoadGen is forbidden by the rules; here
//! that invariant is structural — SUTs only see the [`sut::SystemUnderTest`]
//! trait.
//!
//! # Examples
//!
//! ```
//! use loadgen::run::run_single_stream;
//! use loadgen::scenario::TestSettings;
//! use loadgen::sut::ConstantSut;
//! use loadgen::log::RunLog;
//! use soc_sim::time::SimDuration;
//!
//! let mut sut = ConstantSut::new(SimDuration::from_millis(5));
//! let mut log = RunLog::new();
//! let result = run_single_stream(&mut sut, 1000, &TestSettings::default(), &mut log, None);
//! assert!(result.queries >= 1024);
//! assert!(result.duration >= SimDuration::from_secs(60));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod checker;
pub mod event;
pub mod log;
pub mod par;
pub mod run;
pub mod scenario;
pub mod sut;
pub mod trace;

pub use checker::{check_log, Violation};
pub use event::{EventQueue, PoissonIssuer};
pub use log::{LogRecord, RunLog};
pub use run::{
    find_max_qps, find_max_streams, performance_sample_set, run_accuracy, run_accuracy_advance,
    run_accuracy_parallel, run_multi_stream, run_offline_scenario, run_server, run_single_stream,
    run_single_stream_batched, AccuracyResult, PerformanceResult, QpsSearch, StreamSearch,
};
pub use scenario::{Scenario, TestMode, TestSettings};
pub use sut::{BatchSut, ConstantBatchSut, ConstantSut, SplitQuery, SystemUnderTest};
pub use trace::{BurstSpan, QuerySpan, QueryTelemetry, RunTrace, StageTelemetry};
