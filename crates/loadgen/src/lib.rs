//! The MLPerf LoadGen (paper Section 4), on a simulated clock.
//!
//! "To enable testing of various inference platforms and use cases, we
//! devised the Load Generator, which creates inference requests in a
//! pattern and measures some parameters." This crate reproduces it:
//! scenario-driven query generation (single-stream, offline, server,
//! multi-stream), seeded sample selection, performance and accuracy modes,
//! run-rule enforcement (1024 samples / 60 s / 24 576-sample bursts /
//! frame accounting), structured logging, and the submission checker that
//! validates logs. The server and multi-stream scenarios overlap
//! in-flight queries on exact discrete-event walks ([`run`]): a cursor
//! over the seeded Poisson arrivals ([`event`]) merged with the in-flight
//! completions, and a plain loop over frames, so every run is
//! bit-reproducible without an event queue.
//!
//! Submitter modification of the LoadGen is forbidden by the rules; here
//! that invariant is structural — SUTs only see the [`sut::SystemUnderTest`]
//! trait. That trait is the device alone: it returns latencies, never
//! predictions, so performance mode cannot synthesize responses it would
//! throw away. Accuracy mode ([`run::run_accuracy`]) advances the device
//! over the validation set and takes each sample's prediction from a
//! separate function, as MLPerf's LoadGen scores responses only in
//! accuracy mode.
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
pub use event::PoissonIssuer;
pub use log::{LogRecord, RunLog};
pub use run::{
    find_max_qps, find_max_streams, performance_sample_set, run_accuracy, run_accuracy_advance,
    run_multi_stream, run_offline_scenario, run_server, run_single_stream, AccuracyResult,
    PerformanceResult, QpsSearch, StreamSearch,
};
pub use scenario::{Scenario, TestMode, TestSettings};
pub use sut::{ConstantSut, SystemUnderTest};
pub use trace::{BurstSpan, QuerySpan, QueryTelemetry, RunTrace, StageTelemetry};
