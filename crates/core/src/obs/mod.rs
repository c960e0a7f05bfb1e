//! Harness self-observability: span tracing, shard-merge metrics, pool
//! telemetry, and the live HTTP endpoint.
//!
//! Everything prior to this module observes the *simulated device*
//! ([`loadgen::trace`], [`crate::profile`]); `obs` observes the *harness
//! itself* — the work-stealing runner pool, the compile/plan/calibration
//! cache layers, the report renderers — in real host time. MLPerf
//! LoadGen separates benchmark measurement from harness logging so the
//! harness can be profiled without perturbing scores; this module
//! reproduces that separation one level up, for our own runner.
//!
//! - [`span`](mod@span): hierarchical wall-clock spans (suite → cell →
//!   compile / calibrate / plan / execute / search-probe / report) in
//!   per-thread ring buffers, exported as a Perfetto timeline of the host
//!   run with one track per pool worker (`reproduce --self-profile DIR`),
//! - [`shard`]: per-thread sharded, mergeable latency histograms, so
//!   hot-path recording never contends,
//! - [`pool`](mod@pool): the process-wide pool-telemetry singletons and
//!   the `pool report` section of `profile_report`,
//! - [`http`]: the hand-rolled `/metrics` + `/healthz` + `/runs`
//!   endpoint (`reproduce --serve ADDR`).
//!
//! The layer is provably bit-invisible to scores: recording is off by
//! default, label formatting is gated behind one relaxed atomic, every
//! read path is non-destructive, and `tests/parallel_determinism.rs`
//! holds a self-profiled, live-scraped suite byte-identical to an
//! unobserved one.

pub mod http;
pub mod pool;
pub mod shard;
pub mod span;

pub use http::{metrics_page, ObsServer};
pub use pool::{pool, pool_report, run_wall_hist, runs_board, RunEntry, RunsBoard};
pub use shard::ShardedHistogram;
pub use span::{
    drain, enabled, self_profile_perfetto_json, set_enabled, set_track, span, HostSpan, Phase,
    SelfProfile, SpanGuard, AUX_TRACK, MAIN_TRACK,
};
