//! Pool telemetry singletons and the pool report.
//!
//! The runner's `par_map` records per-worker busy/steal/queue counters
//! into one process-wide [`PoolTelemetry`] block; every benchmark run
//! records its host wall-clock into a [`ShardedHistogram`] and a line on
//! the [`RunsBoard`] (the `/runs` JSON feed). All of it is host-side:
//! nothing here touches simulated time or scores, and recording is
//! lock-free or per-shard so it never serializes pool workers.
//!
//! [`pool_report`] renders the "pool report" block `profile_report`
//! appends: the worker occupancy table (the paper's harness-side analogue
//! of per-engine occupancy) plus per-cache-layer hit rates.

use crate::metrics::MetricsSnapshot;
use crate::obs::shard::ShardedHistogram;
use loadgen::par::{PoolSnapshot, PoolTelemetry};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// The process-wide pool telemetry block every `par_map` pass records
/// into.
#[must_use]
pub fn pool() -> &'static PoolTelemetry {
    static POOL: OnceLock<PoolTelemetry> = OnceLock::new();
    POOL.get_or_init(PoolTelemetry::new)
}

/// The process-wide histogram of host wall-clock per benchmark run (ns),
/// sharded so concurrent pool workers record without contention.
#[must_use]
pub fn run_wall_hist() -> &'static ShardedHistogram {
    static HIST: OnceLock<ShardedHistogram> = OnceLock::new();
    HIST.get_or_init(ShardedHistogram::new)
}

/// One completed benchmark run, as served by `/runs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEntry {
    /// Cell label (`chip/task/backend`).
    pub label: String,
    /// Host wall-clock the run took (ms).
    pub wall_ms: f64,
    /// Performance queries the run issued.
    pub queries: u64,
}

/// Most runs the board retains; older entries roll off.
pub const RUNS_BOARD_CAP: usize = 1024;

/// A bounded, process-wide log of completed benchmark runs — the backing
/// store of the `/runs` endpoint. Appends drop the oldest entry past
/// [`RUNS_BOARD_CAP`]; `total` keeps counting.
#[derive(Debug, Default)]
pub struct RunsBoard {
    entries: Mutex<(Vec<RunEntry>, u64)>,
}

impl RunsBoard {
    /// Appends one completed run.
    pub fn push(&self, entry: RunEntry) {
        let mut guard = self.entries.lock().unwrap();
        let (entries, total) = &mut *guard;
        *total += 1;
        if entries.len() == RUNS_BOARD_CAP {
            entries.remove(0);
        }
        entries.push(entry);
    }

    /// The retained entries (oldest first) and the all-time run count.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<RunEntry>, u64) {
        let guard = self.entries.lock().unwrap();
        (guard.0.clone(), guard.1)
    }

    /// Renders the board as the `/runs` JSON document.
    ///
    /// # Panics
    ///
    /// Never for these types.
    #[must_use]
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Doc {
            total: u64,
            retained: usize,
            runs: Vec<RunEntry>,
        }
        let (runs, total) = self.snapshot();
        serde_json::to_string_pretty(&Doc { total, retained: runs.len(), runs })
            .expect("runs board serializes")
    }
}

/// The process-wide runs board.
#[must_use]
pub fn runs_board() -> &'static RunsBoard {
    static BOARD: OnceLock<RunsBoard> = OnceLock::new();
    BOARD.get_or_init(RunsBoard::default)
}

fn rate(hits: usize, misses: usize) -> String {
    let total = hits + misses;
    if total == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", hits as f64 * 100.0 / total as f64)
    }
}

/// Renders the pool report: per-worker occupancy (tasks, busy time, share
/// of total busy time, steals) and the hit rate of each cache layer
/// (compile, plan, sweep, tuned). Pure function of its inputs,
/// deterministic bytes.
#[must_use]
pub fn pool_report(pool: &PoolSnapshot, metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("pool report\n");
    if pool.workers.is_empty() {
        out.push_str("  no pool passes recorded\n");
    } else {
        let total_busy = pool.total_busy_ns().max(1);
        let _ = writeln!(
            out,
            "  {} par_map calls, {} tasks, {} steals ({:.1}% of tasks), queue high-water {}",
            pool.calls,
            pool.total_tasks(),
            pool.total_steals(),
            pool.total_steals() as f64 * 100.0 / pool.total_tasks().max(1) as f64,
            pool.max_queue_depth,
        );
        let _ = writeln!(out, "  {:<10} {:>8} {:>12} {:>7} {:>8}", "worker", "tasks", "busy_ms", "share", "steals");
        for w in &pool.workers {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>12.3} {:>6.1}% {:>8}",
                format!("worker-{}", w.worker),
                w.tasks,
                w.busy_ns as f64 / 1e6,
                w.busy_ns as f64 * 100.0 / total_busy as f64,
                w.steals,
            );
        }
    }
    out.push_str("  cache layers:\n");
    for (layer, hits, misses) in [
        ("compile", metrics.compile_hits, metrics.compile_misses),
        ("plan", metrics.plan_hits, metrics.plan_misses),
        ("sweep", metrics.sweep_hits, metrics.sweep_misses),
        ("tuned", metrics.tuned_hits, metrics.tuned_misses),
    ] {
        let _ = writeln!(
            out,
            "    {layer:<7} {:>6} hit rate ({hits} hits / {misses} misses)",
            rate(hits, misses),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn runs_board_caps_retention_but_counts_all() {
        let board = RunsBoard::default();
        for i in 0..(RUNS_BOARD_CAP + 10) {
            board.push(RunEntry { label: format!("run-{i}"), wall_ms: 1.0, queries: 5 });
        }
        let (entries, total) = board.snapshot();
        assert_eq!(total, (RUNS_BOARD_CAP + 10) as u64);
        assert_eq!(entries.len(), RUNS_BOARD_CAP);
        assert_eq!(entries[0].label, "run-10", "oldest entries roll off");
        let json = board.to_json();
        assert!(json.contains("\"total\""));
        assert!(json.contains("run-10"));
    }

    #[test]
    fn pool_report_renders_workers_and_cache_rates() {
        let telemetry = PoolTelemetry::new();
        telemetry.record_call();
        telemetry.record_task(0, Duration::from_micros(300), false);
        telemetry.record_task(1, Duration::from_micros(100), true);
        telemetry.set_queue_depth(7);
        let metrics = MetricsSnapshot {
            compile_hits: 3,
            compile_misses: 1,
            plan_hits: 0,
            plan_misses: 0,
            tuned_hits: 1,
            tuned_misses: 3,
            ..MetricsSnapshot::default()
        };
        let report = pool_report(&telemetry.snapshot(), &metrics);
        assert!(report.contains("pool report"));
        assert!(report.contains("worker-0"));
        assert!(report.contains("worker-1"));
        assert!(report.contains("1 steals"));
        assert!(report.contains("queue high-water 7"));
        assert!(report.contains("compile  75.0% hit rate (3 hits / 1 misses)"));
        assert!(report.contains("plan         - hit rate"), "no lookups renders a dash:\n{report}");
        assert!(report.contains("tuned    25.0% hit rate (1 hits / 3 misses)"), "{report}");
        // Deterministic bytes.
        assert_eq!(report, pool_report(&telemetry.snapshot(), &metrics));
    }

    #[test]
    fn empty_pool_report_still_renders() {
        let report = pool_report(&PoolSnapshot::default(), &MetricsSnapshot::default());
        assert!(report.contains("no pool passes recorded"));
        assert!(report.contains("cache layers:"));
    }
}
