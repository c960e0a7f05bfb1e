//! Process-wide metrics registry and trace collection.
//!
//! Every layer of the measurement stack reports here: the
//! [`CompileCache`][crate::runner::CompileCache] reports hit/miss
//! counters, the [`SuiteRunner`][crate::runner::SuiteRunner] reports
//! per-spec wall-clock, and the harness reports run/query counts plus
//! thermal-throttle statistics extracted from run traces. A
//! [`MetricsSnapshot`] taken before and after a workload yields the delta
//! attributable to it — the `reproduce --trace` flag uses exactly this to
//! annotate each artifact.
//!
//! Recording is lock-free for counters (relaxed atomics) and never feeds
//! back into the simulation, so instrumented runs stay bit-identical to
//! uninstrumented ones.

use crate::harness::BenchmarkTrace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Wall-clock spent executing one run spec (one benchmark-matrix cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecTiming {
    /// `chip/task/backend` label of the spec.
    pub label: String,
    /// Host wall-clock the run took, in milliseconds.
    pub wall_ms: f64,
}

/// A point-in-time copy of every registry counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Deployment lookups answered from a compile cache.
    pub compile_hits: usize,
    /// Deployment lookups that triggered a compile.
    pub compile_misses: usize,
    /// Query-plan lookups answered from a plan cache.
    pub plan_hits: usize,
    /// Query-plan lookups that triggered a plan compilation.
    pub plan_misses: usize,
    /// Fleet devices fully simulated (sampled, executed or replayed,
    /// and scored) by the fleet executor.
    pub fleet_devices_simulated: u64,
    /// Fleet lane-queries that shared another lane's op-array walk
    /// (dispatch-frequency bits deduplicated within a wave step).
    pub fleet_lanes_deduped: u64,
    /// Sweep-engine lookups (accuracy scores, delta re-lowerings,
    /// steady-state replays) answered from a sweep cache.
    pub sweep_hits: usize,
    /// Sweep-engine lookups that had to do the full computation.
    pub sweep_misses: usize,
    /// Benchmark runs completed (accuracy + performance flows).
    pub runs_completed: usize,
    /// Performance queries issued across all runs.
    pub queries_issued: u64,
    /// Queries dispatched while the device was throttled (traced runs
    /// only — untraced runs don't observe per-query DVFS state).
    pub throttled_queries: u64,
    /// Transitions into throttling along traced span timelines.
    pub throttle_events: u64,
    /// Tuned-schedule lookups answered from the tuned compile cache.
    pub tuned_hits: usize,
    /// Tuned-schedule lookups that ran the auto-tuner search.
    pub tuned_misses: usize,
    /// Complete schedule candidates exactly evaluated by the auto-tuner.
    pub tuner_candidates: u64,
    /// Partial assignments eliminated by the tuner's admissible bound.
    pub tuner_pruned: u64,
}

impl MetricsSnapshot {
    /// The counter deltas accumulated since `earlier` was taken.
    ///
    /// Uses saturating arithmetic so a stale baseline can never underflow.
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            compile_hits: self.compile_hits.saturating_sub(earlier.compile_hits),
            compile_misses: self.compile_misses.saturating_sub(earlier.compile_misses),
            plan_hits: self.plan_hits.saturating_sub(earlier.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(earlier.plan_misses),
            fleet_devices_simulated: self
                .fleet_devices_simulated
                .saturating_sub(earlier.fleet_devices_simulated),
            fleet_lanes_deduped: self.fleet_lanes_deduped.saturating_sub(earlier.fleet_lanes_deduped),
            sweep_hits: self.sweep_hits.saturating_sub(earlier.sweep_hits),
            sweep_misses: self.sweep_misses.saturating_sub(earlier.sweep_misses),
            runs_completed: self.runs_completed.saturating_sub(earlier.runs_completed),
            queries_issued: self.queries_issued.saturating_sub(earlier.queries_issued),
            throttled_queries: self.throttled_queries.saturating_sub(earlier.throttled_queries),
            throttle_events: self.throttle_events.saturating_sub(earlier.throttle_events),
            tuned_hits: self.tuned_hits.saturating_sub(earlier.tuned_hits),
            tuned_misses: self.tuned_misses.saturating_sub(earlier.tuned_misses),
            tuner_candidates: self.tuner_candidates.saturating_sub(earlier.tuner_candidates),
            tuner_pruned: self.tuner_pruned.saturating_sub(earlier.tuner_pruned),
        }
    }
}

/// The process-wide registry. Obtain it via [`metrics`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    compile_hits: AtomicUsize,
    compile_misses: AtomicUsize,
    plan_hits: AtomicUsize,
    plan_misses: AtomicUsize,
    fleet_devices_simulated: AtomicU64,
    fleet_lanes_deduped: AtomicU64,
    sweep_hits: AtomicUsize,
    sweep_misses: AtomicUsize,
    runs_completed: AtomicUsize,
    queries_issued: AtomicU64,
    throttled_queries: AtomicU64,
    throttle_events: AtomicU64,
    tuned_hits: AtomicUsize,
    tuned_misses: AtomicUsize,
    tuner_candidates: AtomicU64,
    tuner_pruned: AtomicU64,
    spec_wall: Mutex<Vec<SpecTiming>>,
}

impl MetricsRegistry {
    /// Records one compile-cache hit.
    pub fn record_compile_hit(&self) {
        self.compile_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one compile-cache miss (a real compile).
    pub fn record_compile_miss(&self) {
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one plan-cache hit.
    pub fn record_plan_hit(&self) {
        self.plan_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one plan-cache miss (a real plan compilation).
    pub fn record_plan_miss(&self) {
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one processed fleet shard: the devices it scored and the
    /// lane-queries whose op-array walk was deduplicated against another
    /// lane in the same wave step.
    pub fn record_fleet_shard(&self, devices: u64, lanes_deduped: u64) {
        self.fleet_devices_simulated.fetch_add(devices, Ordering::Relaxed);
        self.fleet_lanes_deduped.fetch_add(lanes_deduped, Ordering::Relaxed);
    }

    /// Records one sweep-cache hit (a reused accuracy score, delta
    /// re-lowering, or steady-state replay).
    pub fn record_sweep_hit(&self) {
        self.sweep_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sweep-cache miss (the full computation ran).
    pub fn record_sweep_miss(&self) {
        self.sweep_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed benchmark run and its query volume.
    pub fn record_run(&self, queries: u64) {
        self.runs_completed.fetch_add(1, Ordering::Relaxed);
        self.queries_issued.fetch_add(queries, Ordering::Relaxed);
    }

    /// Records throttle statistics extracted from a traced run.
    pub fn record_throttling(&self, throttled_queries: u64, throttle_events: u64) {
        self.throttled_queries.fetch_add(throttled_queries, Ordering::Relaxed);
        self.throttle_events.fetch_add(throttle_events, Ordering::Relaxed);
    }

    /// Records one tuned-schedule cache hit.
    pub fn record_tuned_hit(&self) {
        self.tuned_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one tuned-schedule cache miss (a real tuner search).
    pub fn record_tuned_miss(&self) {
        self.tuned_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed tuner search: the complete candidates it
    /// evaluated exactly and the partials its bound eliminated.
    pub fn record_tuner_search(&self, candidates: u64, pruned: u64) {
        self.tuner_candidates.fetch_add(candidates, Ordering::Relaxed);
        self.tuner_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Records the wall-clock one run spec took.
    ///
    /// # Panics
    ///
    /// Panics if the timing mutex was poisoned by a panicking worker.
    pub fn record_spec_wall(&self, label: String, wall_ms: f64) {
        self.spec_wall.lock().unwrap().push(SpecTiming { label, wall_ms });
    }

    /// A point-in-time copy of every counter.
    ///
    /// Non-destructive: reading a snapshot never changes registry state,
    /// so any number of observers (reports, Prometheus exposition, delta
    /// baselines) can snapshot concurrently without coordinating. The
    /// per-spec wall-clock timings are *not* part of the snapshot — they
    /// are consumed destructively via [`Self::take_spec_timings`], because
    /// each timing entry belongs to exactly one artifact's trace file.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            compile_hits: self.compile_hits.load(Ordering::Relaxed),
            compile_misses: self.compile_misses.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            fleet_devices_simulated: self.fleet_devices_simulated.load(Ordering::Relaxed),
            fleet_lanes_deduped: self.fleet_lanes_deduped.load(Ordering::Relaxed),
            sweep_hits: self.sweep_hits.load(Ordering::Relaxed),
            sweep_misses: self.sweep_misses.load(Ordering::Relaxed),
            runs_completed: self.runs_completed.load(Ordering::Relaxed),
            queries_issued: self.queries_issued.load(Ordering::Relaxed),
            throttled_queries: self.throttled_queries.load(Ordering::Relaxed),
            throttle_events: self.throttle_events.load(Ordering::Relaxed),
            tuned_hits: self.tuned_hits.load(Ordering::Relaxed),
            tuned_misses: self.tuned_misses.load(Ordering::Relaxed),
            tuner_candidates: self.tuner_candidates.load(Ordering::Relaxed),
            tuner_pruned: self.tuner_pruned.load(Ordering::Relaxed),
        }
    }

    /// Removes and returns every per-spec wall-clock entry recorded so
    /// far, sorted by label for deterministic output.
    ///
    /// Destructive drain, in contrast to the non-destructive
    /// [`Self::snapshot`]: each [`SpecTiming`] is handed out exactly once,
    /// so per-artifact trace files partition the timings instead of
    /// repeating them. The drain swaps the buffer out under the same lock
    /// [`Self::record_spec_wall`] appends under, so a record racing a
    /// drain lands either in that drain's batch or in the next one — never
    /// in both, never in neither (the concurrency test below holds this).
    ///
    /// # Panics
    ///
    /// Panics if the timing mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn take_spec_timings(&self) -> Vec<SpecTiming> {
        let mut timings = std::mem::take(&mut *self.spec_wall.lock().unwrap());
        timings.sort_by(|a, b| a.label.cmp(&b.label));
        timings
    }
}

/// The process-wide [`MetricsRegistry`] singleton.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// A thread-safe sink for [`BenchmarkTrace`]s, attachable to a
/// [`SuiteRunner`][crate::runner::SuiteRunner] via `with_trace` or passed
/// to one run as the `trace` argument of
/// [`run_benchmark_planned`][crate::harness::run_benchmark_planned].
#[derive(Debug, Default)]
pub struct TraceCollector {
    traces: Mutex<Vec<BenchmarkTrace>>,
}

impl TraceCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Appends one benchmark trace.
    ///
    /// # Panics
    ///
    /// Panics if the collector mutex was poisoned by a panicking worker.
    pub fn push(&self, trace: BenchmarkTrace) {
        self.traces.lock().unwrap().push(trace);
    }

    /// Removes and returns every collected trace, sorted by label so the
    /// output is independent of worker scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the collector mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn drain(&self) -> Vec<BenchmarkTrace> {
        let mut traces = std::mem::take(&mut *self.traces.lock().unwrap());
        traces.sort_by_key(BenchmarkTrace::label);
        traces
    }

    /// Number of traces currently held.
    ///
    /// # Panics
    ///
    /// Panics if the collector mutex was poisoned by a panicking worker.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.lock().unwrap().len()
    }

    /// Whether the collector holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let r = MetricsRegistry::default();
        r.record_compile_miss();
        r.record_plan_miss();
        let before = r.snapshot();
        r.record_compile_hit();
        r.record_plan_hit();
        r.record_plan_hit();
        r.record_sweep_hit();
        r.record_sweep_hit();
        r.record_sweep_miss();
        r.record_run(100);
        r.record_throttling(5, 1);
        r.record_fleet_shard(2048, 700);
        r.record_fleet_shard(1024, 300);
        r.record_tuned_miss();
        r.record_tuned_hit();
        r.record_tuned_hit();
        r.record_tuned_hit();
        r.record_tuner_search(40, 900);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.compile_hits, 1);
        assert_eq!(delta.compile_misses, 0);
        assert_eq!(delta.plan_hits, 2);
        assert_eq!(delta.plan_misses, 0);
        assert_eq!(delta.fleet_devices_simulated, 3072);
        assert_eq!(delta.fleet_lanes_deduped, 1000);
        assert_eq!(delta.sweep_hits, 2);
        assert_eq!(delta.sweep_misses, 1);
        assert_eq!(delta.runs_completed, 1);
        assert_eq!(delta.queries_issued, 100);
        assert_eq!(delta.throttled_queries, 5);
        assert_eq!(delta.throttle_events, 1);
        assert_eq!(delta.tuned_hits, 3);
        assert_eq!(delta.tuned_misses, 1);
        assert_eq!(delta.tuner_candidates, 40);
        assert_eq!(delta.tuner_pruned, 900);
    }

    #[test]
    fn spec_timings_drain_sorted() {
        let r = MetricsRegistry::default();
        r.record_spec_wall("b/seg".into(), 2.0);
        r.record_spec_wall("a/cls".into(), 1.0);
        let t = r.take_spec_timings();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].label, "a/cls");
        assert!(r.take_spec_timings().is_empty(), "drain empties the registry");
    }

    #[test]
    fn concurrent_drain_loses_and_duplicates_nothing() {
        // Writers race record_spec_wall against a reader repeatedly
        // draining: the union of all drained batches plus a final drain
        // must be exactly the recorded set — every entry handed out once.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const WRITERS: usize = 4;
        const PER_WRITER: usize = 250;
        let registry = Arc::new(MetricsRegistry::default());
        let done = Arc::new(AtomicBool::new(false));

        let drainer = {
            let registry = Arc::clone(&registry);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut drained = Vec::new();
                while !done.load(Ordering::Acquire) {
                    drained.extend(registry.take_spec_timings());
                    std::thread::yield_now();
                }
                drained
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        registry.record_spec_wall(format!("w{w}/spec{i}"), i as f64);
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let mut all = drainer.join().unwrap();
        all.extend(registry.take_spec_timings());

        assert_eq!(all.len(), WRITERS * PER_WRITER, "no entry lost or duplicated");
        let mut labels: Vec<&str> = all.iter().map(|t| t.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WRITERS * PER_WRITER, "every label unique");
        assert!(registry.take_spec_timings().is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        let before = metrics().snapshot();
        metrics().record_run(1);
        let after = metrics().snapshot();
        assert!(after.runs_completed > before.runs_completed);
    }
}
