//! Process-wide metrics registry and trace collection.
//!
//! Every layer of the measurement stack reports here: the
//! [`CompileCache`][crate::runner::CompileCache] counts cache hits and
//! misses, the [`SuiteRunner`][crate::runner::SuiteRunner] reports
//! per-spec wall-clock, and the harness counts runs and queries plus
//! thermal-throttle statistics extracted from run traces. A
//! [`MetricsSnapshot`] taken before and after a workload yields the delta
//! attributable to it — the `reproduce --trace` flag uses exactly this to
//! annotate each artifact.
//!
//! Every counter is one row of the `counters!` table below: its field,
//! its Prometheus family and its help text. The table generates the
//! [`MetricsSnapshot`] field, its [`MetricsSnapshot::since`] delta, its
//! [`MetricsSnapshot::families`] entry (which
//! [`prometheus_exposition`][crate::profile::prometheus::prometheus_exposition]
//! renders) and the [`MetricsRegistry`] [`Counter`]. Adding a counter is
//! one row, plus its line in the exposition test's pinned expected text.
//!
//! Recording is lock-free for counters (relaxed atomics) and never feeds
//! back into the simulation, so instrumented runs stay bit-identical to
//! uninstrumented ones.

use crate::harness::BenchmarkTrace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Wall-clock spent executing one run spec (one benchmark-matrix cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecTiming {
    /// `chip/task/backend` label of the spec.
    pub label: String,
    /// Host wall-clock the run took, in milliseconds.
    pub wall_ms: f64,
}

/// A monotonically increasing counter. Its value publishes no other
/// data, so every access is a relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The counter's current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares every registry counter from one row each:
/// `field => "prometheus_family", "help text";`. The help text is also
/// the field's doc; `///` lines before a row add rustdoc-only detail.
macro_rules! counters {
    ($($(#[doc = $detail:literal])* $field:ident => $family:literal, $help:literal;)*) => {
        /// A point-in-time copy of every registry counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $(#[doc = $help] $(#[doc = $detail])* pub $field: u64,)*
        }

        impl MetricsSnapshot {
            /// The counter deltas accumulated since `earlier` was taken.
            ///
            /// Uses saturating arithmetic so a stale baseline can never
            /// underflow.
            #[must_use]
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Every counter as `(Prometheus family, help text, value)`,
            /// in declaration order.
            #[must_use]
            pub fn families(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$(($family, $help, self.$field),)*]
            }
        }

        /// The process-wide registry. Obtain it via [`metrics`].
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $(#[doc = $help] $(#[doc = $detail])* pub $field: Counter,)*
            spec_wall: Mutex<Vec<SpecTiming>>,
        }

        impl MetricsRegistry {
            /// A point-in-time copy of every counter.
            ///
            /// Non-destructive: reading a snapshot never changes registry
            /// state, so any number of observers (reports, Prometheus
            /// exposition, delta baselines) can snapshot concurrently
            /// without coordinating. The per-spec wall-clock timings are
            /// *not* part of the snapshot — they are consumed destructively
            /// via [`Self::take_spec_timings`], because each timing entry
            /// belongs to exactly one artifact's trace file.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($field: self.$field.get(),)* }
            }
        }
    };
}

counters! {
    compile_hits => "mlperf_compile_cache_hits_total",
        "Deployment lookups answered from a compile cache.";
    compile_misses => "mlperf_compile_cache_misses_total",
        "Deployment lookups that triggered a compile.";
    plan_hits => "mlperf_plan_cache_hits_total",
        "Query-plan lookups answered from a plan cache.";
    plan_misses => "mlperf_plan_cache_misses_total",
        "Query-plan lookups that triggered a plan compilation.";
    /// Each was sampled, executed or replayed, and scored.
    fleet_devices_simulated => "mlperf_fleet_devices_simulated_total",
        "Fleet devices fully simulated by the fleet executor.";
    /// Per wave step, lanes minus distinct dispatch-frequency bit
    /// patterns. No step walks the op arrays, so this counts alike
    /// lanes, not saved walks.
    fleet_lanes_deduped => "mlperf_fleet_lanes_deduped_total",
        "Fleet lane-queries that dispatched at a frequency another lane of the same step also ran at.";
    /// Accuracy scores, delta re-lowerings and the ablations' schedule
    /// dedup all count here.
    sweep_hits => "mlperf_sweep_cache_hits_total",
        "Sweep-engine lookups answered from a sweep cache.";
    sweep_misses => "mlperf_sweep_cache_misses_total",
        "Sweep-engine lookups that had to do the full computation.";
    /// Accuracy and performance flows alike.
    runs_completed => "mlperf_runs_completed_total",
        "Benchmark runs completed.";
    queries_issued => "mlperf_queries_issued_total",
        "Performance queries issued across all runs.";
    /// Untraced runs don't observe per-query DVFS state.
    throttled_queries => "mlperf_throttled_queries_total",
        "Queries dispatched while the device was throttled (traced runs).";
    throttle_events => "mlperf_throttle_events_total",
        "Transitions into throttling along traced span timelines.";
    tuned_hits => "mlperf_tuned_cache_hits_total",
        "Tuned-schedule lookups answered from the tuned compile cache.";
    tuned_misses => "mlperf_tuned_cache_misses_total",
        "Tuned-schedule lookups that ran the auto-tuner search.";
    tuner_candidates => "mlperf_tuner_candidates_total",
        "Complete schedule candidates exactly evaluated by the auto-tuner.";
    tuner_pruned => "mlperf_tuner_pruned_total",
        "Partial assignments eliminated by the tuner's admissible bound.";
}

impl MetricsRegistry {
    /// Records the wall-clock one run spec took.
    ///
    /// # Panics
    ///
    /// Panics if the timing mutex was poisoned by a panicking worker.
    pub fn record_spec_wall(&self, label: String, wall_ms: f64) {
        self.spec_wall.lock().unwrap().push(SpecTiming { label, wall_ms });
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
        r.compile_misses.inc();
        r.plan_misses.inc();
        let before = r.snapshot();
        r.compile_hits.inc();
        r.plan_hits.add(2);
        r.sweep_hits.add(2);
        r.sweep_misses.inc();
        r.runs_completed.inc();
        r.queries_issued.add(100);
        r.throttled_queries.add(5);
        r.throttle_events.inc();
        r.fleet_devices_simulated.add(2048);
        r.fleet_lanes_deduped.add(700);
        r.fleet_devices_simulated.add(1024);
        r.fleet_lanes_deduped.add(300);
        r.tuned_misses.inc();
        r.tuned_hits.add(3);
        r.tuner_candidates.add(40);
        r.tuner_pruned.add(900);
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
        metrics().runs_completed.inc();
        let after = metrics().snapshot();
        assert!(after.runs_completed > before.runs_completed);
    }
}
