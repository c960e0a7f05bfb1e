//! Prometheus text exposition of the metrics registry.
//!
//! Renders a [`MetricsSnapshot`] (plus optional per-spec wall-clock
//! timings) in the [Prometheus text format]: `# HELP`/`# TYPE` headers
//! followed by one sample per line. The output is a pure function of its
//! inputs — counters in declaration order, timings in the caller's order
//! (the registry drains them label-sorted) — so scrape files diff cleanly
//! run over run.
//!
//! [Prometheus text format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{MetricsSnapshot, SpecTiming};
use loadgen::par::PoolSnapshot;
use mobile_metrics::hist::LatencyHistogram;
use std::fmt::Write as _;

/// Escapes a Prometheus label value (backslash, quote, newline).
fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escapes `# HELP` text (backslash, newline — quotes stay literal in
/// help position per the exposition format).
fn esc_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", esc_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, help: &str, kind: &str, value: impl std::fmt::Display) {
    header(out, name, help, kind);
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the snapshot (and per-spec timings) in the Prometheus text
/// exposition format.
#[must_use]
pub fn prometheus_exposition(snap: &MetricsSnapshot, timings: &[SpecTiming]) -> String {
    let mut out = String::new();
    sample(
        &mut out,
        "mlperf_compile_cache_hits_total",
        "Deployment lookups answered from a compile cache.",
        "counter",
        snap.compile_hits,
    );
    sample(
        &mut out,
        "mlperf_compile_cache_misses_total",
        "Deployment lookups that triggered a compile.",
        "counter",
        snap.compile_misses,
    );
    sample(
        &mut out,
        "mlperf_plan_cache_hits_total",
        "Query-plan lookups answered from a plan cache.",
        "counter",
        snap.plan_hits,
    );
    sample(
        &mut out,
        "mlperf_plan_cache_misses_total",
        "Query-plan lookups that triggered a plan compilation.",
        "counter",
        snap.plan_misses,
    );
    sample(
        &mut out,
        "mlperf_fleet_devices_simulated_total",
        "Fleet devices fully simulated by the fleet executor.",
        "counter",
        snap.fleet_devices_simulated,
    );
    sample(
        &mut out,
        "mlperf_fleet_lanes_deduped_total",
        "Fleet lane-queries that shared another lane's op-array walk.",
        "counter",
        snap.fleet_lanes_deduped,
    );
    sample(
        &mut out,
        "mlperf_sweep_cache_hits_total",
        "Sweep-engine lookups answered from a sweep cache.",
        "counter",
        snap.sweep_hits,
    );
    sample(
        &mut out,
        "mlperf_sweep_cache_misses_total",
        "Sweep-engine lookups that had to do the full computation.",
        "counter",
        snap.sweep_misses,
    );
    sample(
        &mut out,
        "mlperf_runs_completed_total",
        "Benchmark runs completed.",
        "counter",
        snap.runs_completed,
    );
    sample(
        &mut out,
        "mlperf_queries_issued_total",
        "Performance queries issued across all runs.",
        "counter",
        snap.queries_issued,
    );
    sample(
        &mut out,
        "mlperf_throttled_queries_total",
        "Queries dispatched while the device was throttled (traced runs).",
        "counter",
        snap.throttled_queries,
    );
    sample(
        &mut out,
        "mlperf_throttle_events_total",
        "Transitions into throttling along traced span timelines.",
        "counter",
        snap.throttle_events,
    );
    sample(
        &mut out,
        "mlperf_tuned_cache_hits_total",
        "Tuned-schedule lookups answered from the tuned compile cache.",
        "counter",
        snap.tuned_hits,
    );
    sample(
        &mut out,
        "mlperf_tuned_cache_misses_total",
        "Tuned-schedule lookups that ran the auto-tuner search.",
        "counter",
        snap.tuned_misses,
    );
    sample(
        &mut out,
        "mlperf_tuner_candidates_total",
        "Complete schedule candidates exactly evaluated by the auto-tuner.",
        "counter",
        snap.tuner_candidates,
    );
    sample(
        &mut out,
        "mlperf_tuner_pruned_total",
        "Partial assignments eliminated by the tuner's admissible bound.",
        "counter",
        snap.tuner_pruned,
    );
    if !timings.is_empty() {
        header(&mut out, "mlperf_spec_wall_ms", "Host wall-clock one run spec took.", "gauge");
        for t in timings {
            let _ = writeln!(
                out,
                "mlperf_spec_wall_ms{{spec=\"{}\"}} {}",
                esc_label(&t.label),
                t.wall_ms
            );
        }
    }
    out
}

/// Renders a runner-pool snapshot in the Prometheus text exposition
/// format: per-worker task/busy/steal counters (labelled by worker
/// index) plus the queue-depth gauges. Deterministic bytes — workers are
/// already index-sorted in the snapshot.
#[must_use]
pub fn pool_exposition(pool: &PoolSnapshot) -> String {
    let mut out = String::new();
    sample(
        &mut out,
        "mlperf_pool_par_map_calls_total",
        "Parallel-map passes the runner pool started.",
        "counter",
        pool.calls,
    );
    header(
        &mut out,
        "mlperf_pool_worker_tasks_total",
        "Tasks completed, per pool worker.",
        "counter",
    );
    for w in &pool.workers {
        let _ = writeln!(out, "mlperf_pool_worker_tasks_total{{worker=\"{}\"}} {}", w.worker, w.tasks);
    }
    header(
        &mut out,
        "mlperf_pool_worker_busy_ns_total",
        "Host wall-clock spent inside tasks (ns), per pool worker.",
        "counter",
    );
    for w in &pool.workers {
        let _ = writeln!(out, "mlperf_pool_worker_busy_ns_total{{worker=\"{}\"}} {}", w.worker, w.busy_ns);
    }
    header(
        &mut out,
        "mlperf_pool_worker_steals_total",
        "Tasks executed outside the worker's static fair share, per pool worker.",
        "counter",
    );
    for w in &pool.workers {
        let _ = writeln!(out, "mlperf_pool_worker_steals_total{{worker=\"{}\"}} {}", w.worker, w.steals);
    }
    sample(
        &mut out,
        "mlperf_pool_queue_depth",
        "Ready-queue depth (items not yet claimed by a worker).",
        "gauge",
        pool.queue_depth,
    );
    sample(
        &mut out,
        "mlperf_pool_max_queue_depth",
        "Deepest ready queue observed.",
        "gauge",
        pool.max_queue_depth,
    );
    out
}

/// Renders a latency histogram as a Prometheus summary: quantile samples
/// plus `_count`, `_min`, and `_max`. Empty histograms emit only the
/// headers and a zero count (quantiles of nothing are undefined).
#[must_use]
pub fn hist_exposition(name: &str, help: &str, hist: &LatencyHistogram) -> String {
    let mut out = String::new();
    header(&mut out, name, help, "summary");
    if !hist.is_empty() {
        for q in [50.0, 90.0, 99.0] {
            let _ = writeln!(
                out,
                "{name}{{quantile=\"{}\"}} {}",
                q / 100.0,
                hist.value_at_percentile(q)
            );
        }
        let _ = writeln!(out, "{name}_min {}", hist.min());
        let _ = writeln!(out, "{name}_max {}", hist.max());
    }
    let _ = writeln!(out, "{name}_count {}", hist.count());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_well_formed() {
        let snap = MetricsSnapshot {
            compile_hits: 3,
            compile_misses: 1,
            plan_hits: 6,
            plan_misses: 2,
            fleet_devices_simulated: 4096,
            fleet_lanes_deduped: 300,
            sweep_hits: 9,
            sweep_misses: 3,
            runs_completed: 4,
            queries_issued: 128,
            throttled_queries: 5,
            throttle_events: 2,
            tuned_hits: 11,
            tuned_misses: 4,
            tuner_candidates: 256,
            tuner_pruned: 7000,
        };
        let timings = vec![
            SpecTiming { label: "a/cls".into(), wall_ms: 1.5 },
            SpecTiming { label: "b/seg".into(), wall_ms: 2.25 },
        ];
        // Every counter family in declaration order, each a HELP/TYPE
        // pair plus one sample, then the per-spec gauge in the caller's
        // order.
        let expected = "\
# HELP mlperf_compile_cache_hits_total Deployment lookups answered from a compile cache.
# TYPE mlperf_compile_cache_hits_total counter
mlperf_compile_cache_hits_total 3
# HELP mlperf_compile_cache_misses_total Deployment lookups that triggered a compile.
# TYPE mlperf_compile_cache_misses_total counter
mlperf_compile_cache_misses_total 1
# HELP mlperf_plan_cache_hits_total Query-plan lookups answered from a plan cache.
# TYPE mlperf_plan_cache_hits_total counter
mlperf_plan_cache_hits_total 6
# HELP mlperf_plan_cache_misses_total Query-plan lookups that triggered a plan compilation.
# TYPE mlperf_plan_cache_misses_total counter
mlperf_plan_cache_misses_total 2
# HELP mlperf_fleet_devices_simulated_total Fleet devices fully simulated by the fleet executor.
# TYPE mlperf_fleet_devices_simulated_total counter
mlperf_fleet_devices_simulated_total 4096
# HELP mlperf_fleet_lanes_deduped_total Fleet lane-queries that shared another lane's op-array walk.
# TYPE mlperf_fleet_lanes_deduped_total counter
mlperf_fleet_lanes_deduped_total 300
# HELP mlperf_sweep_cache_hits_total Sweep-engine lookups answered from a sweep cache.
# TYPE mlperf_sweep_cache_hits_total counter
mlperf_sweep_cache_hits_total 9
# HELP mlperf_sweep_cache_misses_total Sweep-engine lookups that had to do the full computation.
# TYPE mlperf_sweep_cache_misses_total counter
mlperf_sweep_cache_misses_total 3
# HELP mlperf_runs_completed_total Benchmark runs completed.
# TYPE mlperf_runs_completed_total counter
mlperf_runs_completed_total 4
# HELP mlperf_queries_issued_total Performance queries issued across all runs.
# TYPE mlperf_queries_issued_total counter
mlperf_queries_issued_total 128
# HELP mlperf_throttled_queries_total Queries dispatched while the device was throttled (traced runs).
# TYPE mlperf_throttled_queries_total counter
mlperf_throttled_queries_total 5
# HELP mlperf_throttle_events_total Transitions into throttling along traced span timelines.
# TYPE mlperf_throttle_events_total counter
mlperf_throttle_events_total 2
# HELP mlperf_tuned_cache_hits_total Tuned-schedule lookups answered from the tuned compile cache.
# TYPE mlperf_tuned_cache_hits_total counter
mlperf_tuned_cache_hits_total 11
# HELP mlperf_tuned_cache_misses_total Tuned-schedule lookups that ran the auto-tuner search.
# TYPE mlperf_tuned_cache_misses_total counter
mlperf_tuned_cache_misses_total 4
# HELP mlperf_tuner_candidates_total Complete schedule candidates exactly evaluated by the auto-tuner.
# TYPE mlperf_tuner_candidates_total counter
mlperf_tuner_candidates_total 256
# HELP mlperf_tuner_pruned_total Partial assignments eliminated by the tuner's admissible bound.
# TYPE mlperf_tuner_pruned_total counter
mlperf_tuner_pruned_total 7000
# HELP mlperf_spec_wall_ms Host wall-clock one run spec took.
# TYPE mlperf_spec_wall_ms gauge
mlperf_spec_wall_ms{spec=\"a/cls\"} 1.5
mlperf_spec_wall_ms{spec=\"b/seg\"} 2.25
";
        assert_eq!(prometheus_exposition(&snap, &timings), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(esc_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn help_text_is_escaped() {
        assert_eq!(esc_help("line\nbreak\\slash"), "line\\nbreak\\\\slash");
        let mut out = String::new();
        sample(&mut out, "m_total", "multi\nline", "counter", 1);
        assert!(out.contains("# HELP m_total multi\\nline\n"));
    }

    #[test]
    fn pool_exposition_matches_golden_text() {
        use loadgen::par::WorkerStats;
        let pool = PoolSnapshot {
            workers: vec![
                WorkerStats { worker: 0, tasks: 12, busy_ns: 3400, steals: 0 },
                WorkerStats { worker: 1, tasks: 9, busy_ns: 2100, steals: 3 },
            ],
            calls: 4,
            queue_depth: 2,
            max_queue_depth: 17,
        };
        let expected = "\
# HELP mlperf_pool_par_map_calls_total Parallel-map passes the runner pool started.
# TYPE mlperf_pool_par_map_calls_total counter
mlperf_pool_par_map_calls_total 4
# HELP mlperf_pool_worker_tasks_total Tasks completed, per pool worker.
# TYPE mlperf_pool_worker_tasks_total counter
mlperf_pool_worker_tasks_total{worker=\"0\"} 12
mlperf_pool_worker_tasks_total{worker=\"1\"} 9
# HELP mlperf_pool_worker_busy_ns_total Host wall-clock spent inside tasks (ns), per pool worker.
# TYPE mlperf_pool_worker_busy_ns_total counter
mlperf_pool_worker_busy_ns_total{worker=\"0\"} 3400
mlperf_pool_worker_busy_ns_total{worker=\"1\"} 2100
# HELP mlperf_pool_worker_steals_total Tasks executed outside the worker's static fair share, per pool worker.
# TYPE mlperf_pool_worker_steals_total counter
mlperf_pool_worker_steals_total{worker=\"0\"} 0
mlperf_pool_worker_steals_total{worker=\"1\"} 3
# HELP mlperf_pool_queue_depth Ready-queue depth (items not yet claimed by a worker).
# TYPE mlperf_pool_queue_depth gauge
mlperf_pool_queue_depth 2
# HELP mlperf_pool_max_queue_depth Deepest ready queue observed.
# TYPE mlperf_pool_max_queue_depth gauge
mlperf_pool_max_queue_depth 17
";
        assert_eq!(pool_exposition(&pool), expected);
    }

    #[test]
    fn every_pool_family_has_type_and_help_lines() {
        let text = pool_exposition(&PoolSnapshot::default());
        for name in [
            "mlperf_pool_par_map_calls_total",
            "mlperf_pool_worker_tasks_total",
            "mlperf_pool_worker_busy_ns_total",
            "mlperf_pool_worker_steals_total",
            "mlperf_pool_queue_depth",
            "mlperf_pool_max_queue_depth",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "{name}");
            assert!(text.contains(&format!("# TYPE {name} ")), "{name}");
        }
    }

    #[test]
    fn hist_exposition_emits_summary_quantiles() {
        let mut hist = LatencyHistogram::new();
        for v in 1..=100u64 {
            hist.record(v);
        }
        let text = hist_exposition("mlperf_run_wall_ns", "Host wall per run.", &hist);
        assert!(text.contains("# TYPE mlperf_run_wall_ns summary"));
        assert!(text.contains("mlperf_run_wall_ns{quantile=\"0.5\"} 50"));
        assert!(text.contains("mlperf_run_wall_ns{quantile=\"0.99\"} 99"));
        assert!(text.contains("mlperf_run_wall_ns_count 100"));
        assert!(text.contains("mlperf_run_wall_ns_min 1"));
        assert!(text.contains("mlperf_run_wall_ns_max 100"));

        let empty = hist_exposition("m", "h", &LatencyHistogram::new());
        assert!(empty.contains("m_count 0"));
        assert!(!empty.contains("quantile"));
    }

    #[test]
    fn timings_section_is_optional() {
        let text = prometheus_exposition(&MetricsSnapshot::default(), &[]);
        assert!(!text.contains("mlperf_spec_wall_ms"));
        assert!(text.contains("mlperf_runs_completed_total 0"));
    }
}
