//! The traced run's per-layer metrics.

use crate::stats;
use crate::trace::{secs, Split, Tracer};
use crate::workload::{self, Output, Prepared, Workload};
use mlperf_mobile::fleet::FleetReport;
use mlperf_mobile::harness::BenchmarkScore;
use mlperf_mobile::metrics::MetricsSnapshot;
use mlperf_mobile::obs::{HostSpan, Phase};
use mlperf_mobile::sut_impl::PlannedDeployment;
use mlperf_mobile::task::{suite, Task};
use mobile_backend::backend::CompileError;
use mobile_backend::tune::{search_model, Objective, TunerConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Single-stream queries plus offline samples in the returned scores.
pub fn executed_queries(results: &[(String, Result<BenchmarkScore, CompileError>)]) -> u64 {
    results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|s| s.single_stream.queries + s.offline.as_ref().map_or(0, |o| o.queries))
        .sum()
}

/// The layer a program span belongs to, named after its module.
fn layer_of(s: &HostSpan) -> &'static str {
    match s.phase {
        // `run_fleet` wraps its (cached) sweep-plan lookups in one span.
        Phase::Compile if s.label == "fleet-cells" => "runner.cache",
        Phase::Compile => "runner.compile",
        // `CompileCache::tuned` spans the search and the re-plan.
        Phase::Plan if s.label.starts_with("tune/") => "tune.search",
        Phase::Plan => "runner.plan",
        Phase::Cell => "harness.cell",
        Phase::Calibrate => "harness.accuracy",
        Phase::Execute if s.label.starts_with("fleet-shard") => "fleet.execute",
        Phase::Execute => "loadgen.execute",
        Phase::SearchProbe => "loadgen.search",
        // Only `run_fleet` opens a suite span; its self time outside the
        // pool is the shard merge.
        Phase::Suite => "fleet.merge",
        Phase::Report => "report",
    }
}

/// What the traced run's layer metrics are computed from.
pub struct LayerContext<'a> {
    pub w: Workload,
    pub prepared: &'a Prepared,
    pub output: &'a Output,
    pub workers: usize,
    pub wall_s: f64,
    pub traced_wall: f64,
    pub spec_ms: Vec<(String, f64)>,
}

/// Layer of the separate passes, which run after the traced wall.
const PASS: &str = "bench.pass";

pub type Layers = (Vec<(String, f64, String)>, Vec<(String, f64)>, Vec<String>);

/// Computes every per-layer metric of a traced run. Separate passes that
/// split one program span into parts (the cost-model build and re-plan
/// inside a tuning span, the sampling inside a fleet shard) run here,
/// after the traced wall has been taken.
pub fn layer_metrics(
    ctx: &LayerContext<'_>,
    tracer: &mut Tracer,
    timed: &MetricsSnapshot,
    whole: &MetricsSnapshot,
) -> Layers {
    let w = ctx.w;
    let p = ctx.workers.max(1) as f64;
    // Separate passes.
    let (mut cost_model_s, mut replan_s) = (0.0, 0.0);
    let mut sample_s = 0.0;
    let mut expanded = 0u64;
    match ctx.prepared {
        Prepared::Tune { cache, config } => {
            tracer.call("pass: search_model + re-plan", PASS, || {
                for &chip in &config.chips {
                    let version = workload::version_of(chip);
                    for def in suite(version) {
                        let backend =
                            mlperf_mobile::app::submission_backend(chip, version, def.task);
                        let soc = cache.soc(chip);
                        let dep = cache
                            .deployment(chip, backend, def.model)
                            .expect("set-up compiled every cell");
                        for objective in [Objective::Latency, Objective::Energy] {
                            let started = Instant::now();
                            black_box(search_model(&soc, &dep.graph, &dep.schedule));
                            cost_model_s += started.elapsed().as_secs_f64();
                            let tuner = TunerConfig {
                                objective,
                                beam_width: config.beam_width,
                            };
                            let tuned = cache
                                .tuned(chip, backend, def.model, &tuner)
                                .expect("the timed phase tuned every cell");
                            expanded += tuned.outcome.stats.expanded;
                            let started = Instant::now();
                            black_box(PlannedDeployment::compile(
                                &soc,
                                Arc::clone(&tuned.deployment),
                            ));
                            replan_s += started.elapsed().as_secs_f64();
                        }
                    }
                }
            });
        }
        Prepared::Fleet { config, .. } => {
            tracer.call("pass: sample_unit", PASS, || {
                let started = Instant::now();
                for index in 0..config.devices {
                    black_box(soc_sim::fleet::sample_unit(
                        config.seed,
                        index,
                        &config.profile,
                    ));
                }
                sample_s = started.elapsed().as_secs_f64();
            });
        }
        Prepared::Suite { .. } => {}
    }

    let mut split = Split::default();
    let mut own = 0.0;
    for span in tracer.spans.iter().filter(|s| s.layer != PASS) {
        split.attribute(span, ctx.workers, layer_of);
        own += span.secs;
    }
    split.moves("tune.search", "tune.cost_model", cost_model_s, p);
    split.moves("tune.search", "runner.plan", replan_s, p);
    split.moves("fleet.execute", "fleet.sample", sample_s, p);
    split.unattributed += (ctx.traced_wall - own).max(0.0);
    let call = tracer
        .span(workload::timed_call(w))
        .expect("the timed call is traced");
    let program: Vec<&HostSpan> = tracer.spans.iter().flat_map(|s| &s.program).collect();
    let pool_busy_share = stats::ratio(secs(call.busy_ns.iter().sum()), p * call.secs);
    let tune_spans: Vec<&HostSpan> = call
        .program
        .iter()
        .filter(|s| s.phase == Phase::Plan && s.label.starts_with("tune/"))
        .collect();
    let shard_spans: Vec<&HostSpan> = call
        .program
        .iter()
        .filter(|s| s.phase == Phase::Execute && s.label.starts_with("fleet-shard"))
        .collect();
    let mut item_ms: Vec<(String, f64)> = match w {
        Workload::Submission | Workload::Scenarios => ctx.spec_ms.clone(),
        Workload::Tune => tune_spans
            .iter()
            .map(|s| (s.label.clone(), s.dur_ns as f64 / 1e6))
            .collect(),
        Workload::Fleet => shard_spans
            .iter()
            .map(|s| (s.label.clone(), s.dur_ns as f64 / 1e6))
            .collect(),
    };
    let items = stats::items(&item_ms.iter().map(|(_, ms)| *ms).collect::<Vec<_>>());
    item_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
    let slowest: Vec<String> = item_ms
        .iter()
        .take(3)
        .map(|(l, ms)| format!("{l} {ms:.1} ms"))
        .collect();
    let mut notes = vec![format!(
        "items: n={} (cells, tuning cells or fleet shards); tail is p{:.1}{}; slowest: {}",
        items.n,
        items.tail_pct,
        if items.n > 10 {
            ""
        } else {
            " (the median: no percentile has 10 items beyond it)"
        },
        slowest.join(", ")
    )];

    let mut out: Vec<(String, f64, String)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &str| out.push((name.to_owned(), value, unit.to_owned()));
    put("runner.compile_s", split.busy("runner.compile"), "s");
    put(
        "runner.compile_misses",
        whole.compile_misses as f64,
        "count",
    );
    put("runner.plan_s", split.busy("runner.plan"), "s");
    put(
        "runner.plan_misses",
        program.iter().filter(|s| s.phase == Phase::Plan).count() as f64,
        "count",
    );
    put("runner.soc_s", split.busy("runner.soc"), "s");
    put("runner.pool_busy_share", pool_busy_share, "ratio");
    put("runner.items", items.n as f64, "count");
    put("runner.item_p50_ms", items.p50, "ms");
    put("runner.item_tail_ms", items.tail, "ms");
    put("runner.item_max_ms", items.max, "ms");

    let (mut queries, mut probes, mut log_records, mut samples) = (0u64, 0u64, 0u64, 0u64);
    if let Output::Suite(results) = ctx.output {
        queries = executed_queries(results);
        for s in results.iter().filter_map(|(_, r)| r.as_ref().ok()) {
            probes += s.server.as_ref().map_or(0, |x| x.probes)
                + s.multi_stream.as_ref().map_or(0, |x| x.probes);
            log_records += s.log.records().len() as u64;
            samples += dataset_len(s.def.task) as u64;
        }
    }
    // The accuracy-score cache shares the sweep counters with
    // `sweep_plan`, which only `fleet` calls.
    let (accuracy_hits, accuracy_lookups) = if matches!(ctx.output, Output::Suite(_)) {
        (timed.sweep_hits, timed.sweep_hits + timed.sweep_misses)
    } else {
        (0, 0)
    };
    put("harness.cell_s", split.busy("harness.cell"), "s");
    put("harness.accuracy_s", split.busy("harness.accuracy"), "s");
    put("harness.accuracy_samples", samples as f64, "count");
    put(
        "harness.accuracy_cache_hit_ratio",
        stats::ratio(accuracy_hits as f64, accuracy_lookups as f64),
        "ratio",
    );
    if matches!(ctx.output, Output::Suite(_)) {
        notes.push(format!(
            "accuracy-score cache: {accuracy_hits} hits of {accuracy_lookups} lookups"
        ));
    }
    let execute_s = split.busy("loadgen.execute");
    let search_s = split.busy("loadgen.search");
    put("loadgen.execute_s", execute_s, "s");
    put("loadgen.queries", queries as f64, "count");
    put(
        "loadgen.ns_per_query",
        stats::ratio(execute_s * 1e9, queries as f64),
        "ns",
    );
    put("loadgen.search_s", search_s, "s");
    put("loadgen.search_probes", probes as f64, "count");
    put(
        "loadgen.ms_per_probe",
        stats::ratio(search_s * 1e3, probes as f64),
        "ms",
    );
    put("loadgen.log_records", log_records as f64, "count");

    let (mut candidates, mut pruned) = (0u64, 0u64);
    if let Output::Tune(report) = ctx.output {
        candidates = report.cells.iter().map(|c| c.candidates).sum();
        pruned = report.cells.iter().map(|c| c.pruned).sum();
    }
    let tune_total: u64 = tune_spans.iter().map(|s| s.dur_ns).sum();
    let bert: u64 = tune_spans
        .iter()
        .filter(|s| s.label.ends_with("/MobileBert"))
        .map(|s| s.dur_ns)
        .sum();
    put("tune.search_s", split.busy("tune.search"), "s");
    put(
        "tune.cell_max_s",
        secs(tune_spans.iter().map(|s| s.dur_ns).max().unwrap_or(0)),
        "s",
    );
    put(
        "tune.bert_share",
        stats::ratio(bert as f64, tune_total as f64),
        "ratio",
    );
    put("tune.cost_model_s", cost_model_s, "s");
    put("tune.candidates", candidates as f64, "count");
    put("tune.pruned", pruned as f64, "count");
    put(
        "tune.prune_ratio",
        stats::ratio(pruned as f64, (pruned + expanded) as f64),
        "ratio",
    );
    put(
        "tune.candidates_per_s",
        if w == Workload::Tune {
            stats::ratio(candidates as f64, ctx.wall_s)
        } else {
            0.0
        },
        "1/s",
    );

    let fleet = match ctx.output {
        Output::Fleet(r) => Some(r),
        _ => None,
    };
    let of = |f: fn(&FleetReport) -> u64| fleet.map_or(0.0, |r| f(r) as f64);
    put("fleet.sample_s", sample_s, "s");
    put("fleet.execute_s", split.busy("fleet.execute"), "s");
    put("fleet.lane_queries", of(|r| r.lane_queries), "count");
    put(
        "fleet.lane_dedup_ratio",
        stats::ratio(of(|r| r.lanes_deduped), of(|r| r.lane_queries)),
        "ratio",
    );
    put(
        "fleet.memo_hit_ratio",
        stats::ratio(of(|r| r.memo_hits), of(|r| r.devices)),
        "ratio",
    );
    put("fleet.memo_evictions", of(|r| r.memo_evictions), "count");
    put("fleet.render_s", split.busy("fleet.render"), "s");
    put("fleet.merge_s", split.busy("fleet.merge"), "s");
    put("bench.check_s", split.busy("bench.check"), "s");
    put(
        "obs.unattributed_share",
        stats::ratio(split.unattributed, ctx.traced_wall),
        "ratio",
    );

    let layers: Vec<(String, f64)> = split
        .layers
        .iter()
        .filter(|(_, v)| **v > 0.0)
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    (out, layers, notes)
}

/// Validation-set length of a task at full scale.
fn dataset_len(task: Task) -> usize {
    match task {
        Task::ImageClassification => mobile_data::datasets::IMAGENET_VAL_LEN,
        Task::ObjectDetection => mobile_data::datasets::COCO_VAL_LEN,
        Task::ImageSegmentation => mobile_data::datasets::ADE20K_VAL_LEN,
        Task::QuestionAnswering => mobile_data::datasets::SQUAD_MINI_DEV_LEN,
        _ => 0,
    }
}
