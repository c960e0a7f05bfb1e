//! Schema validation and determinism guards for the trace export layer.
//!
//! 1. Perfetto trace-event JSON from real traced runs parses and every
//!    event carries the required `ph`/`ts`/`pid`/`tid`/`name` fields with
//!    `ts` monotone non-decreasing per `(pid, tid)` track,
//! 2. exporting the same cell repeatedly yields byte-identical output
//!    (deterministic serialization — no map-iteration-order leaks),
//! 3. the `ArtifactTrace` bundle (what `reproduce --trace/--profile`
//!    writes and `explain` reads) round-trips through JSON with its runs
//!    intact and renders every report section.

use mlperf_mobile::harness::{run_benchmark_planned, BenchmarkTrace, RunRules, ScenarioMix};
use mlperf_mobile::metrics::{MetricsSnapshot, TraceCollector};
use mlperf_mobile::profile::{benchmark_perfetto_json, ArtifactTrace, CellProfile};
use mlperf_mobile::sut_impl::{DatasetScale, PlannedDeployment};
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mobile_backend::registry::create;
use serde::Value;
use soc_sim::catalog::ChipId;
use std::sync::Arc;

/// One traced smoke-scale run of `task` on `chip`.
fn traced_cell(chip: ChipId, task: Task, with_offline: bool) -> BenchmarkTrace {
    let def = suite(SuiteVersion::V1_0).into_iter().find(|d| d.task == task).unwrap();
    let backend = mlperf_mobile::app::submission_backend(chip, SuiteVersion::V1_0, task);
    let soc = Arc::new(chip.build());
    let deployment =
        Arc::new(create(backend).compile(&def.model.build(), &soc).expect("compiles"));
    let planned = PlannedDeployment::compile(&soc, deployment);
    let sink = TraceCollector::new();
    let _ = run_benchmark_planned(
        chip,
        soc,
        planned,
        &def,
        &RunRules::smoke_test(),
        DatasetScale::Reduced(48),
        ScenarioMix::offline_only(with_offline),
        Some(&sink),
    );
    sink.drain().pop().expect("a traced run pushes its trace")
}

fn as_number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn field<'a>(event: &'a Value, name: &str) -> &'a Value {
    event
        .as_object()
        .unwrap_or_else(|| panic!("event is not an object: {event:?}"))
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("event missing required field {name}: {event:?}"))
}

/// Validates the exported JSON against the trace-event schema and returns
/// the number of events checked.
fn validate_perfetto(json: &str) -> usize {
    let root: Value = serde_json::from_str(json).expect("export parses as JSON");
    let events = root
        .as_object()
        .expect("root is an object")
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .expect("root has a traceEvents array");
    assert!(!events.is_empty(), "export has events");

    // ts monotone non-decreasing per (pid, tid), in emission order.
    let mut last_ts: Vec<((f64, f64), f64)> = Vec::new();
    for event in events {
        let ph = field(event, "ph").as_str().expect("ph is a string");
        assert!(
            ["M", "X", "C", "i"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        let ts = as_number(field(event, "ts"));
        let pid = as_number(field(event, "pid"));
        let tid = as_number(field(event, "tid"));
        assert!(field(event, "name").as_str().is_some(), "name is a string");
        if ph == "X" {
            assert!(as_number(field(event, "dur")) >= 0.0, "slices carry a duration");
        }
        if ph == "M" {
            continue; // metadata is pinned to ts 0
        }
        match last_ts.iter_mut().find(|(track, _)| *track == (pid, tid)) {
            Some((_, last)) => {
                assert!(
                    ts >= *last,
                    "ts {ts} < previous {last} on track (pid {pid}, tid {tid})"
                );
                *last = ts;
            }
            None => last_ts.push(((pid, tid), ts)),
        }
    }
    events.len()
}

#[test]
fn perfetto_export_validates_against_schema() {
    let traces = vec![
        traced_cell(ChipId::Dimensity1100, Task::ImageClassification, true),
        traced_cell(ChipId::Snapdragon888, Task::ImageSegmentation, false),
    ];
    let json = benchmark_perfetto_json(&traces);
    let checked = validate_perfetto(&json);
    // Both cells contribute: per-query slices, counters, engine metadata,
    // and the offline burst of the first cell.
    assert!(checked > 100, "only {checked} events for two traced cells");
    assert!(json.contains("offline burst"));
    assert!(json.contains("freq_factor"));
    assert!(json.contains("energy_j"));
    assert!(json.contains("temperature_c"));
}

#[test]
fn perfetto_export_is_byte_identical_across_runs() {
    // Golden-suite guard: the exporter output for one fixed cell is a pure
    // function of the (deterministic) run — repeated traced runs produce
    // byte-identical exports.
    let a = traced_cell(ChipId::Dimensity1100, Task::ImageClassification, true);
    let b = traced_cell(ChipId::Dimensity1100, Task::ImageClassification, true);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "repeated traced runs reproduce the same trace"
    );
    let export_a = benchmark_perfetto_json(&[a]);
    let export_b = benchmark_perfetto_json(&[b]);
    assert_eq!(export_a, export_b, "exports are byte-identical");
    // And re-exporting the same in-memory trace is stable too.
    assert_eq!(export_a, export_a.clone());
}

#[test]
fn artifact_bundle_round_trips_and_renders() {
    let runs = vec![traced_cell(ChipId::Dimensity1100, Task::ImageClassification, false)];
    let bundle = ArtifactTrace {
        artifact: "profile_export_test".into(),
        wall_ms: 42.0,
        metrics: MetricsSnapshot { runs_completed: 1, queries_issued: 32, ..Default::default() },
        spec_timings: Vec::new(),
        pool: loadgen::par::PoolSnapshot {
            workers: vec![loadgen::par::WorkerStats { worker: 0, tasks: 1, busy_ns: 42_000_000, steals: 0 }],
            calls: 1,
            queue_depth: 0,
            max_queue_depth: 1,
        },
        runs,
    };
    let parsed = ArtifactTrace::from_json(&bundle.to_json()).expect("bundle parses back");
    assert_eq!(parsed, bundle, "ArtifactTrace round-trips through JSON");

    // The explain path renders from the parsed bundle alone.
    let text = parsed.render();
    assert!(text.contains("profile_export_test"));
    assert!(text.contains("profile:"));
    assert!(text.contains("engine"));
    assert!(text.contains("dvfs residency"));
    assert!(text.contains("mlperf_queries_issued_total 32"));
    // The pool report rides along in the rendered bundle.
    assert!(text.contains("pool report"));
    assert!(text.contains("worker-0"));
    assert!(text.contains("cache layers:"));
}

#[test]
fn profile_energy_ties_to_trace_meter_totals() {
    // The analyzed profile surfaces the trace's energy accounting
    // unmodified — bit-for-bit the meter totals the harness captured.
    let trace = traced_cell(ChipId::Snapdragon888, Task::ImageClassification, false);
    let profile = CellProfile::from_trace(&trace);
    assert_eq!(
        profile.energy.total_joules.to_bits(),
        trace.energy.total_joules.to_bits()
    );
    assert!(profile.energy.single_stream_joules > 0.0);
    assert!(!profile.energy.engines.is_empty());
    assert_eq!(profile.latency.count(), trace.single_stream.span_count());
    // Histogram percentiles bracket the exact span latencies.
    let mut latencies: Vec<u64> =
        trace.single_stream.spans.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let exact_p90 = mobile_metrics::latency::percentile_nearest_rank(&latencies, 90.0);
    let approx_p90 = profile.latency.value_at_percentile(90.0);
    assert!(approx_p90 >= exact_p90);
    assert!(
        approx_p90 as f64 <= exact_p90 as f64 * (1.0 + mobile_metrics::hist::MAX_RELATIVE_ERROR) + 1.0
    );
}
