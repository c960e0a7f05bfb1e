//! Golden-trace regression suite: locks the full v1.0 suite — every
//! (chip, task, backend, scenario) cell — plus key trace invariants
//! against checked-in goldens under `tests/golden/`.
//!
//! Scores are compared at **0 ULPs** via `f64::to_bits`: any drift at all
//! fails with a per-cell diff naming the cell, both values, and the ULP
//! distance. After an intentional scoring change, regenerate the goldens
//! with:
//!
//! ```sh
//! BLESS=1 cargo test --test golden_suite
//! ```

use mlperf_mobile::app::AppConfig;
use mlperf_mobile::harness::{run_benchmark_planned, RunRules, ScenarioMix};
use mlperf_mobile::metrics::TraceCollector;
use mlperf_mobile::runner::{CompileCache, SuiteRunner};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, SuiteVersion};
use serde::{Deserialize, Serialize};
use soc_sim::catalog::ChipId;
use std::sync::Arc;

/// Where the goldens live (crate manifest is `crates/core`).
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v1_0_suite.json");

/// Server/multi-stream goldens: one cell per (model, backend) pair.
const SCENARIO_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v1_0_scenarios.json");

/// Schedule-tuning goldens: the heuristic-vs-optimal gap table.
const TUNING_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v1_0_tuning.json");

/// One locked benchmark-matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCell {
    /// Chip name.
    chip: String,
    /// Task name.
    task: String,
    /// Backend the submission rules select.
    backend: String,
    /// Single-stream p90 in milliseconds (human-readable copy).
    score_ms: f64,
    /// Exact bits of `score_ms` — the 0-ULP lock.
    score_bits: u64,
    /// Measured accuracy (human-readable copy).
    accuracy: f64,
    /// Exact bits of `accuracy`.
    accuracy_bits: u64,
    /// Offline throughput in FPS, for the cells that run offline.
    offline_fps: Option<f64>,
    /// Exact bits of `offline_fps`.
    offline_bits: Option<u64>,
    /// Trace invariant: spans recorded == performance queries issued.
    spans: u64,
    /// Trace invariant: queries dispatched while throttled.
    throttled_queries: u64,
    /// Trace invariant: transitions into throttling.
    throttle_events: u64,
}

impl GoldenCell {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.chip, self.task, self.backend)
    }
}

/// Runs the full v1.0 suite over every catalog chip with tracing on and
/// distills each cell into its golden form.
fn compute_cells() -> Vec<GoldenCell> {
    let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: true, scenario_matrix: false, tuner: None };
    let sink = Arc::new(TraceCollector::new());
    let runner = SuiteRunner::new().with_trace(Arc::clone(&sink));
    let reports = runner
        .sweep(&ChipId::ALL, SuiteVersion::V1_0, &config, DatasetScale::Reduced(48))
        .expect("every submission backend compiles");
    let traces = sink.drain();
    let mut cells = Vec::new();
    for report in &reports {
        for score in &report.scores {
            let trace = traces
                .iter()
                .find(|t| t.chip == score.chip && t.task == score.def.task)
                .expect("every run leaves a trace");
            trace.validate().expect("trace invariants hold");
            assert_eq!(
                trace.single_stream.span_count(),
                score.single_stream.queries,
                "span count must equal query count"
            );
            let offline_fps = score.offline.as_ref().map(|o| o.throughput_fps);
            cells.push(GoldenCell {
                chip: score.chip.to_string(),
                task: format!("{:?}", score.def.task),
                backend: score.backend.to_string(),
                score_ms: score.latency_ms(),
                score_bits: score.latency_ms().to_bits(),
                accuracy: score.accuracy,
                accuracy_bits: score.accuracy.to_bits(),
                offline_fps,
                offline_bits: offline_fps.map(f64::to_bits),
                spans: trace.single_stream.span_count(),
                throttled_queries: trace.throttled_queries(),
                throttle_events: trace.throttle_events(),
            });
        }
    }
    cells.sort_by_key(GoldenCell::label);
    cells
}

/// One locked server/multi-stream cell: the discrete-event executor's
/// search results for a (chip, task-model, backend) triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScenarioGoldenCell {
    /// Chip name.
    chip: String,
    /// Task name (stands in for the task's reference model).
    task: String,
    /// Backend the submission rules select.
    backend: String,
    /// Server scenario: max offered Poisson load meeting the bound (QPS).
    server_qps: f64,
    /// Exact bits of `server_qps` — the 0-ULP lock.
    server_qps_bits: u64,
    /// The per-model latency bound the search held (3x single-stream p90).
    server_bound_ns: u64,
    /// Binary-search probes the server search spent.
    server_probes: u64,
    /// Multi-stream scenario: max streams per 50 ms frame.
    streams: u64,
    /// Search probes the stream search spent.
    multi_stream_probes: u64,
    /// Trace invariant: spans in the winning server probe's replay.
    server_spans: u64,
    /// Trace invariant: spans in the winning multi-stream replay.
    multi_stream_spans: u64,
}

impl ScenarioGoldenCell {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.chip, self.task, self.backend)
    }
}

/// Runs the server + multi-stream searches for every (model, backend)
/// pair — each task's reference model under each chip's submission
/// backend — and distills the results into golden form.
fn compute_scenario_cells() -> Vec<ScenarioGoldenCell> {
    let rules = RunRules::smoke_test();
    let mix = ScenarioMix { offline: false, server: true, multi_stream: true };
    let cache = CompileCache::new();
    let mut cells = Vec::new();
    for &chip in &ChipId::ALL {
        for def in suite(SuiteVersion::V1_0) {
            let backend = mlperf_mobile::app::submission_backend(chip, SuiteVersion::V1_0, def.task);
            let planned = cache
                .planned(chip, backend, def.model)
                .expect("every submission backend compiles");
            let sink = TraceCollector::new();
            let score = run_benchmark_planned(
                chip,
                cache.soc(chip),
                planned,
                &def,
                &rules,
                DatasetScale::Reduced(48),
                mix,
                Some(&sink),
            );
            let trace = sink.drain().pop().expect("a traced run pushes its trace");
            trace.validate().expect("trace invariants hold");
            let srv = score.server.as_ref().expect("mix requested server");
            let ms = score.multi_stream.as_ref().expect("mix requested multi-stream");
            cells.push(ScenarioGoldenCell {
                chip: score.chip.to_string(),
                task: format!("{:?}", score.def.task),
                backend: score.backend.to_string(),
                server_qps: srv.max_qps,
                server_qps_bits: srv.max_qps.to_bits(),
                server_bound_ns: srv.target_latency_ns,
                server_probes: srv.probes,
                streams: ms.streams,
                multi_stream_probes: ms.probes,
                server_spans: trace.server.as_ref().map_or(0, |t| t.span_count()),
                multi_stream_spans: trace.multi_stream.as_ref().map_or(0, |t| t.span_count()),
            });
        }
    }
    cells.sort_by_key(ScenarioGoldenCell::label);
    cells
}

/// One locked schedule-tuning cell: what the auto-tuner found for a
/// (chip, backend, model, objective) cell, scores at exact bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TuningGoldenCell {
    /// Chip name.
    chip: String,
    /// Backend the submission rules select.
    backend: String,
    /// Reference model.
    model: String,
    /// Search objective (`latency` or `energy`).
    objective: String,
    /// Heuristic single-stream latency, ms (human-readable copy).
    heuristic_ms: f64,
    /// Exact bits of `heuristic_ms` — the 0-ULP lock.
    heuristic_ms_bits: u64,
    /// Tuned single-stream latency, ms.
    tuned_ms: f64,
    /// Exact bits of `tuned_ms`.
    tuned_ms_bits: u64,
    /// Heuristic active compute energy, mJ.
    heuristic_mj: f64,
    /// Exact bits of `heuristic_mj`.
    heuristic_mj_bits: u64,
    /// Tuned active compute energy, mJ.
    tuned_mj: f64,
    /// Exact bits of `tuned_mj`.
    tuned_mj_bits: u64,
    /// Relative improvement on the objective, percent.
    gap_pct: f64,
    /// Exact bits of `gap_pct`.
    gap_pct_bits: u64,
    /// Complete candidates the search scored exactly.
    candidates: u64,
    /// Partials eliminated by the branch-and-bound bound.
    pruned: u64,
    /// Whether the tuner strictly beat the vendor heuristic.
    improved: bool,
}

impl TuningGoldenCell {
    fn label(&self) -> String {
        format!("{}/{}/{}/{}", self.chip, self.backend, self.model, self.objective)
    }
}

/// Runs the auto-tuner over the full catalog gap table (the
/// `reproduce tuning` matrix) and distills each cell into golden form.
fn compute_tuning_cells() -> Vec<TuningGoldenCell> {
    let report = mlperf_mobile::tuning::run_tuning(
        &CompileCache::new(),
        &mlperf_mobile::tuning::TuningConfig::new(),
    )
    .expect("every submission backend compiles");
    let mut cells: Vec<TuningGoldenCell> = report
        .cells
        .iter()
        .map(|c| TuningGoldenCell {
            chip: c.chip.clone(),
            backend: c.backend.clone(),
            model: c.model.clone(),
            objective: c.objective.clone(),
            heuristic_ms: c.heuristic_ms,
            heuristic_ms_bits: c.heuristic_ms.to_bits(),
            tuned_ms: c.tuned_ms,
            tuned_ms_bits: c.tuned_ms.to_bits(),
            heuristic_mj: c.heuristic_mj,
            heuristic_mj_bits: c.heuristic_mj.to_bits(),
            tuned_mj: c.tuned_mj,
            tuned_mj_bits: c.tuned_mj.to_bits(),
            gap_pct: c.gap_pct,
            gap_pct_bits: c.gap_pct.to_bits(),
            candidates: c.candidates,
            pruned: c.pruned,
            improved: c.improved,
        })
        .collect();
    cells.sort_by_key(TuningGoldenCell::label);
    cells
}

/// Bit-exact comparison for the tuning goldens, one readable line per
/// divergence (empty = pass).
fn diff_tuning_cells(expected: &[TuningGoldenCell], actual: &[TuningGoldenCell]) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.len() != actual.len() {
        diffs.push(format!(
            "cell count: golden has {}, run produced {}",
            expected.len(),
            actual.len()
        ));
    }
    for exp in expected {
        let Some(act) = actual.iter().find(|c| c.label() == exp.label()) else {
            diffs.push(format!("{}: cell missing from this run", exp.label()));
            continue;
        };
        let label = exp.label();
        for (name, gv, gb, av, ab) in [
            ("heuristic_ms", exp.heuristic_ms, exp.heuristic_ms_bits, act.heuristic_ms, act.heuristic_ms_bits),
            ("tuned_ms", exp.tuned_ms, exp.tuned_ms_bits, act.tuned_ms, act.tuned_ms_bits),
            ("heuristic_mj", exp.heuristic_mj, exp.heuristic_mj_bits, act.heuristic_mj, act.heuristic_mj_bits),
            ("tuned_mj", exp.tuned_mj, exp.tuned_mj_bits, act.tuned_mj, act.tuned_mj_bits),
            ("gap_pct", exp.gap_pct, exp.gap_pct_bits, act.gap_pct, act.gap_pct_bits),
        ] {
            diffs.extend(field_diff(&label, name, gv, gb, av, ab));
        }
        for (name, golden, got) in [
            ("candidates", exp.candidates, act.candidates),
            ("pruned", exp.pruned, act.pruned),
        ] {
            if golden != got {
                diffs.push(format!("{label}: {name} {got} != golden {golden}"));
            }
        }
        if exp.improved != act.improved {
            diffs.push(format!(
                "{label}: improved {} != golden {}",
                act.improved, exp.improved
            ));
        }
    }
    for act in actual {
        if !expected.iter().any(|c| c.label() == act.label()) {
            diffs.push(format!("{}: cell not present in golden", act.label()));
        }
    }
    diffs
}

/// One field comparison at 0 ULPs, rendered as a readable diff line.
fn field_diff(
    label: &str,
    name: &str,
    golden_val: f64,
    golden_bits: u64,
    got_val: f64,
    got_bits: u64,
) -> Option<String> {
    (golden_bits != got_bits).then(|| {
        format!(
            "{label}: {name} {got_val:.17} (bits {got_bits:#018x}) != golden {golden_val:.17} \
             (bits {golden_bits:#018x}) — {} ULPs apart",
            golden_bits.abs_diff(got_bits),
        )
    })
}

/// Compares expected vs actual bit-exactly, returning one readable line
/// per divergence (empty = pass). Pure so it can be unit-tested.
fn diff_cells(expected: &[GoldenCell], actual: &[GoldenCell]) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.len() != actual.len() {
        diffs.push(format!(
            "cell count: golden has {}, run produced {}",
            expected.len(),
            actual.len()
        ));
    }
    for exp in expected {
        let Some(act) = actual.iter().find(|c| c.label() == exp.label()) else {
            diffs.push(format!("{}: cell missing from this run", exp.label()));
            continue;
        };
        let label = exp.label();
        diffs.extend(field_diff(
            &label, "score_ms", exp.score_ms, exp.score_bits, act.score_ms, act.score_bits,
        ));
        diffs.extend(field_diff(
            &label, "accuracy", exp.accuracy, exp.accuracy_bits, act.accuracy, act.accuracy_bits,
        ));
        match (exp.offline_bits, act.offline_bits) {
            (Some(g), Some(a)) => diffs.extend(field_diff(
                &label,
                "offline_fps",
                exp.offline_fps.unwrap_or(0.0),
                g,
                act.offline_fps.unwrap_or(0.0),
                a,
            )),
            (None, None) => {}
            (g, a) => diffs.push(format!(
                "{label}: offline presence changed: golden {:?}, run {:?}",
                g.is_some(),
                a.is_some()
            )),
        }
        for (name, golden, got) in [
            ("spans", exp.spans, act.spans),
            ("throttled_queries", exp.throttled_queries, act.throttled_queries),
            ("throttle_events", exp.throttle_events, act.throttle_events),
        ] {
            if golden != got {
                diffs.push(format!("{}: {name} {got} != golden {golden}", exp.label()));
            }
        }
    }
    for act in actual {
        if !expected.iter().any(|c| c.label() == act.label()) {
            diffs.push(format!("{}: cell not present in golden", act.label()));
        }
    }
    diffs
}

/// Bit-exact comparison for the scenario goldens, one readable line per
/// divergence (empty = pass).
fn diff_scenario_cells(expected: &[ScenarioGoldenCell], actual: &[ScenarioGoldenCell]) -> Vec<String> {
    let mut diffs = Vec::new();
    if expected.len() != actual.len() {
        diffs.push(format!(
            "cell count: golden has {}, run produced {}",
            expected.len(),
            actual.len()
        ));
    }
    for exp in expected {
        let Some(act) = actual.iter().find(|c| c.label() == exp.label()) else {
            diffs.push(format!("{}: cell missing from this run", exp.label()));
            continue;
        };
        let label = exp.label();
        diffs.extend(field_diff(
            &label,
            "server_qps",
            exp.server_qps,
            exp.server_qps_bits,
            act.server_qps,
            act.server_qps_bits,
        ));
        for (name, golden, got) in [
            ("server_bound_ns", exp.server_bound_ns, act.server_bound_ns),
            ("server_probes", exp.server_probes, act.server_probes),
            ("streams", exp.streams, act.streams),
            ("multi_stream_probes", exp.multi_stream_probes, act.multi_stream_probes),
            ("server_spans", exp.server_spans, act.server_spans),
            ("multi_stream_spans", exp.multi_stream_spans, act.multi_stream_spans),
        ] {
            if golden != got {
                diffs.push(format!("{label}: {name} {got} != golden {golden}"));
            }
        }
    }
    for act in actual {
        if !expected.iter().any(|c| c.label() == act.label()) {
            diffs.push(format!("{}: cell not present in golden", act.label()));
        }
    }
    diffs
}

fn bless_requested() -> bool {
    std::env::var("BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn v1_0_suite_matches_golden() {
    let actual = compute_cells();
    assert_eq!(actual.len(), ChipId::ALL.len() * 4, "8 chips x 4 tasks");
    if bless_requested() {
        let json = serde_json::to_string_pretty(&actual).expect("cells serialize") + "\n";
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("golden dir");
        std::fs::write(GOLDEN_PATH, json).expect("write golden");
        eprintln!("blessed {} cells into {GOLDEN_PATH}", actual.len());
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("no golden at {GOLDEN_PATH} ({e}); generate with BLESS=1 cargo test --test golden_suite")
    });
    let expected: Vec<GoldenCell> = serde_json::from_str(&text).expect("golden parses");
    let diffs = diff_cells(&expected, &actual);
    assert!(
        diffs.is_empty(),
        "{} cell(s) drifted from golden (BLESS=1 to accept intentional changes):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn v1_0_scenarios_match_golden() {
    let actual = compute_scenario_cells();
    assert_eq!(
        actual.len(),
        ChipId::ALL.len() * 4,
        "every (model, backend) pair: 8 chips x 4 task models"
    );
    if bless_requested() {
        let json = serde_json::to_string_pretty(&actual).expect("cells serialize") + "\n";
        std::fs::create_dir_all(std::path::Path::new(SCENARIO_GOLDEN_PATH).parent().unwrap())
            .expect("golden dir");
        std::fs::write(SCENARIO_GOLDEN_PATH, json).expect("write golden");
        eprintln!("blessed {} scenario cells into {SCENARIO_GOLDEN_PATH}", actual.len());
        return;
    }
    let text = std::fs::read_to_string(SCENARIO_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("no golden at {SCENARIO_GOLDEN_PATH} ({e}); generate with BLESS=1 cargo test --test golden_suite")
    });
    let expected: Vec<ScenarioGoldenCell> = serde_json::from_str(&text).expect("golden parses");
    let diffs = diff_scenario_cells(&expected, &actual);
    assert!(
        diffs.is_empty(),
        "{} scenario cell(s) drifted from golden (BLESS=1 to accept intentional changes):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn v1_0_tuning_matches_golden() {
    let actual = compute_tuning_cells();
    assert_eq!(
        actual.len(),
        ChipId::ALL.len() * 4 * 2,
        "every (chip, task) submission cell under both objectives"
    );
    if bless_requested() {
        let json = serde_json::to_string_pretty(&actual).expect("cells serialize") + "\n";
        std::fs::create_dir_all(std::path::Path::new(TUNING_GOLDEN_PATH).parent().unwrap())
            .expect("golden dir");
        std::fs::write(TUNING_GOLDEN_PATH, json).expect("write golden");
        eprintln!("blessed {} tuning cells into {TUNING_GOLDEN_PATH}", actual.len());
        return;
    }
    let text = std::fs::read_to_string(TUNING_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("no golden at {TUNING_GOLDEN_PATH} ({e}); generate with BLESS=1 cargo test --test golden_suite")
    });
    let expected: Vec<TuningGoldenCell> = serde_json::from_str(&text).expect("golden parses");
    let diffs = diff_tuning_cells(&expected, &actual);
    assert!(
        diffs.is_empty(),
        "{} tuning cell(s) drifted from golden (BLESS=1 to accept intentional changes):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn tuning_golden_file_is_checked_in_and_well_formed() {
    let text = std::fs::read_to_string(TUNING_GOLDEN_PATH)
        .expect("tests/golden/v1_0_tuning.json must be checked in");
    let cells: Vec<TuningGoldenCell> = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(cells.len(), ChipId::ALL.len() * 4 * 2);
    for c in &cells {
        assert_eq!(c.tuned_ms.to_bits(), c.tuned_ms_bits, "{}: bits out of sync", c.label());
        assert_eq!(c.gap_pct.to_bits(), c.gap_pct_bits, "{}: bits out of sync", c.label());
        // The incumbent is seeded with the heuristic: tuning never regresses.
        let (before, after) = if c.objective == "latency" {
            (c.heuristic_ms, c.tuned_ms)
        } else {
            (c.heuristic_mj, c.tuned_mj)
        };
        assert!(after <= before, "{}: tuner regressed its objective", c.label());
        assert!(c.gap_pct >= 0.0, "{}: negative gap", c.label());
        assert_eq!(c.improved, after < before, "{}: improved flag out of sync", c.label());
    }
    // The headline acceptance criterion: the search finds a real
    // heuristic-vs-optimal gap somewhere in the matrix.
    assert!(
        cells.iter().any(|c| c.improved && c.gap_pct > 0.0),
        "no cell shows a nonzero scheduling gap"
    );
}

#[test]
fn tuning_diff_reports_perturbations_per_cell() {
    let base = vec![TuningGoldenCell {
        chip: "Exynos 990".into(),
        backend: "ENN".into(),
        model: "DeepLabV3Plus".into(),
        objective: "latency".into(),
        heuristic_ms: 133.7,
        heuristic_ms_bits: 133.7f64.to_bits(),
        tuned_ms: 62.1,
        tuned_ms_bits: 62.1f64.to_bits(),
        heuristic_mj: 130.3,
        heuristic_mj_bits: 130.3f64.to_bits(),
        tuned_mj: 35.1,
        tuned_mj_bits: 35.1f64.to_bits(),
        gap_pct: 53.5,
        gap_pct_bits: 53.5f64.to_bits(),
        candidates: 65,
        pruned: 340,
        improved: true,
    }];
    assert!(diff_tuning_cells(&base, &base).is_empty());

    // A 1-ULP tuned-score nudge is caught, named, and quantified.
    let mut drifted = base.clone();
    drifted[0].tuned_ms_bits += 1;
    drifted[0].tuned_ms = f64::from_bits(drifted[0].tuned_ms_bits);
    let diffs = diff_tuning_cells(&base, &drifted);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("Exynos 990/ENN/DeepLabV3Plus/latency"));
    assert!(diffs[0].contains("tuned_ms"));
    assert!(diffs[0].contains("1 ULPs apart"));

    // Search-effort drift (a changed prune count) is its own line.
    let mut pruned = base.clone();
    pruned[0].pruned = 341;
    let diffs = diff_tuning_cells(&base, &pruned);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].contains("pruned 341 != golden 340"));
}

#[test]
fn scenario_golden_file_is_checked_in_and_well_formed() {
    let text = std::fs::read_to_string(SCENARIO_GOLDEN_PATH)
        .expect("tests/golden/v1_0_scenarios.json must be checked in");
    let cells: Vec<ScenarioGoldenCell> = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(cells.len(), ChipId::ALL.len() * 4);
    for c in &cells {
        assert_eq!(c.server_qps.to_bits(), c.server_qps_bits, "{}: bits out of sync", c.label());
        assert!(c.server_qps > 0.0, "{}: a passing server load exists", c.label());
        assert!(c.server_bound_ns > 0, "{}: the latency bound is real", c.label());
        assert!(c.server_probes > 0 && c.multi_stream_probes > 0, "{}: searches probe", c.label());
        // streams == 0 is legitimate: models slower than the 50 ms frame
        // budget (e.g. MobileBert) fit no stream width at all.
        assert!(
            c.server_spans > 0 && c.multi_stream_spans > 0,
            "{}: even a failing probe replays with spans",
            c.label()
        );
    }
    // Fast models do reach multi-width frames somewhere in the matrix.
    assert!(cells.iter().any(|c| c.streams > 1), "some cell sustains multiple streams");
}

#[test]
fn scenario_diff_reports_perturbations_per_cell() {
    let base = vec![ScenarioGoldenCell {
        chip: "Snapdragon 888".into(),
        task: "ImageClassification".into(),
        backend: "SNPE".into(),
        server_qps: 1050.0,
        server_qps_bits: 1050.0f64.to_bits(),
        server_bound_ns: 5_800_000,
        server_probes: 10,
        streams: 16,
        multi_stream_probes: 2,
        server_spans: 240,
        multi_stream_spans: 128,
    }];
    assert!(diff_scenario_cells(&base, &base).is_empty());

    // A 1-ULP QPS nudge is caught, named, and quantified.
    let mut drifted = base.clone();
    drifted[0].server_qps_bits += 1;
    drifted[0].server_qps = f64::from_bits(drifted[0].server_qps_bits);
    let diffs = diff_scenario_cells(&base, &drifted);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("Snapdragon 888/ImageClassification/SNPE"));
    assert!(diffs[0].contains("server_qps"));
    assert!(diffs[0].contains("1 ULPs apart"));

    // Integer-field drift (stream width) is its own line.
    let mut widened = base.clone();
    widened[0].streams = 32;
    let diffs = diff_scenario_cells(&base, &widened);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].contains("streams 32 != golden 16"));
}

#[test]
fn golden_file_is_checked_in_and_well_formed() {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/v1_0_suite.json must be checked in");
    let cells: Vec<GoldenCell> = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(cells.len(), ChipId::ALL.len() * 4);
    for c in &cells {
        assert_eq!(c.score_ms.to_bits(), c.score_bits, "{}: bits out of sync", c.label());
        assert_eq!(c.accuracy.to_bits(), c.accuracy_bits, "{}: bits out of sync", c.label());
        assert!(c.spans > 0, "{}: a run always issues queries", c.label());
    }
    // Offline rides along with classification only.
    let offline_cells = cells.iter().filter(|c| c.offline_fps.is_some()).count();
    assert_eq!(offline_cells, ChipId::ALL.len());
}

#[test]
fn diff_reports_perturbations_per_cell() {
    let base = vec![
        GoldenCell {
            chip: "Snapdragon 888".into(),
            task: "ImageClassification".into(),
            backend: "SNPE".into(),
            score_ms: 1.5,
            score_bits: 1.5f64.to_bits(),
            accuracy: 0.75,
            accuracy_bits: 0.75f64.to_bits(),
            offline_fps: Some(500.0),
            offline_bits: Some(500.0f64.to_bits()),
            spans: 32,
            throttled_queries: 0,
            throttle_events: 0,
        },
        GoldenCell {
            chip: "Exynos 2100".into(),
            task: "ObjectDetection".into(),
            backend: "ENN".into(),
            score_ms: 4.0,
            score_bits: 4.0f64.to_bits(),
            accuracy: 0.28,
            accuracy_bits: 0.28f64.to_bits(),
            offline_fps: None,
            offline_bits: None,
            spans: 32,
            throttled_queries: 3,
            throttle_events: 1,
        },
    ];
    // Identical cells: clean pass.
    assert!(diff_cells(&base, &base).is_empty());

    // A 1-ULP score nudge on one cell is caught, named, and quantified.
    let mut drifted = base.clone();
    drifted[0].score_bits += 1;
    drifted[0].score_ms = f64::from_bits(drifted[0].score_bits);
    let diffs = diff_cells(&base, &drifted);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("Snapdragon 888/ImageClassification/SNPE"));
    assert!(diffs[0].contains("score_ms"));
    assert!(diffs[0].contains("1 ULPs apart"));

    // Trace-invariant drift is reported separately.
    let mut throttled = base.clone();
    throttled[1].throttle_events = 9;
    let diffs = diff_cells(&base, &throttled);
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].contains("Exynos 2100/ObjectDetection/ENN"));
    assert!(diffs[0].contains("throttle_events 9 != golden 1"));

    // A missing cell is its own diff line.
    let diffs = diff_cells(&base, &base[..1]);
    assert!(diffs.iter().any(|d| d.contains("cell count")));
    assert!(diffs.iter().any(|d| d.contains("cell missing from this run")));
}
