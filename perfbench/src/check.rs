//! Output checks: committed references, the tuning golden, failure
//! counts and the calibration error against the paper's published values.

use crate::workload::{Output, Size, Workload};
use mlperf_mobile::harness::BenchmarkScore;
use mlperf_mobile::task::Task;
use mlperf_mobile::tuning::TuningReport;
use mobile_backend::backend::CompileError;
use serde::{Deserialize, Serialize};
use soc_sim::catalog::ChipId;
use std::path::PathBuf;

/// Where the committed references live.
fn reference_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference")).join(name)
}

/// The tuning golden the repository's golden suite locks.
fn tuning_golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/golden/v1_0_tuning.json"
    ))
}

/// A 64-bit FNV-1a hash of the text written into it, so a value's
/// rendering can be digested without being held in memory.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of every field of `value`: its `Debug` rendering, streamed
/// into the hash. `Debug` prints floats in shortest round-trip form, so a
/// one-ULP change shows.
fn debug_digest(value: &impl std::fmt::Debug) -> String {
    let mut h = Fnv::new();
    std::fmt::Write::write_fmt(&mut h, format_args!("{value:?}")).expect("hashing cannot fail");
    h.hex()
}

/// 64-bit FNV-1a digest of `text`, as 16 hex digits.
#[must_use]
pub fn digest(text: &str) -> String {
    let mut h = Fnv::new();
    std::fmt::Write::write_str(&mut h, text).expect("hashing cannot fail");
    h.hex()
}

/// One suite cell's outputs as the reference stores them: the digest of
/// the whole score plus its headline numbers, so a mismatch can say what
/// moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// `chip/task/backend`.
    pub cell: String,
    /// Digest of the `BenchmarkScore`'s `Debug` rendering (log included).
    pub digest: String,
    /// Whether the cell is a valid submission.
    pub valid: bool,
    /// Single-stream p90 latency (ms).
    pub p90_ms: f64,
    /// Accuracy-mode quality.
    pub accuracy: f64,
    /// Offline throughput (samples/s), when run.
    pub offline_fps: Option<f64>,
    /// Server scenario's max passing offered load, when run.
    pub server_qps: Option<f64>,
    /// Multi-stream scenario's width, when run.
    pub streams: Option<u64>,
}

/// The checked outputs of one timed phase.
#[derive(Debug, Default)]
pub struct Checked {
    /// Digest of everything the run output; equal runs give equal
    /// fingerprints.
    pub fingerprint: String,
    /// Items attempted (cells or devices).
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
    /// Why each failed item failed.
    pub failures: Vec<String>,
    /// Mismatches against the references, each naming the workload and
    /// the cell.
    pub problems: Vec<String>,
}

fn record(cell: &str, score: &BenchmarkScore) -> CellRecord {
    CellRecord {
        cell: cell.to_owned(),
        digest: debug_digest(score),
        valid: score.is_valid_submission(),
        p90_ms: score.latency_ms(),
        accuracy: score.accuracy,
        offline_fps: score.offline.as_ref().map(|o| o.throughput_fps),
        server_qps: score.server_qps(),
        streams: score.multi_stream_streams(),
    }
}

/// Why a score is not a valid submission.
fn invalid_reason(score: &BenchmarkScore) -> String {
    let mut why = Vec::new();
    if !score.accuracy_passed {
        why.push(format!(
            "accuracy {} below target {}",
            score.accuracy, score.quality_target
        ));
    }
    if !score.violations.is_empty() {
        why.push(format!("{} run-rule violation(s)", score.violations.len()));
    }
    if !score.ambient_compliant {
        why.push("ambient temperature outside the rules".to_owned());
    }
    why.join(", ")
}

/// Checks one timed phase's outputs. `reference` compares against the
/// committed references (done at the default seed); `BLESS=1` rewrites
/// the full-size references instead.
#[must_use]
pub fn check(
    workload: Workload,
    size: Size,
    scores: &Output,
    rendered: Option<&str>,
    reference: bool,
) -> Checked {
    let bless = reference && std::env::var("BLESS").is_ok_and(|v| v == "1");
    let name = workload.name();
    let mut out = Checked::default();
    match scores {
        Output::Suite(results) => {
            let records: Vec<CellRecord> = results
                .iter()
                .map(|(cell, r)| match r {
                    Ok(score) => record(cell, score),
                    Err(e) => compile_failure(cell, e),
                })
                .collect();
            out.attempted = results.len() as u64;
            for ((_, r), rec) in results.iter().zip(&records) {
                match r {
                    Ok(score) if !rec.valid => {
                        out.failures
                            .push(format!("{}: {}", rec.cell, invalid_reason(score)))
                    }
                    Err(e) => out
                        .failures
                        .push(format!("{}: compile failed: {e}", rec.cell)),
                    Ok(_) => {}
                }
            }
            let all: String = records.iter().map(|r| r.digest.as_str()).collect();
            out.fingerprint = digest(&all);
            if reference {
                let path = reference_path(&format!("{name}.json"));
                if bless && size == Size::Full {
                    write(
                        &path,
                        &serde_json::to_string_pretty(&records).expect("records serialize"),
                    );
                } else {
                    out.problems = compare_cells(name, &path, &records, size == Size::Full);
                }
            }
        }
        Output::Tune(report) => {
            out.attempted = report.cells.len() as u64;
            for c in &report.cells {
                let worse = if c.objective == "latency" {
                    c.tuned_ms > c.heuristic_ms
                } else {
                    c.tuned_mj > c.heuristic_mj
                };
                if worse {
                    out.failures.push(format!(
                        "{}/{}/{}/{}: tuned schedule worse than the heuristic",
                        c.chip, c.backend, c.model, c.objective
                    ));
                }
            }
            out.fingerprint = digest(&report.to_json());
            // The table has no seed: it is held to the golden on every run.
            out.problems = compare_tuning(report, size == Size::Full);
        }
        Output::Fleet(report) => {
            let scored: u64 = report.cells.iter().map(|c| c.devices).sum();
            out.attempted = report.devices;
            out.failed = report.devices.saturating_sub(scored);
            if out.failed > 0 {
                out.failures.push(format!(
                    "{} of {} devices not scored",
                    out.failed, report.devices
                ));
            }
            // The rendered report rounds to its print precision; digests of
            // each cell's histograms and of the whole report hold the rest
            // at zero ULPs.
            let mut text = rendered
                .expect("the fleet report is rendered before checking")
                .to_owned();
            for c in &report.cells {
                let cell = format!("{}/{}/{}", c.chip, c.backend, c.model);
                text += &format!("digest {cell} {}\n", debug_digest(c));
            }
            text += &format!("digest report {}\n", debug_digest(report));
            let text = text.as_str();
            out.fingerprint = digest(text);
            if reference {
                let file = if size == Size::Full {
                    "fleet.txt"
                } else {
                    "fleet_smoke.txt"
                };
                let path = reference_path(file);
                if bless {
                    write(&path, text);
                } else {
                    out.problems = compare_text(name, &path, text);
                }
            }
        }
    }
    if !matches!(scores, Output::Fleet(_)) {
        out.failed = out.failures.len() as u64;
    }
    out
}

fn compile_failure(cell: &str, e: &CompileError) -> CellRecord {
    CellRecord {
        cell: cell.to_owned(),
        digest: digest(&e.to_string()),
        valid: false,
        p90_ms: 0.0,
        accuracy: 0.0,
        offline_fps: None,
        server_qps: None,
        streams: None,
    }
}

fn write(path: &PathBuf, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("blessed {}", path.display());
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Compares suite cells with the committed reference.
fn compare_cells(
    name: &str,
    path: &PathBuf,
    records: &[CellRecord],
    complete: bool,
) -> Vec<String> {
    match read(path)
        .and_then(|t| serde_json::from_str::<Vec<CellRecord>>(&t).map_err(|e| e.to_string()))
    {
        Ok(expected) => diff_cells(name, &expected, records, complete),
        Err(e) => vec![format!("{name}: reference unusable: {e}")],
    }
}

/// One line per cell that differs from `expected`; a smoke run covers a
/// subset of the cells (`complete` = false).
fn diff_cells(
    name: &str,
    expected: &[CellRecord],
    records: &[CellRecord],
    complete: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    for got in records {
        match expected.iter().find(|e| e.cell == got.cell) {
            None => problems.push(format!("{name}: cell {} is not in the reference", got.cell)),
            Some(want) if want != got => problems.push(format!(
                "{name}: cell {} differs from the reference: digest {} vs {}, valid {} vs {}, p90 {} vs {} ms, accuracy {} vs {}, offline {:?} vs {:?} FPS, server {:?} vs {:?} QPS, streams {:?} vs {:?}",
                got.cell, got.digest, want.digest, got.valid, want.valid, got.p90_ms, want.p90_ms,
                got.accuracy, want.accuracy, got.offline_fps, want.offline_fps, got.server_qps,
                want.server_qps, got.streams, want.streams
            )),
            Some(_) => {}
        }
    }
    if complete {
        for want in expected {
            if !records.iter().any(|r| r.cell == want.cell) {
                problems.push(format!("{name}: cell {} missing from this run", want.cell));
            }
        }
    }
    problems
}

/// Compares a rendered report line by line, naming the first differing
/// line (each table row starts with its chip, each digest line names its
/// cell).
fn compare_text(name: &str, path: &PathBuf, text: &str) -> Vec<String> {
    match read(path) {
        Ok(expected) => diff_text(name, &expected, text),
        Err(e) => vec![format!("{name}: reference unusable: {e}")],
    }
}

fn diff_text(name: &str, expected: &str, text: &str) -> Vec<String> {
    if expected == text {
        return Vec::new();
    }
    let line = expected
        .lines()
        .zip(text.lines())
        .find(|(want, got)| want != got)
        .map_or_else(
            || "line count differs".to_owned(),
            |(want, got)| format!("`{}` (reference `{}`)", got.trim(), want.trim()),
        );
    vec![format!(
        "{name}: report differs from the reference at {line}"
    )]
}

/// One cell of `tests/golden/v1_0_tuning.json`.
#[derive(Debug, Clone, Deserialize)]
struct GoldenTuning {
    chip: String,
    backend: String,
    model: String,
    objective: String,
    heuristic_ms_bits: u64,
    tuned_ms_bits: u64,
    heuristic_mj_bits: u64,
    tuned_mj_bits: u64,
    gap_pct_bits: u64,
    candidates: u64,
    pruned: u64,
    improved: bool,
}

/// Holds the tuning table bit-equal to the golden (read, never written).
fn compare_tuning(report: &TuningReport, complete: bool) -> Vec<String> {
    match read(&tuning_golden_path())
        .and_then(|t| serde_json::from_str::<Vec<GoldenTuning>>(&t).map_err(|e| e.to_string()))
    {
        Ok(golden) => diff_tuning(&golden, report, complete),
        Err(e) => vec![format!("tune: golden unusable: {e}")],
    }
}

fn diff_tuning(golden: &[GoldenTuning], report: &TuningReport, complete: bool) -> Vec<String> {
    let key = |chip: &str, backend: &str, model: &str, objective: &str| {
        format!("{chip}/{backend}/{model}/{objective}")
    };
    let mut problems = Vec::new();
    for c in &report.cells {
        let cell = key(&c.chip, &c.backend, &c.model, &c.objective);
        let Some(g) = golden
            .iter()
            .find(|g| key(&g.chip, &g.backend, &g.model, &g.objective) == cell)
        else {
            problems.push(format!("tune: cell {cell} is not in the golden"));
            continue;
        };
        let fields = [
            (
                "heuristic_ms",
                c.heuristic_ms.to_bits(),
                g.heuristic_ms_bits,
            ),
            ("tuned_ms", c.tuned_ms.to_bits(), g.tuned_ms_bits),
            (
                "heuristic_mj",
                c.heuristic_mj.to_bits(),
                g.heuristic_mj_bits,
            ),
            ("tuned_mj", c.tuned_mj.to_bits(), g.tuned_mj_bits),
            ("gap_pct", c.gap_pct.to_bits(), g.gap_pct_bits),
            ("candidates", c.candidates, g.candidates),
            ("pruned", c.pruned, g.pruned),
            ("improved", u64::from(c.improved), u64::from(g.improved)),
        ];
        for (field, got, want) in fields {
            if got != want {
                problems.push(format!(
                    "tune: cell {cell}: {field} differs from the golden ({got:#x} vs {want:#x})"
                ));
            }
        }
    }
    if complete && golden.len() != report.cells.len() {
        problems.push(format!(
            "tune: {} cells, golden has {}",
            report.cells.len(),
            golden.len()
        ));
    }
    problems
}

/// The five outputs the paper publishes that the submission flow
/// reproduces: (chip, task, offline?, published value).
const PUBLISHED: [(ChipId, Task, bool, f64); 5] = [
    (
        ChipId::Dimensity1100,
        Task::ImageClassification,
        false,
        2.23,
    ),
    (ChipId::Dimensity1100, Task::ObjectDetection, false, 4.77),
    (ChipId::Dimensity1100, Task::ImageSegmentation, false, 20.02),
    (ChipId::Exynos990, Task::ImageClassification, true, 674.4),
    (
        ChipId::Snapdragon865Plus,
        Task::ImageClassification,
        true,
        605.37,
    ),
];

/// Mean absolute percentage error of the published outputs: Table 3's
/// Neuron p90 latencies (ms) and Section 7.2's offline classification
/// throughputs (FPS). `None` unless all five cells ran.
#[must_use]
pub fn paper_error_pct(
    results: &[(String, Result<BenchmarkScore, CompileError>)],
) -> Option<(f64, Vec<String>)> {
    let mut errors = Vec::new();
    let mut lines = Vec::new();
    for (chip, task, offline, paper) in PUBLISHED {
        let score = results
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .find(|s| s.chip == chip && s.def.task == task)?;
        let (sim, unit) = if offline {
            (score.offline.as_ref()?.throughput_fps, "FPS")
        } else {
            (score.latency_ms(), "ms")
        };
        let err = (sim - paper).abs() / paper * 100.0;
        lines.push(format!(
            "{chip} {task:?}{}: simulated {sim:.2} {unit}, paper {paper} {unit} ({err:.2}%)",
            if offline { " offline" } else { " p90" }
        ));
        errors.push(err);
    }
    Some((errors.iter().sum::<f64>() / errors.len() as f64, lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_mobile::tuning::TuningCell;

    fn cell(name: &str) -> CellRecord {
        CellRecord {
            cell: name.to_owned(),
            digest: "00".to_owned(),
            valid: true,
            p90_ms: 2.24,
            accuracy: 0.75,
            offline_fps: Some(659.8),
            server_qps: None,
            streams: None,
        }
    }

    #[test]
    fn changed_cell_names_workload_and_cell() {
        let reference = vec![
            cell("Dimensity 1100/ImageClassification/Neuron Delegate"),
            cell("Exynos 990/ImageClassification/ENN"),
        ];
        assert!(diff_cells("submission", &reference, &reference, true).is_empty());
        let mut changed = reference.clone();
        changed[1].p90_ms = 2.25;
        let problems = diff_cells("submission", &reference, &changed, true);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].starts_with("submission: cell Exynos 990/ImageClassification/ENN differs"),
            "{}",
            problems[0]
        );
        // A smoke run covers a subset; a full run must cover every cell.
        assert!(diff_cells("submission", &reference, &reference[..1], false).is_empty());
        assert_eq!(
            diff_cells("submission", &reference, &reference[..1], true).len(),
            1
        );
    }

    #[test]
    fn changed_report_line_is_named() {
        let reference = "header\n| Exynos 990 | 3.08 |\nsummary\n";
        assert!(diff_text("fleet", reference, reference).is_empty());
        let problems = diff_text(
            "fleet",
            reference,
            "header\n| Exynos 990 | 3.09 |\nsummary\n",
        );
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("fleet") && problems[0].contains("Exynos 990 | 3.09"),
            "{}",
            problems[0]
        );
    }

    #[test]
    fn tuning_cells_compare_at_zero_ulps() {
        let c = TuningCell {
            chip: "Snapdragon 888".into(),
            backend: "TFLite GPU".into(),
            model: "MobileBert".into(),
            objective: "energy".into(),
            heuristic_ms: 20.0,
            tuned_ms: 19.0,
            heuristic_mj: 100.0,
            tuned_mj: 90.0,
            gap_pct: 10.0,
            stages_before: 3,
            stages_after: 2,
            transitions_before: 2,
            transitions_after: 1,
            num_targets: 4,
            candidates: 12,
            pruned: 0,
            improved: true,
        };
        let golden = GoldenTuning {
            chip: c.chip.clone(),
            backend: c.backend.clone(),
            model: c.model.clone(),
            objective: c.objective.clone(),
            heuristic_ms_bits: c.heuristic_ms.to_bits(),
            tuned_ms_bits: c.tuned_ms.to_bits(),
            heuristic_mj_bits: c.heuristic_mj.to_bits(),
            tuned_mj_bits: c.tuned_mj.to_bits(),
            gap_pct_bits: c.gap_pct.to_bits(),
            candidates: c.candidates,
            pruned: c.pruned,
            improved: c.improved,
        };
        let report = TuningReport {
            beam_width: 64,
            cells: vec![c.clone()],
        };
        assert!(diff_tuning(std::slice::from_ref(&golden), &report, true).is_empty());
        let mut drifted = c;
        drifted.tuned_mj = f64::from_bits(drifted.tuned_mj.to_bits() + 1);
        let report = TuningReport {
            beam_width: 64,
            cells: vec![drifted],
        };
        let problems = diff_tuning(&[golden], &report, true);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0]
                .starts_with("tune: cell Snapdragon 888/TFLite GPU/MobileBert/energy: tuned_mj"),
            "{}",
            problems[0]
        );
    }
}
