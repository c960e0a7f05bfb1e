//! One run: starts worker processes until the run's time is spent and
//! reduces their reports to one result.

use crate::stats;
use crate::worker::WorkerReport;
use crate::workload::{Size, Workload};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest timed workers per run, however short `--seconds` is.
const MIN_WORKERS: usize = 3;

/// Most timed workers per run.
const MAX_WORKERS: usize = 200;

/// The end-to-end metrics every workload reports: (name, unit).
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Starts one worker process and waits for its report.
fn spawn(w: Workload, size: Size, seed: u64, traced: bool) -> Result<WorkerReport, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let size_arg = if size == Size::Full { "full" } else { "smoke" };
    let out = Command::new(exe)
        .args([
            "worker",
            w.name(),
            size_arg,
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .env_remove("MLPERF_WORKERS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} worker failed ({}): {}",
            w.name(),
            out.status,
            stdout.trim()
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{} worker printed no report: {e}", w.name()))
}

/// A finished run: every metric with its unit, and the checks.
pub struct RunResult {
    pub metrics: Vec<(String, f64, String)>,
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Measures one workload for about `seconds`: at least [`MIN_WORKERS`]
/// timed workers, more while the next one still fits.
pub fn measure(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let started = Instant::now();
    // The references are made at the default seed: at any other seed one
    // untimed worker checks them too.
    let reference = if w.seeded() && seed != w.default_seed() {
        Some(spawn(w, size, w.default_seed(), false)?)
    } else {
        None
    };
    let mut timed: Vec<WorkerReport> = Vec::new();
    let mut longest: f64 = 0.0;
    // A traced run keeps time for the traced worker and its passes.
    let reserve = if traced { 2.0 } else { 1.0 };
    let min = if traced { 1 } else { MIN_WORKERS };
    while timed.len() < min
        || (timed.len() < MAX_WORKERS
            && started.elapsed().as_secs_f64() + reserve * longest <= seconds)
    {
        let t = Instant::now();
        timed.push(spawn(w, size, seed, false)?);
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    let traced_report = if traced {
        Some(spawn(w, size, seed, true)?)
    } else {
        None
    };

    let same_seed: Vec<&WorkerReport> = timed.iter().chain(traced_report.as_ref()).collect();
    let all: Vec<&WorkerReport> = same_seed
        .iter()
        .copied()
        .chain(reference.as_ref())
        .collect();
    let mut problems: Vec<String> = Vec::new();
    for r in &all {
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
    }
    if same_seed
        .iter()
        .any(|r| r.fingerprint != same_seed[0].fingerprint)
    {
        let prints: Vec<&str> = same_seed.iter().map(|r| r.fingerprint.as_str()).collect();
        problems.push(format!(
            "{}: runs at seed {seed} gave different outputs: {prints:?}",
            w.name()
        ));
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let wall: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let wall_s = stats::median(&wall);
    let setup: Vec<f64> = timed.iter().map(|r| stats::median(&r.setup_s)).collect();
    let rss: Vec<f64> = timed.iter().map(|r| r.peak_rss_mib).collect();

    let mut lines = vec![format!(
        "{} timed worker(s){}{}, medians over workers; each timed worker set up {} times (median)",
        timed.len(),
        if traced { " + 1 traced" } else { "" },
        if reference.is_some() {
            format!(" + 1 at seed {} for the reference check", w.default_seed())
        } else {
            String::new()
        },
        stats::median(
            &timed
                .iter()
                .map(|r| r.setup_s.len() as f64)
                .collect::<Vec<_>>()
        ),
    )];
    let mut sorted = wall.clone();
    sorted.sort_by(f64::total_cmp);
    lines.push(format!(
        "wall_s of each timed worker, ascending: {sorted:?}"
    ));
    let e2e = [wall_s, stats::median(&setup), stats::median(&rss)];
    let mut metrics: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|((name, unit), value)| ((*name).to_owned(), value, (*unit).to_owned()))
        .collect();
    lines.push(format!(
        "failed_share {} ratio ({failed} of {attempted} {} failed)",
        stats::ratio(failed as f64, attempted as f64),
        if w == Workload::Fleet {
            "devices"
        } else {
            "cells"
        }
    ));
    let first = &timed[0];
    match w {
        Workload::Submission => {
            lines.push(format!(
                "sim_queries_per_s {} queries/s ({} simulated queries / wall_s)",
                first.work / wall_s,
                first.work
            ));
            if let Some(err) = first.paper_error_pct {
                lines.push(format!(
                    "paper_error_pct {err} % (calibration error: the catalog was calibrated on these five \
                     published values, so this is not a validation; the model is unvalidated on held-out data)"
                ));
                lines.extend(first.paper_lines.iter().map(|l| format!("  {l}")));
            }
        }
        Workload::Fleet => lines.push(format!("devices_per_s {} devices/s", first.work / wall_s)),
        _ => {}
    }
    for r in &all {
        lines.extend(
            r.failures
                .iter()
                .map(|f| format!("failed: {}: {f}", w.name())),
        );
    }
    if let Some(t) = &traced_report {
        metrics.clone_from(&t.layers);
        metrics.push((
            "obs.trace_overhead".to_owned(),
            t.wall_s / wall_s - 1.0,
            "ratio".to_owned(),
        ));
        lines.push(format!(
            "traced run: {:.4} s traced wall; timed phase {:.4} s traced vs {:.4} s untraced median",
            t.traced_wall_s, t.wall_s, wall_s
        ));
        lines.push("layer split (wall-equivalent s, share of the traced wall):".to_owned());
        for (layer, v) in &t.split {
            lines.push(format!(
                "  {layer:<22} {v:>10.4} s {:>6.1}%",
                v / t.traced_wall_s * 100.0
            ));
        }
        let unattributed = t
            .layers
            .iter()
            .find(|(n, _, _)| n == "obs.unattributed_share")
            .map_or(0.0, |l| l.1);
        lines.push(format!(
            "  {:<22} {:>10.4} s {:>6.1}%",
            "unattributed",
            unattributed * t.traced_wall_s,
            unattributed * 100.0
        ));
        lines.extend(t.notes.iter().cloned());
    }
    lines.extend(problems.iter().map(|p| format!("MISMATCH {p}")));
    Ok(RunResult {
        metrics,
        lines,
        correct: problems.is_empty(),
        attempted,
        failed,
    })
}

/// The result line: one JSON object with the checks and every metric.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
