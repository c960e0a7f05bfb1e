//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload submission|scenarios|tune|fleet --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Each measurement is a fresh worker process (this binary re-run with
//! `worker`), so the process-wide compile, plan and accuracy-score caches
//! start cold, as they do for every CLI invocation. A worker sets up
//! several times, runs the timed phase once on the last set-up's cache,
//! checks its outputs and reports one JSON line. The parent process starts
//! workers until `--seconds` is spent, prints every metric by name with
//! its unit, and ends with one JSON result line. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod check;
mod layers;
mod measure;
mod stats;
mod trace;
mod worker;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use workload::{Size, Workload};

/// Run metadata: what produced the numbers.
fn metadata(w: Workload, seed: u64) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "perfbench {} seed={seed}{} held_out_seed={} nproc={} workers={} commit={commit} rustc=\"{}\" cpu=\"{cpu}\"",
        w.name(),
        if w.seeded() { "" } else { " (unused: the input is the catalog)" },
        w.held_out_seed(),
        worker::nproc(),
        worker::nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

// ---- self-test ------------------------------------------------------------

/// Runs every workload on tiny inputs, untraced and traced, and checks
/// that every metric `BENCHMARK.json` names prints with its unit and that
/// the output checks pass.
fn smoke() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let named = |key: &str| -> Vec<(String, String)> {
        spec.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_array())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                let o = m.as_object()?;
                let get = |k: &str| {
                    o.iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_str())
                        .map(str::to_owned)
                };
                Some((get("name")?, get("unit")?))
            })
            .collect()
    };
    let mut errors = Vec::new();
    for w in Workload::ALL {
        for traced in [false, true] {
            let r = measure::measure(w, Size::Smoke, w.default_seed(), 0.0, traced)?;
            let wanted = named(if traced { "per_layer" } else { "end_to_end" });
            if wanted.is_empty() {
                errors.push(format!(
                    "{path} names no {} metrics",
                    if traced { "per_layer" } else { "end_to_end" }
                ));
            }
            for (name, unit) in &wanted {
                match r.metrics.iter().find(|(n, _, _)| n == name) {
                    Some((_, v, u)) if u == unit && v.is_finite() => {}
                    Some((_, _, u)) => errors.push(format!(
                        "{}: {name} printed in {u}, BENCHMARK.json says {unit}",
                        w.name()
                    )),
                    None => errors.push(format!("{}: {name} not printed", w.name())),
                }
            }
            if r.metrics.len() != wanted.len() {
                errors.push(format!(
                    "{}: prints {} metrics, BENCHMARK.json names {}",
                    w.name(),
                    r.metrics.len(),
                    wanted.len()
                ));
            }
            if !r.correct || r.failed > 0 {
                errors.extend(
                    r.lines
                        .iter()
                        .filter(|l| l.starts_with("MISMATCH") || l.starts_with("failed"))
                        .cloned(),
                );
                errors.push(format!("{}: output checks failed", w.name()));
            }
            let unattributed = r
                .metrics
                .iter()
                .find(|(n, _, _)| n == "obs.unattributed_share")
                .map_or(0.0, |m| m.1);
            if traced && unattributed > 0.10 {
                errors.push(format!(
                    "{}: {:.1}% of the traced wall unattributed",
                    w.name(),
                    unattributed * 100.0
                ));
            }
            println!(
                "smoke {} {}: ok ({} metrics)",
                w.name(),
                if traced { "traced" } else { "untraced" },
                r.metrics.len()
            );
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

// ---- entry ----------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload submission|scenarios|tune|fleet|all [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --smoke"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        let (Some(w), Some(size), Some(seed), Some(traced)) = (
            args.get(1).and_then(|a| Workload::parse(a)),
            args.get(2).map(|s| {
                if s == "smoke" {
                    Size::Smoke
                } else {
                    Size::Full
                }
            }),
            args.get(3).and_then(|s| s.parse().ok()),
            args.get(4).map(|t| t == "1"),
        ) else {
            return usage();
        };
        return match worker::worker(w, size, seed, traced) {
            Ok(report) => {
                println!(
                    "{}",
                    serde_json::to_string(&report).expect("reports serialize")
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: compile failed: {e}", w.name());
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("--smoke") {
        return match smoke() {
            Ok(()) => {
                println!("smoke: every workload, metric and output check passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke failed:\n{e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload: Option<Vec<Workload>> = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next().map(String::as_str)) {
            ("--workload", Some("all")) => workload = Some(Workload::ALL.to_vec()),
            ("--workload", Some(v)) => workload = Workload::parse(v).map(|w| vec![w]),
            ("--seed", Some(v)) => match v.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            ("--trace", Some(v @ ("0" | "1"))) => traced = v == "1",
            _ => return usage(),
        }
    }
    let Some(workloads) = workload else {
        return usage();
    };
    let mut code = ExitCode::SUCCESS;
    for w in workloads {
        let seed = seed.unwrap_or_else(|| w.default_seed());
        println!("{}", metadata(w, seed));
        match measure::measure(w, Size::Full, seed, seconds, traced) {
            Ok(r) => {
                for line in &r.lines {
                    println!("{line}");
                }
                for (name, value, unit) in &r.metrics {
                    println!("{name} {value} {unit}");
                }
                println!("{}", measure::result_json(&r));
                if !r.correct {
                    eprintln!("{}: output check failed", w.name());
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}
