//! One worker process: a cold set-up, the timed phase, the output checks
//! and, when traced, the layer split.

use crate::check::{self, Checked};
use crate::layers::{self, LayerContext};
use crate::trace::Tracer;
use crate::workload::{self, Output, Size, Workload};
use mlperf_mobile::metrics::metrics;
use mobile_backend::backend::CompileError;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Fewest set-ups per timed worker; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A timed worker keeps setting up (at most [`MAX_SETUP_REPS`] times)
/// until this many seconds of set-up are measured, so a sub-millisecond
/// set-up still gets a steady median.
const SETUP_SECONDS: f64 = 0.05;

/// Most set-ups per timed worker.
const MAX_SETUP_REPS: usize = 200;

/// What one worker process measured and checked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of the timed phase.
    pub wall_s: f64,
    /// Peak resident set of the process after the timed phase (MiB).
    pub peak_rss_mib: f64,
    /// Items attempted.
    pub attempted: u64,
    /// Items failed.
    pub failed: u64,
    /// Why items failed.
    pub failures: Vec<String>,
    /// Reference mismatches.
    pub problems: Vec<String>,
    /// Digest of all outputs.
    pub fingerprint: String,
    /// Simulated queries (`submission`) or devices (`fleet`) per run.
    pub work: f64,
    /// Mean error against the paper's published outputs (`submission`).
    pub paper_error_pct: Option<f64>,
    /// The published outputs behind `paper_error_pct`.
    pub paper_lines: Vec<String>,
    /// Per-layer metrics (traced workers only): (name, value, unit).
    pub layers: Vec<(String, f64, String)>,
    /// The layer split: (layer, wall-equivalent seconds).
    pub split: Vec<(String, f64)>,
    /// Seconds of the whole traced run (traced workers only).
    pub traced_wall_s: f64,
    /// Human-readable notes from the traced run.
    pub notes: Vec<String>,
}

/// The pool size every workload runs with: one worker per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// One cold measurement: set up, run the timed phase, check, and (traced)
/// split the run into layers.
pub fn worker(
    w: Workload,
    size: Size,
    seed: u64,
    traced: bool,
) -> Result<WorkerReport, CompileError> {
    let workers = nproc();
    let mut tracer = Tracer::new(traced);
    let metrics_start = metrics().snapshot();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let (min_reps, max_reps) = if traced {
        (1, 1)
    } else {
        (SETUP_REPS, MAX_SETUP_REPS)
    };
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(workload::setup(w, size, seed, workers, &mut tracer)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");

    let before = metrics().snapshot();
    let _ = metrics().take_spec_timings();
    let started = Instant::now();
    let output = workload::run(&prepared, w, &mut tracer)?;
    let rendered = match &output {
        Output::Fleet(report) => Some(workload::render_fleet(report, &mut tracer)),
        _ => None,
    };
    let wall_s = started.elapsed().as_secs_f64();
    let timed = metrics().snapshot().since(&before);
    let spec_ms: Vec<(String, f64)> = metrics()
        .take_spec_timings()
        .into_iter()
        .map(|t| (t.label, t.wall_ms))
        .collect();
    let peak = peak_rss_mib();

    let reference = seed == w.default_seed() || !w.seeded();
    let checked: Checked = tracer.call("output checks", "bench.check", || {
        check::check(w, size, &output, rendered.as_deref(), reference)
    });
    let (paper_error_pct, paper_lines) = match &output {
        Output::Suite(results) if w == Workload::Submission => {
            check::paper_error_pct(results).map_or((None, Vec::new()), |(e, l)| (Some(e), l))
        }
        _ => (None, Vec::new()),
    };
    let work = match &output {
        Output::Suite(results) if w == Workload::Submission => {
            layers::executed_queries(results) as f64
        }
        Output::Fleet(report) => report.devices as f64,
        _ => 0.0,
    };
    let mut report = WorkerReport {
        setup_s,
        wall_s,
        peak_rss_mib: peak,
        attempted: checked.attempted,
        failed: checked.failed,
        failures: checked.failures,
        problems: checked.problems,
        fingerprint: checked.fingerprint,
        work,
        paper_error_pct,
        paper_lines,
        layers: Vec::new(),
        split: Vec::new(),
        traced_wall_s: 0.0,
        notes: Vec::new(),
    };
    if traced {
        let traced_wall = tracer.elapsed();
        let whole = metrics().snapshot().since(&metrics_start);
        let ctx = LayerContext {
            w,
            prepared: &prepared,
            output: &output,
            workers,
            wall_s,
            traced_wall,
            spec_ms,
        };
        let (layers, split, notes) = layers::layer_metrics(&ctx, &mut tracer, &timed, &whole);
        report.layers = layers;
        report.split = split;
        report.traced_wall_s = traced_wall;
        report.notes = notes;
    }
    Ok(report)
}
