//! Reproduction harness: regenerates every table and figure from the
//! paper's evaluation (see DESIGN.md's per-experiment index).
//!
//! Each `table*`/`figure*` function runs the benchmark pipeline and
//! renders the same rows/series the paper reports, annotated with the
//! published values where the paper states them. Invoked by the
//! `reproduce` binary.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod insights;

pub use insights::all_insights;

pub use ablations::{
    ablation_batch_size, ablation_interconnect, ablation_merge_window,
    ablation_sticky_fallback, ablation_sync_overhead, all_ablations, end_to_end_tax,
    extensions_report, power_report,
};

use mlperf_mobile::harness::{run_benchmark_planned, RunRules, ScenarioMix};
use mlperf_mobile::metrics::TraceCollector;
use mlperf_mobile::report::render_table;
use mlperf_mobile::runner::{default_threads, par_map, CompileCache};
use mlperf_mobile::sut_impl::DatasetScale;
use mlperf_mobile::task::{suite, BenchmarkDef, SuiteVersion, Task};
use mobile_backend::backend::BackendId;
use mobile_backend::registry::{available_backends, vendor_backend};
use nn_graph::models::ModelId;
use quant::{nominal_retention, Scheme, Sensitivity};
use soc_sim::catalog::ChipId;
use soc_sim::executor::run_offline;
use soc_sim::soc::Soc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-wide compilation cache shared by every table, figure and
/// insight: the same (chip, backend, model) deployments recur across
/// artifacts (Figure 6 alone revisits 16 of them), so `reproduce all`
/// compiles each one exactly once. `reproduce --trace` records each
/// artifact's compile-cache hits and misses in its trace file.
pub fn cache() -> &'static CompileCache {
    static CACHE: OnceLock<CompileCache> = OnceLock::new();
    CACHE.get_or_init(CompileCache::new)
}

/// Process-wide trace collector: while [`set_tracing`]`(true)` is in
/// force, every harness run an artifact makes passes it to
/// [`mlperf_mobile::harness::run_benchmark_planned`] as
/// `tracing().then(trace_sink)`, so each run deposits its
/// [`mlperf_mobile::BenchmarkTrace`] here. The `reproduce --trace` flag
/// drains it after each artifact to build that artifact's trace file.
pub fn trace_sink() -> &'static TraceCollector {
    static SINK: OnceLock<TraceCollector> = OnceLock::new();
    SINK.get_or_init(TraceCollector::new)
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns per-query run tracing on or off for every subsequent harness run
/// in this process: while on, runs push their traces into [`trace_sink`].
/// Rendered artifacts are byte-identical either way
/// (`tests/tracing.rs`).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether per-query run tracing is currently enabled.
#[must_use]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Vendor-path single-stream latency estimate in ms.
fn vendor_ms(chip: ChipId, model: ModelId) -> f64 {
    let soc = cache().soc(chip);
    let backend = vendor_backend(&soc).expect("vendor path exists");
    cache()
        .deployment(chip, backend, model)
        .expect("vendor backend compiles")
        .estimate_ms(&soc)
}

/// NLP latency via the Table 2 path (TFLite GPU delegate; ENN on Samsung).
fn nlp_ms(chip: ChipId) -> f64 {
    let soc = cache().soc(chip);
    let backend = if soc.vendor == "Samsung" {
        BackendId::Enn
    } else if soc.is_laptop {
        BackendId::OpenVino
    } else {
        BackendId::TfliteGpu
    };
    cache()
        .deployment(chip, backend, ModelId::MobileBert)
        .expect("NLP path compiles")
        .estimate_ms(&soc)
}

fn task_model(version: SuiteVersion, task: Task) -> ModelId {
    suite(version)
        .into_iter()
        .find(|d| d.task == task)
        .expect("task in suite")
        .model
}

fn task_ms(chip: ChipId, version: SuiteVersion, task: Task) -> f64 {
    if task == Task::QuestionAnswering {
        nlp_ms(chip)
    } else {
        vendor_ms(chip, task_model(version, task))
    }
}

/// Table 1: the benchmark suite with quality targets, plus the achieved
/// PTQ-INT8 quality from the quant model (showing each gate passes).
#[must_use]
pub fn table1() -> String {
    let mut rows = Vec::new();
    for version in SuiteVersion::ALL {
        for def in suite(version) {
            if version == SuiteVersion::V1_0 && def.task != Task::ObjectDetection {
                continue; // only detection changed between versions
            }
            let graph = def.model.build();
            let scheme = Scheme::ptq_default(nn_graph::DataType::I8);
            let retained = def.fp32_quality
                * nominal_retention(scheme, Sensitivity::for_model(def.model));
            rows.push(vec![
                version.to_string(),
                def.task.to_string(),
                format!("{} ({:.1}M params)", def.model, graph.parameter_count() as f64 / 1e6),
                def.dataset.clone(),
                format!(
                    "{:.0}% of FP32 ({:.4} {})",
                    def.target_fraction * 100.0,
                    def.fp32_quality,
                    def.task.metric_name()
                ),
                format!(
                    "{:.4} ({})",
                    retained,
                    if retained >= def.quality_target() { "passes INT8 PTQ" } else { "needs FP16" }
                ),
            ]);
        }
    }
    format!(
        "Table 1 — benchmark suite and quality targets\n{}",
        render_table(
            &["Version", "Task", "Reference model", "Data set", "Quality target", "INT8 PTQ quality"],
            &rows,
        )
    )
}

/// Table 2: per-SoC per-task configuration matrix (numerics / framework /
/// accelerator), v0.7, plus the offline classification column.
#[must_use]
pub fn table2() -> String {
    let chips = [
        ChipId::Dimensity820,
        ChipId::Exynos990,
        ChipId::Snapdragon865Plus,
        ChipId::CoreI7_1165G7,
    ];
    let version = SuiteVersion::V0_7;
    let mut rows = Vec::new();
    for chip in chips {
        let soc = cache().soc(chip);
        let mut row = vec![format!("{} {}", soc.vendor, chip)];
        // Single-stream columns per task + offline classification.
        for task in Task::ALL {
            let backend_id = mlperf_mobile::app::submission_backend(chip, version, task);
            let model = task_model(version, task);
            match cache().deployment(chip, backend_id, model) {
                Ok(dep) => row.push(format!(
                    "{}, {}, {}",
                    dep.scheme,
                    backend_id,
                    dep.accelerator_summary(&soc)
                )),
                Err(_) => row.push("n/a".into()),
            }
        }
        // Offline classification configuration (ALP engines).
        let backend_id =
            mlperf_mobile::app::submission_backend(chip, version, Task::ImageClassification);
        let dep = cache()
            .deployment(chip, backend_id, ModelId::MobileNetEdgeTpu)
            .expect("classification compiles");
        if dep.offline_streams.len() < 2 {
            // MediaTek did not submit offline in v0.7 — the paper's cell
            // reads "Not applicable".
            row.push("not submitted".into());
        } else {
            let mut engines: Vec<String> = Vec::new();
            for s in &dep.offline_streams {
                let k = soc.engine(s.stages[0].engine).kind.to_string();
                if !engines.contains(&k) {
                    engines.push(k);
                }
            }
            row.push(engines.join("+"));
        }
        rows.push(row);
    }
    format!(
        "Table 2 — numerics / framework / accelerator per task (v0.7)\n{}",
        render_table(
            &[
                "SoC",
                "Classification (single-stream)",
                "Detection (single-stream)",
                "Segmentation (single-stream)",
                "NLP (single-stream)",
                "Classification offline (ALP)",
            ],
            &rows,
        )
    )
}

/// Table 3: NNAPI vs Neuron delegate on the Dimensity 1100.
#[must_use]
pub fn table3() -> String {
    let chip = ChipId::Dimensity1100;
    let soc = cache().soc(chip);
    let cases = [
        (ModelId::MobileNetEdgeTpu, "Image Classification", 2.48, 2.23, 10.08),
        (ModelId::MobileDetSsd, "Object Detection", 5.05, 4.77, 5.54),
        (ModelId::DeepLabV3Plus, "Image Segmentation", 20.56, 20.02, 2.70),
    ];
    let mut rows = Vec::new();
    for (model, name, paper_nnapi, paper_neuron, paper_pct) in cases {
        let nnapi =
            cache().deployment(chip, BackendId::Nnapi, model).unwrap().estimate_ms(&soc);
        let neuron =
            cache().deployment(chip, BackendId::Neuron, model).unwrap().estimate_ms(&soc);
        rows.push(vec![
            name.to_owned(),
            format!("{nnapi:.2} ms (paper {paper_nnapi})"),
            format!("{neuron:.2} ms (paper {paper_neuron})"),
            format!("{:.2}% (paper {paper_pct}%)", (nnapi / neuron - 1.0) * 100.0),
        ]);
    }
    format!(
        "Table 3 — MediaTek Dimensity 1100: generic NNAPI vs vendor Neuron delegate\n{}",
        render_table(&["Task", "NNAPI Delegate", "Neuron Delegate", "% Improvement"], &rows)
    )
}

/// Table 4: requirement matrix vs other mobile AI benchmarks.
#[must_use]
pub fn table4() -> String {
    let mut rows = Vec::new();
    for cmp in mlperf_mobile::related::table4() {
        let mut row = vec![cmp.name.to_owned()];
        for s in cmp.satisfies {
            row.push(if s { "yes" } else { "X" }.to_owned());
        }
        rows.push(row);
    }
    format!(
        "Table 4 — requirement comparison with other mobile ML benchmarks\n{}",
        render_table(&["Benchmark", "Req.1", "Req.2", "Req.3", "Req.4", "Req.5"], &rows)
    )
}

/// Figure 6: v0.7 -> v1.0 latency improvement per task per SoC family.
#[must_use]
pub fn figure6() -> String {
    let pairs = [
        (ChipId::Dimensity820, ChipId::Dimensity1100),
        (ChipId::Exynos990, ChipId::Exynos2100),
        (ChipId::Snapdragon865Plus, ChipId::Snapdragon888),
        (ChipId::CoreI7_1165G7, ChipId::CoreI7_11375H),
    ];
    let mut rows = Vec::new();
    let mut all_ratios = Vec::new();
    for (old, new) in pairs {
        for task in Task::ALL {
            let a = task_ms(old, SuiteVersion::V0_7, task);
            let b = task_ms(new, SuiteVersion::V1_0, task);
            let ratio = a / b;
            all_ratios.push(ratio);
            rows.push(vec![
                format!("{old} -> {new}"),
                task.to_string(),
                format!("{a:.2} ms"),
                format!("{b:.2} ms"),
                format!("{ratio:.2}x"),
            ]);
        }
    }
    let geo = (all_ratios.iter().map(|r| r.ln()).sum::<f64>() / all_ratios.len() as f64).exp();
    let max = all_ratios.iter().copied().fold(0.0f64, f64::max);
    format!(
        "Figure 6 — generational latency improvement (v0.7 -> v1.0)\n{}\naverage improvement {geo:.2}x (paper ~2x); largest {max:.1}x on Exynos segmentation (paper 12.7x)\n",
        render_table(&["SoC family", "Task", "v0.7", "v1.0", "Improvement"], &rows)
    )
}

/// Figure 7: v0.7 single-stream latency and throughput per smartphone
/// chipset per task.
#[must_use]
pub fn figure7() -> String {
    let chips = [ChipId::Dimensity820, ChipId::Exynos990, ChipId::Snapdragon865Plus];
    let mut rows = Vec::new();
    for task in Task::ALL {
        for chip in chips {
            let ms = task_ms(chip, SuiteVersion::V0_7, task);
            rows.push(vec![
                task.to_string(),
                chip.to_string(),
                format!("{ms:.2} ms"),
                format!("{:.1} qps", 1000.0 / ms),
            ]);
        }
    }
    format!(
        "Figure 7 — v0.7 single-stream results (vendor code paths)\n{}\npaper orderings: Exynos wins classification & NLP; Dimensity wins detection & segmentation; Snapdragon competitive in segmentation & NLP\n",
        render_table(&["Task", "Chipset", "Latency", "Throughput"], &rows)
    )
}

/// Section 7.2 offline text: classification offline throughput.
#[must_use]
pub fn offline_throughput() -> String {
    let cases = [
        (ChipId::Exynos990, Some(674.4)),
        (ChipId::Snapdragon865Plus, Some(605.37)),
        (ChipId::Dimensity820, None),
        (ChipId::CoreI7_1165G7, None),
    ];
    let mut rows = Vec::new();
    for (chip, paper) in cases {
        let soc = cache().soc(chip);
        let backend = vendor_backend(&soc).unwrap();
        let dep = cache().deployment(chip, backend, ModelId::MobileNetEdgeTpu).unwrap();
        let mut state = soc.new_state(22.0);
        let r = run_offline(&soc, &dep.graph, &dep.offline_streams, &mut state, 24_576, 32);
        rows.push(vec![
            chip.to_string(),
            format!("{:.1} FPS", r.throughput_fps),
            paper.map_or("not published".to_owned(), |p| format!("{p} FPS")),
            format!("{} streams", dep.offline_streams.len()),
            format!("{:.0}% throttled", r.throttled_fraction * 100.0),
        ]);
    }
    format!(
        "Offline classification throughput (24576 samples, Section 7.2)\n{}",
        render_table(&["Chipset", "Simulated", "Paper", "ALP", "Thermal"], &rows)
    )
}

/// Section 7.1 laptop results: engine choice and generational deltas.
#[must_use]
pub fn laptop() -> String {
    let mut rows = Vec::new();
    for task in Task::ALL {
        let old_soc = cache().soc(ChipId::CoreI7_1165G7);
        let new_soc = cache().soc(ChipId::CoreI7_11375H);
        let model_old = task_model(SuiteVersion::V0_7, task);
        let model_new = task_model(SuiteVersion::V1_0, task);
        let dep_old =
            cache().deployment(ChipId::CoreI7_1165G7, BackendId::OpenVino, model_old).unwrap();
        let dep_new =
            cache().deployment(ChipId::CoreI7_11375H, BackendId::OpenVino, model_new).unwrap();
        let a = dep_old.estimate_ms(&old_soc);
        let b = dep_new.estimate_ms(&new_soc);
        rows.push(vec![
            task.to_string(),
            format!("{a:.2} ms on {}", dep_old.accelerator_summary(&old_soc)),
            format!("{b:.2} ms on {}", dep_new.accelerator_summary(&new_soc)),
            format!("{:.2}x", a / b),
        ]);
    }
    format!(
        "Laptop results (OpenVINO, all INT8; Section 7.1)\n{}\npaper: classification/detection on CPU (~1.1x gain from frequency); segmentation/NLP on iGPU; NLP gains most from the quantized GPU kernel\n",
        render_table(&["Task", "i7-1165G7 (v0.7)", "i7-11375H (v1.0)", "Gain"], &rows)
    )
}

/// Figures 1/5: the code-path matrix — which backends exist per SoC.
#[must_use]
pub fn codepaths() -> String {
    let mut rows = Vec::new();
    for chip in ChipId::ALL {
        let soc: Soc = chip.build();
        let paths: Vec<String> =
            available_backends(&soc).iter().map(ToString::to_string).collect();
        rows.push(vec![
            chip.to_string(),
            paths.join(", "),
            vendor_backend(&soc).map(|b| b.to_string()).unwrap_or_default(),
        ]);
    }
    format!(
        "Figures 1 & 5 — code paths per platform\n{}",
        render_table(&["Platform", "Available code paths", "Vendor path"], &rows)
    )
}

/// The four-scenario matrix (paper Section 4.2): single-stream, offline,
/// server, and multi-stream classification results per v1.0 flagship, all
/// driven by the discrete-event LoadGen executor. Server reports the
/// highest Poisson offered load whose p90 stays under 3x the single-stream
/// p90; multi-stream reports the widest frame that fits the 50 ms budget.
#[must_use]
pub fn scenarios() -> String {
    let version = SuiteVersion::V1_0;
    let def = suite(version)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .expect("classification is in the suite");
    let chips = [
        ChipId::Dimensity1100,
        ChipId::Exynos2100,
        ChipId::Snapdragon888,
        ChipId::CoreI7_11375H,
    ];
    let cells: Vec<(ChipId, BenchmarkDef)> =
        chips.iter().map(|&chip| (chip, def.clone())).collect();
    let rows: Vec<Vec<String>> = par_map(
        &cells,
        default_threads(),
        |(chip, def): &(ChipId, BenchmarkDef)| -> Option<Vec<String>> {
            let backend = mlperf_mobile::app::submission_backend(*chip, version, def.task);
            let planned = cache().planned(*chip, backend, def.model).ok()?;
            let score = run_benchmark_planned(
                *chip,
                cache().soc(*chip),
                planned,
                def,
                &RunRules::smoke_test(),
                DatasetScale::Reduced(32),
                ScenarioMix::all(),
                tracing().then(trace_sink),
            );
            let srv = score.server.as_ref()?;
            let ms = score.multi_stream.as_ref()?;
            Some(vec![
                chip.to_string(),
                backend.to_string(),
                format!("{:.2} ms p90", score.latency_ms()),
                score
                    .offline
                    .as_ref()
                    .map_or("n/a".to_owned(), |o| format!("{:.1} FPS", o.throughput_fps)),
                format!(
                    "{:.1} QPS (p90 <= {:.2} ms, {} probes)",
                    srv.max_qps,
                    srv.target_latency_ns as f64 / 1e6,
                    srv.probes
                ),
                format!(
                    "{} streams / {:.0} ms frame ({} probes)",
                    ms.streams,
                    ms.interval_ns as f64 / 1e6,
                    ms.probes
                ),
            ])
        },
    )
    .into_iter()
    .flatten()
    .collect();
    format!(
        "Scenario matrix — classification under all four LoadGen scenarios (v1.0 flagships)\n{}\nserver bound is 3x the measured single-stream p90; multi-stream frame budget is 50 ms\n",
        render_table(
            &["Chipset", "Code path", "Single-stream", "Offline", "Server", "Multi-stream"],
            &rows,
        )
    )
}

/// The fleet field-performance artifact (`reproduce fleet`): a
/// population sweep of 20 000 sampled field devices across the whole
/// catalog through the batched lockstep executor, reported as
/// per-(chip, path) population percentiles with the p99.9 deep tail.
///
/// Byte-identical for the fixed seed regardless of `MLPERF_WORKERS` —
/// `make fleet` diffs this text across worker counts. Deliberately not
/// in `reproduce all`'s `ARTIFACTS`, so `reproduce all` goldens are
/// unaffected.
#[must_use]
pub fn fleet() -> String {
    let config = mlperf_mobile::fleet::FleetConfig::new(20_000, 7);
    mlperf_mobile::fleet::fleet_report_text(cache(), &config)
        .expect("catalog submission paths compile")
}

/// The scheduling-gap artifact (`reproduce tuning`): the schedule
/// auto-tuner run over every catalog chip's submission cells under both
/// the latency and the energy objective, reporting heuristic-vs-optimal
/// gaps per (chip, backend, model) — a quantified extension of the
/// paper's Insights 2–5 about vendor-SDK scheduling advantages.
///
/// Byte-identical regardless of `MLPERF_WORKERS` — `make tune` diffs
/// this text across worker counts. Deliberately not in `reproduce all`'s
/// `ARTIFACTS`, so `reproduce all` goldens are unaffected.
#[must_use]
pub fn tuning() -> String {
    let config = mlperf_mobile::tuning::TuningConfig::new();
    mlperf_mobile::tuning::tuning_report_text(cache(), &config)
        .expect("catalog submission paths compile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_report_renders() {
        for (name, text) in [
            ("table1", table1()),
            ("table3", table3()),
            ("table4", table4()),
            ("figure7", figure7()),
            ("codepaths", codepaths()),
        ] {
            assert!(text.lines().count() > 4, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn fleet_artifact_renders_population_percentiles() {
        let t = fleet();
        assert!(t.contains("20000 devices, seed 7"), "headline missing:\n{t}");
        assert!(t.contains("p99.9 ms"), "deep-tail column missing:\n{t}");
        assert!(t.contains("fleet-wide single-stream latency"), "summary missing:\n{t}");
        assert!(t.contains("lane dedup:"), "dedup stats missing:\n{t}");
    }

    #[test]
    fn table3_contains_paper_values() {
        let t = table3();
        assert!(t.contains("paper 2.23"));
        assert!(t.contains("paper 10.08%"));
    }

    #[test]
    fn table2_shows_fp16_nlp_and_alp() {
        let t = table2();
        assert!(t.contains("FP16"));
        assert!(t.contains("+"), "offline column should show ALP combos:\n{t}");
    }
}
