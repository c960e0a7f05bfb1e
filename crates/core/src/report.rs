//! Plain-text report formatting for suite results — the headless
//! equivalent of the app's results screens (paper Appendix A).

use crate::app::SuiteReport;
use crate::harness::{BenchmarkScore, BenchmarkTrace};

/// Formats one score line: task, latency, accuracy, config.
#[must_use]
pub fn score_line(s: &BenchmarkScore) -> String {
    let offline = s
        .offline
        .as_ref()
        .map(|o| format!(", offline {:.1} fps", o.throughput_fps))
        .unwrap_or_default();
    format!(
        "{:22} {:8.2} ms (p90){offline}  | {} = {:.4} (target {:.4}, {}) | {} via {} on {}",
        s.def.task.to_string(),
        s.latency_ms(),
        s.def.task.metric_name(),
        s.accuracy,
        s.quality_target,
        if s.accuracy_passed { "PASS" } else { "FAIL" },
        s.scheme,
        s.backend,
        s.accelerator,
    )
}

/// Formats a whole suite report.
#[must_use]
pub fn format_report(report: &SuiteReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== MLPerf Mobile {} — {} ===\n",
        report.version, report.chip
    ));
    for s in &report.scores {
        out.push_str(&score_line(s));
        out.push('\n');
    }
    out.push_str(&format!(
        "submission valid: {}\n",
        if report.all_valid() { "yes" } else { "NO" }
    ));
    out
}

/// The per-result detail view — the headless equivalent of the app's
/// result-detail and configuration screens (paper Figure 8d/8e): scenario
/// stats, the exact hardware/software configuration, energy, and rule
/// compliance.
#[must_use]
pub fn format_details(s: &BenchmarkScore) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} / {} ==\n", s.chip, s.def.task));
    out.push_str(&format!(
        "  model            {} on {}\n",
        s.def.model, s.def.dataset
    ));
    out.push_str(&format!(
        "  configuration    {} via {} on {}\n",
        s.scheme, s.backend, s.accelerator
    ));
    out.push_str(&format!(
        "  accuracy         {:.4} {} (target {:.4}: {})\n",
        s.accuracy,
        s.def.task.metric_name(),
        s.quality_target,
        if s.accuracy_passed { "PASS" } else { "FAIL" }
    ));
    let lat = s
        .single_stream
        .latency
        .as_ref()
        .expect("single-stream runs record per-query latencies");
    out.push_str(&format!(
        "  single-stream    p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms over {} queries\n",
        lat.p50_ns as f64 / 1e6,
        lat.p90_ns as f64 / 1e6,
        lat.p99_ns as f64 / 1e6,
        lat.max_ns as f64 / 1e6,
        s.single_stream.queries,
    ));
    if let Some(off) = &s.offline {
        out.push_str(&format!(
            "  offline          {:.1} FPS over {} samples\n",
            off.throughput_fps, off.queries
        ));
    }
    if let Some(srv) = &s.server {
        out.push_str(&format!(
            "  server           max {:.1} QPS (p90 ≤ {:.2} ms, {} probes)\n",
            srv.max_qps,
            srv.target_latency_ns as f64 / 1e6,
            srv.probes,
        ));
    }
    if let Some(ms) = &s.multi_stream {
        out.push_str(&format!(
            "  multi-stream     {} streams per {:.0} ms frame ({} probes)\n",
            ms.streams,
            ms.interval_ns as f64 / 1e6,
            ms.probes,
        ));
    }
    out.push_str(&format!(
        "  energy           {:.2} mJ/query | {:.2} W average\n",
        s.joules_per_query * 1e3,
        s.average_power_w
    ));
    out.push_str(&format!(
        "  rule compliance  ambient {} | log violations {} | power saving {}\n",
        if s.ambient_compliant { "ok" } else { "OUT OF RANGE" },
        s.violations.len(),
        if s.power_saving_entered { "ENTERED" } else { "no" },
    ));
    out
}

/// Formats a one-line-per-cell summary of collected run traces: span
/// counts, throttle statistics, and the peak dispatch temperature — the
/// at-a-glance view of the observability layer.
#[must_use]
pub fn format_trace_summary(traces: &[BenchmarkTrace]) -> String {
    let mut out = String::from("=== Run traces ===\n");
    if traces.is_empty() {
        out.push_str("(no traces collected)\n");
        return out;
    }
    for t in traces {
        let peak = t
            .peak_temperature_c()
            .map(|c| format!("{c:.1} °C peak"))
            .unwrap_or_else(|| "no telemetry".to_owned());
        out.push_str(&format!(
            "{:40} {:5} spans | throttled {:4} queries ({} events) | {}{}\n",
            t.label(),
            t.single_stream.span_count(),
            t.throttled_queries(),
            t.throttle_events(),
            peak,
            match (t.offline.is_some(), t.server.is_some() || t.multi_stream.is_some()) {
                (true, true) => " | +offline burst | +scenario probes",
                (true, false) => " | +offline burst",
                (false, true) => " | +scenario probes",
                (false, false) => "",
            },
        ));
        let engines = t
            .energy
            .engines
            .iter()
            .map(|e| format!("{} {:.1}% busy, {:.3} J", e.engine, e.busy_fraction * 100.0, e.joules))
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!(
            "{:40} {:.2} mJ/query, {:.2} W avg | {}\n",
            "",
            t.energy.joules_per_query * 1e3,
            t.energy.average_power_w,
            if engines.is_empty() { "no engine telemetry".to_owned() } else { engines },
        ));
    }
    out
}

/// Renders a fixed-width table from a header and rows — shared by the
/// reproduction binary's Table/Figure outputs.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let _span = crate::obs::span::span(crate::obs::span::Phase::Report, || {
        header.first().map_or_else(String::new, |h| (*h).to_owned())
    });
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:width$} |", c, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{run_suite, AppConfig};
    use crate::harness::RunRules;
    use crate::sut_impl::DatasetScale;
    use crate::task::SuiteVersion;
    use soc_sim::catalog::ChipId;

    #[test]
    fn report_mentions_every_task() {
        let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: false, scenario_matrix: false, tuner: None };
        let report = run_suite(
            ChipId::Snapdragon888,
            SuiteVersion::V1_0,
            &config,
            DatasetScale::Reduced(32),
        )
        .unwrap();
        let text = format_report(&report);
        assert!(text.contains("Image classification"));
        assert!(text.contains("Question answering"));
        assert!(text.contains("Snapdragon 888"));
        assert!(text.contains("PASS"));
    }

    #[test]
    fn detail_view_covers_fig8_fields() {
        let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: true, scenario_matrix: false, tuner: None };
        let report = run_suite(
            ChipId::Exynos2100,
            SuiteVersion::V1_0,
            &config,
            DatasetScale::Reduced(32),
        )
        .unwrap();
        let detail = format_details(&report.scores[0]);
        assert!(detail.contains("configuration"));
        assert!(detail.contains("p90"));
        assert!(detail.contains("offline"));
        assert!(detail.contains("mJ/query"));
        assert!(detail.contains("rule compliance"));
    }

    #[test]
    fn detail_view_lists_scenario_searches() {
        let config = AppConfig {
            rules: RunRules::smoke_test(),
            offline_classification: true,
            scenario_matrix: true,
            tuner: None,
        };
        let report = run_suite(
            ChipId::Dimensity1100,
            SuiteVersion::V1_0,
            &config,
            DatasetScale::Reduced(32),
        )
        .unwrap();
        let classification = &report.scores[0];
        let detail = format_details(classification);
        assert!(detail.contains("server"), "{detail}");
        assert!(detail.contains("QPS"), "{detail}");
        assert!(detail.contains("multi-stream"), "{detail}");
        assert!(detail.contains("streams per"), "{detail}");
        // The headline metrics are reachable straight off the score too.
        assert!(classification.server_qps().unwrap() > 0.0);
        assert!(classification.multi_stream_streams().unwrap() >= 1);
        // Non-classification rows ran single-stream only.
        let qa = &report.scores[3];
        assert!(qa.server.is_none() && qa.multi_stream.is_none());
    }

    #[test]
    fn trace_summary_lists_cells() {
        use crate::metrics::TraceCollector;
        use crate::runner::SuiteRunner;
        use std::sync::Arc;
        let config = AppConfig { rules: RunRules::smoke_test(), offline_classification: true, scenario_matrix: false, tuner: None };
        let sink = Arc::new(TraceCollector::new());
        SuiteRunner::new()
            .with_trace(Arc::clone(&sink))
            .suite_report(
                ChipId::Snapdragon888,
                SuiteVersion::V1_0,
                &config,
                DatasetScale::Reduced(32),
            )
            .unwrap();
        let traces = sink.drain();
        let text = format_trace_summary(&traces);
        assert!(text.contains("Run traces"));
        assert!(text.contains("spans"));
        assert!(text.contains("+offline burst"));
        // One summary line plus one energy line per cell.
        assert_eq!(text.lines().count(), 1 + 2 * traces.len());
        assert!(text.contains("mJ/query"));
        assert!(text.contains("% busy"));
        assert!(format_trace_summary(&[]).contains("no traces"));
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["x".into(), "y".into()], vec!["wide cell".into(), "z".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }
}
