//! Plain-text report formatting for suite results — the headless
//! equivalent of the app's results screens (paper Appendix A).

use crate::app::SuiteReport;
use crate::harness::BenchmarkScore;

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
