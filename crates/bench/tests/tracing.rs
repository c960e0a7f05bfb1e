//! The `reproduce --trace` switch: turning per-query tracing on fills the
//! process-wide sink with valid traces and leaves every rendered artifact
//! byte-identical.
//!
//! This is a test binary of its own because [`set_tracing`] and
//! [`trace_sink`] are process-wide: any other test running in the same
//! process would race on both.

use mlperf_bench::{power_report, scenarios, set_tracing, trace_sink};
use mlperf_mobile::task::Task;

#[test]
fn tracing_switch_fills_the_sink_without_changing_artifacts() {
    let plain_scenarios = scenarios();
    let plain_power = power_report();
    assert!(trace_sink().is_empty(), "untraced runs must not deposit traces");

    set_tracing(true);
    let traced_scenarios = scenarios();
    let scenario_traces = trace_sink().drain();
    let traced_power = power_report();
    let power_traces = trace_sink().drain();
    set_tracing(false);

    assert_eq!(plain_scenarios, traced_scenarios, "tracing must not change the scenario matrix");
    assert_eq!(plain_power, traced_power, "tracing must not change the power report");
    assert!(!power_traces.is_empty(), "traced power runs must deposit traces");
    for trace in scenario_traces.iter().chain(&power_traces) {
        trace.validate().expect("trace invariants hold");
    }

    // One classification cell per flagship, each carrying the winning
    // server and multi-stream probe timelines alongside single-stream.
    assert_eq!(scenario_traces.len(), 4, "one trace per flagship cell");
    for trace in &scenario_traces {
        assert_eq!(trace.task, Task::ImageClassification);
        let server = trace.server.as_ref().expect("server timeline");
        let multi_stream = trace.multi_stream.as_ref().expect("multi-stream timeline");
        assert!(server.span_count() > 0, "{}", trace.label());
        assert!(multi_stream.span_count() > 0, "{}", trace.label());
    }
}
