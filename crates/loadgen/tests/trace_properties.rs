//! Property tests over the run-trace layer: the invariants every trace
//! must satisfy regardless of the SUT's latency distribution — spans
//! never overlap in single-stream, issue precedes completion, the span
//! count equals the query count, and the offline burst accounts for the
//! whole throughput window.

use loadgen::log::RunLog;
use loadgen::run::{run_offline_scenario, run_single_stream};
use loadgen::scenario::TestSettings;
use loadgen::sut::SystemUnderTest;
use loadgen::trace::RunTrace;
use proptest::prelude::*;
use soc_sim::time::SimDuration;

/// A SUT cycling through a fixed latency pattern, with synthetic
/// telemetry so traced runs exercise the telemetry path too.
struct PatternSut {
    pattern_us: Vec<u64>,
    cursor: usize,
}

impl PatternSut {
    fn new(pattern_us: Vec<u64>) -> Self {
        assert!(!pattern_us.is_empty());
        PatternSut { pattern_us, cursor: 0 }
    }
}

impl SystemUnderTest for PatternSut {
    type Response = ();

    fn issue_query(&mut self, _sample: usize) -> (SimDuration, ()) {
        let us = self.pattern_us[self.cursor % self.pattern_us.len()];
        self.cursor += 1;
        (SimDuration::from_micros(us.max(1)), ())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_stream_spans_satisfy_invariants(
        pattern in proptest::collection::vec(100u64..200_000, 1..16),
        dataset_len in 1usize..2_000,
    ) {
        let mut sut = PatternSut::new(pattern);
        let mut log = RunLog::new();
        let mut trace = RunTrace::new();
        let settings = TestSettings::smoke_test();
        let r = run_single_stream(&mut sut, dataset_len, &settings, &mut log, Some(&mut trace));

        // Structural invariants hold wholesale...
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        // ...and specifically: one span per query,
        prop_assert_eq!(trace.span_count(), r.queries);
        // every span's issue precedes its completion by its latency,
        for s in &trace.spans {
            prop_assert!(s.issue_ns <= s.complete_ns);
            prop_assert_eq!(s.complete_ns - s.issue_ns, s.latency_ns);
        }
        // spans never overlap and query indices are sequential,
        for (i, w) in trace.spans.windows(2).enumerate() {
            prop_assert!(w[0].complete_ns <= w[1].issue_ns,
                "span {i} overlaps its successor: {} > {}", w[0].complete_ns, w[1].issue_ns);
            prop_assert_eq!(w[1].query_index, w[0].query_index + 1);
        }
        // sample indices address the dataset,
        prop_assert!(trace.spans.iter().all(|s| s.sample_index < dataset_len));
        // and the timeline covers the measured duration.
        let last = trace.spans.last().unwrap();
        prop_assert_eq!(last.complete_ns, r.duration.as_nanos());
    }

    #[test]
    fn offline_burst_sums_to_throughput_window(
        per_sample_us in 10u64..5_000,
    ) {
        let mut sut = PatternSut::new(vec![per_sample_us]);
        let mut log = RunLog::new();
        let mut trace = RunTrace::new();
        let settings = TestSettings::smoke_test();
        let r = run_offline_scenario(&mut sut, 512, &settings, &mut log, Some(&mut trace));

        prop_assert!(trace.validate().is_ok());
        let burst = trace.burst.as_ref().expect("offline records a burst");
        // The burst spans exactly the throughput window...
        prop_assert_eq!(burst.end_ns - burst.start_ns, r.duration.as_nanos());
        // ...covers every sample...
        prop_assert_eq!(burst.samples, r.queries);
        // ...and reproduces the reported throughput.
        let implied = burst.samples as f64 / ((burst.end_ns - burst.start_ns) as f64 / 1e9);
        prop_assert!((implied / r.throughput_fps - 1.0).abs() < 1e-9);
        // Offline is a burst, not per-query spans.
        prop_assert_eq!(trace.span_count(), 0);
    }

    #[test]
    fn tracing_does_not_change_results(
        pattern in proptest::collection::vec(100u64..100_000, 1..8),
    ) {
        let settings = TestSettings::smoke_test();
        let run = |trace: Option<&mut RunTrace>| {
            let mut sut = PatternSut::new(pattern.clone());
            let mut log = RunLog::new();
            let r = run_single_stream(&mut sut, 500, &settings, &mut log, trace);
            (r, log.to_json_lines())
        };
        let (plain, plain_log) = run(None);
        let mut trace = RunTrace::new();
        let (traced, traced_log) = run(Some(&mut trace));
        // Bit-identical scores and identical unedited logs.
        prop_assert_eq!(plain.queries, traced.queries);
        prop_assert_eq!(plain.duration, traced.duration);
        let (a, b) = (plain.latency.as_ref().unwrap(), traced.latency.as_ref().unwrap());
        prop_assert_eq!(a.p90_ns, b.p90_ns);
        prop_assert_eq!(plain_log, traced_log);
    }
}

#[test]
fn trace_json_round_trips_through_files() {
    let mut sut = PatternSut::new(vec![900, 1_700, 2_500]);
    let mut log = RunLog::new();
    let mut trace = RunTrace::new();
    let _ =
        run_single_stream(&mut sut, 777, &TestSettings::smoke_test(), &mut log, Some(&mut trace));
    let parsed = RunTrace::from_json(&trace.to_json()).unwrap();
    assert_eq!(parsed, trace, "serialization must be lossless");
}
