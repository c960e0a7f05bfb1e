//! Property tests over the LoadGen with heteroscedastic SUTs: the run
//! rules and percentile semantics must hold under arbitrary latency
//! distributions.

use loadgen::checker::check_log;
use loadgen::log::RunLog;
use loadgen::run::{
    performance_sample_set, run_accuracy, run_offline_scenario, run_single_stream,
};
use loadgen::scenario::TestSettings;
use loadgen::sut::SystemUnderTest;
use proptest::prelude::*;
use soc_sim::time::SimDuration;

/// A SUT whose latency varies per query from a fixed pattern (e.g. a
/// device alternating between cached and cold paths).
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
    fn single_stream_always_rule_compliant(
        pattern in proptest::collection::vec(100u64..200_000, 1..16),
    ) {
        let mut sut = PatternSut::new(pattern);
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let r = run_single_stream(&mut sut, 1000, &settings, &mut log, None);
        prop_assert!(r.queries >= settings.min_query_count);
        prop_assert!(r.duration >= settings.min_duration);
        prop_assert!(check_log(&log, &settings).is_empty());
        // p90 bounded by the pattern's extremes.
        let lo = *sut.pattern_us.iter().min().unwrap() * 1_000;
        let hi = *sut.pattern_us.iter().max().unwrap() * 1_000;
        let lat = r.latency.as_ref().unwrap();
        prop_assert!(lat.p90_ns >= lo.max(1_000));
        prop_assert!(lat.p90_ns <= hi);
    }

    #[test]
    fn p90_dominates_median(
        pattern in proptest::collection::vec(100u64..50_000, 2..12),
    ) {
        let mut sut = PatternSut::new(pattern);
        let mut log = RunLog::new();
        let r = run_single_stream(&mut sut, 500, &TestSettings::smoke_test(), &mut log, None);
        let lat = r.latency.as_ref().unwrap();
        prop_assert!(lat.p90_ns >= lat.p50_ns);
        prop_assert!(lat.max_ns >= lat.p90_ns);
        prop_assert!(lat.min_ns <= lat.p50_ns);
    }

    #[test]
    fn offline_throughput_is_duration_consistent(
        per_sample_us in 10u64..5_000,
    ) {
        let mut sut = PatternSut::new(vec![per_sample_us]);
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let r = run_offline_scenario(&mut sut, 2048, &settings, &mut log, None);
        prop_assert_eq!(r.queries, settings.offline_sample_count);
        let implied = r.queries as f64 / r.duration.as_secs_f64();
        prop_assert!((implied / r.throughput_fps - 1.0).abs() < 1e-9);
        // A burst has no per-sample completion times.
        prop_assert!(r.latency.is_none());
    }

    #[test]
    fn sample_set_is_bounded_and_seed_stable(
        seed in 0u64..1_000,
        len in 1usize..5_000,
        n in 1u64..4_096,
    ) {
        let a = performance_sample_set(seed, len, n);
        prop_assert_eq!(a.len(), n as usize);
        prop_assert!(a.iter().all(|&i| i < len));
        // Same (seed, len, n) -> identical sequence.
        prop_assert_eq!(&a, &performance_sample_set(seed, len, n));
    }

    #[test]
    fn sample_set_draws_with_replacement(seed in 0u64..500) {
        // n == len independent uniform draws cover ~(1 - 1/e) = 63% of
        // the dataset. Without replacement coverage would be exactly 100%,
        // so this pins down the draw-with-replacement contract.
        let len = 1_000usize;
        let draws = performance_sample_set(seed, len, len as u64);
        let mut unique = draws;
        unique.sort_unstable();
        unique.dedup();
        let coverage = unique.len() as f64 / len as f64;
        prop_assert!((0.55..0.72).contains(&coverage), "coverage {}", coverage);
    }

    #[test]
    fn accuracy_mode_visits_each_sample_once(len in 1usize..700) {
        let mut sut = PatternSut::new(vec![50]);
        let mut log = RunLog::new();
        let r = run_accuracy(&mut sut, len, &TestSettings::smoke_test(), &mut log);
        prop_assert_eq!(r.predictions.len(), len);
        let mut seen: Vec<usize> = r.predictions.iter().map(|(i, ())| *i).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), len);
    }
}

#[test]
fn identical_seeds_produce_identical_logs() {
    let run = || {
        let mut sut = PatternSut::new(vec![900, 1_700, 2_500]);
        let mut log = RunLog::new();
        let _ = run_single_stream(&mut sut, 777, &TestSettings::smoke_test(), &mut log, None);
        log.to_json_lines()
    };
    assert_eq!(run(), run(), "the whole pipeline must be deterministic");
}
