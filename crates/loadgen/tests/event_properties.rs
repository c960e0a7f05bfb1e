//! Property tests over the discrete-event executor: the determinism and
//! ordering invariants the server and multi-stream scenarios are built on.

use loadgen::event::{EventQueue, PoissonIssuer};
use loadgen::run::{run_multi_stream, run_server};
use loadgen::scenario::TestSettings;
use loadgen::sut::ConstantSut;
use loadgen::trace::RunTrace;
use loadgen::RunLog;
use proptest::prelude::*;
use soc_sim::time::{SimDuration, SimInstant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Events pop in nondecreasing time regardless of schedule order.
    #[test]
    fn events_pop_in_nondecreasing_time(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(t), i);
        }
        let mut prev = SimInstant::EPOCH;
        let mut popped = 0usize;
        while let Some((t, _seq, _payload)) = q.pop() {
            prop_assert!(t >= prev, "pop at {t:?} after {prev:?}");
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Events scheduled for the same instant pop in scheduling order: the
    /// sequence id is the tie-break.
    #[test]
    fn ties_break_by_sequence_id(
        times in proptest::collection::vec(0u64..16, 2..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(t), i);
        }
        let mut last_at_time: Option<(SimInstant, u64)> = None;
        while let Some((t, seq, payload)) = q.pop() {
            prop_assert_eq!(seq as usize, payload, "seq ids are assigned in schedule order");
            if let Some((prev_t, prev_seq)) = last_at_time {
                if prev_t == t {
                    prop_assert!(
                        seq > prev_seq,
                        "tie at {t:?}: seq {seq} popped after {prev_seq}"
                    );
                }
            }
            last_at_time = Some((t, seq));
        }
    }

    /// Identical (seed, qps) produce identical arrival sequences; a
    /// different seed diverges. Arrivals are strictly ordered in time.
    #[test]
    fn poisson_arrivals_are_seeded_and_ordered(
        seed in 0u64..1_000,
        qps_milli in 1u64..1_000_000,
        count in 1u64..256,
    ) {
        let qps = qps_milli as f64 / 1_000.0;
        let span = SimDuration::ZERO;
        let a = PoissonIssuer::new(seed, qps).arrivals(count, span);
        let b = PoissonIssuer::new(seed, qps).arrivals(count, span);
        prop_assert_eq!(&a, &b, "same seed must reproduce the arrival times");
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals nondecreasing");
        let c = PoissonIssuer::new(seed.wrapping_add(1), qps).arrivals(count, span);
        prop_assert!(a != c, "different seed must diverge");
    }

    /// A server run never executes more queries simultaneously than the
    /// scenario's concurrency bound, at any offered load.
    #[test]
    fn server_in_flight_never_exceeds_concurrency(
        concurrency in 1u64..5,
        qps_x10 in 10u64..5_000,
        service_us in 50u64..20_000,
    ) {
        let mut settings = TestSettings::smoke_test();
        settings.min_query_count = 24;
        settings.server_concurrency = concurrency;
        let mut sut = ConstantSut::new(SimDuration::from_micros(service_us));
        let mut log = RunLog::new();
        let mut trace = RunTrace::new();
        let r = run_server(
            &mut sut,
            64,
            qps_x10 as f64 / 10.0,
            &settings,
            &mut log,
            Some(&mut trace),
        );
        trace.validate().expect("server trace must validate");
        prop_assert_eq!(trace.span_count(), r.queries);
        prop_assert!(
            trace.max_concurrent() <= concurrency,
            "{} executing with bound {}",
            trace.max_concurrent(),
            concurrency
        );
    }

    /// Same-seed server reruns are byte-identical end to end (results and
    /// unedited logs), for any load/service combination.
    #[test]
    fn server_rerun_is_byte_identical(
        seed in 0u64..500,
        qps_x10 in 10u64..3_000,
        service_us in 50u64..20_000,
    ) {
        let mut settings = TestSettings::smoke_test();
        settings.min_query_count = 24;
        settings.seed = seed;
        let run = || {
            let mut sut = ConstantSut::new(SimDuration::from_micros(service_us));
            let mut log = RunLog::new();
            let r = run_server(&mut sut, 64, qps_x10 as f64 / 10.0, &settings, &mut log, None);
            (r, log.to_json_lines())
        };
        let (ra, la) = run();
        let (rb, lb) = run();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(la, lb);
    }

    /// Multi-stream frame latencies are the max over the lanes, every
    /// lane of every frame is logged, and traced == untraced.
    #[test]
    fn multi_stream_accounting_holds(
        streams in 1u64..8,
        service_us in 50u64..20_000,
    ) {
        let settings = TestSettings::smoke_test();
        let mut sut = ConstantSut::new(SimDuration::from_micros(service_us));
        let mut log = RunLog::new();
        let mut trace = RunTrace::new();
        let r = run_multi_stream(&mut sut, 64, streams, &settings, &mut log, Some(&mut trace));
        trace.validate().expect("multi-stream trace must validate");
        prop_assert_eq!(r.queries, settings.min_frame_count * streams);
        prop_assert_eq!(log.latencies_ns().len() as u64, r.queries);
        // Constant lanes: frame latency equals the service time exactly.
        let stats = r.latency.as_ref().unwrap();
        prop_assert_eq!(stats.p90_ns, service_us * 1_000);
        prop_assert!(loadgen::check_log(&log, &settings).is_empty());
    }
}
