//! Tests of the arrival process, plus the heap oracle of the run loops.
//!
//! [`EventQueue`] is the binary-heap discrete-event executor the server
//! and multi-stream loops used to run on: events pop in time order, and
//! same-instant events in the order they were scheduled. `heap_serve` and
//! `heap_run_multi_stream` are verbatim copies of those heap-driven loops
//! (the server's arrival draw is hoisted to the caller so a test can pass
//! arrivals with ties). The property tests below run the oracle and the
//! exact walks of [`crate::run`] on the same inputs and demand identical
//! results, logs, trace spans and idle gaps.

use super::*;
use crate::log::{LogRecord, RunLog};
use crate::run::{performance_sample_set, run_multi_stream, serve, PerformanceResult};
use crate::scenario::{Scenario, TestMode, TestSettings};
use crate::sut::SystemUnderTest;
use crate::trace::{QuerySpan, QueryTelemetry, RunTrace};
use mobile_metrics::latency::LatencyStats;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled entry: fires at `at`, ties broken by `seq`.
struct Pending<T> {
    at: SimInstant,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Pending<T> {}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic pending-event queue on the simulated clock.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in scheduling order (the monotone sequence id breaks the
/// tie). The payload type carries whatever the scenario loop needs and
/// never participates in the ordering.
struct EventQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire at `at`, returning the sequence id that
    /// orders it among same-instant events.
    fn schedule(&mut self, at: SimInstant, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending { at, seq, payload });
        seq
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    fn pop(&mut self) -> Option<(SimInstant, u64, T)> {
        self.heap.pop().map(|p| (p.at, p.seq, p.payload))
    }

    /// The fire time of the earliest pending event.
    fn peek_time(&self) -> Option<SimInstant> {
        self.heap.peek().map(|p| p.at)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The heap-driven server loop, verbatim from the executor the exact walk
/// replaced; only the arrival draw moved to the caller.
fn heap_serve<S: SystemUnderTest>(
    sut: &mut S,
    arrivals: &[SimInstant],
    samples: &[usize],
    concurrency: usize,
    log: &mut RunLog,
    mut trace: Option<&mut RunTrace>,
) -> (Vec<u64>, SimInstant) {
    let n = arrivals.len();

    /// Events of the server simulation.
    enum Ev {
        /// Query `i` arrives (enters the FIFO).
        Arrive(usize),
        /// Query `i` finishes executing (frees a device slot).
        Complete(usize),
    }
    let mut events = EventQueue::new();
    for (i, &at) in arrivals.iter().enumerate() {
        events.schedule(at, Ev::Arrive(i));
    }
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut executing = 0usize;
    let mut idle_since = Some(SimInstant::EPOCH);
    let mut latencies = Vec::with_capacity(n);
    let mut was_throttled = false;
    let mut end = SimInstant::EPOCH;
    let mut dispatched = 0u64;
    while let Some((now, _seq, ev)) = events.pop() {
        match ev {
            Ev::Arrive(i) => waiting.push_back(i),
            Ev::Complete(i) => {
                executing -= 1;
                let latency = now.duration_since(arrivals[i]);
                log.query(arrivals[i], samples[i], latency);
                latencies.push(latency.as_nanos());
                end = now;
            }
        }
        // Fill free device slots from the FIFO.
        while executing < concurrency {
            let Some(i) = waiting.pop_front() else { break };
            if executing == 0 {
                if let Some(since) = idle_since.take() {
                    let gap = now.duration_since(since);
                    if gap > SimDuration::ZERO {
                        sut.idle(gap);
                    }
                }
            }
            let service = sut.issue_query(samples[i]);
            let telemetry = sut.last_telemetry();
            if let Some(t) = &telemetry {
                if t.is_throttled() != was_throttled {
                    was_throttled = t.is_throttled();
                    log.throttle(now, t.freq_factor, t.temperature_c);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                let complete = now + service;
                t.record_span(QuerySpan {
                    query_index: dispatched,
                    sample_index: samples[i],
                    issue_ns: arrivals[i].as_nanos(),
                    dispatch_ns: now.as_nanos(),
                    complete_ns: complete.as_nanos(),
                    latency_ns: complete.duration_since(arrivals[i]).as_nanos(),
                    telemetry,
                });
            }
            dispatched += 1;
            events.schedule(now + service, Ev::Complete(i));
            executing += 1;
        }
        if executing == 0 && waiting.is_empty() && idle_since.is_none() {
            idle_since = Some(now);
        }
    }
    (latencies, end)
}

/// The heap-driven multi-stream loop, verbatim from the executor the
/// frame loop replaced.
fn heap_run_multi_stream<S: SystemUnderTest>(
    sut: &mut S,
    dataset_len: usize,
    streams: u64,
    settings: &TestSettings,
    log: &mut RunLog,
    mut trace: Option<&mut RunTrace>,
) -> PerformanceResult {
    assert!(dataset_len > 0, "empty dataset");
    assert!(streams >= 1, "multi-stream needs at least one stream");
    let interval = settings.multi_stream_interval;
    assert!(interval > SimDuration::ZERO, "frame interval must be positive");
    log.start(Scenario::MultiStream, TestMode::Performance, settings.seed, sut.description());
    if let Some(t) = trace.as_deref_mut() {
        t.begin(Scenario::MultiStream, TestMode::Performance, settings.seed, sut.description());
    }
    let by_duration = settings.min_duration.as_nanos().div_ceil(interval.as_nanos());
    let frames = settings.min_frame_count.max(1).max(by_duration);
    let samples = performance_sample_set(settings.seed, dataset_len, frames * streams);

    /// Events of the multi-stream simulation.
    enum Ev {
        /// Frame `k` is issued (all lanes dispatch).
        Frame(u64),
        /// A frame's slowest lane finished.
        FrameDone,
    }
    let mut events = EventQueue::new();
    for k in 0..frames {
        let at = SimInstant::EPOCH + SimDuration::from_nanos(k * interval.as_nanos());
        events.schedule(at, Ev::Frame(k));
    }
    let mut busy_until = SimInstant::EPOCH;
    let mut frame_latencies = Vec::with_capacity(frames as usize);
    let mut was_throttled = false;
    let mut end = SimInstant::EPOCH;
    let mut query_index = 0u64;
    while let Some((now, _seq, ev)) = events.pop() {
        match ev {
            Ev::Frame(k) => {
                if now > busy_until {
                    let gap = now.duration_since(busy_until);
                    if gap > SimDuration::ZERO {
                        sut.idle(gap);
                    }
                }
                let mut frame_latency = SimDuration::ZERO;
                for lane in 0..streams {
                    let s = samples[(k * streams + lane) as usize];
                    let latency = sut.issue_query(s);
                    log.query(now, s, latency);
                    let telemetry = sut.last_telemetry();
                    if let Some(t) = &telemetry {
                        if t.is_throttled() != was_throttled {
                            was_throttled = t.is_throttled();
                            log.throttle(now, t.freq_factor, t.temperature_c);
                        }
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.record_span(QuerySpan {
                            query_index,
                            sample_index: s,
                            issue_ns: now.as_nanos(),
                            dispatch_ns: now.as_nanos(),
                            complete_ns: (now + latency).as_nanos(),
                            latency_ns: latency.as_nanos(),
                            telemetry,
                        });
                    }
                    query_index += 1;
                    if latency > frame_latency {
                        frame_latency = latency;
                    }
                }
                log.frame(k, streams, frame_latency);
                frame_latencies.push(frame_latency.as_nanos());
                let done = now + frame_latency;
                if done > busy_until {
                    busy_until = done;
                }
                events.schedule(done, Ev::FrameDone);
            }
            Ev::FrameDone => {
                if now > end {
                    end = now;
                }
            }
        }
    }
    // The run spans the full offered-load window even when the last frame
    // finishes early.
    let offered = SimDuration::from_nanos(frames * interval.as_nanos());
    let mut duration = end.duration_since(SimInstant::EPOCH);
    if offered > duration {
        duration = offered;
    }
    let queries = frames * streams;
    log.push(LogRecord::TestEnd { queries, duration_ns: duration.as_nanos() });
    PerformanceResult {
        scenario: Scenario::MultiStream,
        queries,
        duration,
        latency: Some(LatencyStats::from_latencies(&frame_latencies)),
        throughput_fps: queries as f64 / duration.as_secs_f64(),
        offered_qps: None,
        streams: Some(streams),
    }
}

/// A SUT on a whole-millisecond grid, so arrivals and completions tie. Its
/// service times cycle through a script, plus a heat term that grows by a
/// millisecond per query (up to 3) and drains by one per idle
/// millisecond, so the latencies depend on the dispatch order and on
/// every idle gap. Scripted queries report a throttled DVFS reading, so
/// the throttle log depends on where each dispatch lands among the
/// completions.
#[derive(Debug, Clone)]
struct ScriptedSut {
    service_ms: Vec<u64>,
    throttled: Vec<bool>,
    heat_ms: u64,
    served: usize,
    last: Option<(f64, f64)>,
    /// Every idle gap the loop reported, in order.
    idles: Vec<SimDuration>,
}

impl ScriptedSut {
    fn new(service_ms: Vec<u64>, throttled: Vec<bool>) -> Self {
        ScriptedSut { service_ms, throttled, heat_ms: 0, served: 0, last: None, idles: Vec::new() }
    }

    fn draw(rng: &mut StdRng) -> Self {
        let len = rng.gen_range(1..8);
        ScriptedSut::new(
            (0..len).map(|_| rng.gen_range(1..=4)).collect(),
            (0..len).map(|_| rng.gen_bool(0.4)).collect(),
        )
    }
}

impl SystemUnderTest for ScriptedSut {
    fn issue_query(&mut self, sample_index: usize) -> SimDuration {
        let k = self.served % self.service_ms.len();
        self.served += 1;
        let latency = SimDuration::from_millis(self.service_ms[k] + self.heat_ms);
        let freq = if self.throttled[k] { 0.5 } else { 1.0 };
        self.last = Some((freq, 30.0 + self.heat_ms as f64 + sample_index as f64 / 64.0));
        self.heat_ms = (self.heat_ms + 1).min(3);
        latency
    }

    fn last_telemetry(&self) -> Option<QueryTelemetry> {
        self.last.map(|(freq_factor, temperature_c)| QueryTelemetry {
            freq_factor,
            dvfs_level: usize::from(freq_factor < 1.0),
            temperature_c,
            compute_ns: self.served as u64,
            transfer_ns: 0,
            overhead_ns: 0,
            launch_ns: 0,
            sync_ns: 0,
            energy_j: self.served as f64 * 0.5,
            stages: Vec::new(),
        })
    }

    fn idle(&mut self, dt: SimDuration) {
        self.idles.push(dt);
        self.heat_ms = self.heat_ms.saturating_sub(dt.as_nanos() / 1_000_000);
    }
}

/// What one loop run leaves behind: its outcome, log, trace and the SUT's
/// idle gaps.
type Observed<R> = (R, String, RunTrace, Vec<SimDuration>);

/// Runs `walk` on a clone of `sut` with a fresh log and trace.
fn observe<R>(
    sut: &ScriptedSut,
    walk: impl FnOnce(&mut ScriptedSut, &mut RunLog, &mut RunTrace) -> R,
) -> Observed<R> {
    let mut sut = sut.clone();
    let mut log = RunLog::new();
    let mut trace = RunTrace::new();
    let out = walk(&mut sut, &mut log, &mut trace);
    (out, log.to_json_lines(), trace, sut.idles)
}

/// The two kinds of same-instant events a server run can hold.
#[derive(Debug, Default)]
struct Ties {
    /// A completion at an arrival's instant.
    arrival_completion: u64,
    /// Two completions at one instant.
    completion_completion: u64,
}

impl Ties {
    fn count(&mut self, arrivals: &[SimInstant], trace: &RunTrace) {
        let mut done: Vec<u64> = trace.spans.iter().map(|s| s.complete_ns).collect();
        self.arrival_completion +=
            done.iter().filter(|&&c| arrivals.iter().any(|a| a.as_nanos() == c)).count() as u64;
        done.sort_unstable();
        self.completion_completion += done.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    }
}

/// Runs the heap oracle and the exact walk on one server case and
/// demands identical latencies, end instants, logs, spans and idle gaps.
/// Returns the oracle's trace.
fn assert_server_matches_oracle(
    arrivals: &[SimInstant],
    samples: &[usize],
    concurrency: usize,
    sut: &ScriptedSut,
) -> RunTrace {
    let (want, want_log, want_trace, want_idles) = observe(sut, |sut, log, trace| {
        heap_serve(sut, arrivals, samples, concurrency, log, Some(trace))
    });
    let (got, got_log, got_trace, got_idles) = observe(sut, |sut, log, trace| {
        serve(sut, arrivals, samples, concurrency, log, Some(trace))
    });
    let case = format!("concurrency {concurrency}, arrivals {arrivals:?}, sut {sut:?}");
    assert_eq!(got, want, "latencies and end: {case}");
    assert_eq!(got_log, want_log, "log: {case}");
    assert_eq!(got_trace, want_trace, "spans: {case}");
    assert_eq!(got_idles, want_idles, "idle gaps: {case}");
    // Untraced, the walk leaves the same log.
    let (_, untraced_log, _, _) =
        observe(sut, |sut, log, _| serve(sut, arrivals, samples, concurrency, log, None));
    assert_eq!(untraced_log, want_log, "untraced log: {case}");
    want_trace
}

/// Property: on arrivals drawn on a whole-millisecond grid (gaps of 0–3
/// ms, so arrivals tie each other and the completions), scripted service
/// times and concurrency 1–4, the exact server walk reproduces the heap
/// executor event for event. Both kinds of tie must occur among the
/// cases, or the property would not cover the tie order.
#[test]
fn server_walk_matches_heap_oracle() {
    let mut ties = Ties::default();
    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0x5E4E_0000 ^ case);
        let n = rng.gen_range(1..48);
        let mut at = 0u64;
        let arrivals: Vec<SimInstant> = (0..n)
            .map(|_| {
                at += rng.gen_range(0..=3u64);
                SimInstant::EPOCH + SimDuration::from_millis(at)
            })
            .collect();
        let samples: Vec<usize> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let concurrency = rng.gen_range(1..=4);
        let sut = ScriptedSut::draw(&mut rng);
        let trace = assert_server_matches_oracle(&arrivals, &samples, concurrency, &sut);
        ties.count(&arrivals, &trace);
    }
    assert!(ties.arrival_completion > 0, "no case tied an arrival with a completion: {ties:?}");
    assert!(ties.completion_completion > 0, "no case tied two completions: {ties:?}");
}

/// Property: on the server's own Poisson arrivals, over offered loads
/// from idle to saturated, the exact walk reproduces the heap executor.
#[test]
fn server_walk_matches_heap_oracle_on_poisson_arrivals() {
    for case in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0x9015_5000 ^ case);
        let qps = rng.gen_range(20.0..3_000.0);
        let count = rng.gen_range(1..96);
        let arrivals = PoissonIssuer::new(case, qps).arrivals(count, SimDuration::ZERO);
        let samples = performance_sample_set(case, 64, arrivals.len() as u64);
        let concurrency = rng.gen_range(1..=4);
        let sut = ScriptedSut::draw(&mut rng);
        assert_server_matches_oracle(&arrivals, &samples, concurrency, &sut);
    }
}

/// Property: over stream counts, frame intervals that the frames do and
/// do not overrun, and frame-count and duration rules, the frame loop
/// reproduces the heap executor's result, log, spans and idle gaps.
#[test]
fn multi_stream_walk_matches_heap_oracle() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x3A17_0000 ^ case);
        let settings = TestSettings {
            min_frame_count: rng.gen_range(0..12),
            min_duration: SimDuration::from_millis(rng.gen_range(0..40)),
            multi_stream_interval: SimDuration::from_millis(rng.gen_range(1..=8)),
            seed: case,
            ..TestSettings::smoke_test()
        };
        let streams = rng.gen_range(1..=4);
        let sut = ScriptedSut::draw(&mut rng);
        let want = observe(&sut, |sut, log, trace| {
            heap_run_multi_stream(sut, 64, streams, &settings, log, Some(trace))
        });
        let got = observe(&sut, |sut, log, trace| {
            run_multi_stream(sut, 64, streams, &settings, log, Some(trace))
        });
        assert_eq!(got, want, "streams {streams}, {settings:?}, sut {sut:?}");
    }
}

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(30), "c");
    q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(10), "a");
    q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(20), "b");
    let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
    assert_eq!(order, vec!["a", "b", "c"]);
}

#[test]
fn ties_break_by_schedule_order() {
    let mut q = EventQueue::new();
    let t = SimInstant::EPOCH + SimDuration::from_nanos(5);
    for i in 0..100u32 {
        q.schedule(t, i);
    }
    let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
    assert_eq!(popped, (0..100).collect::<Vec<_>>());
}

#[test]
fn peek_matches_pop() {
    let mut q = EventQueue::new();
    assert!(q.is_empty());
    assert_eq!(q.peek_time(), None);
    q.schedule(SimInstant::EPOCH + SimDuration::from_nanos(7), ());
    assert_eq!(q.len(), 1);
    let peeked = q.peek_time().unwrap();
    let (t, seq, ()) = q.pop().unwrap();
    assert_eq!(t, peeked);
    assert_eq!(seq, 0);
}

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
}

#[test]
fn poisson_is_seeded() {
    let mut a = PoissonIssuer::new(9, 100.0);
    let mut b = PoissonIssuer::new(9, 100.0);
    let mut c = PoissonIssuer::new(10, 100.0);
    let ga: Vec<SimDuration> = (0..64).map(|_| a.next_interarrival()).collect();
    let gb: Vec<SimDuration> = (0..64).map(|_| b.next_interarrival()).collect();
    let gc: Vec<SimDuration> = (0..64).map(|_| c.next_interarrival()).collect();
    assert_eq!(ga, gb);
    assert_ne!(ga, gc);
}

#[test]
fn poisson_mean_tracks_rate() {
    let mut p = PoissonIssuer::new(1, 1000.0);
    let n = 20_000;
    let total: u64 = (0..n).map(|_| p.next_interarrival().as_nanos()).sum();
    let mean_us = total as f64 / n as f64 / 1e3;
    // Rate 1000 qps -> mean gap 1 ms = 1000 us, within a few percent.
    assert!((mean_us - 1000.0).abs() < 50.0, "mean gap {mean_us} us");
}

#[test]
fn arrivals_meet_count_and_span() {
    let mut p = PoissonIssuer::new(3, 1000.0);
    let a = p.arrivals(100, SimDuration::from_millis(500));
    assert!(a.len() >= 100);
    // 100 arrivals at ~1ms gaps covers ~100ms << 500ms: span binds.
    let last = *a.last().unwrap();
    assert!(last.duration_since(SimInstant::EPOCH) >= SimDuration::from_millis(500));
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals nondecreasing");
}

#[test]
#[should_panic(expected = "positive")]
fn zero_qps_rejected() {
    let _ = PoissonIssuer::new(1, 0.0);
}
