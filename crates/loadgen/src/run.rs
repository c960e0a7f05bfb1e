//! The LoadGen run loops (paper Section 4).
//!
//! Single-stream: inject one query, wait for completion, record, repeat —
//! until at least `min_query_count` samples AND `min_duration` of simulated
//! time have elapsed. Offline: one burst of `offline_sample_count` samples.
//! Server: Poisson arrivals dispatched through the deterministic
//! discrete-event executor ([`crate::event`]) with up to
//! `server_concurrency` queries executing at once; latency includes
//! queueing delay. Multi-stream: N-wide frames at a fixed interval; frame
//! latency is the max over the N lanes. Accuracy mode feeds the entire
//! validation set. All on the simulated clock.
//!
//! Each scenario has one loop, and each loop takes an optional
//! [`RunTrace`] sink: `None` runs untraced, `Some` records per-query
//! spans without changing the result or the log.

use crate::event::{EventQueue, PoissonIssuer};
use crate::log::{LogRecord, RunLog};
use crate::scenario::{Scenario, TestMode, TestSettings};
use crate::sut::SystemUnderTest;
use crate::trace::{QuerySpan, RunTrace};
use mobile_metrics::latency::LatencyStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use soc_sim::time::{SimDuration, SimInstant};
use std::collections::VecDeque;

/// Performance-mode result for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceResult {
    /// Scenario measured.
    pub scenario: Scenario,
    /// Queries issued.
    pub queries: u64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Per-query latency statistics. `Some` for single-stream (per-query
    /// completions), server (arrival-to-completion, queueing included) and
    /// multi-stream (per-*frame* latencies — the scored unit); `None` for
    /// offline, which measures one burst — per-sample completion times
    /// don't exist there, and fabricating them from the mean would be
    /// reporting fake percentiles.
    pub latency: Option<LatencyStats>,
    /// Average throughput in samples/second (the offline score).
    pub throughput_fps: f64,
    /// Offered load of a server run (queries/second). `None` for every
    /// other scenario.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub offered_qps: Option<f64>,
    /// Stream count of a multi-stream run. `None` for every other
    /// scenario.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub streams: Option<u64>,
}

impl PerformanceResult {
    /// The scenario's own headline metric: p90 latency (ms) for
    /// single-stream, throughput (FPS) for offline, offered QPS for server
    /// (the search stores its max *passing* QPS here), and the stream
    /// count for multi-stream.
    ///
    /// # Panics
    ///
    /// Panics on a result missing the field its scenario is scored on (the
    /// run loops never produce one).
    #[must_use]
    pub fn score(&self) -> f64 {
        match self.scenario {
            Scenario::SingleStream => self
                .latency
                .as_ref()
                .expect("single-stream runs record per-query latencies")
                .score_ms(),
            Scenario::Offline => self.throughput_fps,
            Scenario::Server => {
                self.offered_qps.expect("server runs record their offered load")
            }
            Scenario::MultiStream => {
                self.streams.expect("multi-stream runs record their stream count") as f64
            }
        }
    }
}

/// Accuracy-mode result: every validation sample's prediction.
#[derive(Debug, Clone)]
pub struct AccuracyResult<R> {
    /// Predictions indexed by dataset sample index.
    pub predictions: Vec<(usize, R)>,
    /// Total simulated duration of the accuracy pass.
    pub duration: SimDuration,
}

/// Selects the performance sample set: `n` indices drawn by the seeded RNG
/// from the dataset — "a seed and random-number generator allows the
/// LoadGen to select samples, precluding unrealistic data-set-specific
/// optimizations".
///
/// The draw is **with replacement**: each of the `n` indices is an
/// independent uniform pick from `0..dataset_len`, so duplicates are
/// expected whenever `n` approaches or exceeds the dataset size (for
/// `n == dataset_len` about `1 - 1/e ≈ 63%` of samples appear at least
/// once). That matches the real LoadGen's behavior — performance queries
/// replay whatever the RNG picks; coverage of every sample is an accuracy-
/// mode concern, not a performance-mode one. Identical `(seed,
/// dataset_len, n)` triples always produce the identical sequence.
///
/// # Panics
///
/// Panics if the dataset is empty.
#[must_use]
pub fn performance_sample_set(seed: u64, dataset_len: usize, n: u64) -> Vec<usize> {
    assert!(dataset_len > 0, "empty dataset");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..dataset_len)).collect()
}

/// Runs the single-stream performance scenario.
///
/// When `trace` is `Some`, every query's span (issue/complete
/// sim-timestamps, sample index, latency) plus the SUT's telemetry is
/// recorded into it. Tracing is purely observational: the result and the
/// log are bit-identical with or without a sink attached (the
/// `parallel_determinism` integration tests enforce this end to end).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn run_single_stream<S: SystemUnderTest>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    log: &mut RunLog,
    mut trace: Option<&mut RunTrace>,
) -> PerformanceResult {
    log.start(
        Scenario::SingleStream,
        TestMode::Performance,
        settings.seed,
        sut.description(),
    );
    if let Some(t) = trace.as_deref_mut() {
        t.begin(
            Scenario::SingleStream,
            TestMode::Performance,
            settings.seed,
            sut.description(),
        );
    }
    // At least one sample, or a zero query count would leave nothing to
    // cycle through on the way to `min_duration`.
    let samples =
        performance_sample_set(settings.seed, dataset_len, settings.min_query_count.max(1));
    let mut now = SimInstant::EPOCH;
    // At least min_query_count latencies will be recorded; slow-query runs
    // stop right at the count, so this usually avoids every regrowth.
    let mut latencies = Vec::with_capacity(settings.min_query_count as usize);
    let mut queries = 0u64;
    let mut was_throttled = false;
    // Repeat until both the sample count and the minimum duration are met.
    'outer: loop {
        for &s in &samples {
            let (latency, _response) = sut.issue_query(s);
            log.query(now, s, latency);
            // Telemetry is pulled once per query and drives both the trace
            // span and the compliance log's throttle transitions, so traced
            // and untraced runs log byte-identical event streams.
            let telemetry = sut.last_telemetry();
            if let Some(t) = &telemetry {
                if t.is_throttled() != was_throttled {
                    was_throttled = t.is_throttled();
                    log.throttle(now, t.freq_factor, t.temperature_c);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.record_span(QuerySpan {
                    query_index: queries,
                    sample_index: s,
                    issue_ns: now.as_nanos(),
                    dispatch_ns: now.as_nanos(),
                    complete_ns: (now + latency).as_nanos(),
                    latency_ns: latency.as_nanos(),
                    telemetry,
                });
            }
            now += latency;
            latencies.push(latency.as_nanos());
            queries += 1;
            if queries >= settings.min_query_count
                && now.duration_since(SimInstant::EPOCH) >= settings.min_duration
            {
                break 'outer;
            }
        }
    }
    let duration = now.duration_since(SimInstant::EPOCH);
    log.push(LogRecord::TestEnd { queries, duration_ns: duration.as_nanos() });
    PerformanceResult {
        scenario: Scenario::SingleStream,
        queries,
        duration,
        latency: Some(LatencyStats::from_latencies(&latencies)),
        throughput_fps: queries as f64 / duration.as_secs_f64(),
        offered_qps: None,
        streams: None,
    }
}

/// Runs the single-stream performance scenario for K lockstep device
/// lanes, returning one [`PerformanceResult`] per lane.
///
/// Every lane walks the same seeded sample sequence on its own virtual
/// clock; one [`crate::sut::BatchSut::issue_query_lanes`] call advances
/// all in-flight lanes per query step. A lane retires the moment it meets
/// the run rules (`min_query_count` AND `min_duration`), exactly where a
/// scalar run of that lane would have stopped; survivors keep stepping
/// from the next sample. Lane `k`'s result and log are **byte-identical**
/// to [`run_single_stream`] over the equivalent scalar SUT (enforced by
/// `batched_lanes_match_scalar_runs` below and the cross-crate
/// `batch_smoke` golden test).
///
/// # Panics
///
/// Panics if the dataset is empty, the SUT has no lanes, or `logs` does
/// not provide exactly one log per lane.
pub fn run_single_stream_batched<S: crate::sut::BatchSut>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    logs: &mut [RunLog],
) -> Vec<PerformanceResult> {
    let lanes = sut.lanes();
    assert!(lanes > 0, "batch needs at least one lane");
    assert_eq!(logs.len(), lanes, "one log per lane");
    for (k, log) in logs.iter_mut().enumerate() {
        log.start(
            Scenario::SingleStream,
            TestMode::Performance,
            settings.seed,
            sut.lane_description(k),
        );
    }
    // Clamped exactly like the scalar loop's sample set.
    let samples =
        performance_sample_set(settings.seed, dataset_len, settings.min_query_count.max(1));

    /// Per-lane run-loop bookkeeping, identical to the scalar loop's
    /// locals.
    struct Lane {
        now: SimInstant,
        latencies: Vec<u64>,
        queries: u64,
        was_throttled: bool,
    }
    let mut lane_state: Vec<Lane> = (0..lanes)
        .map(|_| Lane {
            now: SimInstant::EPOCH,
            latencies: Vec::with_capacity(settings.min_query_count as usize),
            queries: 0,
            was_throttled: false,
        })
        .collect();
    // active[pos] = original lane id still in flight at SUT position
    // `pos`; retirement removes positions so SUT lanes and this map shift
    // together.
    let mut active: Vec<usize> = (0..lanes).collect();
    let mut step_latencies: Vec<SimDuration> = Vec::with_capacity(lanes);
    let mut finished: Vec<usize> = Vec::new();
    'outer: loop {
        for &s in &samples {
            sut.issue_query_lanes(s, &mut step_latencies);
            debug_assert_eq!(step_latencies.len(), active.len());
            finished.clear();
            for (pos, &id) in active.iter().enumerate() {
                let latency = step_latencies[pos];
                let lane = &mut lane_state[id];
                logs[id].query(lane.now, s, latency);
                if let Some((freq_factor, temperature_c)) = sut.lane_throttle(pos) {
                    let throttled = freq_factor < 1.0;
                    if throttled != lane.was_throttled {
                        lane.was_throttled = throttled;
                        logs[id].throttle(lane.now, freq_factor, temperature_c);
                    }
                }
                lane.now += latency;
                lane.latencies.push(latency.as_nanos());
                lane.queries += 1;
                if lane.queries >= settings.min_query_count
                    && lane.now.duration_since(SimInstant::EPOCH) >= settings.min_duration
                {
                    finished.push(pos);
                }
            }
            // Retire from the highest position down so the lower
            // positions stay valid while lanes shift.
            for &pos in finished.iter().rev() {
                sut.retire_lane(pos);
                active.remove(pos);
            }
            if active.is_empty() {
                break 'outer;
            }
        }
    }
    lane_state
        .into_iter()
        .enumerate()
        .map(|(id, lane)| {
            let duration = lane.now.duration_since(SimInstant::EPOCH);
            logs[id].push(LogRecord::TestEnd { queries: lane.queries, duration_ns: duration.as_nanos() });
            PerformanceResult {
                scenario: Scenario::SingleStream,
                queries: lane.queries,
                duration,
                latency: Some(LatencyStats::from_latencies(&lane.latencies)),
                throughput_fps: lane.queries as f64 / duration.as_secs_f64(),
                offered_qps: None,
                streams: None,
            }
        })
        .collect()
}

/// Runs the offline performance scenario: one burst.
///
/// Offline observes one burst, so a `Some` trace records a single
/// [`crate::trace::BurstSpan`] covering the whole throughput window
/// (`end - start` equals the reported duration; `samples` equals the
/// reported query count). Tracing never perturbs the result.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn run_offline_scenario<S: SystemUnderTest>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    log: &mut RunLog,
    trace: Option<&mut RunTrace>,
) -> PerformanceResult {
    log.start(
        Scenario::Offline,
        TestMode::Performance,
        settings.seed,
        sut.description(),
    );
    let samples =
        performance_sample_set(settings.seed, dataset_len, settings.offline_sample_count);
    let (duration, responses) = sut.issue_batch(&samples);
    assert_eq!(responses.len(), samples.len(), "SUT must answer every sample");
    if let Some(t) = trace {
        t.begin(
            Scenario::Offline,
            TestMode::Performance,
            settings.seed,
            sut.description(),
        );
        t.record_burst(0, duration.as_nanos(), samples.len() as u64);
    }
    log.push(LogRecord::BurstComplete {
        samples: samples.len() as u64,
        duration_ns: duration.as_nanos(),
    });
    log.push(LogRecord::TestEnd {
        queries: samples.len() as u64,
        duration_ns: duration.as_nanos(),
    });
    // Offline observes one burst completion, not per-sample completions:
    // there are no real latencies to aggregate, so none are reported
    // (previously this fabricated identical "latencies" from the mean,
    // which produced fictional percentiles).
    PerformanceResult {
        scenario: Scenario::Offline,
        queries: samples.len() as u64,
        duration,
        latency: None,
        throughput_fps: samples.len() as f64 / duration.as_secs_f64(),
        offered_qps: None,
        streams: None,
    }
}

/// Salt XOR-ed into the test seed for the server arrival RNG, so arrival
/// times and sample selection draw from independent streams of the same
/// published seed.
const SERVER_ARRIVAL_SALT: u64 = 0x5345_5256; // "SERV"

/// Bisection steps of the server max-QPS search: enough to pin the knee to
/// ~0.1% of the search range, and a fixed count so every search is
/// deterministic.
const QPS_SEARCH_ITERS: u32 = 10;

/// Runs the server performance scenario at a fixed offered load.
///
/// Queries arrive at Poisson-distributed instants (rate `qps`, seeded from
/// the test seed) and are dispatched through the deterministic
/// discrete-event executor: at most `server_concurrency` queries execute
/// at once, later arrivals queue FIFO, and each query's reported latency
/// is *arrival to completion* — queueing delay included. The device state
/// advances in dispatch order (a deterministic total order by the event
/// queue's time-then-sequence tie-break), and idle gaps between dispatches
/// are reported to the SUT so thermal models cool down exactly as they
/// heat up under load. Tracing never perturbs the result.
///
/// # Panics
///
/// Panics if the dataset is empty or `qps` is not strictly positive.
pub fn run_server<S: SystemUnderTest>(
    sut: &mut S,
    dataset_len: usize,
    qps: f64,
    settings: &TestSettings,
    log: &mut RunLog,
    mut trace: Option<&mut RunTrace>,
) -> PerformanceResult {
    assert!(dataset_len > 0, "empty dataset");
    let concurrency = settings.server_concurrency.max(1) as usize;
    log.start(Scenario::Server, TestMode::Performance, settings.seed, sut.description());
    if let Some(t) = trace.as_deref_mut() {
        t.begin(Scenario::Server, TestMode::Performance, settings.seed, sut.description());
    }
    let mut issuer = PoissonIssuer::new(settings.seed ^ SERVER_ARRIVAL_SALT, qps);
    let arrivals = issuer.arrivals(settings.min_query_count.max(1), settings.min_duration);
    let n = arrivals.len();
    let samples = performance_sample_set(settings.seed, dataset_len, n as u64);

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
            let (service, _response) = sut.issue_query(samples[i]);
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
    let duration = end.duration_since(SimInstant::EPOCH);
    log.push(LogRecord::TestEnd { queries: n as u64, duration_ns: duration.as_nanos() });
    PerformanceResult {
        scenario: Scenario::Server,
        queries: n as u64,
        duration,
        latency: Some(LatencyStats::from_latencies(&latencies)),
        throughput_fps: n as f64 / duration.as_secs_f64(),
        offered_qps: Some(qps),
        streams: None,
    }
}

/// Outcome of the server max-QPS binary search.
#[derive(Debug, Clone)]
pub struct QpsSearch {
    /// Largest probed offered load whose p90 latency met the bound; `0.0`
    /// if every probe failed (then `result`/`log` hold the last failing
    /// probe so there is still a deterministic artifact to inspect).
    pub max_passing_qps: f64,
    /// The latency bound the search held probes to.
    pub target_latency: SimDuration,
    /// Probe runs executed.
    pub probes: u64,
    /// The winning probe's result (its `offered_qps` is the headline).
    pub result: PerformanceResult,
    /// The winning probe's unedited run log.
    pub log: RunLog,
}

/// Binary-searches the maximum offered load (QPS) whose p90 latency —
/// queueing included — stays within `target_latency`, over `(0, max_qps]`.
///
/// Each probe runs [`run_server`] against a **fresh** SUT from `make_sut`
/// (thermal state must not leak between probes, or the search would not be
/// monotone or reproducible). A fixed [`QPS_SEARCH_ITERS`] bisection steps
/// keep the whole search a pure function of its inputs.
///
/// # Panics
///
/// Panics if the dataset is empty, `max_qps` is not strictly positive, or
/// a probe produces no latency statistics.
pub fn find_max_qps<S, F>(
    mut make_sut: F,
    dataset_len: usize,
    settings: &TestSettings,
    target_latency: SimDuration,
    max_qps: f64,
) -> QpsSearch
where
    S: SystemUnderTest,
    F: FnMut() -> S,
{
    assert!(max_qps > 0.0 && max_qps.is_finite(), "search bound must be positive");
    let mut lo = 0.0f64;
    let mut hi = max_qps;
    let mut best: Option<(f64, PerformanceResult, RunLog)> = None;
    let mut last_fail: Option<(PerformanceResult, RunLog)> = None;
    let mut probes = 0u64;
    for _ in 0..QPS_SEARCH_ITERS {
        let qps = 0.5 * (lo + hi);
        let mut sut = make_sut();
        let mut log = RunLog::new();
        let result = run_server(&mut sut, dataset_len, qps, settings, &mut log, None);
        probes += 1;
        let p90 = result.latency.as_ref().expect("server runs record latencies").p90_ns;
        if p90 <= target_latency.as_nanos() {
            lo = qps;
            best = Some((qps, result, log));
        } else {
            hi = qps;
            last_fail = Some((result, log));
        }
    }
    match best {
        Some((qps, result, log)) => {
            QpsSearch { max_passing_qps: qps, target_latency, probes, result, log }
        }
        None => {
            let (result, log) = last_fail.expect("at least one probe runs");
            QpsSearch { max_passing_qps: 0.0, target_latency, probes, result, log }
        }
    }
}

/// Runs the multi-stream performance scenario at a fixed stream count.
///
/// Frames of `streams` queries are issued every `multi_stream_interval`,
/// on schedule regardless of overrun, through the discrete-event executor.
/// All lanes of a frame dispatch at the frame instant (the accelerator
/// processes the N streams concurrently); the frame's latency is the
/// **maximum** over its lanes, and those frame latencies are the
/// statistics the scenario is scored on. The run covers enough frames to
/// satisfy both `min_frame_count` and `min_duration` of offered load.
/// Device idle gaps between a frame's last completion and the next frame
/// are reported to the SUT for thermal cooldown. Tracing never perturbs
/// the result.
///
/// # Panics
///
/// Panics if the dataset is empty or `streams` is zero.
pub fn run_multi_stream<S: SystemUnderTest>(
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
                    let (latency, _response) = sut.issue_query(s);
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

/// Outcome of the multi-stream stream-count binary search.
#[derive(Debug, Clone)]
pub struct StreamSearch {
    /// Largest stream count whose p90 frame latency fits the interval;
    /// `0` if even one stream misses it (then `result`/`log` hold the
    /// failing one-stream run).
    pub streams: u64,
    /// The frame interval the search held probes to.
    pub interval: SimDuration,
    /// Probe runs executed.
    pub probes: u64,
    /// The winning probe's result (its `streams` is the headline).
    pub result: PerformanceResult,
    /// The winning probe's unedited run log.
    pub log: RunLog,
}

/// Binary-searches the largest stream count `N` in `[1, max_streams]`
/// whose p90 frame latency stays within the frame interval.
///
/// Each probe runs [`run_multi_stream`] against a **fresh** SUT from
/// `make_sut` so thermal state cannot leak between probes; the integer
/// bisection keeps the probe sequence a pure function of its inputs.
///
/// # Panics
///
/// Panics if the dataset is empty or a probe produces no latency
/// statistics.
pub fn find_max_streams<S, F>(
    mut make_sut: F,
    dataset_len: usize,
    settings: &TestSettings,
) -> StreamSearch
where
    S: SystemUnderTest,
    F: FnMut() -> S,
{
    let interval = settings.multi_stream_interval;
    let mut probes = 0u64;
    let probe = |make_sut: &mut F, n: u64, probes: &mut u64| {
        let mut sut = make_sut();
        let mut log = RunLog::new();
        let result = run_multi_stream(&mut sut, dataset_len, n, settings, &mut log, None);
        *probes += 1;
        let pass = result.latency.as_ref().expect("multi-stream runs record frame latencies").p90_ns
            <= interval.as_nanos();
        (pass, result, log)
    };
    let (pass1, r1, log1) = probe(&mut make_sut, 1, &mut probes);
    if !pass1 {
        return StreamSearch { streams: 0, interval, probes, result: r1, log: log1 };
    }
    let max = settings.max_streams.max(1);
    if max == 1 {
        return StreamSearch { streams: 1, interval, probes, result: r1, log: log1 };
    }
    let (pass_max, r_max, log_max) = probe(&mut make_sut, max, &mut probes);
    if pass_max {
        return StreamSearch { streams: max, interval, probes, result: r_max, log: log_max };
    }
    // Invariant: lo passes, hi fails.
    let mut lo = 1u64;
    let mut hi = max;
    let mut best = (r1, log1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (pass, result, log) = probe(&mut make_sut, mid, &mut probes);
        if pass {
            lo = mid;
            best = (result, log);
        } else {
            hi = mid;
        }
    }
    StreamSearch { streams: lo, interval, probes, result: best.0, log: best.1 }
}

/// Runs accuracy mode: the entire validation set, each sample once.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn run_accuracy<S: SystemUnderTest>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    log: &mut RunLog,
) -> AccuracyResult<S::Response> {
    assert!(dataset_len > 0, "empty dataset");
    log.start(
        Scenario::SingleStream,
        TestMode::Accuracy,
        settings.seed,
        sut.description(),
    );
    let mut now = SimInstant::EPOCH;
    let mut predictions = Vec::with_capacity(dataset_len);
    for s in 0..dataset_len {
        let (latency, response) = sut.issue_query(s);
        now += latency;
        predictions.push((s, response));
    }
    let duration = now.duration_since(SimInstant::EPOCH);
    log.push(LogRecord::TestEnd { queries: dataset_len as u64, duration_ns: duration.as_nanos() });
    AccuracyResult { predictions, duration }
}

/// The device-advance half of [`run_accuracy`]: walks the whole
/// validation set through [`SplitQuery::advance_query`], producing the
/// same state evolution, log records and duration as the full accuracy
/// run — without synthesizing a single prediction.
///
/// Callers that already know the accuracy outcome (e.g. a sweep cache
/// that has scored this exact `(dataset, quality)` pair before) use this
/// to keep the thermal trajectory and the unedited log byte-identical to
/// a from-scratch run.
///
/// [`SplitQuery::advance_query`]: crate::sut::SplitQuery::advance_query
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn run_accuracy_advance<S: crate::sut::SplitQuery>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    log: &mut RunLog,
) -> SimDuration {
    assert!(dataset_len > 0, "empty dataset");
    log.start(
        Scenario::SingleStream,
        TestMode::Accuracy,
        settings.seed,
        sut.description(),
    );
    let mut now = SimInstant::EPOCH;
    for s in 0..dataset_len {
        now += sut.advance_query(s);
    }
    let duration = now.duration_since(SimInstant::EPOCH);
    log.push(LogRecord::TestEnd { queries: dataset_len as u64, duration_ns: duration.as_nanos() });
    duration
}

/// [`run_accuracy`] with the prediction work spread over `threads`
/// workers.
///
/// The device advance stays serial — each query's latency depends on the
/// state the previous one left behind — while the predictions, pure
/// per-sample functions under the [`SplitQuery`] contract, run through an
/// order-preserving chunked [`crate::par::par_map_chunked`]. The returned
/// result and the log records are **byte-identical** to the serial
/// [`run_accuracy`] for any thread count (enforced by
/// `accuracy_parallel_is_byte_identical_to_serial` below).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn run_accuracy_parallel<S>(
    sut: &mut S,
    dataset_len: usize,
    settings: &TestSettings,
    log: &mut RunLog,
    threads: usize,
) -> AccuracyResult<S::Response>
where
    S: crate::sut::SplitQuery + Sync,
    S::Response: Send,
{
    let duration = run_accuracy_advance(sut, dataset_len, settings, log);
    let samples: Vec<usize> = (0..dataset_len).collect();
    let responses = crate::par::par_map_chunked(&samples, threads, |&s| sut.predict(s));
    let predictions = samples.into_iter().zip(responses).collect();
    AccuracyResult { predictions, duration }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::ConstantSut;

    #[test]
    fn single_stream_meets_min_duration() {
        // 100 ms per query, 60 s minimum -> at least 600 queries even
        // though min_query_count is 1024... both constraints bind.
        let mut sut = ConstantSut::new(SimDuration::from_millis(100));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let r = run_single_stream(&mut sut, 5000, &settings, &mut log, None);
        assert!(r.queries >= 1024);
        assert!(r.duration >= SimDuration::from_secs(60));
        // 1024 queries at 100ms = 102.4s > 60s: count binds.
        assert_eq!(r.queries, 1024);
    }

    #[test]
    fn single_stream_extends_past_count_for_duration() {
        // 1 ms per query: 1024 queries = 1.024 s << 60 s, so the LoadGen
        // keeps issuing until 60 s pass.
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let r = run_single_stream(&mut sut, 5000, &settings, &mut log, None);
        assert!(r.queries >= 60_000, "queries {}", r.queries);
        assert!(r.duration >= SimDuration::from_secs(60));
    }

    #[test]
    fn single_stream_p90_of_constant_is_constant() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(7));
        let mut log = RunLog::new();
        let r = run_single_stream(&mut sut, 100, &TestSettings::smoke_test(), &mut log, None);
        assert_eq!(r.latency.as_ref().unwrap().p90_ns, 7_000_000);
        assert!((r.score() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn offline_issues_24576() {
        let mut sut = ConstantSut::new(SimDuration::from_micros(100));
        let mut log = RunLog::new();
        let r = run_offline_scenario(&mut sut, 50_000, &TestSettings::default(), &mut log, None);
        assert_eq!(r.queries, 24_576);
        assert_eq!(sut.queries_served, 24_576);
        // 100us per sample sequentially -> 10k fps.
        assert!((r.throughput_fps - 10_000.0).abs() < 1.0);
        // Offline has no per-sample completion times to report.
        assert!(r.latency.is_none());
        assert!((r.score() - r.throughput_fps).abs() < 1e-12);
    }

    #[test]
    fn accuracy_covers_entire_dataset() {
        let mut sut = ConstantSut::new(SimDuration::from_micros(10));
        let mut log = RunLog::new();
        let r = run_accuracy(&mut sut, 1234, &TestSettings::smoke_test(), &mut log);
        assert_eq!(r.predictions.len(), 1234);
        // Every sample exactly once, in order.
        assert!(r.predictions.iter().enumerate().all(|(i, (s, _))| i == *s));
    }

    #[test]
    fn sample_selection_is_seeded() {
        let a = performance_sample_set(1, 1000, 64);
        let b = performance_sample_set(1, 1000, 64);
        let c = performance_sample_set(2, 1000, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&i| i < 1000));
    }

    #[test]
    fn log_records_every_query() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let mut log = RunLog::new();
        let r = run_single_stream(&mut sut, 100, &TestSettings::smoke_test(), &mut log, None);
        assert_eq!(log.latencies_ns().len() as u64, r.queries);
    }

    /// A stateful split SUT: latency grows with every query served (so any
    /// reordering of the advance loop desynchronizes the duration), while
    /// the prediction is a pure per-sample function.
    struct WarmingSut {
        queries_served: u64,
    }

    impl crate::sut::SystemUnderTest for WarmingSut {
        type Response = u64;
        fn issue_query(&mut self, sample_index: usize) -> (SimDuration, u64) {
            use crate::sut::SplitQuery;
            let latency = self.advance_query(sample_index);
            (latency, self.predict(sample_index))
        }
        fn description(&self) -> String {
            "warming split SUT".to_owned()
        }
    }

    impl crate::sut::SplitQuery for WarmingSut {
        fn advance_query(&mut self, _sample_index: usize) -> SimDuration {
            self.queries_served += 1;
            SimDuration::from_micros(100 + self.queries_served * 3)
        }
        fn predict(&self, sample_index: usize) -> u64 {
            (sample_index as u64).wrapping_mul(0x9E37_79B9).rotate_left(13)
        }
    }

    #[test]
    fn batched_lanes_match_scalar_runs() {
        // Heterogeneous lane latencies so lanes retire at different
        // times: 7 ms lanes stop at the query count, the 40 us lane has
        // to keep going until min_duration. Every lane must be
        // byte-identical to its own scalar run. A zero query count
        // leaves min_duration as the only stopping rule for every lane.
        let latencies = [
            SimDuration::from_millis(7),
            SimDuration::from_micros(40),
            SimDuration::from_millis(7),
            SimDuration::from_millis(2),
        ];
        let zero_count = TestSettings { min_query_count: 0, ..TestSettings::smoke_test() };
        for settings in [TestSettings::smoke_test(), zero_count] {
            let mut batch = crate::sut::ConstantBatchSut::new(&latencies);
            let mut logs: Vec<RunLog> = (0..latencies.len()).map(|_| RunLog::new()).collect();
            let results = run_single_stream_batched(&mut batch, 100, &settings, &mut logs);
            assert!(batch.suts.is_empty(), "every lane must retire");
            for (k, &latency) in latencies.iter().enumerate() {
                let mut scalar = ConstantSut::new(latency);
                let mut scalar_log = RunLog::new();
                let reference =
                    run_single_stream(&mut scalar, 100, &settings, &mut scalar_log, None);
                assert!(reference.duration >= settings.min_duration, "lane {k} stopped early");
                assert_eq!(reference, results[k], "lane {k} diverged");
                assert_eq!(
                    serde_json::to_string(&scalar_log).unwrap(),
                    serde_json::to_string(&logs[k]).unwrap(),
                    "lane {k} log must be byte-identical to its scalar run"
                );
            }
        }
    }

    #[test]
    fn batched_single_lane_matches_scalar() {
        let settings = TestSettings::smoke_test();
        let mut batch = crate::sut::ConstantBatchSut::new(&[SimDuration::from_millis(3)]);
        let mut logs = vec![RunLog::new()];
        let results = run_single_stream_batched(&mut batch, 64, &settings, &mut logs);
        let mut scalar = ConstantSut::new(SimDuration::from_millis(3));
        let mut scalar_log = RunLog::new();
        let reference = run_single_stream(&mut scalar, 64, &settings, &mut scalar_log, None);
        assert_eq!(vec![reference], results);
    }

    /// A SUT whose latency warms with every query and cools during idle
    /// gaps — a cheap stand-in for the DVFS/thermal model, so the
    /// queueing-heat interaction is testable inside the loadgen crate.
    struct ThermalToySut {
        /// Accumulated "heat" in per-query nanoseconds of extra latency.
        heat_ns: u64,
        /// Base service time.
        base: SimDuration,
        /// Heat added per query (ns).
        heat_per_query_ns: u64,
        /// Total idle time reported by the run loop.
        idle_total: SimDuration,
    }

    impl ThermalToySut {
        fn new(base: SimDuration, heat_per_query_ns: u64) -> Self {
            ThermalToySut { heat_ns: 0, base, heat_per_query_ns, idle_total: SimDuration::ZERO }
        }
    }

    impl crate::sut::SystemUnderTest for ThermalToySut {
        type Response = usize;
        fn issue_query(&mut self, sample_index: usize) -> (SimDuration, usize) {
            let latency = self.base + SimDuration::from_nanos(self.heat_ns);
            self.heat_ns += self.heat_per_query_ns;
            (latency, sample_index)
        }
        fn idle(&mut self, dt: SimDuration) {
            self.idle_total += dt;
            // Cool 1 heat-ns per idle microsecond.
            self.heat_ns = self.heat_ns.saturating_sub(dt.as_nanos() / 1000);
        }
        fn description(&self) -> String {
            "thermal toy SUT".to_owned()
        }
    }

    #[test]
    fn server_low_load_latency_is_service_time() {
        // 1 ms service at 10 qps (100 ms mean gaps): queries almost never
        // queue, so arrival-to-completion latency equals the service time.
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let mut log = RunLog::new();
        let settings = TestSettings::smoke_test();
        let r = run_server(&mut sut, 100, 10.0, &settings, &mut log, None);
        assert_eq!(r.scenario, Scenario::Server);
        assert!(r.queries >= settings.min_query_count);
        assert_eq!(r.offered_qps, Some(10.0));
        let stats = r.latency.as_ref().unwrap();
        assert_eq!(stats.p50_ns, 1_000_000, "no queueing at 1% utilization");
        assert!((r.score() - 10.0).abs() < 1e-12, "server score is the offered load");
    }

    #[test]
    fn server_saturation_adds_queueing_delay() {
        // 10 ms service, concurrency 2 -> capacity 200 qps. Offered 400
        // qps: the backlog grows and p90 latency far exceeds the service
        // time.
        let mut sut = ConstantSut::new(SimDuration::from_millis(10));
        let mut log = RunLog::new();
        let settings = TestSettings::smoke_test();
        let r = run_server(&mut sut, 100, 400.0, &settings, &mut log, None);
        let stats = r.latency.as_ref().unwrap();
        assert!(
            stats.p90_ns > 20_000_000,
            "saturated server must show queueing delay, p90 {} ns",
            stats.p90_ns
        );
        // Every arrival was eventually served and logged.
        assert_eq!(log.latencies_ns().len() as u64, r.queries);
    }

    #[test]
    fn server_same_seed_is_byte_identical() {
        let settings = TestSettings::smoke_test();
        let run = || {
            let mut sut = ThermalToySut::new(SimDuration::from_millis(2), 40_000);
            let mut log = RunLog::new();
            let r = run_server(&mut sut, 64, 150.0, &settings, &mut log, None);
            (r, log.to_json_lines())
        };
        let (ra, la) = run();
        let (rb, lb) = run();
        assert_eq!(ra, rb);
        assert_eq!(la, lb, "same-seed server logs must be byte-identical");
        let mut other = settings.clone();
        other.seed = 8;
        let mut sut = ThermalToySut::new(SimDuration::from_millis(2), 40_000);
        let mut log = RunLog::new();
        let rc = run_server(&mut sut, 64, 150.0, &other, &mut log, None);
        assert_ne!(ra.latency, rc.latency, "different seed, different arrivals");
    }

    #[test]
    fn server_traced_matches_untraced_and_respects_concurrency() {
        let settings = TestSettings::smoke_test();
        let mut sut = ConstantSut::new(SimDuration::from_millis(5));
        let mut log = RunLog::new();
        let untraced = run_server(&mut sut, 64, 300.0, &settings, &mut log, None);
        let mut sut2 = ConstantSut::new(SimDuration::from_millis(5));
        let mut log2 = RunLog::new();
        let mut trace = RunTrace::new();
        let traced = run_server(&mut sut2, 64, 300.0, &settings, &mut log2, Some(&mut trace));
        assert_eq!(untraced, traced);
        assert_eq!(log.to_json_lines(), log2.to_json_lines());
        trace.validate().unwrap();
        assert_eq!(trace.span_count(), traced.queries);
        // At 300 qps over 5 ms service the device saturates: both slots
        // are used, and never more than the scenario bound.
        assert_eq!(trace.max_concurrent(), settings.server_concurrency);
    }

    #[test]
    fn server_idle_gaps_cool_the_device() {
        // At 5 qps (200 ms gaps) a 1 ms-service device idles ~99% of the
        // time; the run loop must report those gaps.
        let settings = TestSettings::smoke_test();
        let mut sut = ThermalToySut::new(SimDuration::from_millis(1), 100_000);
        let mut log = RunLog::new();
        let r = run_server(&mut sut, 64, 5.0, &settings, &mut log, None);
        assert!(sut.idle_total > r.duration / 2, "idle {} of {}", sut.idle_total, r.duration);
        // Cooling keeps latencies near base despite per-query heating.
        assert!(r.latency.as_ref().unwrap().p50_ns < 2_000_000);
    }

    #[test]
    fn find_max_qps_brackets_the_knee() {
        let settings = TestSettings::smoke_test();
        // 10 ms constant service, concurrency 2 -> capacity 200 qps; a
        // 12 ms bound forbids meaningful queueing.
        let search = find_max_qps(
            || ConstantSut::new(SimDuration::from_millis(10)),
            64,
            &settings,
            SimDuration::from_millis(12),
            800.0,
        );
        assert!(search.max_passing_qps > 0.0, "some load must pass");
        assert!(search.max_passing_qps < 800.0, "the bound must bind");
        assert_eq!(search.probes, u64::from(QPS_SEARCH_ITERS));
        assert_eq!(search.result.offered_qps, Some(search.max_passing_qps));
        // The stored result reproduces exactly from a fresh SUT.
        let mut sut = ConstantSut::new(SimDuration::from_millis(10));
        let mut log = RunLog::new();
        let rerun = run_server(&mut sut, 64, search.max_passing_qps, &settings, &mut log, None);
        assert_eq!(rerun, search.result);
        assert_eq!(log.to_json_lines(), search.log.to_json_lines());
    }

    #[test]
    fn find_max_qps_reports_zero_when_nothing_passes() {
        let settings = TestSettings::smoke_test();
        // Service time alone exceeds the bound: no offered load can pass.
        let search = find_max_qps(
            || ConstantSut::new(SimDuration::from_millis(50)),
            64,
            &settings,
            SimDuration::from_millis(1),
            100.0,
        );
        assert_eq!(search.max_passing_qps, 0.0);
        assert!(search.result.latency.unwrap().p90_ns > 1_000_000);
    }

    #[test]
    fn multi_stream_frame_latency_is_max_over_lanes() {
        /// Lane latencies cycle 1,2,3,4 ms within each frame.
        struct CyclingSut {
            step: u64,
        }
        impl crate::sut::SystemUnderTest for CyclingSut {
            type Response = usize;
            fn issue_query(&mut self, sample_index: usize) -> (SimDuration, usize) {
                let latency = SimDuration::from_millis(self.step % 4 + 1);
                self.step += 1;
                (latency, sample_index)
            }
        }
        let settings = TestSettings::smoke_test();
        let mut sut = CyclingSut { step: 0 };
        let mut log = RunLog::new();
        let r = run_multi_stream(&mut sut, 64, 4, &settings, &mut log, None);
        assert_eq!(r.scenario, Scenario::MultiStream);
        assert_eq!(r.streams, Some(4));
        assert_eq!(r.queries, settings.min_frame_count * 4);
        // Every frame's latency is the slowest lane: 4 ms.
        let stats = r.latency.as_ref().unwrap();
        assert_eq!(stats.min_ns, 4_000_000);
        assert_eq!(stats.max_ns, 4_000_000);
        assert!((r.score() - 4.0).abs() < 1e-12, "multi-stream score is the stream count");
        // Frame records carry the accounting the checker verifies.
        let frames = log
            .records()
            .iter()
            .filter(|rec| matches!(rec, LogRecord::FrameComplete { .. }))
            .count() as u64;
        assert_eq!(frames, settings.min_frame_count);
    }

    #[test]
    fn multi_stream_traced_matches_untraced() {
        let settings = TestSettings::smoke_test();
        let mut sut = ThermalToySut::new(SimDuration::from_millis(3), 100_000);
        let mut log = RunLog::new();
        let untraced = run_multi_stream(&mut sut, 64, 3, &settings, &mut log, None);
        let mut sut2 = ThermalToySut::new(SimDuration::from_millis(3), 100_000);
        let mut log2 = RunLog::new();
        let mut trace = RunTrace::new();
        let traced =
            run_multi_stream(&mut sut2, 64, 3, &settings, &mut log2, Some(&mut trace));
        assert_eq!(untraced, traced);
        assert_eq!(log.to_json_lines(), log2.to_json_lines());
        trace.validate().unwrap();
        assert_eq!(trace.span_count(), traced.queries);
        // All three lanes of a frame dispatch together.
        assert!(trace.max_concurrent() >= 3);
    }

    #[test]
    fn multi_stream_covers_min_duration() {
        // Interval 50 ms, min_duration 50 ms, min_frame_count 8: the
        // frame-count rule dominates and the duration spans all frames.
        let settings = TestSettings::smoke_test();
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let mut log = RunLog::new();
        let r = run_multi_stream(&mut sut, 64, 2, &settings, &mut log, None);
        assert!(r.duration >= settings.min_duration);
        assert!(
            r.duration.as_nanos()
                >= settings.min_frame_count * settings.multi_stream_interval.as_nanos()
        );
    }

    #[test]
    fn find_max_streams_finds_the_knee() {
        let settings = TestSettings::smoke_test();
        // Heating SUT: more streams per frame warm the device faster, so
        // late-frame latencies cross the 50 ms interval at some N.
        let search = find_max_streams(
            || ThermalToySut::new(SimDuration::from_millis(1), 500_000),
            64,
            &settings,
        );
        assert!(search.streams >= 1, "one stream must fit a 50 ms interval");
        assert!(search.streams < settings.max_streams, "the interval must bind");
        assert_eq!(search.result.streams, Some(search.streams));
        // The stored result reproduces exactly from a fresh SUT.
        let mut sut = ThermalToySut::new(SimDuration::from_millis(1), 500_000);
        let mut log = RunLog::new();
        let rerun = run_multi_stream(&mut sut, 64, search.streams, &settings, &mut log, None);
        assert_eq!(rerun, search.result);
        assert_eq!(log.to_json_lines(), search.log.to_json_lines());
    }

    #[test]
    fn find_max_streams_reports_zero_when_one_stream_fails() {
        let settings = TestSettings::smoke_test();
        let search = find_max_streams(
            || ConstantSut::new(SimDuration::from_millis(200)),
            64,
            &settings,
        );
        assert_eq!(search.streams, 0);
        assert_eq!(search.result.streams, Some(1), "the artifact is the failing 1-stream run");
    }

    #[test]
    fn find_max_streams_saturates_at_the_cap() {
        let settings = TestSettings::smoke_test();
        let search = find_max_streams(
            || ConstantSut::new(SimDuration::from_micros(10)),
            64,
            &settings,
        );
        assert_eq!(search.streams, settings.max_streams);
        assert_eq!(search.probes, 2, "1 and max both pass; no bisection needed");
    }

    #[test]
    fn accuracy_parallel_is_byte_identical_to_serial() {
        let settings = TestSettings::smoke_test();
        let mut serial_log = RunLog::new();
        let serial = run_accuracy(&mut WarmingSut { queries_served: 0 }, 777, &settings, &mut serial_log);
        for threads in [1, 2, 5, 16] {
            let mut log = RunLog::new();
            let par = run_accuracy_parallel(
                &mut WarmingSut { queries_served: 0 },
                777,
                &settings,
                &mut log,
                threads,
            );
            assert_eq!(serial.predictions, par.predictions, "{threads} threads");
            assert_eq!(serial.duration, par.duration, "{threads} threads");
            assert_eq!(
                serde_json::to_string(&serial_log).unwrap(),
                serde_json::to_string(&log).unwrap(),
                "accuracy log must be byte-identical at {threads} threads"
            );
        }
    }
}
