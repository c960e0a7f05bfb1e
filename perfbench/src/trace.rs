//! The traced run's layer split.
//!
//! The benchmark wraps every public call it makes in a span of its own
//! ([`Tracer::call`]). Inside a call the program's existing telemetry
//! gives the split: the `obs::span` phases recorded on each pool worker's
//! track, and the `obs::pool` busy counters. A call that fans out onto
//! the pool is split in wall-equivalent seconds: each worker's span self
//! time divided by the worker count, plus the idle share of the pool
//! window, so the rows of one call sum to the call's wall time.
//!
//! Unattributed time is main-thread time outside the benchmark's own
//! spans, and worker time inside a pool task but outside any program
//! span.

use mlperf_mobile::obs::{self, HostSpan, AUX_TRACK, MAIN_TRACK};
use std::collections::BTreeMap;
use std::time::Instant;

/// One of the benchmark's own spans around a public call.
#[derive(Debug)]
pub struct OwnSpan {
    /// The call, as printed.
    pub name: &'static str,
    /// Layer charged with the call's time outside program spans.
    pub layer: &'static str,
    /// Wall time of the call (s).
    pub secs: f64,
    /// Program spans recorded while the call ran.
    pub program: Vec<HostSpan>,
    /// Pool busy time per worker during the call (ns, index = worker).
    pub busy_ns: Vec<u64>,
}

/// Records the benchmark's own spans; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    started: Instant,
    /// Spans recorded so far, in call order.
    pub spans: Vec<OwnSpan>,
}

impl Tracer {
    /// A tracer; `on` also switches program span recording.
    #[must_use]
    pub fn new(on: bool) -> Self {
        if on {
            obs::set_enabled(true);
            obs::set_track(MAIN_TRACK);
            let _ = obs::drain();
        }
        Tracer {
            on,
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside an own span named `name`, charging time outside
    /// program spans to `layer`.
    pub fn call<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let _ = obs::drain();
        let pool_before = obs::pool().snapshot();
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let pool = obs::pool().snapshot().since(&pool_before);
        let mut busy_ns = Vec::new();
        for w in &pool.workers {
            if busy_ns.len() <= w.worker {
                busy_ns.resize(w.worker + 1, 0);
            }
            busy_ns[w.worker] = w.busy_ns;
        }
        self.spans.push(OwnSpan {
            name,
            layer,
            secs,
            program: obs::drain().spans,
            busy_ns,
        });
        out
    }

    /// Seconds since the tracer was created.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The own span named `name`.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&OwnSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Nanoseconds to seconds.
#[must_use]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Each span's self measure: `measure` of the span minus `measure` of the
/// spans it directly contains on the same track.
fn self_measure<'a>(
    spans: &[&'a HostSpan],
    measure: impl Fn(&HostSpan) -> u64,
) -> Vec<(&'a HostSpan, u64)> {
    let mut by_track: BTreeMap<u32, Vec<&HostSpan>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(s);
    }
    let mut out = Vec::new();
    for (_, mut track) in by_track {
        // Outer spans first at equal starts, so a parent precedes its
        // children.
        track.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut own: Vec<u64> = track.iter().map(|s| measure(s)).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in track.iter().enumerate() {
            while let Some(&top) = open.last() {
                let parent = track[top];
                if s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                own[parent] = own[parent].saturating_sub(measure(s));
            }
            open.push(i);
        }
        out.extend(track.into_iter().zip(own));
    }
    out
}

/// Each span's self time: its duration minus the spans it directly
/// contains on the same track (ns).
#[must_use]
fn self_times<'a>(spans: &[&'a HostSpan]) -> Vec<(&'a HostSpan, u64)> {
    self_measure(spans, |s| s.dur_ns)
}

/// Spans that no other span on the same track contains.
fn top_level(spans: &[&HostSpan]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    sorted.sort_by_key(|&(start, end)| (start, std::cmp::Reverse(end)));
    let mut tops: Vec<(u64, u64)> = Vec::new();
    for (start, end) in sorted {
        match tops.last() {
            Some(&(_, last_end)) if end <= last_end => {}
            _ => tops.push((start, end)),
        }
    }
    tops
}

/// Part of `[start, end)` outside `window` (ns).
fn outside(start: u64, end: u64, window: Option<(u64, u64)>) -> u64 {
    let Some((lo, hi)) = window else {
        return end - start;
    };
    let before = lo.clamp(start, end) - start;
    let after = end - hi.clamp(start, end);
    before + after
}

/// The layer split of a traced run.
#[derive(Debug, Default)]
pub struct Split {
    /// Layer → wall-equivalent seconds (pooled time divided by the
    /// worker count), summing with `unattributed` to the traced wall.
    pub layers: BTreeMap<String, f64>,
    /// Layer → busy seconds summed over the threads that ran it.
    pub busy: BTreeMap<String, f64>,
    /// Wall-equivalent seconds attributed to no layer.
    pub unattributed: f64,
}

impl Split {
    /// Charges `busy` thread-seconds, `busy / p` wall-equivalent, to
    /// `layer`.
    pub fn add(&mut self, layer: &str, busy: f64, p: f64) {
        *self.busy.entry(layer.to_owned()).or_default() += busy;
        *self.layers.entry(layer.to_owned()).or_default() += busy / p;
    }

    /// Busy seconds of `layer`.
    #[must_use]
    pub fn busy(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }

    /// Moves up to `busy` thread-seconds of pooled work from layer `from`
    /// to layer `to`, where a separate pass measured part of a span.
    pub fn moves(&mut self, from: &str, to: &str, busy: f64, p: f64) {
        let moved = busy.clamp(0.0, self.busy(from));
        self.add(from, -moved, p);
        self.add(to, moved, p);
    }

    /// Splits one own span. `layer_of` names the layer of a program span.
    pub fn attribute(
        &mut self,
        span: &OwnSpan,
        workers: usize,
        layer_of: impl Fn(&HostSpan) -> &'static str,
    ) {
        let spans: Vec<&HostSpan> = span
            .program
            .iter()
            .filter(|s| s.track != AUX_TRACK)
            .collect();
        let worker_spans: Vec<&HostSpan> = spans
            .iter()
            .copied()
            .filter(|s| s.track != MAIN_TRACK)
            .collect();
        let window = worker_spans
            .iter()
            .map(|s| s.start_ns)
            .min()
            .zip(worker_spans.iter().map(|s| s.start_ns + s.dur_ns).max());
        let window_ns = window.map_or(0, |(lo, hi)| hi - lo);
        let p = workers.max(1) as f64;

        // Worker tracks: span self times, then busy time outside spans
        // (unattributed) and idle time (the pool's straggler wait).
        for (s, self_ns) in self_times(&worker_spans) {
            self.add(layer_of(s), secs(self_ns), p);
        }
        for w in 0..workers {
            let track = w as u32 + 1;
            let on_track: Vec<&HostSpan> = worker_spans
                .iter()
                .copied()
                .filter(|s| s.track == track)
                .collect();
            let covered: u64 = top_level(&on_track).iter().map(|(a, b)| b - a).sum();
            let busy = span
                .busy_ns
                .get(w)
                .copied()
                .unwrap_or(0)
                .clamp(covered, window_ns.max(covered));
            self.unattributed += secs(busy - covered) / p;
            self.add("runner.pool_wait", secs(window_ns.saturating_sub(busy)), p);
        }

        // Main track: the parts of program spans outside the pool window.
        let main: Vec<&HostSpan> = spans
            .iter()
            .copied()
            .filter(|s| s.track == MAIN_TRACK)
            .collect();
        let beyond = |s: &HostSpan| outside(s.start_ns, s.start_ns + s.dur_ns, window);
        for (s, self_ns) in self_measure(&main, beyond) {
            self.add(layer_of(s), secs(self_ns), 1.0);
        }
        let main_ns: u64 = top_level(&main)
            .iter()
            .map(|&(a, b)| outside(a, b, window))
            .sum();

        // The call's own time outside the pool window and main-track
        // spans: its cache lookups, bookkeeping and thread start-up.
        let rest = (span.secs - secs(window_ns) - secs(main_ns)).max(0.0);
        self.add(span.layer, rest, 1.0);
    }
}
