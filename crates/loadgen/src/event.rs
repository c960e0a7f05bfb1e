//! The server scenario's arrival process.
//!
//! [`PoissonIssuer`] draws seeded exponential inter-arrival gaps from the
//! vendored RNG, so the server scenario's arrivals are reproducible from
//! `(seed, qps)` alone (parent MLPerf Inference spec, arXiv 1911.02549).
//! The run loops walk the sorted arrivals with a cursor
//! ([`crate::run::run_server`]) and need no event queue.
//!
//! The module's tests keep the binary-heap discrete-event executor the
//! server and multi-stream loops once ran on, with verbatim copies of
//! those heap-driven loops, as the oracle the exact walks must match event
//! for event.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soc_sim::time::{SimDuration, SimInstant};

/// Seeded Poisson arrival-process sampler for the server scenario.
///
/// Inter-arrival gaps are exponentially distributed with rate `qps`:
/// `gap = -ln(1 - u) / qps` seconds for a uniform `u` in `[0, 1)` drawn
/// from the vendored [`StdRng`]. Identical `(seed, qps)` pairs always
/// produce the identical arrival sequence.
pub struct PoissonIssuer {
    rng: StdRng,
    qps: f64,
}

impl PoissonIssuer {
    /// Creates a sampler for the given seed and offered load.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not strictly positive and finite.
    #[must_use]
    pub fn new(seed: u64, qps: f64) -> Self {
        assert!(qps > 0.0 && qps.is_finite(), "offered load must be positive, got {qps}");
        PoissonIssuer { rng: StdRng::seed_from_u64(seed), qps }
    }

    /// Draws the next inter-arrival gap.
    pub fn next_interarrival(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen();
        // u < 1.0 always (53-bit draw in [0, 1)), so ln(1-u) is finite.
        SimDuration::from_secs_f64(-(1.0 - u).ln() / self.qps)
    }

    /// Cumulative arrival instants (from the epoch) until both `min_count`
    /// arrivals have been generated **and** the last arrival is at or past
    /// `min_span` — the server analogue of the single-stream
    /// count-AND-duration run rule.
    ///
    /// # Panics
    ///
    /// Panics if `min_count` is zero.
    #[must_use]
    pub fn arrivals(&mut self, min_count: u64, min_span: SimDuration) -> Vec<SimInstant> {
        assert!(min_count > 0, "at least one arrival required");
        let mut out = Vec::with_capacity(min_count as usize);
        let mut t = SimInstant::EPOCH;
        while (out.len() as u64) < min_count
            || t.duration_since(SimInstant::EPOCH) < min_span
        {
            t += self.next_interarrival();
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests;
