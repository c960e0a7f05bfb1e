//! The system-under-test interface (paper Figure 4).
//!
//! The LoadGen is deliberately ignorant of what the SUT is — a phone app
//! driving an NPU, a laptop command-line binary, or (here) a simulated SoC.
//! It issues sample indices and receives per-query durations.
//!
//! A SUT is the device half only: [`SystemUnderTest`] has no prediction
//! type, so no performance loop can ask for a response. Accuracy mode is
//! the one place predictions exist, and it takes them from a separate
//! per-sample function ([`crate::run::run_accuracy`]). A SUT is one
//! device; batched multi-device execution belongs to the fleet executor
//! (`soc_sim::plan_batch`), not to the LoadGen.

use crate::trace::QueryTelemetry;
use soc_sim::time::SimDuration;

/// A system under test: the device that runs queries.
pub trait SystemUnderTest {
    /// Runs one inference on the sample with the given dataset index,
    /// returning the simulated latency.
    fn issue_query(&mut self, sample_index: usize) -> SimDuration;

    /// Device telemetry for the most recent [`issue_query`] call, consumed
    /// by traced run loops. SUTs without device introspection (the
    /// default) report nothing; the run loops treat `None` as "no
    /// telemetry", never as an error.
    ///
    /// [`issue_query`]: SystemUnderTest::issue_query
    fn last_telemetry(&self) -> Option<QueryTelemetry> {
        None
    }

    /// The `(freq_factor, temperature_c)` pair of the most recent
    /// [`issue_query`] call: all the run loops' throttle log reads after
    /// every query. The loops pull the full [`last_telemetry`] only when a
    /// trace is attached, so a SUT that can report the pair without
    /// building a telemetry record should override this. The default
    /// derives it from [`last_telemetry`].
    ///
    /// [`issue_query`]: SystemUnderTest::issue_query
    /// [`last_telemetry`]: SystemUnderTest::last_telemetry
    fn last_dvfs(&self) -> Option<(f64, f64)> {
        self.last_telemetry().map(|t| (t.freq_factor, t.temperature_c))
    }

    /// Notifies the SUT that the device sat idle for `dt` of simulated
    /// time before the next dispatch — the server and multi-stream loops
    /// call this for gaps where no query is executing, letting thermal
    /// models cool between bursts. The default does nothing.
    fn idle(&mut self, dt: SimDuration) {
        let _ = dt;
    }

    /// Runs a batched burst (offline scenario), returning its duration.
    /// The default issues the samples sequentially; SUTs with
    /// accelerator-level parallelism override this to run concurrent
    /// streams.
    fn issue_batch(&mut self, sample_indices: &[usize]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &i in sample_indices {
            total += self.issue_query(i);
        }
        total
    }

    /// Human-readable SUT description for the logs.
    fn description(&self) -> String {
        "unnamed SUT".to_owned()
    }
}

/// A deterministic synthetic SUT for LoadGen self-tests: fixed latency.
#[derive(Debug, Clone)]
pub struct ConstantSut {
    /// Latency returned for every query.
    pub latency: SimDuration,
    /// Number of queries served so far.
    pub queries_served: u64,
}

impl ConstantSut {
    /// Creates a SUT with the given fixed latency.
    #[must_use]
    pub fn new(latency: SimDuration) -> Self {
        ConstantSut { latency, queries_served: 0 }
    }
}

impl SystemUnderTest for ConstantSut {
    fn issue_query(&mut self, _sample_index: usize) -> SimDuration {
        self.queries_served += 1;
        self.latency
    }

    fn description(&self) -> String {
        format!("constant-latency SUT ({})", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sut_counts_queries() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(5));
        assert_eq!(sut.issue_query(42), SimDuration::from_millis(5));
        assert_eq!(sut.queries_served, 1);
    }

    #[test]
    fn default_batch_sums_latencies() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        assert_eq!(sut.issue_batch(&[1, 2, 3]), SimDuration::from_millis(6));
        assert_eq!(sut.queries_served, 3);
    }
}
