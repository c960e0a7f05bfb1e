//! The system-under-test interface (paper Figure 4).
//!
//! The LoadGen is deliberately ignorant of what the SUT is — a phone app
//! driving an NPU, a laptop command-line binary, or (here) a simulated SoC.
//! It issues sample indices and receives per-query durations plus opaque
//! responses that accuracy mode scores later.
//!
//! The interface is two traits: [`SystemUnderTest`], which every run loop
//! drives, and its [`SplitQuery`] refinement for parallel accuracy
//! scoring. A SUT is one device; batched multi-device execution belongs
//! to the fleet executor (`soc_sim::plan_batch`), not to the LoadGen.

use crate::trace::QueryTelemetry;
use soc_sim::time::SimDuration;

/// A system under test.
///
/// `Response` is the task-specific prediction payload (class label,
/// detection list, label map, answer span) consumed by the accuracy
/// pipeline; performance mode discards it.
pub trait SystemUnderTest {
    /// Task-specific prediction type.
    type Response;

    /// Runs one inference on the sample with the given dataset index,
    /// returning the simulated latency and the prediction.
    fn issue_query(&mut self, sample_index: usize) -> (SimDuration, Self::Response);

    /// Device telemetry for the most recent [`issue_query`] call, consumed
    /// by traced run loops. SUTs without device introspection (the
    /// default) report nothing; the run loops treat `None` as "no
    /// telemetry", never as an error.
    ///
    /// [`issue_query`]: SystemUnderTest::issue_query
    fn last_telemetry(&self) -> Option<QueryTelemetry> {
        None
    }

    /// Notifies the SUT that the device sat idle for `dt` of simulated
    /// time before the next dispatch — the server and multi-stream loops
    /// call this for gaps where no query is executing, letting thermal
    /// models cool between bursts. The default does nothing.
    fn idle(&mut self, dt: SimDuration) {
        let _ = dt;
    }

    /// Runs a batched burst (offline scenario). The default issues the
    /// samples sequentially; SUTs with accelerator-level parallelism
    /// override this to run concurrent streams.
    fn issue_batch(&mut self, sample_indices: &[usize]) -> (SimDuration, Vec<Self::Response>) {
        let mut total = SimDuration::ZERO;
        let mut responses = Vec::with_capacity(sample_indices.len());
        for &i in sample_indices {
            let (d, r) = self.issue_query(i);
            total += d;
            responses.push(r);
        }
        (total, responses)
    }

    /// Human-readable SUT description for the logs.
    fn description(&self) -> String {
        "unnamed SUT".to_owned()
    }
}

/// A SUT whose query is separable into a *stateful* device advance and a
/// *pure* prediction.
///
/// Simulated (and well-instrumented real) SUTs compute a query's latency
/// from device state — DVFS, thermals, battery — while the prediction
/// depends only on the sample index. Splitting the two lets accuracy mode
/// advance the device serially (cheap, order-sensitive) and synthesize
/// predictions in parallel (expensive, order-free), see
/// [`crate::run::run_accuracy_parallel`].
///
/// # Contract
///
/// `issue_query(s)` must be observably equivalent to
/// `(advance_query(s), predict(s))` — same latency, same response, same
/// state evolution. The accuracy-path byte-identity test in
/// `run.rs` holds implementations to it.
pub trait SplitQuery: SystemUnderTest {
    /// Advances device state for one query on `sample_index`, returning
    /// the simulated latency [`SystemUnderTest::issue_query`] would have
    /// reported.
    fn advance_query(&mut self, sample_index: usize) -> SimDuration;

    /// The prediction for `sample_index` — a pure function of the sample,
    /// safe to evaluate on any thread and in any order.
    fn predict(&self, sample_index: usize) -> Self::Response;
}

/// A deterministic synthetic SUT for LoadGen self-tests: fixed latency,
/// echoes the sample index.
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
    type Response = usize;

    fn issue_query(&mut self, sample_index: usize) -> (SimDuration, usize) {
        self.queries_served += 1;
        (self.latency, sample_index)
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
        let (d, r) = sut.issue_query(42);
        assert_eq!(d, SimDuration::from_millis(5));
        assert_eq!(r, 42);
        assert_eq!(sut.queries_served, 1);
    }

    #[test]
    fn default_batch_sums_latencies() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let (d, rs) = sut.issue_batch(&[1, 2, 3]);
        assert_eq!(d, SimDuration::from_millis(6));
        assert_eq!(rs, vec![1, 2, 3]);
    }
}
