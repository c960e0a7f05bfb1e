//! Structured run logs.
//!
//! "It logs information about the system during execution to enable
//! post-run validation. Submissions include all of the mobile benchmark
//! app's log files, unedited." (paper Sections 4.1 and 6.2). The log is
//! what the submission checker and the audit consume.

use crate::scenario::{Scenario, TestMode};
use serde::{Deserialize, Serialize};
use soc_sim::time::{SimDuration, SimInstant};

/// One log event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum LogRecord {
    /// Test started.
    TestStart {
        /// Scenario under test.
        scenario: Scenario,
        /// Mode under test.
        mode: TestMode,
        /// Sample-selection seed.
        seed: u64,
        /// SUT description string.
        sut: String,
    },
    /// A query completed (performance mode records every query).
    QueryComplete {
        /// Simulated issue timestamp.
        issued_at_ns: u64,
        /// Dataset sample index.
        sample_index: usize,
        /// Observed latency in nanoseconds.
        latency_ns: u64,
    },
    /// An offline burst completed.
    BurstComplete {
        /// Samples in the burst.
        samples: u64,
        /// Total burst duration (ns).
        duration_ns: u64,
    },
    /// A multi-stream frame completed (all of its lanes finished).
    FrameComplete {
        /// Zero-based frame index.
        frame_index: u64,
        /// Streams (lanes) in the frame.
        streams: u64,
        /// Frame latency: max over the lanes (ns).
        latency_ns: u64,
    },
    /// The device's throttle state changed at a query boundary (entered
    /// throttling when `freq_factor < 1.0`, recovered otherwise). Logged
    /// so the submission checker and the audit can see thermal transitions
    /// in the unedited event stream, not just in optional traces.
    ThrottleEvent {
        /// Simulated timestamp of the observation (ns since run start).
        at_ns: u64,
        /// DVFS frequency factor now in effect.
        freq_factor: f64,
        /// Die temperature at the transition (°C).
        temperature_c: f64,
    },
    /// Test finished.
    TestEnd {
        /// Queries issued.
        queries: u64,
        /// Total simulated duration (ns).
        duration_ns: u64,
    },
}

/// An append-only event log for one test run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunLog {
    records: Vec<LogRecord>,
}

impl RunLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Moves every record of `other` to the end of this log, in order —
    /// used to splice the winning search probe's log segment into a
    /// combined submission log without copying it.
    pub fn append(&mut self, mut other: RunLog) {
        self.records.append(&mut other.records);
    }

    /// All records, in order.
    #[must_use]
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Convenience: records the start event.
    pub fn start(&mut self, scenario: Scenario, mode: TestMode, seed: u64, sut: String) {
        self.push(LogRecord::TestStart { scenario, mode, seed, sut });
    }

    /// Convenience: records one completed query.
    pub fn query(&mut self, issued_at: SimInstant, sample_index: usize, latency: SimDuration) {
        self.push(LogRecord::QueryComplete {
            issued_at_ns: issued_at.as_nanos(),
            sample_index,
            latency_ns: latency.as_nanos(),
        });
    }

    /// Convenience: records one completed multi-stream frame.
    pub fn frame(&mut self, frame_index: u64, streams: u64, latency: SimDuration) {
        self.push(LogRecord::FrameComplete {
            frame_index,
            streams,
            latency_ns: latency.as_nanos(),
        });
    }

    /// Convenience: records a throttle-state transition.
    pub fn throttle(&mut self, at: SimInstant, freq_factor: f64, temperature_c: f64) {
        self.push(LogRecord::ThrottleEvent {
            at_ns: at.as_nanos(),
            freq_factor,
            temperature_c,
        });
    }

    /// Serializes the log as JSON lines — the unedited artifact a
    /// submission ships.
    ///
    /// # Panics
    ///
    /// Panics only if JSON serialization of a record fails, which is
    /// impossible for these types.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        self.records
            .iter()
            .map(|r| serde_json::to_string(r).expect("log records serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parses a JSON-lines log (audit side).
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for a malformed line.
    pub fn from_json_lines(text: &str) -> Result<Self, serde_json::Error> {
        let mut log = RunLog::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            log.push(serde_json::from_str(line)?);
        }
        Ok(log)
    }

    /// Latencies of all completed queries (ns).
    #[must_use]
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|r| match r {
                LogRecord::QueryComplete { latency_ns, .. } => Some(*latency_ns),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> RunLog {
        let mut log = RunLog::new();
        log.start(Scenario::SingleStream, TestMode::Performance, 42, "test".into());
        log.query(SimInstant::EPOCH, 5, SimDuration::from_millis(3));
        log.query(SimInstant::EPOCH + SimDuration::from_millis(3), 9, SimDuration::from_millis(4));
        log.push(LogRecord::TestEnd { queries: 2, duration_ns: 7_000_000 });
        log
    }

    #[test]
    fn json_lines_round_trip() {
        let log = sample_log();
        let text = log.to_json_lines();
        assert_eq!(text.lines().count(), 4);
        let parsed = RunLog::from_json_lines(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn latencies_extracted() {
        let log = sample_log();
        assert_eq!(log.latencies_ns(), vec![3_000_000, 4_000_000]);
    }

    #[test]
    fn throttle_event_round_trips() {
        let mut log = RunLog::new();
        log.start(Scenario::SingleStream, TestMode::Performance, 1, "t".into());
        log.throttle(SimInstant::EPOCH + SimDuration::from_millis(8), 0.8, 71.5);
        log.push(LogRecord::TestEnd { queries: 0, duration_ns: 9_000_000 });
        let text = log.to_json_lines();
        assert!(text.contains("ThrottleEvent"), "{text}");
        let parsed = RunLog::from_json_lines(&text).unwrap();
        assert_eq!(parsed, log);
        // Throttle events are observations, not queries.
        assert!(parsed.latencies_ns().is_empty());
    }

    #[test]
    fn malformed_line_rejected() {
        assert!(RunLog::from_json_lines("{not json}").is_err());
    }

    #[test]
    fn edited_log_detectable() {
        // An "edited" log (tampered latency) still parses but no longer
        // matches the original — byte-level comparison catches it.
        let log = sample_log();
        let tampered = log.to_json_lines().replace("3000000", "1000000");
        let parsed = RunLog::from_json_lines(&tampered).unwrap();
        assert_ne!(parsed, log);
    }
}
