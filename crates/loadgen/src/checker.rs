//! The submission checker: validates that a run's logs comply with the run
//! rules (paper Sections 4.3 and 6).
//!
//! "The application generates logs consistent with MLPerf rules, validated
//! by the submission checker."

use crate::log::{LogRecord, RunLog};
use crate::scenario::{Scenario, TestMode, TestSettings};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rule violation found in a run log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// Log does not begin with a test-start record.
    MissingStart,
    /// Log does not end with a test-end record.
    MissingEnd,
    /// Fewer queries than the rules require.
    TooFewQueries {
        /// Queries found.
        got: u64,
        /// Queries required.
        required: u64,
    },
    /// Run shorter than the minimum duration.
    TooShort {
        /// Duration found (ns).
        got_ns: u64,
        /// Required duration (ns).
        required_ns: u64,
    },
    /// Offline burst smaller than required.
    ShortBurst {
        /// Samples found.
        got: u64,
        /// Samples required.
        required: u64,
    },
    /// The wrong seed was used (sample selection not reproducible).
    WrongSeed {
        /// Seed found.
        got: u64,
        /// Seed expected.
        expected: u64,
    },
    /// Query count in the end record disagrees with logged queries.
    InconsistentQueryCount {
        /// Count from the end record.
        declared: u64,
        /// Count of query records.
        logged: u64,
    },
    /// Multi-stream run with fewer frames than the rules require.
    TooFewFrames {
        /// Frames found.
        got: u64,
        /// Frames required.
        required: u64,
    },
    /// Multi-stream frame accounting broken: the lanes declared by the
    /// frame records do not add up to the query records in the segment.
    FrameAccountingMismatch {
        /// Sum of `streams` over the frame records.
        declared: u64,
        /// Count of query records.
        logged: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingStart => write!(f, "log missing test-start record"),
            Violation::MissingEnd => write!(f, "log missing test-end record"),
            Violation::TooFewQueries { got, required } => {
                write!(f, "only {got} queries, {required} required")
            }
            Violation::TooShort { got_ns, required_ns } => write!(
                f,
                "run lasted {:.2}s, {:.2}s required",
                *got_ns as f64 / 1e9,
                *required_ns as f64 / 1e9
            ),
            Violation::ShortBurst { got, required } => {
                write!(f, "offline burst of {got} samples, {required} required")
            }
            Violation::WrongSeed { got, expected } => {
                write!(f, "seed {got} used, {expected} expected")
            }
            Violation::InconsistentQueryCount { declared, logged } => {
                write!(f, "end record declares {declared} queries but {logged} were logged")
            }
            Violation::TooFewFrames { got, required } => {
                write!(f, "only {got} frames, {required} required")
            }
            Violation::FrameAccountingMismatch { declared, logged } => {
                write!(
                    f,
                    "frame records declare {declared} lane queries but {logged} were logged"
                )
            }
        }
    }
}

/// Checks a run log against the rules.
///
/// A log may contain several tests back to back (the app appends the
/// offline run after single-stream); each `TestStart..TestEnd` segment is
/// checked independently. Returns every violation found (empty =
/// compliant).
#[must_use]
pub fn check_log(log: &RunLog, settings: &TestSettings) -> Vec<Violation> {
    let records = log.records();
    if !matches!(records.first(), Some(LogRecord::TestStart { .. })) {
        return vec![Violation::MissingStart];
    }
    // Split into segments at TestStart records.
    let mut segments: Vec<RunLog> = Vec::new();
    for r in records {
        if matches!(r, LogRecord::TestStart { .. }) {
            segments.push(RunLog::new());
        }
        segments.last_mut().expect("starts with TestStart").push(r.clone());
    }
    segments
        .iter()
        .flat_map(|seg| check_segment(seg, settings))
        .collect()
}

fn check_segment(log: &RunLog, settings: &TestSettings) -> Vec<Violation> {
    let mut violations = Vec::new();
    let records = log.records();

    let Some(LogRecord::TestStart { scenario, mode, seed, .. }) = records.first() else {
        return vec![Violation::MissingStart];
    };
    if *seed != settings.seed {
        violations.push(Violation::WrongSeed { got: *seed, expected: settings.seed });
    }

    let Some(LogRecord::TestEnd { queries, duration_ns }) = records.last() else {
        violations.push(Violation::MissingEnd);
        return violations;
    };

    match (scenario, mode) {
        // Single-stream and server share the count-AND-duration rule:
        // both observe every query's completion individually (server's
        // latencies just include queueing delay).
        (Scenario::SingleStream | Scenario::Server, TestMode::Performance) => {
            if *queries < settings.min_query_count {
                violations.push(Violation::TooFewQueries {
                    got: *queries,
                    required: settings.min_query_count,
                });
            }
            if *duration_ns < settings.min_duration.as_nanos() {
                violations.push(Violation::TooShort {
                    got_ns: *duration_ns,
                    required_ns: settings.min_duration.as_nanos(),
                });
            }
            let logged = log.latencies_ns().len() as u64;
            if logged != *queries {
                violations.push(Violation::InconsistentQueryCount {
                    declared: *queries,
                    logged,
                });
            }
        }
        (Scenario::MultiStream, TestMode::Performance) => {
            let mut frames = 0u64;
            let mut declared_lanes = 0u64;
            for r in records {
                if let LogRecord::FrameComplete { streams, .. } = r {
                    frames += 1;
                    declared_lanes += streams;
                }
            }
            if frames < settings.min_frame_count {
                violations.push(Violation::TooFewFrames {
                    got: frames,
                    required: settings.min_frame_count,
                });
            }
            if *duration_ns < settings.min_duration.as_nanos() {
                violations.push(Violation::TooShort {
                    got_ns: *duration_ns,
                    required_ns: settings.min_duration.as_nanos(),
                });
            }
            let logged = log.latencies_ns().len() as u64;
            if declared_lanes != logged {
                violations.push(Violation::FrameAccountingMismatch {
                    declared: declared_lanes,
                    logged,
                });
            }
            if logged != *queries {
                violations.push(Violation::InconsistentQueryCount {
                    declared: *queries,
                    logged,
                });
            }
        }
        (Scenario::Offline, TestMode::Performance) => {
            let burst = records.iter().find_map(|r| match r {
                LogRecord::BurstComplete { samples, .. } => Some(*samples),
                _ => None,
            });
            match burst {
                Some(samples) if samples >= settings.offline_sample_count => {}
                Some(samples) => violations.push(Violation::ShortBurst {
                    got: samples,
                    required: settings.offline_sample_count,
                }),
                None => violations.push(Violation::ShortBurst {
                    got: 0,
                    required: settings.offline_sample_count,
                }),
            }
        }
        (_, TestMode::Accuracy) => {
            // Accuracy mode has no minimum-duration rule; coverage of the
            // whole dataset is enforced by the harness, which knows the
            // dataset length.
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_offline_scenario, run_single_stream};
    use crate::sut::ConstantSut;
    use soc_sim::time::{SimDuration, SimInstant};

    #[test]
    fn compliant_single_stream_passes() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(10));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let _ = run_single_stream(&mut sut, 1000, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty());
    }

    #[test]
    fn compliant_offline_passes() {
        let mut sut = ConstantSut::new(SimDuration::from_micros(50));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let _ = run_offline_scenario(&mut sut, 1000, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty());
    }

    #[test]
    fn smoke_settings_flagged_against_real_rules() {
        // A run produced with scaled-down smoke settings must NOT pass the
        // real rules.
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let mut log = RunLog::new();
        let smoke = TestSettings::smoke_test();
        let _ = run_single_stream(&mut sut, 100, &smoke, &mut log, None);
        let real = TestSettings { seed: smoke.seed, ..TestSettings::default() };
        // (seed matched to isolate the count/duration violations)
        let violations = check_log(&log, &real);
        assert!(violations.iter().any(|v| matches!(v, Violation::TooFewQueries { .. })));
        assert!(violations.iter().any(|v| matches!(v, Violation::TooShort { .. })));
    }

    #[test]
    fn wrong_seed_detected() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(10));
        let mut log = RunLog::new();
        let mut settings = TestSettings::default();
        let _ = run_single_stream(&mut sut, 1000, &settings, &mut log, None);
        settings.seed = 999; // auditor expects a different published seed
        let violations = check_log(&log, &settings);
        assert!(violations.iter().any(|v| matches!(v, Violation::WrongSeed { .. })));
    }

    #[test]
    fn truncated_log_detected() {
        let mut sut = ConstantSut::new(SimDuration::from_millis(10));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let _ = run_single_stream(&mut sut, 1000, &settings, &mut log, None);
        // Drop the final record — "unedited logs" rule.
        let text = log.to_json_lines();
        let truncated: Vec<&str> = text.lines().collect();
        let truncated = truncated[..truncated.len() - 1].join("\n");
        let tampered = RunLog::from_json_lines(&truncated).unwrap();
        assert!(!check_log(&tampered, &settings).is_empty());
    }

    #[test]
    fn throttle_events_do_not_violate_rules() {
        // A log carrying throttle transitions is still compliant: the
        // checker counts only QueryComplete records against the declared
        // query count, and throttle events are observations, not queries.
        let settings = TestSettings::smoke_test();
        let mut log = RunLog::new();
        log.start(Scenario::SingleStream, TestMode::Performance, settings.seed, "t".into());
        let mut now = SimInstant::EPOCH;
        let latency = SimDuration::from_secs(1);
        for i in 0..settings.min_query_count {
            log.query(now, i as usize, latency);
            if i == 3 {
                log.throttle(now, 0.8, 72.0);
            }
            if i == 7 {
                log.throttle(now, 1.0, 64.0);
            }
            now += latency;
        }
        log.push(LogRecord::TestEnd {
            queries: settings.min_query_count,
            duration_ns: now.duration_since(SimInstant::EPOCH).as_nanos(),
        });
        assert!(check_log(&log, &settings).is_empty());

        // Round trip through the JSON-lines artifact preserves the events
        // and the verdict.
        let parsed = RunLog::from_json_lines(&log.to_json_lines()).unwrap();
        assert_eq!(parsed, log);
        assert!(check_log(&parsed, &settings).is_empty());
    }

    #[test]
    fn tampered_throttle_event_detectable() {
        // "Unedited logs": editing a throttle transition out of the stream
        // (or rewriting its temperature) survives the checker but not a
        // byte-level comparison against the original artifact.
        let mut log = RunLog::new();
        let settings = TestSettings::smoke_test();
        log.start(Scenario::SingleStream, TestMode::Performance, settings.seed, "t".into());
        log.throttle(SimInstant::EPOCH, 0.7, 75.0);
        log.push(LogRecord::TestEnd { queries: 0, duration_ns: 0 });
        let original = log.to_json_lines();

        // Tamper 1: rewrite the transition temperature.
        let rewritten = original.replace("75", "45");
        assert_ne!(RunLog::from_json_lines(&rewritten).unwrap(), log);

        // Tamper 2: drop the throttle line entirely.
        let dropped: Vec<&str> = original
            .lines()
            .filter(|l| !l.contains("ThrottleEvent"))
            .collect();
        assert_eq!(dropped.len(), original.lines().count() - 1);
        let parsed = RunLog::from_json_lines(&dropped.join("\n")).unwrap();
        assert_ne!(parsed, log, "edited log no longer matches the shipped artifact");
    }

    #[test]
    fn empty_log_fails() {
        assert_eq!(
            check_log(&RunLog::new(), &TestSettings::default()),
            vec![Violation::MissingStart]
        );
    }

    #[test]
    fn compliant_server_passes() {
        use crate::run::run_server;
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        // 100 qps over >= 60 s satisfies both server thresholds.
        let _ = run_server(&mut sut, 1000, 100.0, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty());
    }

    #[test]
    fn server_smoke_run_rejected_under_real_rules() {
        use crate::run::run_server;
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let mut log = RunLog::new();
        let smoke = TestSettings::smoke_test();
        let _ = run_server(&mut sut, 100, 200.0, &smoke, &mut log, None);
        let real = TestSettings { seed: smoke.seed, ..TestSettings::default() };
        let violations = check_log(&log, &real);
        assert!(violations.iter().any(|v| matches!(v, Violation::TooFewQueries { .. })));
        assert!(violations.iter().any(|v| matches!(v, Violation::TooShort { .. })));
    }

    #[test]
    fn server_truncated_query_records_detected() {
        use crate::run::run_server;
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let mut log = RunLog::new();
        let settings = TestSettings::smoke_test();
        let _ = run_server(&mut sut, 100, 200.0, &settings, &mut log, None);
        // Drop one QueryComplete line: the declared count no longer adds
        // up.
        let text = log.to_json_lines();
        let mut dropped_one = false;
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| {
                if !dropped_one && l.contains("QueryComplete") {
                    dropped_one = true;
                    false
                } else {
                    true
                }
            })
            .collect();
        assert!(dropped_one);
        let tampered = RunLog::from_json_lines(&kept.join("\n")).unwrap();
        let violations = check_log(&tampered, &settings);
        assert!(
            violations.iter().any(|v| matches!(v, Violation::InconsistentQueryCount { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn compliant_multi_stream_passes() {
        use crate::run::run_multi_stream;
        let mut sut = ConstantSut::new(SimDuration::from_millis(2));
        let mut log = RunLog::new();
        let settings = TestSettings::default();
        let _ = run_multi_stream(&mut sut, 1000, 4, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty());
    }

    #[test]
    fn multi_stream_too_few_frames_detected() {
        let settings = TestSettings::smoke_test();
        let mut log = RunLog::new();
        log.start(Scenario::MultiStream, TestMode::Performance, settings.seed, "t".into());
        // Only half the required frames, each 2 lanes wide.
        let frames = settings.min_frame_count / 2;
        let mut now = SimInstant::EPOCH;
        for k in 0..frames {
            for lane in 0..2usize {
                log.query(now, lane, SimDuration::from_millis(1));
            }
            log.frame(k, 2, SimDuration::from_millis(1));
            now += settings.multi_stream_interval;
        }
        log.push(LogRecord::TestEnd {
            queries: frames * 2,
            duration_ns: settings.min_duration.as_nanos(),
        });
        let violations = check_log(&log, &settings);
        assert_eq!(
            violations,
            vec![Violation::TooFewFrames { got: frames, required: settings.min_frame_count }]
        );
    }

    #[test]
    fn multi_stream_frame_accounting_mismatch_detected() {
        use crate::run::run_multi_stream;
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let mut log = RunLog::new();
        let settings = TestSettings::smoke_test();
        let _ = run_multi_stream(&mut sut, 100, 3, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty(), "untampered run complies");
        // Inflate one frame's declared width: lanes no longer add up.
        let text = log.to_json_lines();
        let tampered_text = text.replacen("\"streams\":3", "\"streams\":4", 1);
        assert_ne!(text, tampered_text);
        let tampered = RunLog::from_json_lines(&tampered_text).unwrap();
        let violations = check_log(&tampered, &settings);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::FrameAccountingMismatch { declared, logged }
                    if *declared == *logged + 1
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn multi_stream_short_duration_detected() {
        let settings = TestSettings::smoke_test();
        let mut log = RunLog::new();
        log.start(Scenario::MultiStream, TestMode::Performance, settings.seed, "t".into());
        for k in 0..settings.min_frame_count {
            log.query(SimInstant::EPOCH, 0, SimDuration::from_millis(1));
            log.frame(k, 1, SimDuration::from_millis(1));
        }
        // Declared duration below the minimum.
        log.push(LogRecord::TestEnd {
            queries: settings.min_frame_count,
            duration_ns: settings.min_duration.as_nanos() / 2,
        });
        let violations = check_log(&log, &settings);
        assert_eq!(
            violations,
            vec![Violation::TooShort {
                got_ns: settings.min_duration.as_nanos() / 2,
                required_ns: settings.min_duration.as_nanos(),
            }]
        );
    }

    #[test]
    fn new_violations_display_and_round_trip() {
        let violations = vec![
            Violation::TooFewFrames { got: 3, required: 8 },
            Violation::FrameAccountingMismatch { declared: 12, logged: 9 },
        ];
        assert!(violations[0].to_string().contains("frames"));
        assert!(violations[1].to_string().contains("lane queries"));
        let json = serde_json::to_string(&violations).unwrap();
        let parsed: Vec<Violation> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, violations);
    }

    #[test]
    fn combined_all_scenario_log_checked_per_segment() {
        use crate::run::{run_multi_stream, run_server};
        // The harness appends scenario segments into one log; each is
        // validated against its own rules.
        let settings = TestSettings::smoke_test();
        let mut log = RunLog::new();
        let mut sut = ConstantSut::new(SimDuration::from_millis(1));
        let _ = run_single_stream(&mut sut, 100, &settings, &mut log, None);
        let _ = run_offline_scenario(&mut sut, 100, &settings, &mut log, None);
        let _ = run_server(&mut sut, 100, 100.0, &settings, &mut log, None);
        let _ = run_multi_stream(&mut sut, 100, 2, &settings, &mut log, None);
        assert!(check_log(&log, &settings).is_empty());
        // A wrong seed is reported once per segment.
        let audited = TestSettings { seed: 12345, ..settings };
        let violations = check_log(&log, &audited);
        assert_eq!(
            violations.iter().filter(|v| matches!(v, Violation::WrongSeed { .. })).count(),
            4
        );
    }
}
