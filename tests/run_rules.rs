//! Run-rule enforcement (paper Section 6.1): minimum query counts and
//! durations, seeded sample selection, thermal/cooldown behaviour, and the
//! submission checker — exercised through the real device SUT.

use loadgen::checker::{check_log, Violation};
use loadgen::log::RunLog;
use loadgen::run::{performance_sample_set, run_single_stream};
use loadgen::scenario::TestSettings;
use loadgen::sut::SystemUnderTest;
use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
use mlperf_mobile::sut_impl::{DatasetScale, DeviceSut};
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mobile_backend::backend::Backend;
use mobile_backend::backends::{Neuron, Snpe};
use soc_sim::catalog::ChipId;
use soc_sim::time::SimDuration;

fn device_sut(task: Task) -> DeviceSut {
    let soc = ChipId::Dimensity1100.build();
    let def = suite(SuiteVersion::V1_0).into_iter().find(|d| d.task == task).unwrap();
    let deployment = Neuron.compile(&def.model.build(), &soc).unwrap();
    DeviceSut::new(soc, deployment, &def, DatasetScale::Reduced(128), 42, 22.0)
}

#[test]
fn single_stream_satisfies_1024_and_60s() {
    // Classification at ~2.2 ms: 1024 queries take ~2.3 s, so the 60 s
    // minimum forces ~27k queries.
    let mut sut = device_sut(Task::ImageClassification);
    let mut log = RunLog::new();
    let settings = TestSettings::default();
    let r = run_single_stream(&mut sut, 128, &settings, &mut log, None);
    assert!(r.queries >= 1024);
    assert!(r.duration >= SimDuration::from_secs(60));
    assert!(r.queries > 20_000, "2ms queries need >20k to fill 60s, got {}", r.queries);
    assert!(check_log(&log, &settings).is_empty());
}

#[test]
fn heavy_task_bound_by_query_count() {
    // Segmentation at ~20 ms: 1024 queries take ~20 s < 60 s, so duration
    // binds and more than 1024 queries run; NLP at ~67 ms would be bound
    // by count (68 s > 60 s at exactly 1024).
    let mut sut = device_sut(Task::QuestionAnswering);
    let mut log = RunLog::new();
    let settings = TestSettings::default();
    let r = run_single_stream(&mut sut, 128, &settings, &mut log, None);
    assert_eq!(r.queries, 1024, "NLP should be count-bound");
    assert!(r.duration >= SimDuration::from_secs(60));
}

#[test]
fn seeded_selection_is_reproducible_and_seed_sensitive() {
    let a = performance_sample_set(99, 50_000, 1024);
    let b = performance_sample_set(99, 50_000, 1024);
    let c = performance_sample_set(100, 50_000, 1024);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn sustained_perf_run_heats_device() {
    let mut sut = device_sut(Task::ImageSegmentation);
    let t0 = sut.state.thermal.temperature_c();
    let mut log = RunLog::new();
    let _ = run_single_stream(&mut sut, 128, &TestSettings::default(), &mut log, None);
    let t1 = sut.state.thermal.temperature_c();
    assert!(t1 > t0 + 5.0, "60s of segmentation should heat the SoC: {t0} -> {t1}");
    // Cooldown (rules allow up to 5 minutes) restores headroom.
    sut.state.thermal.cooldown(SimDuration::from_secs(300));
    assert!(sut.state.thermal.temperature_c() < t0 + 3.0);
}

#[test]
fn hot_ambient_produces_worse_scores() {
    // The rules demand 20-25 degC for a reason: scores degrade outside it.
    let soc = ChipId::Snapdragon888.build();
    let def = suite(SuiteVersion::V1_0)
        .into_iter()
        .find(|d| d.task == Task::ImageSegmentation)
        .unwrap();
    let run_at = |ambient: f64| {
        let deployment = Snpe.compile(&def.model.build(), &soc).unwrap();
        let mut sut =
            DeviceSut::new(soc.clone(), deployment, &def, DatasetScale::Reduced(64), 1, ambient);
        let mut log = RunLog::new();
        run_single_stream(&mut sut, 64, &TestSettings::default(), &mut log, None)
    };
    let cool = run_at(22.0).latency.unwrap();
    let hot = run_at(48.0).latency.unwrap();
    assert!(
        hot.p90_ns > cool.p90_ns,
        "48C ambient p90 {} should exceed 22C p90 {}",
        hot.p90_ns,
        cool.p90_ns
    );
}

#[test]
fn checker_rejects_shortened_runs() {
    let mut sut = device_sut(Task::ImageClassification);
    let mut log = RunLog::new();
    // Run with an illegally small count but check against the real rules.
    let short_run = TestSettings {
        min_query_count: 10,
        min_duration: SimDuration::from_millis(10),
        ..TestSettings::default()
    };
    let _ = run_single_stream(&mut sut, 128, &short_run, &mut log, None);
    let violations = check_log(&log, &TestSettings::default());
    assert!(violations.iter().any(|v| matches!(v, Violation::TooFewQueries { .. })));
}

#[test]
fn benchmark_flow_runs_accuracy_before_performance() {
    // The harness runs accuracy first (validation set), then performance —
    // verify both phases happened by checking the log and score.
    let def = suite(SuiteVersion::V1_0)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .unwrap();
    let score = run_benchmark(
        ChipId::Dimensity1100,
        &Neuron,
        &def,
        &RunRules::smoke_test(),
        DatasetScale::Reduced(64),
        ScenarioMix::offline_only(false),
    )
    .unwrap();
    assert!(score.accuracy > 0.0, "accuracy phase produced a score");
    assert!(score.single_stream.queries >= 32, "performance phase ran");
}

#[test]
fn device_description_flows_into_log() {
    let mut sut = device_sut(Task::ImageClassification);
    let desc = sut.description();
    let mut log = RunLog::new();
    let _ = run_single_stream(&mut sut, 64, &TestSettings::smoke_test(), &mut log, None);
    let text = log.to_json_lines();
    assert!(text.contains("Dimensity 1100"), "{desc} should appear in the log");
}
