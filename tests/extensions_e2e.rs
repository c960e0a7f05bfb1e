//! End-to-end integration of the Appendix E extensions: the extended
//! suite, the AI-tax wrapper, battery effects and DVFS interplay — all
//! through the public API.

use loadgen::log::RunLog;
use loadgen::run::run_single_stream;
use loadgen::scenario::TestSettings;
use loadgen::sut::SystemUnderTest;
use mlperf_mobile::ai_tax::EndToEndSut;
use mlperf_mobile::extensions::{extended_suite, extension_defs};
use mlperf_mobile::harness::{run_benchmark, RunRules, ScenarioMix};
use mlperf_mobile::sut_impl::{DatasetScale, DeviceSut};
use mlperf_mobile::task::{SuiteVersion, Task};
use mobile_backend::registry::{create, vendor_backend};
use soc_sim::battery::{BatterySpec, BatteryState};
use soc_sim::catalog::ChipId;

#[test]
fn extended_suite_passes_on_all_flagships() {
    for chip in [ChipId::Dimensity1100, ChipId::Exynos2100, ChipId::Snapdragon888] {
        let soc = chip.build();
        let backend = create(vendor_backend(&soc).unwrap());
        for def in extension_defs() {
            let score = run_benchmark(
                chip,
                backend.as_ref(),
                &def,
                &RunRules::smoke_test(),
                DatasetScale::Reduced(48),
                ScenarioMix::offline_only(false),
            )
            .unwrap_or_else(|e| panic!("{chip:?}/{:?}: {e}", def.task));
            assert!(
                score.accuracy_passed,
                "{chip:?}/{}: {:.4} < {:.4}",
                def.task, score.accuracy, score.quality_target
            );
        }
    }
}

#[test]
fn extended_suite_is_superset_of_core() {
    let core = mlperf_mobile::task::suite(SuiteVersion::V1_0);
    let ext = extended_suite(SuiteVersion::V1_0);
    assert_eq!(ext.len(), core.len() + 2);
    for (a, b) in core.iter().zip(ext.iter()) {
        assert_eq!(a.task, b.task, "core prefix preserved");
    }
}

#[test]
fn end_to_end_wrapper_composes_with_loadgen() {
    // The AI-tax wrapper is itself a SystemUnderTest: the LoadGen can run
    // a rule-compliant performance pass over it.
    let chip = ChipId::Snapdragon888;
    let soc = chip.build();
    let def = mlperf_mobile::task::suite(SuiteVersion::V1_0)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .unwrap();
    let backend = create(vendor_backend(&soc).unwrap());
    let deployment = backend.compile(&def.model.build(), &soc).unwrap();
    let mut inner = DeviceSut::new(soc, deployment, 22.0);
    let model_only = inner.issue_query(0);
    let mut e2e = EndToEndSut::new(inner, Task::ImageClassification);
    let mut log = RunLog::new();
    let r = run_single_stream(&mut e2e, 64, &TestSettings::smoke_test(), &mut log, None);
    // End-to-end p90 must exceed the model-only latency by the host tax.
    assert!(r.latency.unwrap().p90_ns > model_only.as_nanos());
    let tax = e2e.tax_fraction(model_only);
    assert!(tax > 0.05, "classification tax {tax:.3} should be visible");
}

#[test]
fn battery_power_saving_caps_frequency_via_dvfs() {
    // A low battery caps frequency; the DVFS ladder snaps it to a discrete
    // operating point.
    let soc = ChipId::Snapdragon888.build();
    let mut state = soc.new_state_on_battery(
        22.0,
        BatteryState::new(BatterySpec::default(), 0.10),
    );
    let f = state.freq_factor();
    assert!(f < 1.0, "low battery must cap frequency");
    assert!(
        state.dvfs.factors().contains(&f),
        "factor {f} must be a ladder point"
    );
    // Draining to empty never panics and never raises frequency.
    state.battery.as_mut().unwrap().drain_joules(1e9);
    assert!(state.freq_factor() <= f);
}

#[test]
fn low_battery_visibly_degrades_benchmark_scores() {
    let def = mlperf_mobile::task::suite(SuiteVersion::V1_0)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .unwrap();
    let full = RunRules::smoke_test();
    let mut low = RunRules::smoke_test();
    low.battery_soc = Some(0.12);
    let backend = create(vendor_backend(&ChipId::Snapdragon888.build()).unwrap());
    let (scale, mix) = (DatasetScale::Reduced(48), ScenarioMix::offline_only(false));
    let a = run_benchmark(ChipId::Snapdragon888, backend.as_ref(), &def, &full, scale, mix).unwrap();
    let b = run_benchmark(ChipId::Snapdragon888, backend.as_ref(), &def, &low, scale, mix).unwrap();
    assert!(!a.power_saving_entered);
    assert!(b.power_saving_entered);
    assert!(
        b.latency_ms() > a.latency_ms() * 1.2,
        "power saving should visibly slow queries: {:.2} vs {:.2} ms",
        b.latency_ms(),
        a.latency_ms()
    );
}

#[test]
fn speech_and_sr_memory_footprints_differ_by_orders() {
    // RNN-T is weight-heavy; EDSR is activation-heavy. The deployment
    // memory model must reflect that.
    let soc = ChipId::Exynos2100.build();
    let backend = create(vendor_backend(&soc).unwrap());
    let rnnt = backend
        .compile(&nn_graph::models::ModelId::MobileRnnt.build(), &soc)
        .unwrap();
    let edsr = backend
        .compile(&nn_graph::models::ModelId::EdsrMobile.build(), &soc)
        .unwrap();
    // RNN-T at FP16: ~23M params x2 bytes >> EDSR weights; EDSR peak
    // activation (720p x 32ch) dominates its footprint instead.
    assert!(rnnt.peak_memory_bytes() > 30_000_000, "{}", rnnt.peak_memory_bytes());
    let edsr_graph = &edsr.graph;
    let weights: u64 = edsr_graph.parameter_count();
    assert!(weights < 200_000, "EDSR params tiny: {weights}");
    assert!(
        edsr.peak_memory_bytes() > 10_000_000,
        "EDSR activations dominate: {}",
        edsr.peak_memory_bytes()
    );
}
