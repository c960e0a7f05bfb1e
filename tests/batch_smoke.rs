//! Batched-executor smoke test, gated into `make check`: runs K=4
//! batched single-stream lanes against one golden benchmark cell and
//! diffs the bytes — per-lane results, per-lane logs, and final device
//! states must all be identical to independent scalar runs.

use loadgen::log::RunLog;
use loadgen::run::run_single_stream;
use loadgen::scenario::TestSettings;
use mlperf_mobile::harness::run_single_stream_lanes;
use mlperf_mobile::metrics::metrics;
use mlperf_mobile::sut_impl::{BatchDeviceSut, DatasetScale, DeviceSut, PlannedDeployment};
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::backend::Backend;
use mobile_backend::backends::Neuron;
use soc_sim::catalog::ChipId;
use std::sync::Arc;

const LANES: usize = 4;
const AMBIENT_C: f64 = 22.0;
const SEED: u64 = 42;

#[test]
fn batched_golden_cell_is_byte_identical_to_scalar() {
    // The golden cell: MobileNetEdgeTpu / Neuron / Dimensity 1100 — the
    // same cell the sut_impl unit tests pin down.
    let def = &suite(SuiteVersion::V1_0)[0];
    let soc = Arc::new(ChipId::Dimensity1100.build());
    let deployment = Arc::new(Neuron.compile(&def.model.build(), &soc).unwrap());
    let planned = PlannedDeployment::compile(&soc, Arc::clone(&deployment));
    let settings = TestSettings::smoke_test();
    let dataset_len = 64;

    // Batched run: K identical fresh devices in lockstep.
    let before = metrics().snapshot();
    let mut batch_sut = BatchDeviceSut::new(Arc::clone(&soc), &planned, LANES, AMBIENT_C);
    let mut batch_logs: Vec<RunLog> = (0..LANES).map(|_| RunLog::new()).collect();
    let batch_results =
        run_single_stream_lanes(&mut batch_sut, dataset_len, &settings, &mut batch_logs);
    let delta = metrics().snapshot().since(&before);
    assert_eq!(delta.plan_batch_runs, 1, "one batched run recorded");
    assert_eq!(
        delta.plan_batch_lanes_executed,
        batch_sut.lanes_executed(),
        "lane-query counter matches the SUT's own count"
    );
    assert!(
        batch_sut.lanes_executed() >= LANES as u64 * settings.min_query_count,
        "every lane ran at least the minimum query count"
    );

    // Scalar reference: one independent DeviceSut per lane, identical
    // construction inputs.
    for lane in 0..LANES {
        let mut scalar_sut = DeviceSut::with_plans(
            Arc::clone(&soc),
            planned.clone(),
            def,
            DatasetScale::Reduced(dataset_len),
            SEED,
            AMBIENT_C,
        );
        let mut scalar_log = RunLog::new();
        let reference =
            run_single_stream(&mut scalar_sut, dataset_len, &settings, &mut scalar_log, None);

        // Diff the bytes: serialized result and serialized log.
        assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&batch_results[lane]).unwrap(),
            "lane {lane} result bytes diverged from scalar"
        );
        assert_eq!(
            serde_json::to_string(&scalar_log).unwrap(),
            serde_json::to_string(&batch_logs[lane]).unwrap(),
            "lane {lane} log bytes diverged from scalar"
        );
        // And the final device state — thermal, energy, battery, DVFS —
        // must match field for field.
        assert_eq!(
            batch_sut.final_state(lane),
            Some(&scalar_sut.state),
            "lane {lane} final device state diverged from scalar"
        );
    }
}
