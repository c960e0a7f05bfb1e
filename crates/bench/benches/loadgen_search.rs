//! Criterion bench: one cell's LoadGen searches.
//!
//! Dimensity 1100's classification cell on its submission backend, under
//! `RunRules::default()`: `find_max_qps` bisects the server scenario's
//! offered load over Poisson probes, and `find_max_streams` the
//! multi-stream width, each probe on a fresh `DeviceSut`. The server
//! bound and bracket come from a single-stream run, as the harness
//! derives them. Together the two searches are `loadgen.search`, the
//! largest layer of a traced `scenarios` run.

use criterion::{criterion_group, criterion_main, Criterion};
use loadgen::log::RunLog;
use loadgen::run::{find_max_qps, find_max_streams, run_single_stream};
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::harness::{RunRules, SERVER_LATENCY_BOUND_X, SERVER_SEARCH_HEADROOM};
use mlperf_mobile::sut_impl::{DatasetScale, DeviceSut, PlannedDeployment, ValidationSet};
use mlperf_mobile::task::{suite, SuiteVersion, Task};
use mobile_backend::registry::create;
use soc_sim::catalog::ChipId;
use soc_sim::time::SimDuration;
use std::hint::black_box;
use std::sync::Arc;

fn bench_loadgen_search(c: &mut Criterion) {
    let (chip, version) = (ChipId::Dimensity1100, SuiteVersion::V1_0);
    let def = suite(version)
        .into_iter()
        .find(|d| d.task == Task::ImageClassification)
        .expect("v1.0 defines image classification");
    let soc = Arc::new(chip.build());
    let backend = create(submission_backend(chip, version, def.task));
    let deployment = backend
        .compile(&def.model.build(), &soc)
        .expect("the submission backend compiles");
    let planned = PlannedDeployment::compile(&soc, Arc::new(deployment));
    let rules = RunRules::default();
    let dataset_len = ValidationSet::new(
        &def,
        planned.deployment.scheme,
        DatasetScale::Full,
        rules.settings.seed,
    )
    .len();
    let new_device = || DeviceSut::with_plans(Arc::clone(&soc), planned.clone(), rules.ambient_c);

    let single_stream = run_single_stream(
        &mut new_device(),
        dataset_len,
        &rules.settings,
        &mut RunLog::new(),
        None,
    );
    let p90_ns = single_stream
        .latency
        .expect("single-stream records latencies")
        .p90_ns
        .max(1);
    let target = SimDuration::from_nanos(p90_ns * SERVER_LATENCY_BOUND_X);
    let capacity = rules.settings.server_concurrency.max(1) as f64 / (p90_ns as f64 / 1e9);

    let mut group = c.benchmark_group("loadgen_search");
    group.sample_size(10);
    group.bench_function("find_max_qps", |b| {
        b.iter(|| {
            let search = find_max_qps(
                new_device,
                dataset_len,
                &rules.settings,
                target,
                capacity * SERVER_SEARCH_HEADROOM,
            );
            black_box(search.max_passing_qps)
        });
    });
    group.bench_function("find_max_streams", |b| {
        b.iter(|| black_box(find_max_streams(new_device, dataset_len, &rules.settings).streams));
    });
    group.finish();
}

criterion_group!(benches, bench_loadgen_search);
criterion_main!(benches);
