//! Criterion bench: one accuracy-mode miss, split into its two halves.
//!
//! For each v1.0 task on Dimensity 1100's Neuron delegate at
//! `DatasetScale::Full`, `predict` runs [`run_accuracy`] at one thread on
//! a fresh `DeviceSut` (the serial device advance over the whole
//! validation set plus every quality-model prediction), and `score` runs
//! [`score_accuracy`] over those predictions. Together they are what
//! `harness.accuracy` spends when the accuracy-score cache misses, the
//! largest layer of a traced `submission` run. A segmentation miss does
//! the same work as one fold (`ValidationSet::segmentation_counts`)
//! without holding the maps between the two halves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loadgen::log::RunLog;
use loadgen::run::run_accuracy;
use loadgen::scenario::TestSettings;
use mlperf_mobile::harness::score_accuracy;
use mlperf_mobile::sut_impl::{DatasetScale, DeviceSut, PlannedDeployment, ValidationSet};
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::backend::Backend;
use mobile_backend::backends::Neuron;
use soc_sim::catalog::ChipId;
use std::hint::black_box;
use std::sync::Arc;

fn bench_harness_accuracy(c: &mut Criterion) {
    let soc = Arc::new(ChipId::Dimensity1100.build());
    let settings = TestSettings::default();

    let mut group = c.benchmark_group("harness_accuracy");
    group.sample_size(10);

    for def in suite(SuiteVersion::V1_0) {
        let deployment = Neuron.compile(&def.model.build(), &soc).expect("Neuron compiles v1.0");
        let planned = PlannedDeployment::compile(&soc, Arc::new(deployment));
        let validation =
            ValidationSet::new(&def, planned.deployment.scheme, DatasetScale::Full, settings.seed);
        let accuracy = || {
            let mut sut = DeviceSut::with_plans(Arc::clone(&soc), planned.clone(), 22.0);
            run_accuracy(&mut sut, validation.len(), &settings, &mut RunLog::new(), 1, |s| {
                validation.predict(s)
            })
        };
        let task = format!("{:?}", def.task);

        group.bench_function(BenchmarkId::new("predict", &task), |b| {
            b.iter(|| black_box(accuracy().duration));
        });

        let predictions = accuracy().predictions;
        group.bench_function(BenchmarkId::new("score", &task), |b| {
            b.iter(|| black_box(score_accuracy(&validation.data, &predictions)));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_harness_accuracy);
criterion_main!(benches);
