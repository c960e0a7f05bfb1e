//! Criterion bench: auto-tuner end-to-end search.
//!
//! `search` runs the full beam / branch-and-bound `tune()` of one real
//! submission cell under both objectives, so a regression in pruning or
//! dedup shows up as wall-clock, not just counter drift.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::runner::CompileCache;
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::tune::{tune, TunerConfig};
use nn_graph::models::ModelId;
use soc_sim::catalog::ChipId;
use std::hint::black_box;

const CHIP: ChipId = ChipId::Snapdragon888;
const MODEL: ModelId = ModelId::DeepLabV3Plus;

fn bench_tune_search(c: &mut Criterion) {
    let cache = CompileCache::new();
    let version = SuiteVersion::V1_0;
    let defs = suite(version);
    let def = defs
        .iter()
        .find(|d| d.model == MODEL)
        .expect("model is in the v1.0 suite");
    let backend = submission_backend(CHIP, version, def.task);
    let deployment = cache
        .deployment(CHIP, backend, MODEL)
        .expect("catalog submission paths compile");
    let soc = CHIP.build();

    let mut group = c.benchmark_group("tune_search");
    group.sample_size(10);

    for config in [TunerConfig::latency(), TunerConfig::energy()] {
        group.bench_function(BenchmarkId::new("search", config.objective.to_string()), |b| {
            b.iter(|| {
                black_box(
                    tune(&soc, &deployment.graph, &deployment.schedule, &config)
                        .stats
                        .candidates,
                )
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_tune_search);
criterion_main!(benches);
