//! Criterion bench: auto-tuner end-to-end search.
//!
//! `search` runs the full beam / branch-and-bound `tune()` of one real
//! submission cell under both objectives, so a regression in pruning or
//! dedup shows up as wall-clock, not just counter drift. The cell is
//! MobileBERT on Snapdragon 865+'s TFLite GPU delegate, kept so that the
//! series stay comparable across changes: MobileBERT cells take most of
//! the `tune` workload's search time (`tune.bert_share`). It is a
//! typical phone MobileBERT cell, not the slowest: since the search
//! skips the rollouts that retrace the last greedy completion, the
//! slowest cell is usually Dimensity 1100's TFLite GPU latency cell, the
//! one whose fresh rollouts (195 of 797) cannot be skipped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlperf_mobile::app::submission_backend;
use mlperf_mobile::runner::CompileCache;
use mlperf_mobile::task::{suite, SuiteVersion};
use mobile_backend::tune::{tune, TunerConfig};
use nn_graph::models::ModelId;
use soc_sim::catalog::ChipId;
use std::hint::black_box;

const CHIP: ChipId = ChipId::Snapdragon865Plus;
const MODEL: ModelId = ModelId::MobileBert;

fn bench_tune_search(c: &mut Criterion) {
    let cache = CompileCache::new();
    // The suite version of the chip's generation, as the gap table uses.
    let version = SuiteVersion::ALL
        .into_iter()
        .find(|v| v.generation() == CHIP.generation())
        .expect("every generation has a suite version");
    let defs = suite(version);
    let def = defs
        .iter()
        .find(|d| d.model == MODEL)
        .expect("model is in the chip's suite");
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
