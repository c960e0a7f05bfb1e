//! Criterion bench: the batched lockstep executor across lane counts,
//! stepped the way `fleet` steps it.
//!
//! `scalar` runs one compiled [`soc_sim::plan::QueryPlan`] per query
//! with a fresh op-array walk each time: the K=1 reference. Every batch
//! steps through one [`ExecMemo`], as a fleet cell's waves do, so once
//! the memo holds a lane's operating point no step walks the op arrays:
//! a lane replays its slot, or reads its operating point from the memo
//! when its frequency changes. `uniform/K` steps K identical devices;
//! `distinct/K` pins every lane to its own DVFS point, so each lane
//! needs its own memo entry. Both series therefore time the per-lane
//! stepping (dispatch reads, thermal, energy and battery), not walks.
//! Per-iteration time divided by K gives the per-lane-query cost; every
//! batched lane is bit-identical to its scalar twin
//! (`crates/soc-sim/tests/plan_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mobile_backend::registry::{create, vendor_backend};
use nn_graph::models::ModelId;
use soc_sim::catalog::ChipId;
use soc_sim::dvfs::DvfsLadder;
use soc_sim::plan::{ExecMemo, QueryPlan};
use soc_sim::plan_batch::{BatchPlan, BatchState};
use std::hint::black_box;
use std::sync::Arc;

fn bench_batch_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_lanes");
    let chip = ChipId::Dimensity820;
    let soc = chip.build();
    let backend = create(vendor_backend(&soc).unwrap());
    let dep = backend.compile(&ModelId::MobileNetEdgeTpu.build(), &soc).unwrap();
    let plan = Arc::new(QueryPlan::new(&soc, &dep.graph, &dep.schedule));
    let cell = format!("{chip}/{}", ModelId::MobileNetEdgeTpu.name());

    let mut state = soc.new_state(22.0);
    group.bench_function(BenchmarkId::new("scalar", &cell), |b| {
        b.iter(|| black_box(plan.execute(&mut state).latency));
    });

    for lanes in [2usize, 4, 8, 16] {
        let batch_plan = BatchPlan::broadcast(Arc::clone(&plan), lanes);

        let uniform: Vec<_> = (0..lanes).map(|_| soc.new_state(22.0)).collect();
        let mut batch = BatchState::gather(&uniform);
        let mut memo = ExecMemo::new();
        group.bench_function(BenchmarkId::new(format!("uniform/{lanes}"), &cell), |b| {
            b.iter(|| black_box(batch_plan.execute_latencies(&mut batch, &mut memo).len()));
        });

        let distinct: Vec<_> = (0..lanes)
            .map(|i| {
                let mut s = soc.new_state(22.0);
                s.dvfs = DvfsLadder::new(vec![1.0 - 0.001 * i as f64]);
                s
            })
            .collect();
        let mut batch = BatchState::gather(&distinct);
        let mut memo = ExecMemo::new();
        group.bench_function(BenchmarkId::new(format!("distinct/{lanes}"), &cell), |b| {
            b.iter(|| black_box(batch_plan.execute_latencies(&mut batch, &mut memo).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_lanes);
criterion_main!(benches);
