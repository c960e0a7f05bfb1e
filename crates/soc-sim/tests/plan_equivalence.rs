//! The compiled-plan contract: [`QueryPlan`]/[`OfflinePlan`] execution is
//! bit-identical — 0 ULPs on every float — to the historical per-query
//! graph traversal, across random graphs, schedules, frequency factors and
//! thermal states.
//!
//! The references here are *legacy oracles*: verbatim reimplementations of
//! the pre-plan `run_query` arithmetic and of the estimator lowering
//! behind `estimate_query_secs`, `StreamPlan` and `active_energy_j` (same
//! operand order, same addition order), written against the public
//! simulator API. Any drift in the plan
//! lowering — reordered sums, refactored operand grouping, cached terms
//! rounded differently — trips these tests even if it would survive the
//! coarser integration suites.

use nn_graph::builder::GraphBuilder;
use nn_graph::graph::retype;
use nn_graph::{Activation, DataType, Graph, Shape};
use proptest::prelude::*;
use soc_sim::dvfs::DvfsLadder;
use soc_sim::engine::{EngineId, EngineKind, EngineSpecBuilder};
use soc_sim::executor::{estimate_query_secs, run_offline, run_query, QueryResult};
use soc_sim::plan::{ExecMemo, OfflinePlan, PlanDelta, QueryPlan, StreamPlan, SweepPlan};
use soc_sim::schedule::{Schedule, Stage};
use soc_sim::search::active_energy_j;
use soc_sim::soc::{InterconnectSpec, Soc, SocState};
use soc_sim::thermal::ThermalSpec;
use soc_sim::time::SimDuration;
use nn_graph::OpClass;

/// A two-engine SoC with a hair-trigger thermal envelope, so short query
/// sequences already traverse several DVFS operating points.
fn soc() -> Soc {
    Soc {
        name: "PlanChip".into(),
        vendor: "Acme".into(),
        engines: vec![
            EngineSpecBuilder::new("cpu", EngineKind::CpuBig, 100.0, 100.0, 50.0)
                .bandwidth(15.0)
                .launch_us(5.0)
                .power_w(6.0)
                .eff_all(&[OpClass::Conv, OpClass::FullyConnected], 0.4)
                .build(),
            EngineSpecBuilder::new("npu", EngineKind::Npu, 2000.0, 500.0, 0.0)
                .bandwidth(25.0)
                .launch_us(80.0)
                .power_w(9.0)
                .eff(OpClass::Conv, 0.5)
                .build(),
        ],
        interconnect: InterconnectSpec { transfer_gbps: 8.0, handoff_latency_us: 120.0 },
        thermal: ThermalSpec {
            resistance_c_per_w: 10.0,
            capacitance_j_per_c: 0.8,
            throttle_onset_c: 45.0,
            throttle_full_c: 80.0,
            min_freq_factor: 0.4,
        },
        idle_power_w: 0.3,
        is_laptop: false,
    }
}

fn small_graph(channels: usize, depth: usize) -> Graph {
    let mut b = GraphBuilder::new("t", Shape::nhwc(24, 24, 3), DataType::F32);
    let mut prev = b.input_id();
    for i in 0..depth.max(1) {
        prev = b.conv2d(&format!("c{i}"), prev, 3, 1, channels, Activation::Relu6);
    }
    let p = b.global_avg_pool("gap", prev);
    let _ = b.fully_connected("fc", p, 10, Activation::None);
    b.finish()
}

/// Splits the graph's node list into up to `stages` contiguous partitions
/// with per-stage engines/sync drawn from the inputs.
fn random_schedule(
    graph: &Graph,
    cuts: &[usize],
    engines: &[usize],
    sync_us: f64,
    query_us: f64,
) -> Schedule {
    let all: Vec<_> = graph.iter().map(|n| n.id).collect();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % all.len()).collect();
    bounds.push(0);
    bounds.push(all.len());
    bounds.sort_unstable();
    bounds.dedup();
    let stages: Vec<Stage> = bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| Stage {
            engine: EngineId(engines[i % engines.len()] % 2),
            dtype: DataType::I8,
            nodes: all[w[0]..w[1]].to_vec(),
            sync_overhead_us: sync_us,
        })
        .collect();
    Schedule { stages, query_overhead_us: query_us }
}

/// The pre-plan `run_query` arithmetic, verbatim: validation, support
/// asserts, then the roofline traversal in the executor's historical
/// operand and addition order. Kept as the independent oracle the plan
/// must match to 0 ULPs.
fn legacy_run_query(
    soc: &Soc,
    graph: &Graph,
    schedule: &Schedule,
    state: &mut SocState,
) -> QueryResult {
    schedule
        .validate(graph)
        .unwrap_or_else(|e| panic!("invalid schedule for {}: {e}", graph.name()));
    for stage in &schedule.stages {
        let engine = soc.engine(stage.engine);
        for &nid in &stage.nodes {
            let node = graph.node(nid);
            if node.cost.flops > 0 {
                assert!(engine.supports(node.class(), stage.dtype));
            }
        }
    }

    let freq = state.freq_factor();
    let dvfs_level = state.dvfs_level();
    let temperature_c = state.thermal.temperature_c();
    let cross_bytes = schedule.cross_engine_bytes(graph);

    let mut stage_compute = Vec::new();
    let mut stage_engines = Vec::new();
    let mut transfer = 0.0f64;
    let mut overhead = 0.0f64;
    let mut launch_secs = 0.0f64;
    let mut sync_secs = 0.0f64;
    let mut energy_terms = 0.0f64;

    let mut launched: Vec<bool> = vec![false; soc.engines.len()];
    overhead += schedule.query_overhead_us * 1e-6;
    for (si, stage) in schedule.stages.iter().enumerate() {
        let engine = soc.engine(stage.engine);
        if !launched[stage.engine.0] {
            overhead += engine.launch_overhead_us * 1e-6;
            launch_secs += engine.launch_overhead_us * 1e-6;
            launched[stage.engine.0] = true;
        }
        overhead += stage.sync_overhead_us * 1e-6;
        sync_secs += stage.sync_overhead_us * 1e-6;
        stage_engines.push(stage.engine);
        if cross_bytes[si] > 0 {
            transfer += soc.interconnect.transfer_secs(cross_bytes[si]);
        }
        let mut t = 0.0f64;
        for &nid in &stage.nodes {
            let node = graph.node(nid);
            let compute = if node.cost.flops == 0 {
                0.0
            } else {
                node.cost.flops as f64
                    / (engine.peak_ops(stage.dtype) * engine.efficiency(node.class()) * freq)
            };
            let memory =
                node.cost.total_bytes(stage.dtype) as f64 / (engine.mem_bandwidth_gbps * 1e9);
            t += compute.max(memory) + engine.per_op_overhead_us * 1e-6;
        }
        energy_terms += engine.active_power_w * t;
        stage_compute.push(SimDuration::from_secs_f64(t));
    }

    let total = stage_compute.iter().copied().sum::<SimDuration>()
        + SimDuration::from_secs_f64(transfer)
        + SimDuration::from_secs_f64(overhead);

    let avg_power = if total > SimDuration::ZERO {
        energy_terms / total.as_secs_f64()
    } else {
        0.0
    };
    state.thermal.advance(avg_power, total);
    state.energy.record_active(avg_power, total);
    if let Some(battery) = state.battery.as_mut() {
        battery.drain(avg_power, total);
    }

    QueryResult {
        latency: total,
        freq_factor: freq,
        dvfs_level,
        temperature_c,
        total_joules: state.energy.total_joules(),
        breakdown: soc_sim::executor::QueryBreakdown {
            stage_compute,
            stage_engines,
            transfer: SimDuration::from_secs_f64(transfer),
            overhead: SimDuration::from_secs_f64(overhead),
            launch: SimDuration::from_secs_f64(launch_secs),
            sync: SimDuration::from_secs_f64(sync_secs),
        },
    }
}

/// The pre-unification estimator profile: what `StreamPlan::lower` and
/// `active_energy_j` computed, kept apart from the simulator's code.
struct LegacyStream {
    /// `(compute_secs_at_full_freq, memory_secs, scheduling_secs)` per op.
    ops: Vec<(f64, f64, f64)>,
    overhead_secs: f64,
    transfer_secs: f64,
    power_w: f64,
    energy_j: f64,
}

impl LegacyStream {
    /// The historical `StreamPlan::sample_secs`, verbatim.
    fn sample_secs(&self, freq: f64, batch: usize) -> f64 {
        let ops: f64 = self.ops.iter().map(|&(c, m, s)| (c / freq).max(m) + s).sum();
        ops + self.transfer_secs + self.overhead_secs / batch.max(1) as f64
    }
}

/// The pre-unification estimator lowering, verbatim: the pre-divided
/// compute term `flops / (peak_ops × efficiency)`, the overhead fold
/// (query overhead, then per stage: first-launch overhead, sync,
/// transfer) and the `Σ active_power_w · stage_time` energy numerator
/// that both `power_w` and `active_energy_j` came from. Kept as the
/// independent oracle for `estimate_query_secs`, `StreamPlan` and
/// `active_energy_j`.
fn legacy_stream_lower(soc: &Soc, graph: &Graph, schedule: &Schedule) -> LegacyStream {
    let cross_bytes = schedule.cross_engine_bytes(graph);
    let mut ops = Vec::new();
    let mut overhead_secs = 0.0;
    let mut transfer_secs = 0.0;
    let mut power_time = 0.0;
    let mut total_time = 0.0;

    let mut launched: Vec<bool> = vec![false; soc.engines.len()];
    overhead_secs += schedule.query_overhead_us * 1e-6;
    for (si, stage) in schedule.stages.iter().enumerate() {
        let engine = soc.engine(stage.engine);
        if !launched[stage.engine.0] {
            overhead_secs += engine.launch_overhead_us * 1e-6;
            launched[stage.engine.0] = true;
        }
        overhead_secs += stage.sync_overhead_us * 1e-6;
        if cross_bytes[si] > 0 {
            transfer_secs += soc.interconnect.transfer_secs(cross_bytes[si]);
        }
        let mut stage_time = 0.0;
        for &nid in &stage.nodes {
            let node = graph.node(nid);
            let compute = if node.cost.flops == 0 {
                0.0
            } else {
                node.cost.flops as f64
                    / (engine.peak_ops(stage.dtype) * engine.efficiency(node.class()))
            };
            let memory =
                node.cost.total_bytes(stage.dtype) as f64 / (engine.mem_bandwidth_gbps * 1e9);
            ops.push((compute, memory, engine.per_op_overhead_us * 1e-6));
            stage_time += compute.max(memory) + engine.per_op_overhead_us * 1e-6;
        }
        power_time += engine.active_power_w * stage_time;
        total_time += stage_time;
    }
    let power_w = if total_time > 0.0 { power_time / total_time } else { 0.0 };
    LegacyStream { ops, overhead_secs, transfer_secs, power_w, energy_j: power_time }
}

/// Asserts a delta re-lowering is bit-identical to a fresh full compile of
/// the knob-modified `(soc, graph, schedule)`: the [`QueryPlan`]s execute
/// identically over an evolving trajectory, the [`StreamPlan`]s sample
/// identically across frequencies and batch sizes, and the ranked-estimate
/// scalar matches the executor's.
fn assert_delta_matches_fresh(
    soc: &Soc,
    graph: &Graph,
    modified: &Schedule,
    sweep: &SweepPlan,
    delta: PlanDelta,
    queries: usize,
) {
    let fresh = QueryPlan::new(soc, graph, modified);
    let relowered = sweep.relower_query(delta);
    let mut fresh_state = soc.new_state(24.0);
    let mut relowered_state = soc.new_state(24.0);
    for _ in 0..queries {
        assert_bit_identical(
            &fresh.execute(&mut fresh_state),
            &relowered.execute(&mut relowered_state),
        );
    }
    assert_eq!(fresh_state, relowered_state, "{delta:?} state drift");

    let fresh_stream = StreamPlan::lower(soc, graph, modified);
    let relowered_stream = sweep.relower_stream(delta);
    for (freq, batch) in [(1.0, 1), (0.7, 8), (0.4, 128)] {
        assert_eq!(
            fresh_stream.sample_secs(freq, batch).to_bits(),
            relowered_stream.sample_secs(freq, batch).to_bits(),
            "{delta:?} stream ULP drift at freq {freq} batch {batch}"
        );
    }
    assert_eq!(
        soc_sim::executor::estimate_query_secs(soc, graph, modified).to_bits(),
        sweep.estimate_query_secs(delta).to_bits(),
        "{delta:?} estimate ULP drift"
    );
}

/// Asserts two query results are identical down to the float bits.
fn assert_bit_identical(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.freq_factor.to_bits(), b.freq_factor.to_bits(), "freq ULP drift");
    assert_eq!(a.dvfs_level, b.dvfs_level);
    assert_eq!(a.temperature_c.to_bits(), b.temperature_c.to_bits(), "temp ULP drift");
    assert_eq!(a.total_joules.to_bits(), b.total_joules.to_bits(), "energy ULP drift");
    assert_eq!(a.breakdown, b.breakdown);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned execution == unplanned `run_query` == the legacy oracle,
    /// over an evolving thermal/DVFS/battery trajectory: every query
    /// result and every piece of device state match to 0 ULPs.
    #[test]
    fn planned_matches_legacy_oracle_across_thermal_trajectory(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
        ambient in 20.0f64..40.0,
        queries in 1usize..60,
        on_battery: bool,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        // Contiguous partitions of the topological node order are always
        // valid schedules; anything else is a bug in the generator.
        schedule.validate(&graph).expect("generator must emit valid schedules");

        let new_state = || {
            if on_battery {
                soc.new_state_on_battery(
                    ambient,
                    soc_sim::battery::BatteryState::new(
                        soc_sim::battery::BatterySpec::default(),
                        0.9,
                    ),
                )
            } else {
                soc.new_state(ambient)
            }
        };
        let mut oracle_state = new_state();
        let mut direct_state = new_state();
        let mut planned_state = new_state();
        let plan = QueryPlan::new(&soc, &graph, &schedule);

        for q in 0..queries {
            let oracle = legacy_run_query(&soc, &graph, &schedule, &mut oracle_state);
            let direct = run_query(&soc, &graph, &schedule, &mut direct_state);
            let planned = plan.execute(&mut planned_state);
            assert_bit_identical(&oracle, &direct);
            assert_bit_identical(&oracle, &planned);
            // The whole DVFS/thermal/energy/battery trajectory stays in
            // lockstep, not just the visible results.
            prop_assert_eq!(&oracle_state, &direct_state, "query {}", q);
            prop_assert_eq!(&oracle_state, &planned_state, "query {}", q);
        }
    }

    /// The estimator path == the legacy oracle: the ranked estimate, the
    /// stream's per-sample cost across frequencies and batch sizes, its
    /// mean power and the tuner's energy objective all match to 0 ULPs.
    #[test]
    fn estimator_matches_legacy_oracle(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        let oracle = legacy_stream_lower(&soc, &graph, &schedule);
        let stream = StreamPlan::lower(&soc, &graph, &schedule);

        prop_assert_eq!(
            estimate_query_secs(&soc, &graph, &schedule).to_bits(),
            oracle.sample_secs(1.0, 1).to_bits(),
            "estimate ULP drift"
        );
        for (freq, batch) in [(1.0, 1), (0.7, 8), (0.4, 128)] {
            prop_assert_eq!(
                stream.sample_secs(freq, batch).to_bits(),
                oracle.sample_secs(freq, batch).to_bits(),
                "stream ULP drift at freq {} batch {}", freq, batch
            );
        }
        prop_assert_eq!(stream.power_w().to_bits(), oracle.power_w.to_bits(), "power ULP drift");
        prop_assert_eq!(
            active_energy_j(&soc, &graph, &schedule).to_bits(),
            oracle.energy_j.to_bits(),
            "energy ULP drift"
        );
    }

    /// The plan's one-time lowering is just as reusable as it claims: one
    /// plan driven over two states from different ambients produces the
    /// same results as two independently compiled plans.
    #[test]
    fn one_plan_serves_many_states(
        channels in 4usize..32,
        ambient_a in 20.0f64..30.0,
        ambient_b in 30.0f64..45.0,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, 2), DataType::I8);
        let schedule = Schedule::single(&graph, EngineId(1), DataType::I8, 40.0);
        let shared = QueryPlan::new(&soc, &graph, &schedule);
        for ambient in [ambient_a, ambient_b] {
            let mut s1 = soc.new_state(ambient);
            let mut s2 = soc.new_state(ambient);
            let fresh = QueryPlan::new(&soc, &graph, &schedule);
            for _ in 0..10 {
                assert_bit_identical(&shared.execute(&mut s1), &fresh.execute(&mut s2));
            }
            prop_assert_eq!(s1, s2);
        }
    }

    /// Offline: the planned fluid loop (with its freq-bits rate memo)
    /// matches `run_offline` exactly, and the integer per-stream counts
    /// always account for every sample.
    #[test]
    fn offline_plan_matches_and_accounts_all_samples(
        channels in 4usize..32,
        total in 1u64..20_000,
        batch in 1usize..64,
        two_streams: bool,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, 2), DataType::I8);
        let npu = Schedule::single(&graph, EngineId(1), DataType::I8, 0.0);
        let cpu = Schedule::single(&graph, EngineId(0), DataType::I8, 0.0);
        let streams: Vec<Schedule> =
            if two_streams { vec![npu, cpu] } else { vec![npu] };

        let mut s1 = soc.new_state(22.0);
        let direct = run_offline(&soc, &graph, &streams, &mut s1, total, batch);
        let plan = OfflinePlan::new(&soc, &graph, &streams);
        let mut s2 = soc.new_state(22.0);
        let planned = plan.execute(&mut s2, total, batch);

        prop_assert_eq!(&direct, &planned);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(
            planned.per_stream_samples.iter().sum::<u64>(),
            total,
            "rounding must account for every sample"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sweep engine's bit-identity contract: for every [`PlanDelta`]
    /// knob, delta re-lowering an already-compiled [`SweepPlan`] equals a
    /// fresh full compile of the knob-modified inputs — query execution,
    /// stream sampling and the ranked estimate, all to 0 ULPs.
    #[test]
    fn sweep_delta_matches_fresh_recompile(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
        sync_knob in 0.0f64..500.0,
        query_knob in 0.0f64..300.0,
        gbps_knob in 0.5f64..64.0,
        queries in 1usize..30,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        let sweep = SweepPlan::new(&soc, &graph, &schedule);

        // Sync knob: the partition planner annotates it uniformly onto
        // every stage.
        let mut sync_mod = schedule.clone();
        for stage in &mut sync_mod.stages {
            stage.sync_overhead_us = sync_knob;
        }
        assert_delta_matches_fresh(
            &soc, &graph, &sync_mod, &sweep,
            PlanDelta::SyncOverheadUs(sync_knob), queries,
        );

        // Per-query fixed-overhead knob.
        let mut query_mod = schedule.clone();
        query_mod.query_overhead_us = query_knob;
        assert_delta_matches_fresh(
            &soc, &graph, &query_mod, &sweep,
            PlanDelta::QueryOverheadUs(query_knob), queries,
        );

        // Interconnect bandwidth knob: the schedule is unchanged but the
        // SoC is; the fresh compile sees the modified SoC.
        let mut soc_mod = soc.clone();
        soc_mod.interconnect.transfer_gbps = gbps_knob;
        assert_delta_matches_fresh(
            &soc_mod, &graph, &schedule, &sweep,
            PlanDelta::InterconnectGbps(gbps_knob), queries,
        );
    }

    /// The steady-state fast-forward contract: [`QueryPlan::execute_memo`]
    /// is bit-identical to [`QueryPlan::execute`] across the whole thermal
    /// trajectory (including throttle transitions, which change the DVFS
    /// frequency and miss the memo), and every query is accounted for as
    /// either a replay hit or a first-visit recording walk.
    #[test]
    fn fast_forward_matches_full_walk(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
        ambient in 20.0f64..40.0,
        queries in 1usize..80,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        let plan = QueryPlan::new(&soc, &graph, &schedule);

        let mut walk_state = soc.new_state(ambient);
        let mut memo_state = soc.new_state(ambient);
        let mut memo = ExecMemo::new();
        for q in 0..queries {
            let walked = plan.execute(&mut walk_state);
            let replayed = plan.execute_memo(&mut memo_state, &mut memo);
            assert_bit_identical(&walked, &replayed);
            prop_assert_eq!(&walk_state, &memo_state, "query {}", q);
        }
        prop_assert_eq!(
            memo.hits() + memo.operating_points() as u64,
            queries as u64,
            "every query is either a replay or a recording walk"
        );
        prop_assert!(memo.operating_points() <= memo_state.dvfs.len());
    }
}

/// Builds `k` heterogeneous device states: ambients spread over the
/// throttle ramp and battery lanes whose state of charge straddles the
/// power-saving threshold, so lanes disperse across DVFS operating
/// points as the run evolves.
fn heterogeneous_states(soc: &Soc, k: usize, ambients: &[f64], socs: &[f64]) -> Vec<SocState> {
    (0..k)
        .map(|i| {
            let ambient = ambients[i % ambients.len()];
            if i % 3 == 2 {
                soc.new_state_on_battery(
                    ambient,
                    soc_sim::battery::BatteryState::new(
                        soc_sim::battery::BatterySpec::default(),
                        socs[i % socs.len()],
                    ),
                )
            } else {
                soc.new_state(ambient)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched lockstep executor's bit-identity contract: every lane
    /// of a [`BatchPlan`] over heterogeneous device states — mixed
    /// ambients, battery lanes crossing the power-saving threshold —
    /// matches a fresh scalar [`QueryPlan::execute`] of the same device
    /// at 0 ULPs (latency, breakdown, energy, DVFS/thermal trajectory),
    /// for K in {1, 2, 4, 8, 16}.
    #[test]
    fn batched_lanes_match_scalar_execute(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
        k_index in 0usize..5,
        ambients in proptest::collection::vec(20.0f64..45.0, 1..6),
        battery_socs in proptest::collection::vec(0.05f64..1.0, 1..4),
        queries in 1usize..40,
    ) {
        let k = [1usize, 2, 4, 8, 16][k_index];
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        let plan = std::sync::Arc::new(QueryPlan::new(&soc, &graph, &schedule));

        let states = heterogeneous_states(&soc, k, &ambients, &battery_socs);
        let batch_plan = soc_sim::plan_batch::BatchPlan::broadcast(std::sync::Arc::clone(&plan), k);
        let mut batch = soc_sim::plan_batch::BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        let mut scalar: Vec<SocState> = states;
        for q in 0..queries {
            let results = batch_plan.execute(&mut batch, &mut memo);
            for (lane, state) in scalar.iter_mut().enumerate() {
                let reference = plan.execute(state);
                assert_bit_identical(&reference, &results[lane]);
            }
            prop_assert_eq!(&batch.scatter(), &scalar, "state drift at query {}", q);
        }
    }

    /// The batched fast path ([`BatchPlan::execute_latencies`]) advances
    /// lane states identically to the full [`BatchPlan::execute`] and
    /// reports the same latencies.
    #[test]
    fn batched_fast_path_matches_full_execute(
        channels in 4usize..32,
        k_index in 0usize..5,
        ambients in proptest::collection::vec(20.0f64..45.0, 1..6),
        queries in 1usize..40,
    ) {
        let k = [1usize, 2, 4, 8, 16][k_index];
        let soc = soc();
        let graph = retype(&small_graph(channels, 2), DataType::I8);
        let schedule = Schedule::single(&graph, EngineId(1), DataType::I8, 40.0);
        let plan = std::sync::Arc::new(QueryPlan::new(&soc, &graph, &schedule));

        let states = heterogeneous_states(&soc, k, &ambients, &[0.5]);
        let batch_plan = soc_sim::plan_batch::BatchPlan::broadcast(std::sync::Arc::clone(&plan), k);
        let mut full = soc_sim::plan_batch::BatchState::gather(&states);
        let mut fast = soc_sim::plan_batch::BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        for _ in 0..queries {
            let results = batch_plan.execute(&mut full, &mut memo);
            let latencies = fast_path_latencies(&batch_plan, &mut fast, &mut memo);
            for (r, l) in results.iter().zip(&latencies) {
                prop_assert_eq!(r.latency, *l);
            }
        }
        prop_assert_eq!(full.scatter(), fast.scatter());
    }

    /// The `PlanDelta`-relowered batch path: K knob variants evaluated in
    /// one pass ([`SweepPlan::relower_query_batch`]) match per-delta
    /// scalar re-lowerings ([`SweepPlan::relower_query`]) lane by lane at
    /// 0 ULPs, over heterogeneous lane states.
    #[test]
    fn relowered_batch_matches_scalar_relowerings(
        channels in 4usize..48,
        depth in 1usize..4,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        sync_us in 0.0f64..500.0,
        query_us in 0.0f64..200.0,
        sync_knobs in proptest::collection::vec(0.0f64..500.0, 1..9),
        query_knobs in proptest::collection::vec(0.0f64..300.0, 1..9),
        ambients in proptest::collection::vec(20.0f64..45.0, 1..6),
        queries in 1usize..30,
    ) {
        let soc = soc();
        let graph = retype(&small_graph(channels, depth), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, sync_us, query_us);
        let sweep = SweepPlan::new(&soc, &graph, &schedule);

        // Interleave the two knob kinds so adjacent lanes differ in
        // delta *kind*, not just value.
        let deltas: Vec<PlanDelta> = sync_knobs
            .iter()
            .map(|&v| PlanDelta::SyncOverheadUs(v))
            .chain(query_knobs.iter().map(|&v| PlanDelta::QueryOverheadUs(v)))
            .collect();
        let batch_plan = sweep.relower_query_batch(&deltas);
        prop_assert_eq!(batch_plan.lanes(), deltas.len());

        let states = heterogeneous_states(&soc, deltas.len(), &ambients, &[0.15, 0.8]);
        let mut batch = soc_sim::plan_batch::BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        let mut scalar: Vec<(QueryPlan, SocState)> = deltas
            .iter()
            .zip(&states)
            .map(|(&delta, state)| (sweep.relower_query(delta), state.clone()))
            .collect();
        for q in 0..queries {
            let results = batch_plan.execute(&mut batch, &mut memo);
            for (lane, (lane_plan, state)) in scalar.iter_mut().enumerate() {
                let reference = lane_plan.execute(state);
                assert_bit_identical(&reference, &results[lane]);
            }
            prop_assert_eq!(
                &batch.scatter(),
                &scalar.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
                "state drift at query {}", q
            );
        }
    }
}

/// One fleet-style lane: the catalog ladder scaled by a silicon speed
/// bin, so one DVFS level maps to different frequency bits in different
/// lanes; an ambient near the throttle onset; and, for battery lanes, a
/// small pack whose charge starts around the battery-saver threshold.
fn fleet_lane(soc: &Soc, speed: f64, ambient: f64, battery: Option<(f64, f64)>) -> SocState {
    let mut state = match battery {
        Some((capacity_wh, charge)) => soc.new_state_on_battery(
            ambient,
            soc_sim::battery::BatteryState::new(
                soc_sim::battery::BatterySpec {
                    capacity_wh,
                    ..soc_sim::battery::BatterySpec::default()
                },
                charge,
            ),
        ),
        None => soc.new_state(ambient),
    };
    let ladder = DvfsLadder::default().factors().iter().map(|f| f * speed).collect();
    state.dvfs = DvfsLadder::new(ladder);
    state
}

/// Lanes drawn for [`relowered_waves_through_one_memo_match_scalar_relowerings`]:
/// the waves' lanes are cut from one run of draws, in order.
const DRAWN_LANES: usize = 5 * 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Waves through one memo, as the fleet executor runs them: every
    /// wave re-targets one [`BatchPlan`] with
    /// [`SweepPlan::relower_query_batch_into`] and one `BatchState` with
    /// `refill`, and every step of every wave reads the same
    /// [`ExecMemo`]. Lanes disagree on frequency bits at one DVFS level
    /// (speed bins), and cross throttle and battery-saver points in the
    /// middle of a wave. At every step each lane equals a scalar
    /// re-lowering executed with no memo, bit for bit: latency,
    /// frequency, level, temperature, joules, breakdown and the scattered
    /// state.
    #[test]
    fn relowered_waves_through_one_memo_match_scalar_relowerings(
        channels in 4usize..32,
        cuts in proptest::collection::vec(0usize..16, 0..3),
        engines in proptest::collection::vec(0usize..2, 1..4),
        wave_lanes in proptest::collection::vec(1usize..17, 1..6),
        wave_queries in proptest::collection::vec(1usize..24, 5..6),
        speed_bins in proptest::collection::vec(0usize..3, DRAWN_LANES..DRAWN_LANES + 1),
        ambients in proptest::collection::vec(42.0f64..48.0, DRAWN_LANES..DRAWN_LANES + 1),
        on_battery in proptest::collection::vec(0usize..2, DRAWN_LANES..DRAWN_LANES + 1),
        capacities_wh in proptest::collection::vec(1.0e-4f64..1.0e-3, DRAWN_LANES..DRAWN_LANES + 1),
        charges in proptest::collection::vec(0.19f64..0.23, DRAWN_LANES..DRAWN_LANES + 1),
        knobs_us in proptest::collection::vec(0.0f64..300.0, DRAWN_LANES..DRAWN_LANES + 1),
    ) {
        const SPEED_BINS: [f64; 3] = [1.0, 0.96, 0.94];
        // A 10-ms RC time constant: a lane that starts near the throttle
        // onset heats past DVFS points within a wave's few milliseconds.
        let mut soc = soc();
        soc.thermal.capacitance_j_per_c = 0.001;
        let graph = retype(&small_graph(channels, 2), DataType::I8);
        let schedule = random_schedule(&graph, &cuts, &engines, 20.0, 40.0);
        let sweep = SweepPlan::new(&soc, &graph, &schedule);
        let base = sweep.query_overhead_us();

        let mut memo = ExecMemo::new();
        let mut batch_plan: Option<soc_sim::plan_batch::BatchPlan> = None;
        let mut batch = soc_sim::plan_batch::BatchState::default();
        let mut next_lane = 0usize;
        for (w, &lanes) in wave_lanes.iter().enumerate() {
            let drawn = next_lane..next_lane + lanes;
            next_lane += lanes;
            let deltas: Vec<PlanDelta> =
                drawn.clone().map(|i| PlanDelta::QueryOverheadUs(base + knobs_us[i])).collect();
            let states: Vec<SocState> = drawn
                .clone()
                .map(|i| {
                    let battery = (on_battery[i] == 1).then_some((capacities_wh[i], charges[i]));
                    fleet_lane(&soc, SPEED_BINS[speed_bins[i]], ambients[i], battery)
                })
                .collect();
            match batch_plan.as_mut() {
                Some(bp) => sweep.relower_query_batch_into(&deltas, bp),
                None => batch_plan = Some(sweep.relower_query_batch(&deltas)),
            }
            let bp = batch_plan.as_ref().expect("batch plan just ensured");
            batch.refill(&states);
            let mut scalar: Vec<(QueryPlan, SocState)> = deltas
                .iter()
                .zip(states)
                .map(|(&delta, state)| (sweep.relower_query(delta), state))
                .collect();
            for q in 0..wave_queries[w] {
                let results = bp.execute(&mut batch, &mut memo);
                for (lane, (lane_plan, state)) in scalar.iter_mut().enumerate() {
                    assert_bit_identical(&lane_plan.execute(state), &results[lane]);
                }
                prop_assert_eq!(
                    &batch.scatter(),
                    &scalar.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
                    "state drift at wave {} query {}", w, q
                );
            }
        }
        prop_assert!(
            memo.operating_points() <= SPEED_BINS.len() * DvfsLadder::default().len(),
            "one memo entry per distinct frequency"
        );
    }
}

/// Borrow-friendly wrapper: copies the fast-path latency slice out of the
/// batch state so callers can keep using the state afterwards.
fn fast_path_latencies(
    plan: &soc_sim::plan_batch::BatchPlan,
    batch: &mut soc_sim::plan_batch::BatchState,
    memo: &mut ExecMemo,
) -> Vec<SimDuration> {
    plan.execute_latencies(batch, memo).to_vec()
}

/// At a thermal fixed point (an envelope that never throttles) the DVFS
/// frequency is pinned, so after the first query's recording walk every
/// subsequent query replays from the memo: O(1) in the op count.
#[test]
fn steady_state_fast_forward_replays_at_thermal_fixed_point() {
    let mut soc = soc();
    soc.thermal.throttle_onset_c = 10_000.0;
    soc.thermal.throttle_full_c = 20_000.0;
    let graph = retype(&small_graph(24, 3), DataType::I8);
    let schedule = Schedule::single(&graph, EngineId(1), DataType::I8, 25.0);
    let plan = QueryPlan::new(&soc, &graph, &schedule);

    let mut walk_state = soc.new_state(22.0);
    let mut memo_state = soc.new_state(22.0);
    let mut memo = ExecMemo::new();
    for _ in 0..200 {
        assert_bit_identical(
            &plan.execute(&mut walk_state),
            &plan.execute_memo(&mut memo_state, &mut memo),
        );
    }
    assert_eq!(walk_state, memo_state);
    assert_eq!(memo.operating_points(), 1, "unthrottled run stays at one operating point");
    assert_eq!(memo.hits(), 199, "every query after the first replays");
}

#[test]
fn estimate_matches_plan_lowering() {
    // `estimate_query_secs` routes through the same StreamPlan lowering
    // the offline plan uses; a cold single-stream query agrees closely.
    let soc = soc();
    let graph = retype(&small_graph(24, 2), DataType::I8);
    let schedule = Schedule::single(&graph, EngineId(0), DataType::I8, 0.0);
    let est = soc_sim::executor::estimate_query_secs(&soc, &graph, &schedule);
    let lowered = soc_sim::plan::StreamPlan::lower(&soc, &graph, &schedule).sample_secs(1.0, 1);
    assert_eq!(est.to_bits(), lowered.to_bits(), "estimator must be the plan lowering verbatim");
}
