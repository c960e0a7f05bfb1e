//! Property tests over the schedule auto-tuner: on random graphs,
//! heuristics and SoCs, the tuned schedule must always be valid,
//! executable, and no worse than the vendor heuristic at 0 ULPs of the
//! canonical evaluators — and with an unbounded beam, branch-and-bound
//! pruning must never drop the exhaustive optimum. A greedy completion
//! must retrace itself from its own prefixes, which is what lets the
//! search skip a rollout that starts on the last completion's path.

use mobile_backend::backend::Backend;
use mobile_backend::backends::TfliteGpu;
use mobile_backend::partition::{partition, FallbackPolicy, PartitionPlan, Target};
use mobile_backend::tune::{exhaustive_optimum, search_model, tune, Objective, TunerConfig};
use nn_graph::builder::GraphBuilder;
use nn_graph::graph::retype;
use nn_graph::models::ModelId;
use nn_graph::{Activation, DataType, Graph, Shape};
use proptest::prelude::*;
use soc_sim::catalog::ChipId;
use soc_sim::executor::estimate_query_secs;
use soc_sim::search::{active_energy_j, CostModel};
use soc_sim::soc::Soc;

/// A small random CNN whose depth/width vary per seed (same shape family
/// as the partitioner property suite).
fn random_graph(blocks: usize, base_channels: usize, with_postproc: bool) -> Graph {
    let mut b = GraphBuilder::new("prop", Shape::nhwc(32, 32, 3), DataType::F32);
    let mut x = b.conv2d("stem", b.input_id(), 3, 2, base_channels, Activation::Relu6);
    for i in 0..blocks {
        let c = b.conv2d(&format!("c{i}"), x, 1, 1, base_channels * 2, Activation::Relu6);
        let d = b.depthwise_conv2d(&format!("d{i}"), c, 3, 1, Activation::Relu6);
        x = b.conv2d(&format!("p{i}"), d, 1, 1, base_channels, Activation::None);
    }
    if with_postproc {
        let r = b.reshape("flat", x, Shape::new(&[1, 16 * 16 * base_channels]));
        let dec = b.box_decode("decode", r, 64, 10);
        let _ = b.nms("nms", dec, 64, 8);
    } else {
        let p = b.global_avg_pool("gap", x);
        let _ = b.fully_connected("fc", p, 10, Activation::None);
    }
    b.finish()
}

/// A vendor-style heuristic: accelerator-primary partition with CPU
/// fallback, parameterized like the real backends.
fn heuristic_for(
    graph: &Graph,
    soc: &Soc,
    policy_kind: u8,
    policy_param: usize,
    sync_us: f64,
    query_us: f64,
) -> soc_sim::schedule::Schedule {
    let primary = soc
        .engines()
        .find(|(_, e)| e.kind.is_accelerator())
        .map(|(id, _)| id)
        .unwrap_or_else(|| soc.cpu());
    let plan = PartitionPlan {
        primary: Target { engine: primary, dtype: DataType::U8 },
        fallbacks: vec![Target { engine: soc.cpu(), dtype: DataType::U8 }],
        policy: if policy_kind.is_multiple_of(2) {
            FallbackPolicy::PingPong { sticky: policy_param % 12 }
        } else {
            FallbackPolicy::Merge { window: policy_param % 6 }
        },
        primary_blocked: Vec::new(),
        sync_overhead_us: sync_us,
        query_overhead_us: query_us,
    };
    partition(graph, soc, &plan).expect("CPU fallback covers everything")
}

/// The fact the tuner's rollout skip rests on: a greedy completion `R`
/// of a random prefix `Q`, greedily completed again from `R`'s own
/// prefixes `R[..m]` (`m` from `Q.len()` to `n - 1`), returns `R` with
/// bit-equal scores. `seed` drives the path and the lengths.
fn assert_greedy_retraces(model: &CostModel, energy_objective: bool, mut seed: u64) {
    let n = model.num_nodes();
    let t = model.targets().len();
    let mut draw = |bound: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % bound as u64) as usize
    };
    let q_len = draw(n - 1);
    let mut q = model.root();
    for i in 0..q_len {
        let mut k = draw(t);
        while !model.is_supported(i, k) {
            k = (k + 1) % t;
        }
        model.extend_in_place(&mut q, k as u8);
    }
    let r = model.greedy_complete(&q, energy_objective);
    let r_score = model.finish(&r);
    let middle = q_len + 1 + draw(n - q_len - 1);
    for m in [q_len, q_len + 1, middle, n - 1] {
        let mut prefix = model.root();
        for &k in &r.assign[..m] {
            model.extend_in_place(&mut prefix, k);
        }
        let again = model.greedy_complete(&prefix, energy_objective);
        assert_eq!(again.assign, r.assign, "Q.len() {q_len}, m {m}, energy {energy_objective}");
        let score = model.finish(&again);
        assert_eq!(score.latency_secs.to_bits(), r_score.latency_secs.to_bits(), "m {m}");
        assert_eq!(score.energy_j.to_bits(), r_score.energy_j.to_bits(), "m {m}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A greedy completion retraces itself from any of its own prefixes
    /// at least as long as the prefix it started from, on random graphs
    /// and heuristics and on a catalog MobileBERT deployment (Dimensity
    /// 1100's TFLite GPU delegate, the cell whose search runs the most
    /// fresh rollouts), under both objectives.
    #[test]
    fn greedy_completion_retraces_from_its_own_prefixes(
        blocks in 1usize..6,
        channels in 4usize..24,
        with_postproc: bool,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        seed in 1u64..u64::MAX,
    ) {
        let graph = retype(&random_graph(blocks, channels, with_postproc), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let random_model = search_model(&soc, &graph, &heuristic);
        let dimensity = ChipId::Dimensity1100.build();
        let bert = TfliteGpu
            .compile(&ModelId::MobileBert.build(), &dimensity)
            .expect("TFLite GPU compiles MobileBERT");
        let bert_model = search_model(&dimensity, &bert.graph, &bert.schedule);
        for model in [&random_model, &bert_model] {
            for energy_objective in [false, true] {
                assert_greedy_retraces(model, energy_objective, seed);
            }
        }
    }

    /// On any graph/heuristic/SoC and at any beam width, the tuned
    /// schedule is valid, respects per-engine op support, and its
    /// latency/energy — recomputed by the canonical evaluators — never
    /// regresses the heuristic's on the search objective, bit-exactly.
    #[test]
    fn tuned_schedule_is_valid_supported_and_never_worse(
        blocks in 1usize..6,
        channels in 4usize..24,
        with_postproc: bool,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        beam_exp in 0u32..7,
        energy_objective: bool,
    ) {
        let graph = retype(&random_graph(blocks, channels, with_postproc), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let config = TunerConfig {
            objective: if energy_objective { Objective::Energy } else { Objective::Latency },
            beam_width: 1 << beam_exp,
        };
        let outcome = tune(&soc, &graph, &heuristic, &config);

        // The winner is a valid schedule that covers every node.
        prop_assert!(outcome.schedule.validate(&graph).is_ok());
        let scheduled: usize = outcome.schedule.stages.iter().map(|s| s.nodes.len()).sum();
        prop_assert_eq!(scheduled, graph.len());
        // Every stage's engine supports every one of its ops at the
        // stage dtype (flop-free pseudo-nodes ride along for free).
        for stage in &outcome.schedule.stages {
            let engine = soc.engine(stage.engine);
            for &id in &stage.nodes {
                let node = graph.node(id);
                prop_assert!(
                    node.cost.flops == 0 || engine.supports(node.class(), stage.dtype),
                    "{} cannot run {} at {:?}", engine.name, node.name, stage.dtype
                );
            }
        }
        // Reported scores ARE the canonical evaluators' values, bit-exactly.
        let latency = estimate_query_secs(&soc, &graph, &outcome.schedule);
        let energy = active_energy_j(&soc, &graph, &outcome.schedule);
        prop_assert_eq!(latency.to_bits(), outcome.tuned.latency_secs.to_bits());
        prop_assert_eq!(energy.to_bits(), outcome.tuned.energy_j.to_bits());
        prop_assert_eq!(
            estimate_query_secs(&soc, &graph, &heuristic).to_bits(),
            outcome.heuristic.latency_secs.to_bits()
        );
        // The incumbent was seeded with the heuristic: no regression on
        // the objective, at 0 ULPs of the evaluator's own arithmetic.
        let (tuned_obj, base_obj) = if energy_objective {
            (outcome.tuned.energy_j, outcome.heuristic.energy_j)
        } else {
            (outcome.tuned.latency_secs, outcome.heuristic.latency_secs)
        };
        prop_assert!(tuned_obj <= base_obj, "tuner regressed past its seed incumbent");
        prop_assert_eq!(outcome.improved, tuned_obj < base_obj);
    }

    /// Branch-and-bound pruning never drops the optimum: with an
    /// unbounded beam the search lands on the exhaustive oracle's
    /// objective value bit-for-bit, on random small graphs over random
    /// SoCs, heuristics and both objectives.
    #[test]
    fn pruning_never_drops_the_exhaustive_optimum(
        channels in 4usize..24,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        energy_objective: bool,
    ) {
        // One block keeps the graph small enough (7 nodes) that the
        // oracle's full enumeration stays cheap on every catalog SoC.
        let graph = retype(&random_graph(1, channels, false), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let objective = if energy_objective { Objective::Energy } else { Objective::Latency };

        let (oracle, oracle_schedule) = exhaustive_optimum(&soc, &graph, &heuristic, objective);
        let outcome = tune(&soc, &graph, &heuristic, &TunerConfig::exact(objective));
        prop_assert_eq!(outcome.stats.beam_truncations, 0, "exact mode must not truncate");
        let (got, want) = match objective {
            Objective::Latency => (outcome.tuned.latency_secs, oracle.latency_secs),
            Objective::Energy => (outcome.tuned.energy_j, oracle.energy_j),
        };
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pruned search lost the optimum: got {got:e}, oracle {want:e}"
        );
        prop_assert!(oracle_schedule.validate(&graph).is_ok());
    }
}
