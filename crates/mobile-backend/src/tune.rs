//! Schedule auto-tuner: beam / branch-and-bound search over the per-op
//! engine-assignment space.
//!
//! The vendor backends pick schedules with fixed per-vendor heuristics
//! ([`crate::partition`](mod@crate::partition)); the paper's Insights
//! 2–5 attribute much of the vendor spread to exactly these scheduling
//! decisions. With the compiled-plan executor costing a candidate
//! schedule in ~200 ns, guided search over the assignment space is
//! affordable — this module finds the latency- or energy-optimal
//! schedule per (chip, model) and quantifies the heuristic-vs-optimal
//! gap.
//!
//! # Search
//!
//! A candidate is a per-node [`SearchTarget`] assignment in topological
//! order; consecutive runs of equal targets form the stages of the
//! induced [`Schedule`]. The legal target set is derived from the vendor
//! heuristic's own stages, and every candidate carries the heuristic's
//! transition penalties ([`crate::penalty`]), so tuned and heuristic
//! schedules are compared under identical framework costs.
//!
//! The search is beam search with branch-and-bound pruning:
//!
//! 1. **Peek** at every (beam prefix, supported target) pair for the
//!    next node: [`CostModel::bound_if_extended`] returns the admissible
//!    lower bound of the one-node extension (committed exact cost +
//!    best-case roofline suffix), bit-equal to
//!    [`CostModel::bound_latency`] / [`CostModel::bound_energy`] of
//!    [`CostModel::extend`]'s result, without copying the prefix.
//! 2. **Prune** pairs whose bound cannot beat the incumbent, with a
//!    `1 + 1e-9` relative slack covering floating-point fold-order
//!    differences — so pruning never drops the optimum.
//! 3. **Rank** the rest on `(bound, parent index, target)`, the order a
//!    stable sort on the bound gives, and keep the best `beam_width`.
//! 4. **Extend** only the survivors, each built into a prefix buffer of
//!    the level before (`clone_from` of its parent, then
//!    [`CostModel::extend_in_place`], which keeps exact incremental
//!    cost), so a level allocates nothing once the beam is full. Then
//!    **roll out** the best one to a greedy completion
//!    ([`CostModel::greedy_complete`], which also peeks at each node's
//!    targets and extends once, with the winner). A greedy completion is
//!    a function of its prefix alone and retraces itself from any of its
//!    own prefixes, so when the best survivor is a prefix of the last
//!    rollout's completion the rollout is skipped and counted as the
//!    `dedup_hit` it would have been. Fresh completions (deduped by exact
//!    assignment signature) are scored by [`CostModel::finish`] and
//!    offered to the incumbent in groups of eight, tightening it early.
//!    The incumbent moves only at a group boundary, so the group size
//!    decides which partials the bound prunes: it is search policy, and
//!    the golden tuning counters (`candidates`, `pruned`) are locked
//!    under groups of eight.
//!
//! The incumbent is **seeded with the vendor heuristic**, so the tuner
//! can only improve, never regress. With [`TunerConfig::exact`] (an
//! unbounded beam) only the safe bound eliminates candidates and the
//! search provably returns the true optimum — verified bit-exactly
//! against [`exhaustive_optimum`] on small graphs in the property suite.

use crate::penalty::TransitionPenalty;
use nn_graph::{DataType, Graph};
use serde::{Deserialize, Serialize};
use soc_sim::executor::estimate_query_secs;
use soc_sim::schedule::Schedule;
use soc_sim::search::{active_energy_j, CostModel, PartialAssign, SearchScore, SearchTarget};
use soc_sim::soc::Soc;
use std::collections::HashSet;
use std::fmt;

/// Relative pruning slack: a partial is eliminated only when its lower
/// bound exceeds `incumbent * (1 + SLACK)`. The admissible bound is
/// mathematically ≤ any completion; the slack absorbs the ≤ ~1e-13
/// relative fold-order difference between the bound's suffix sum and the
/// exact evaluator, keeping elimination provably safe.
const PRUNE_SLACK: f64 = 1e-9;

/// Scored rollouts are offered to the incumbent in groups of this many
/// (see step 4 of the module docs).
const ROLLOUT_GROUP: usize = 8;

/// What the tuner minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Single-query latency at nominal frequency (seconds).
    Latency,
    /// Active compute energy per query (joules).
    Energy,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Objective::Latency => "latency",
            Objective::Energy => "energy",
        })
    }
}

/// Tuner knobs. Hashable — used as part of the compile-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Objective to minimize.
    pub objective: Objective,
    /// Beam width: survivors kept per level. `usize::MAX` disables
    /// truncation entirely (exact branch-and-bound).
    pub beam_width: usize,
}

impl TunerConfig {
    /// Latency objective, beam width 64 — ample for the catalog models.
    #[must_use]
    pub fn latency() -> TunerConfig {
        TunerConfig { objective: Objective::Latency, beam_width: 64 }
    }

    /// Energy objective, beam width 64.
    #[must_use]
    pub fn energy() -> TunerConfig {
        TunerConfig { objective: Objective::Energy, beam_width: 64 }
    }

    /// Unbounded beam: only the admissible bound eliminates candidates,
    /// so the search returns the true optimum (the oracle mode).
    #[must_use]
    pub fn exact(objective: Objective) -> TunerConfig {
        TunerConfig { objective, beam_width: usize::MAX }
    }
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig::latency()
    }
}

/// Search effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneStats {
    /// Complete candidates evaluated exactly (rollouts + final beam).
    pub candidates: u64,
    /// Partial assignments eliminated by the lower bound.
    pub pruned: u64,
    /// (prefix, target) pairs whose bound passed the pruning test,
    /// counted before beam truncation; only the `beam_width` best of
    /// them are built.
    pub expanded: u64,
    /// Completions skipped because their signature was already scored.
    pub dedup_hits: u64,
    /// Survivors dropped by beam truncation (always 0 in exact mode).
    pub beam_truncations: u64,
}

/// Result of tuning one (soc, graph, heuristic) triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// The winning schedule: the best candidate found, or a copy of the
    /// heuristic when nothing beat it.
    pub schedule: Schedule,
    /// Canonical scores of the vendor heuristic (the seed incumbent).
    pub heuristic: SearchScore,
    /// Canonical scores of the winning schedule.
    pub tuned: SearchScore,
    /// Number of distinct `(engine, dtype)` targets searched.
    pub num_targets: usize,
    /// Search effort counters.
    pub stats: TuneStats,
    /// Whether the tuner strictly beat the heuristic on the objective.
    pub improved: bool,
}

fn objective_of(score: SearchScore, objective: Objective) -> f64 {
    match objective {
        Objective::Latency => score.latency_secs,
        Objective::Energy => score.energy_j,
    }
}

/// The legal target set: distinct `(engine, dtype)` pairs of the
/// heuristic's stages in order of first appearance, widened with every
/// other SoC engine at the dtype giving it the best FLOP coverage on
/// this graph (quantized dtypes win coverage ties). The widening
/// mirrors the fallback chains real backends carry and gives
/// single-engine heuristics a real assignment space instead of a
/// one-point one — the search can move work onto engines the vendor SDK
/// never considered, which is exactly the gap the paper's Insights 2–5
/// describe.
fn derive_targets(soc: &Soc, graph: &Graph, heuristic: &Schedule) -> Vec<SearchTarget> {
    let mut out: Vec<SearchTarget> = Vec::new();
    for stage in &heuristic.stages {
        let t = SearchTarget { engine: stage.engine, dtype: stage.dtype };
        if !out.contains(&t) {
            out.push(t);
        }
    }
    // Quantized first: the catalog accelerators' native precision, and
    // the precision real submission schedules run at.
    const WIDEN_DTYPES: [DataType; 4] =
        [DataType::U8, DataType::I8, DataType::F16, DataType::F32];
    for (id, engine) in soc.engines() {
        if out.iter().any(|t| t.engine == id) {
            continue;
        }
        let mut best: Option<(u64, DataType)> = None;
        for dtype in WIDEN_DTYPES {
            let covered: u64 = graph
                .iter()
                .filter(|n| engine.supports(n.class(), dtype))
                .map(|n| n.cost.flops)
                .sum();
            if covered > 0 && best.is_none_or(|(c, _)| covered > c) {
                best = Some((covered, dtype));
            }
        }
        if let Some((_, dtype)) = best {
            out.push(SearchTarget { engine: id, dtype });
        }
    }
    out
}

/// The search-space cost model for one deployment: the heuristic-derived
/// (and engine-widened) target set under the heuristic's transition
/// penalties. This is exactly the model [`tune`] and
/// [`exhaustive_optimum`] search; exposed so benchmarks can measure raw
/// candidate-evaluation throughput against the same space.
#[must_use]
pub fn search_model(soc: &Soc, graph: &Graph, heuristic: &Schedule) -> CostModel {
    let targets = derive_targets(soc, graph, heuristic);
    let penalty = TransitionPenalty::of_schedule(heuristic);
    CostModel::new(soc, graph, &targets, penalty.sync_us, penalty.query_us)
}

/// Incumbent state: the best complete candidate seen so far.
struct Incumbent {
    /// Objective value to beat.
    obj: f64,
    /// Winning assignment + exact scores; `None` while the heuristic
    /// still leads.
    best: Option<(Vec<u8>, SearchScore)>,
}

impl Incumbent {
    fn offer(&mut self, assign: &[u8], score: SearchScore, objective: Objective) {
        let obj = objective_of(score, objective);
        if obj < self.obj {
            self.obj = obj;
            self.best = Some((assign.to_vec(), score));
        }
    }
}

/// Scores queued rollouts and offers them to the incumbent.
fn flush_pending(
    model: &CostModel,
    pending: &mut Vec<PartialAssign>,
    objective: Objective,
    incumbent: &mut Incumbent,
    stats: &mut TuneStats,
) {
    for p in pending.drain(..) {
        stats.candidates += 1;
        incumbent.offer(&p.assign, model.finish(&p), objective);
    }
}

/// Tunes the schedule of `graph` on `soc`, starting from the vendor
/// `heuristic`. The returned schedule is never worse than the heuristic
/// on the configured objective (the incumbent is seeded with it), and
/// both reported scores are computed by the canonical evaluators
/// ([`estimate_query_secs`] / [`active_energy_j`]) — bit-comparable with
/// everything else in the system.
///
/// # Panics
///
/// Panics if `config.beam_width` is 0 (a beam must keep at least one
/// survivor per level), or if the heuristic schedule is invalid for the
/// graph.
#[must_use]
pub fn tune(soc: &Soc, graph: &Graph, heuristic: &Schedule, config: &TunerConfig) -> TuneOutcome {
    assert!(config.beam_width >= 1, "tuner beam width must be at least 1, got 0");
    heuristic
        .validate(graph)
        .unwrap_or_else(|e| panic!("invalid heuristic schedule for {}: {e}", graph.name()));
    let model = search_model(soc, graph, heuristic);
    let heuristic_score = SearchScore {
        latency_secs: estimate_query_secs(soc, graph, heuristic),
        energy_j: active_energy_j(soc, graph, heuristic),
    };
    let objective = config.objective;
    let n = model.num_nodes();
    let t = model.targets().len();

    let mut stats = TuneStats::default();
    let mut incumbent =
        Incumbent { obj: objective_of(heuristic_score, objective), best: None };
    // Exact-signature dedup of complete candidates; the heuristic is
    // pre-seeded so rollouts rediscovering it are not re-scored.
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    if let Some(h) = model.assignment_of(heuristic) {
        seen.insert(h);
    }
    let mut pending: Vec<PartialAssign> = Vec::new();
    let energy_objective = objective == Objective::Energy;
    // Rank key: bound, then generation order (parent index, target), a
    // total order, so the unstable selection below keeps exactly the
    // survivors, in exactly the order, that a stable sort on the bound
    // would.
    let rank = |a: &(f64, usize, u8), b: &(f64, usize, u8)| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    };

    let mut beam = vec![model.root()];
    // The prefixes of the level before: each level builds its survivors
    // into these slots, reusing their buffers, then swaps them in.
    let mut spare: Vec<PartialAssign> = Vec::new();
    // The assignment of the most recent greedy completion, fresh or not.
    let mut last_rollout: Vec<u8> = Vec::new();
    let mut frontier: Vec<(f64, usize, u8)> = Vec::new();
    for level in 0..n {
        frontier.clear();
        for (parent, p) in beam.iter().enumerate() {
            for k in 0..t {
                if !model.is_supported(level, k) {
                    continue;
                }
                let bound = model.bound_if_extended(p, k as u8, energy_objective);
                if bound > incumbent.obj * (1.0 + PRUNE_SLACK) {
                    stats.pruned += 1;
                    continue;
                }
                frontier.push((bound, parent, k as u8));
            }
        }
        if frontier.is_empty() {
            // Every extension was dominated: the incumbent stands.
            beam.clear();
            break;
        }
        stats.expanded += frontier.len() as u64;
        if frontier.len() > config.beam_width {
            stats.beam_truncations += (frontier.len() - config.beam_width) as u64;
            frontier.select_nth_unstable_by(config.beam_width - 1, rank);
            frontier.truncate(config.beam_width);
        }
        frontier.sort_unstable_by(rank);
        // Only the survivors are built.
        spare.truncate(frontier.len());
        for (slot, &(_, parent, k)) in frontier.iter().enumerate() {
            match spare.get_mut(slot) {
                Some(q) => {
                    q.clone_from(&beam[parent]);
                    model.extend_in_place(q, k);
                }
                None => spare.push(model.extend(&beam[parent], k)),
            }
        }
        std::mem::swap(&mut beam, &mut spare);
        if level + 1 < n {
            // Roll out the most promising survivor to a full candidate;
            // fresh completions queue for scoring and tighten the
            // incumbent (= sharper pruning) early. A greedy completion
            // depends only on its prefix, and from any prefix of its own
            // result it retraces that result: when the last rollout
            // extends `beam[0]`, this one would return it again, and it is
            // already in `seen`.
            if last_rollout.starts_with(&beam[0].assign) {
                stats.dedup_hits += 1;
            } else {
                let rollout = model.greedy_complete(&beam[0], energy_objective);
                last_rollout.clone_from(&rollout.assign);
                if seen.insert(rollout.assign.clone()) {
                    pending.push(rollout);
                    if pending.len() >= ROLLOUT_GROUP {
                        flush_pending(&model, &mut pending, objective, &mut incumbent, &mut stats);
                    }
                } else {
                    stats.dedup_hits += 1;
                }
            }
        }
    }
    flush_pending(&model, &mut pending, objective, &mut incumbent, &mut stats);
    // Surviving final-level prefixes are complete candidates with exact
    // incremental scores.
    for p in &beam {
        if seen.insert(p.assign.clone()) {
            let score = model.finish(p);
            stats.candidates += 1;
            incumbent.offer(&p.assign, score, objective);
        } else {
            stats.dedup_hits += 1;
        }
    }

    match incumbent.best {
        Some((assign, score)) => {
            let schedule = model.schedule(&assign);
            debug_assert_eq!(
                estimate_query_secs(soc, graph, &schedule).to_bits(),
                score.latency_secs.to_bits(),
                "incremental latency drifted from the canonical evaluator"
            );
            debug_assert_eq!(
                active_energy_j(soc, graph, &schedule).to_bits(),
                score.energy_j.to_bits(),
                "incremental energy drifted from the canonical evaluator"
            );
            TuneOutcome {
                schedule,
                heuristic: heuristic_score,
                tuned: score,
                num_targets: t,
                stats,
                improved: true,
            }
        }
        None => TuneOutcome {
            schedule: heuristic.clone(),
            heuristic: heuristic_score,
            tuned: heuristic_score,
            num_targets: t,
            stats,
            improved: false,
        },
    }
}

/// Exhaustive-search oracle for small graphs: enumerates **every**
/// supported assignment over the heuristic-derived target set, scoring
/// each through the canonical evaluators, and returns the optimum
/// (first-found on ties, in lexicographic assignment order).
///
/// The property suite proves [`tune`] with [`TunerConfig::exact`]
/// returns the same objective value bit-for-bit.
///
/// # Panics
///
/// Panics if the graph has more than 10 ops or the assignment space
/// exceeds 2^20 candidates.
#[must_use]
pub fn exhaustive_optimum(
    soc: &Soc,
    graph: &Graph,
    heuristic: &Schedule,
    objective: Objective,
) -> (SearchScore, Schedule) {
    heuristic
        .validate(graph)
        .unwrap_or_else(|e| panic!("invalid heuristic schedule for {}: {e}", graph.name()));
    let model = search_model(soc, graph, heuristic);
    let n = model.num_nodes();
    let t = model.targets().len();
    assert!(n <= 10, "exhaustive oracle limited to graphs of ≤ 10 ops, got {n}");
    let space = (t as u64).checked_pow(n as u32).expect("assignment space fits in u64");
    assert!(space <= 1 << 20, "assignment space too large for the oracle: {space}");

    let mut assign = vec![0u8; n];
    let mut best: Option<(f64, SearchScore, Schedule)> = None;
    loop {
        if (0..n).all(|i| model.is_supported(i, assign[i] as usize)) {
            let schedule = model.schedule(&assign);
            let score = SearchScore {
                latency_secs: estimate_query_secs(soc, graph, &schedule),
                energy_j: active_energy_j(soc, graph, &schedule),
            };
            let obj = objective_of(score, objective);
            if best.as_ref().is_none_or(|(b, _, _)| obj < *b) {
                best = Some((obj, score, schedule));
            }
        }
        // Odometer increment, last digit fastest (lexicographic order).
        let mut i = n;
        loop {
            if i == 0 {
                let (_, score, schedule) = best.expect("oracle space contains the heuristic");
                return (score, schedule);
            }
            i -= 1;
            if (assign[i] as usize) < t - 1 {
                assign[i] += 1;
                break;
            }
            assign[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::backends::{Nnapi, TfliteGpu};
    use crate::DriverQuality;
    use nn_graph::builder::GraphBuilder;
    use nn_graph::graph::retype;
    use nn_graph::models::ModelId;
    use nn_graph::{Activation, DataType, Shape};
    use soc_sim::catalog::ChipId;
    use soc_sim::engine::EngineKind;
    use soc_sim::schedule::Stage;

    /// An 8-node graph small enough for the exhaustive oracle.
    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny", Shape::nhwc(16, 16, 3), DataType::U8);
        let stem = b.conv2d("stem", b.input_id(), 3, 2, 8, Activation::Relu6);
        let c1 = b.conv2d("c1", stem, 1, 1, 16, Activation::Relu6);
        let d1 = b.depthwise_conv2d("d1", c1, 3, 1, Activation::Relu6);
        let p1 = b.conv2d("p1", d1, 1, 1, 8, Activation::None);
        let gap = b.global_avg_pool("gap", p1);
        let fc = b.fully_connected("fc", gap, 10, Activation::None);
        let _ = b.softmax("sm", fc);
        b.finish()
    }

    /// A deliberately bad heuristic: one stage per node, ping-ponging
    /// between two engines — plenty of room for the tuner to improve.
    fn alternating_schedule(graph: &Graph, soc: &Soc) -> Schedule {
        let npu = soc.engine_of_kind(EngineKind::Npu).unwrap();
        let cpu = soc.cpu();
        let stages = graph
            .iter()
            .enumerate()
            .map(|(i, node)| Stage {
                engine: if i % 2 == 0 { cpu } else { npu },
                dtype: DataType::U8,
                nodes: vec![node.id],
                sync_overhead_us: 10.0,
            })
            .collect();
        Schedule { stages, query_overhead_us: 0.0 }
    }

    #[test]
    fn tuner_never_regresses_and_improves_a_bad_heuristic() {
        let soc = ChipId::Dimensity1100.build();
        let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
        let heuristic = alternating_schedule(&graph, &soc);
        let outcome = tune(&soc, &graph, &heuristic, &TunerConfig::latency());
        assert!(outcome.improved, "a per-node ping-pong schedule must be beatable");
        assert!(outcome.tuned.latency_secs < outcome.heuristic.latency_secs);
        outcome.schedule.validate(&graph).expect("tuned schedule is valid");
        assert_eq!(
            estimate_query_secs(&soc, &graph, &outcome.schedule).to_bits(),
            outcome.tuned.latency_secs.to_bits(),
            "reported score must be the canonical evaluator's, bit-exactly"
        );
    }

    #[test]
    fn tuner_beats_or_matches_a_real_vendor_heuristic() {
        let soc = ChipId::Snapdragon888.build();
        let graph = ModelId::SsdMobileNetV2.build();
        let dep = Nnapi { driver: DriverQuality::Good }.compile(&graph, &soc).unwrap();
        let outcome =
            tune(&soc, &dep.graph, &dep.schedule, &TunerConfig::latency());
        assert!(
            outcome.tuned.latency_secs <= outcome.heuristic.latency_secs,
            "tuner regressed past the seed incumbent"
        );
        outcome.schedule.validate(&dep.graph).expect("tuned schedule is valid");
    }

    #[test]
    fn exact_mode_matches_the_exhaustive_oracle_bit_for_bit() {
        let soc = ChipId::Exynos990.build();
        let graph = tiny_graph();
        let heuristic = alternating_schedule(&graph, &soc);
        for objective in [Objective::Latency, Objective::Energy] {
            let (oracle, _) = exhaustive_optimum(&soc, &graph, &heuristic, objective);
            let outcome = tune(&soc, &graph, &heuristic, &TunerConfig::exact(objective));
            assert_eq!(outcome.stats.beam_truncations, 0, "exact mode must not truncate");
            let got = objective_of(outcome.tuned, objective);
            let want = objective_of(oracle, objective);
            assert_eq!(got.to_bits(), want.to_bits(), "{objective} optimum drifted");
        }
    }

    /// All five search counters of four catalog MobileBERT cells (TFLite
    /// GPU delegate, beam width 64), pinned: the tuning golden locks only
    /// `candidates` and `pruned`, and a search that skips or repeats work
    /// it should not shows in `expanded`, `dedup_hits` and
    /// `beam_truncations` first.
    #[test]
    fn mobilebert_search_counters_are_pinned() {
        let cells = [
            (ChipId::Dimensity1100, TunerConfig::latency(), [99, 4941, 185_254, 699, 134_633]),
            (ChipId::Dimensity1100, TunerConfig::energy(), [64, 0, 191_252, 797, 140_288]),
            (ChipId::Snapdragon865Plus, TunerConfig::latency(), [2, 32_990, 181_387, 796, 133_890]),
            (ChipId::Snapdragon865Plus, TunerConfig::energy(), [64, 0, 229_851, 797, 178_877]),
        ];
        let reference = ModelId::MobileBert.build();
        for (chip, config, want) in cells {
            let soc = chip.build();
            let dep = TfliteGpu.compile(&reference, &soc).expect("TFLite GPU compiles MobileBERT");
            let s = tune(&soc, &dep.graph, &dep.schedule, &config).stats;
            let got = [s.candidates, s.pruned, s.expanded, s.dedup_hits, s.beam_truncations];
            assert_eq!(
                got, want,
                "{chip} {}: (candidates, pruned, expanded, dedup_hits, beam_truncations)",
                config.objective
            );
        }
    }

    #[test]
    #[should_panic(expected = "tuner beam width must be at least 1")]
    fn zero_beam_width_is_rejected() {
        let soc = ChipId::Exynos990.build();
        let graph = tiny_graph();
        let heuristic = alternating_schedule(&graph, &soc);
        let config = TunerConfig { objective: Objective::Latency, beam_width: 0 };
        let _ = tune(&soc, &graph, &heuristic, &config);
    }

    #[test]
    fn energy_objective_never_regresses_energy() {
        let soc = ChipId::Dimensity1100.build();
        let graph = retype(&ModelId::DeepLabV3Plus.build(), DataType::U8);
        let heuristic = alternating_schedule(&graph, &soc);
        let outcome = tune(&soc, &graph, &heuristic, &TunerConfig::energy());
        assert!(outcome.tuned.energy_j <= outcome.heuristic.energy_j);
        assert_eq!(
            active_energy_j(&soc, &graph, &outcome.schedule).to_bits(),
            outcome.tuned.energy_j.to_bits()
        );
    }
}
