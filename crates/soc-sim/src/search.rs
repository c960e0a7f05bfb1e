//! Search support for schedule auto-tuning.
//!
//! The tuner (in `mobile-backend`) explores per-op engine assignments:
//! each node of a graph is mapped to one of a small set of
//! [`SearchTarget`]s (an `(engine, dtype)` pair), and consecutive runs of
//! equal targets form the stages of a [`Schedule`]. This module provides
//! the *evaluation substrate* for that search:
//!
//! - [`CostModel`] pre-computes, once per (soc, graph, target-set), every
//!   per-(node, target) roofline term from the same per-op lowering
//!   [`StreamPlan::lower`] reads — so candidate schedules are costed
//!   without re-lowering.
//! - [`PartialAssign`] is an incrementally-extended prefix assignment
//!   whose accumulators reproduce `StreamPlan::lower` +
//!   [`StreamPlan::sample_secs`]`(1.0, 1)` **bit-exactly** when the
//!   prefix is completed ([`CostModel::finish`]). This is what makes a
//!   branch-and-bound search sound at 0 ULPs: the incumbent and the
//!   candidates are scored by the same arithmetic as the executor. A
//!   prefix is its assignment plus the first node of its open stage and
//!   scalar accumulators: every stage's target is read back from the
//!   assignment, so copying a prefix moves one byte per node, and its
//!   `clone_from` reuses the destination's buffer.
//! - [`CostModel::bound_latency`] / [`CostModel::bound_energy`] give an
//!   admissible lower bound (committed exact cost + best-case roofline
//!   suffix) used to prune partials that cannot beat the incumbent.
//! - [`CostModel::bound_if_extended`] peeks: it returns the bound of a
//!   one-node extension, bit-equal to bounding
//!   [`CostModel::extend`]'s result, without copying the prefix. The
//!   tuner's frontier and [`CostModel::greedy_complete`]'s rollouts rank
//!   candidates by peeking and extend only the ones they keep.
//! - [`active_energy_j`] is the canonical energy objective: the active
//!   compute energy at nominal frequency — the energy sum
//!   `StreamPlan::lower` folds as the numerator of
//!   [`StreamPlan::power_w`]. Launch/sync/transfer overheads draw
//!   platform idle power in the thermal model and are excluded here.

use crate::engine::EngineId;
use crate::plan::{PlanOp, StreamPlan};
use crate::schedule::{Schedule, Stage};
use crate::soc::{InterconnectSpec, Soc};
use nn_graph::graph::{Graph, NodeId};
use nn_graph::DataType;
use serde::{Deserialize, Serialize};

/// One point of the per-op assignment space: run an op on `engine` at
/// `dtype`. The tuner derives the legal target set from the vendor
/// heuristic's stages, so every target is one the backend really uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchTarget {
    /// Engine to place the op on.
    pub engine: EngineId,
    /// Precision the stage runs at.
    pub dtype: DataType,
}

/// Scores of one complete assignment under both objectives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchScore {
    /// Single-query latency in seconds at nominal frequency — bit-equal
    /// to [`crate::executor::estimate_query_secs`] on the induced
    /// schedule.
    pub latency_secs: f64,
    /// Active compute energy in joules — bit-equal to
    /// [`active_energy_j`] on the induced schedule.
    pub energy_j: f64,
}

/// A prefix of a per-op assignment, with exact incremental cost state.
///
/// Extended one node at a time (in topological order) via
/// [`CostModel::extend_in_place`]; the accumulators mirror the fold order
/// of `StreamPlan::lower` so that completing the prefix reproduces the
/// executor's score bit-for-bit. Every field is a pure function of
/// `assign`: the stages are the maximal runs of equal targets, so a node
/// `u` lies in a closed stage exactly when `u < open_start`, its stage's
/// target is `assign[u]`, and the open stage's target is
/// `assign.last()`.
#[derive(Debug)]
pub struct PartialAssign {
    /// Target index per assigned node, in node order.
    pub assign: Vec<u8>,
    /// First node of the open stage (0 while nothing is assigned).
    open_start: u32,
    /// Number of stages opened so far.
    num_stages: u32,
    /// Σ per-node roofline terms, in node order (the `ops` sum).
    ops_sum: f64,
    /// Σ transfer terms of *closed* stages, in stage order.
    transfer: f64,
    /// Query + launch + sync overheads committed so far.
    overhead: f64,
    /// Roofline time accumulated in the open stage.
    stage_time: f64,
    /// Active energy of closed stages.
    energy: f64,
    /// Cross-engine bytes flowing into the open stage.
    open_bytes: u64,
    /// Bitmask of engines already launched (by engine index).
    launched: u64,
}

/// `clone_from` reuses the destination's assignment buffer, so a beam
/// level can build its survivors into the prefixes of the level before
/// without allocating.
impl Clone for PartialAssign {
    fn clone(&self) -> Self {
        PartialAssign { assign: self.assign.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut assign = std::mem::take(&mut self.assign);
        assign.clone_from(&source.assign);
        *self = PartialAssign { assign, ..*source };
    }
}

impl PartialAssign {
    /// Number of nodes assigned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether no node has been assigned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of stages the prefix spans so far.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.num_stages as usize
    }
}

/// Pre-computed per-(node, target) roofline terms for one
/// (soc, graph, target-set) triple, plus the admissible suffix bounds.
#[derive(Debug, Clone)]
pub struct CostModel {
    num_nodes: usize,
    targets: Vec<SearchTarget>,
    node_ids: Vec<NodeId>,
    /// `compute.max(memory) + per_op_secs` per (node, target); infinity
    /// where unsupported. Row-major `[node][target]`.
    term: Vec<f64>,
    /// Whether (node, target) is legal: flops == 0 nodes run anywhere,
    /// else the engine must support the op class at the target dtype.
    supported: Vec<bool>,
    /// Output bytes of each node at each target's dtype (producer-stage
    /// dtype governs transfer size).
    out_bytes: Vec<u64>,
    /// Input node indices per node.
    inputs: Vec<Vec<u32>>,
    /// Engine index per target.
    engine_of: Vec<usize>,
    /// Active power (W) per target's engine.
    power_w: Vec<f64>,
    /// Launch overhead (secs) per engine of the SoC.
    launch_secs: Vec<f64>,
    /// Per-stage sync overhead, µs and secs.
    sync_us: f64,
    sync_secs: f64,
    /// Per-query overhead, µs and secs.
    query_us: f64,
    query_secs: f64,
    interconnect: InterconnectSpec,
    /// `suffix_term[i]` = Σ_{j ≥ i} best supported roofline term of node
    /// `j` — the admissible latency remainder.
    suffix_term: Vec<f64>,
    /// Suffix sums of the best supported `power · term` per node — the
    /// admissible energy remainder.
    suffix_energy: Vec<f64>,
}

impl CostModel {
    /// Builds the cost table for `graph` on `soc` over `targets`.
    ///
    /// `sync_overhead_us` / `query_overhead_us` are the transition
    /// penalties candidate schedules will carry — the tuner reads them
    /// off the vendor heuristic so candidates pay the same framework
    /// costs the heuristic does.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or exceeds 32 entries, if the SoC has
    /// more than 64 engines, or if some op is supported by no target at
    /// all (the heuristic's own target always supports its ops, so a
    /// target set derived from a valid schedule never trips this).
    #[must_use]
    pub fn new(
        soc: &Soc,
        graph: &Graph,
        targets: &[SearchTarget],
        sync_overhead_us: f64,
        query_overhead_us: f64,
    ) -> CostModel {
        assert!(!targets.is_empty(), "search needs at least one target");
        assert!(targets.len() <= 32, "target set too large: {}", targets.len());
        assert!(soc.engines.len() <= 64, "engine bitmask limited to 64 engines");
        let n = graph.len();
        let t = targets.len();
        let mut term = vec![f64::INFINITY; n * t];
        let mut supported = vec![false; n * t];
        let mut out_bytes = vec![0u64; n * t];
        let mut best_term = vec![f64::INFINITY; n];
        let mut best_energy = vec![f64::INFINITY; n];
        for (i, node) in graph.iter().enumerate() {
            for (k, tgt) in targets.iter().enumerate() {
                let engine = &soc.engines[tgt.engine.0];
                out_bytes[i * t + k] = node.output.shape.byte_size(tgt.dtype) as u64;
                let ok = node.cost.flops == 0 || engine.supports(node.class(), tgt.dtype);
                if !ok {
                    continue;
                }
                // `StreamPlan::lower` adds this same term to its stage
                // time, so completed scores are bit-equal to the estimator.
                let v = PlanOp::lower(engine, node.class(), &node.cost, tgt.dtype).nominal_secs();
                term[i * t + k] = v;
                supported[i * t + k] = true;
                if v < best_term[i] {
                    best_term[i] = v;
                }
                let e = engine.active_power_w * v;
                if e < best_energy[i] {
                    best_energy[i] = e;
                }
            }
            assert!(
                best_term[i].is_finite(),
                "node {} ({}) supported by no search target",
                node.id,
                node.name
            );
        }
        let mut suffix_term = vec![0.0; n + 1];
        let mut suffix_energy = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_term[i] = best_term[i] + suffix_term[i + 1];
            suffix_energy[i] = best_energy[i] + suffix_energy[i + 1];
        }
        CostModel {
            num_nodes: n,
            targets: targets.to_vec(),
            node_ids: graph.iter().map(|nd| nd.id).collect(),
            term,
            supported,
            out_bytes,
            inputs: graph
                .iter()
                .map(|nd| nd.inputs.iter().map(|id| id.index() as u32).collect())
                .collect(),
            engine_of: targets.iter().map(|tgt| tgt.engine.0).collect(),
            power_w: targets.iter().map(|tgt| soc.engines[tgt.engine.0].active_power_w).collect(),
            launch_secs: soc.engines.iter().map(|e| e.launch_overhead_us * 1e-6).collect(),
            sync_us: sync_overhead_us,
            sync_secs: sync_overhead_us * 1e-6,
            query_us: query_overhead_us,
            query_secs: query_overhead_us * 1e-6,
            interconnect: soc.interconnect,
            suffix_term,
            suffix_energy,
        }
    }

    /// Number of graph nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The target set being searched.
    #[must_use]
    pub fn targets(&self) -> &[SearchTarget] {
        &self.targets
    }

    /// Whether target `k` may run node `i`.
    #[must_use]
    pub fn is_supported(&self, node: usize, target: usize) -> bool {
        self.supported[node * self.targets.len() + target]
    }

    /// The roofline term of node `i` on target `k` (infinite when
    /// unsupported).
    #[must_use]
    pub fn term(&self, node: usize, target: usize) -> f64 {
        self.term[node * self.targets.len() + target]
    }

    /// The empty prefix: only the per-query overhead is committed.
    #[must_use]
    pub fn root(&self) -> PartialAssign {
        PartialAssign {
            assign: Vec::with_capacity(self.num_nodes),
            open_start: 0,
            num_stages: 0,
            ops_sum: 0.0,
            transfer: 0.0,
            overhead: self.query_secs,
            stage_time: 0.0,
            energy: 0.0,
            open_bytes: 0,
            launched: 0,
        }
    }

    /// Extends `p` in place by assigning the next node to target `k`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the target supports the node and the prefix is not
    /// already complete.
    pub fn extend_in_place(&self, p: &mut PartialAssign, k: u8) {
        let i = p.assign.len();
        debug_assert!(i < self.num_nodes, "assignment already complete");
        debug_assert!(self.supported[i * self.targets.len() + k as usize]);
        if p.assign.last() != Some(&k) {
            // Close the open stage (energy + transfer become committed)…
            if let Some(&prev) = p.assign.last() {
                p.energy += self.power_w[prev as usize] * p.stage_time;
                if p.open_bytes > 0 {
                    p.transfer += self.interconnect.transfer_secs(p.open_bytes);
                }
                p.stage_time = 0.0;
                p.open_bytes = 0;
            }
            // …and open a new one: launch-if-first-use, then sync.
            p.open_start = i as u32;
            p.num_stages += 1;
            let e = self.engine_of[k as usize];
            if p.launched & (1 << e) == 0 {
                p.launched |= 1 << e;
                p.overhead += self.launch_secs[e];
            }
            p.overhead += self.sync_secs;
        }
        p.assign.push(k);
        let term = self.term[i * self.targets.len() + k as usize];
        p.ops_sum += term;
        p.stage_time += term;
        // Cross-engine inputs from closed stages feed bytes into the open
        // stage (producer stage dtype sizes the tensor, as in
        // `Schedule::cross_engine_bytes`).
        let my_engine = self.engine_of[k as usize];
        for &u in &self.inputs[i] {
            if u < p.open_start {
                let pt = p.assign[u as usize];
                if self.engine_of[pt as usize] != my_engine {
                    p.open_bytes += self.out_bytes[u as usize * self.targets.len() + pt as usize];
                }
            }
        }
    }

    /// Clone-and-extend: a new prefix one node longer than `p`, which is
    /// left as it is. (The tuner builds its survivors in place instead:
    /// [`PartialAssign`]'s `clone_from` into a reused slot, then
    /// [`Self::extend_in_place`].)
    #[must_use]
    pub fn extend(&self, p: &PartialAssign, k: u8) -> PartialAssign {
        let mut q = p.clone();
        self.extend_in_place(&mut q, k);
        q
    }

    /// Completes a full assignment's scores.
    ///
    /// For the latency score this is bit-equal to
    /// `estimate_query_secs(soc, graph, &self.schedule(&p.assign))`; for
    /// the energy score, to [`active_energy_j`] on the same schedule.
    ///
    /// # Panics
    ///
    /// Debug-asserts the assignment covers every node.
    #[must_use]
    pub fn finish(&self, p: &PartialAssign) -> SearchScore {
        debug_assert_eq!(p.assign.len(), self.num_nodes, "assignment incomplete");
        let mut transfer = p.transfer;
        let mut energy = p.energy;
        if let Some(&t) = p.assign.last() {
            energy += self.power_w[t as usize] * p.stage_time;
            if p.open_bytes > 0 {
                transfer += self.interconnect.transfer_secs(p.open_bytes);
            }
        }
        // Matches `sample_secs(1.0, 1)` fold order:
        //   Σ ops  +  transfer_secs  +  overhead_secs.
        SearchScore { latency_secs: (p.ops_sum + transfer) + p.overhead, energy_j: energy }
    }

    /// Admissible latency lower bound for any completion of `p`:
    /// committed exact cost (including the open stage's transfer, whose
    /// bytes only grow) plus each remaining node's best supported term.
    ///
    /// Mathematically `bound ≤ finish(completion)` for every completion;
    /// floating-point association differences are covered by the pruning
    /// slack applied at the comparison site.
    #[must_use]
    pub fn bound_latency(&self, p: &PartialAssign) -> f64 {
        let open_transfer = if p.open_bytes > 0 {
            self.interconnect.transfer_secs(p.open_bytes)
        } else {
            0.0
        };
        p.ops_sum + p.transfer + p.overhead + open_transfer + self.suffix_term[p.assign.len()]
    }

    /// Admissible energy lower bound: committed stage energy (the open
    /// stage's time only grows) plus each remaining node's best
    /// supported `power · term`.
    #[must_use]
    pub fn bound_energy(&self, p: &PartialAssign) -> f64 {
        let open = p.assign.last().map_or(0.0, |&t| self.power_w[t as usize] * p.stage_time);
        p.energy + open + self.suffix_energy[p.assign.len()]
    }

    /// The objective's lower bound of `extend(p, k)` without building
    /// it: bit-equal to [`Self::bound_energy`] (when `energy_objective`)
    /// or [`Self::bound_latency`] of the extension, in O(fan-in) and
    /// without copying `p`.
    ///
    /// It replays [`Self::extend_in_place`]'s arithmetic on scalar
    /// copies, the same operations in the same order, then the bound's
    /// own fold; re-associating any sum here breaks the bit-equality
    /// that makes peeking interchangeable with extending.
    ///
    /// # Panics
    ///
    /// Debug-asserts the target supports the node and the prefix is not
    /// already complete.
    #[must_use]
    pub fn bound_if_extended(&self, p: &PartialAssign, k: u8, energy_objective: bool) -> f64 {
        let t = self.targets.len();
        let i = p.assign.len();
        debug_assert!(i < self.num_nodes, "assignment already complete");
        debug_assert!(self.supported[i * t + k as usize]);
        let mut transfer = p.transfer;
        let mut overhead = p.overhead;
        let mut stage_time = p.stage_time;
        let mut energy = p.energy;
        let mut open_bytes = p.open_bytes;
        let new_stage = p.assign.last() != Some(&k);
        if new_stage {
            if let Some(&prev) = p.assign.last() {
                energy += self.power_w[prev as usize] * stage_time;
                if open_bytes > 0 {
                    transfer += self.interconnect.transfer_secs(open_bytes);
                }
                stage_time = 0.0;
                open_bytes = 0;
            }
            let e = self.engine_of[k as usize];
            if p.launched & (1 << e) == 0 {
                overhead += self.launch_secs[e];
            }
            overhead += self.sync_secs;
        }
        let term = self.term[i * t + k as usize];
        stage_time += term;
        if energy_objective {
            return energy + self.power_w[k as usize] * stage_time + self.suffix_energy[i + 1];
        }
        let ops_sum = p.ops_sum + term;
        // The extension's open stage: a new one starting at `i`, or the
        // last one.
        let open_start = if new_stage { i as u32 } else { p.open_start };
        let my_engine = self.engine_of[k as usize];
        for &u in &self.inputs[i] {
            if u < open_start {
                let pt = p.assign[u as usize];
                if self.engine_of[pt as usize] != my_engine {
                    open_bytes += self.out_bytes[u as usize * t + pt as usize];
                }
            }
        }
        let open_transfer =
            if open_bytes > 0 { self.interconnect.transfer_secs(open_bytes) } else { 0.0 };
        ops_sum + transfer + overhead + open_transfer + self.suffix_term[i + 1]
    }

    /// Greedily completes a prefix: each remaining node takes the
    /// supported target minimizing the objective's lower bound after the
    /// extension (lowest target index on ties — deterministic). Each
    /// node peeks at every target's bound with
    /// [`Self::bound_if_extended`] and extends once, with the winner, so
    /// a rollout never copies the prefix per candidate. Used by the
    /// tuner's rollout step to obtain early incumbents that tighten
    /// pruning; the completion's score is still evaluated exactly.
    #[must_use]
    pub fn greedy_complete(&self, p: &PartialAssign, energy_objective: bool) -> PartialAssign {
        let t = self.targets.len();
        let mut q = p.clone();
        for i in q.assign.len()..self.num_nodes {
            let mut best_k = u8::MAX;
            let mut best_bound = f64::INFINITY;
            for k in 0..t {
                if !self.supported[i * t + k] {
                    continue;
                }
                let bound = self.bound_if_extended(&q, k as u8, energy_objective);
                if bound < best_bound {
                    best_bound = bound;
                    best_k = k as u8;
                }
            }
            self.extend_in_place(&mut q, best_k);
        }
        q
    }

    /// Scores one complete assignment: extends the root node by node,
    /// then [`Self::finish`]es it.
    #[must_use]
    pub fn evaluate(&self, assign: &[u8]) -> SearchScore {
        let mut p = self.root();
        for &k in assign {
            self.extend_in_place(&mut p, k);
        }
        self.finish(&p)
    }

    /// Materializes the [`Schedule`] induced by a complete assignment:
    /// consecutive runs of equal targets become stages, every stage
    /// carries the model's sync overhead, and the schedule carries its
    /// query overhead.
    #[must_use]
    pub fn schedule(&self, assign: &[u8]) -> Schedule {
        assert_eq!(assign.len(), self.num_nodes, "assignment incomplete");
        let mut stages: Vec<Stage> = Vec::new();
        for (i, &k) in assign.iter().enumerate() {
            let tgt = self.targets[k as usize];
            match stages.last_mut() {
                Some(s) if s.engine == tgt.engine && s.dtype == tgt.dtype => {
                    s.nodes.push(self.node_ids[i]);
                }
                _ => stages.push(Stage {
                    engine: tgt.engine,
                    dtype: tgt.dtype,
                    nodes: vec![self.node_ids[i]],
                    sync_overhead_us: self.sync_us,
                }),
            }
        }
        Schedule { stages, query_overhead_us: self.query_us }
    }

    /// Maps a schedule back to a per-node target-index assignment, or
    /// `None` if some stage's `(engine, dtype)` is outside the target
    /// set. The schedule must be valid for the graph the model was built
    /// from.
    #[must_use]
    pub fn assignment_of(&self, schedule: &Schedule) -> Option<Vec<u8>> {
        let mut assign = vec![u8::MAX; self.num_nodes];
        for stage in &schedule.stages {
            let k = self
                .targets
                .iter()
                .position(|tgt| tgt.engine == stage.engine && tgt.dtype == stage.dtype)?
                as u8;
            for nid in &stage.nodes {
                assign[nid.index()] = k;
            }
        }
        if assign.contains(&u8::MAX) {
            return None;
        }
        Some(assign)
    }
}

/// Active compute energy of one query in joules, at nominal frequency:
/// the `Σ engine.active_power_w · stage_time` numerator that
/// `StreamPlan::lower` folds for [`StreamPlan::power_w`]. Launch/sync/
/// transfer intervals draw platform idle power in the thermal model and
/// are excluded — this is the energy the *placement* controls, which is
/// what the tuner's energy objective optimizes.
///
/// # Panics
///
/// Panics if the schedule is invalid for the graph.
#[must_use]
pub fn active_energy_j(soc: &Soc, graph: &Graph, schedule: &Schedule) -> f64 {
    schedule
        .validate(graph)
        .unwrap_or_else(|e| panic!("invalid schedule for {}: {e}", graph.name()));
    StreamPlan::lower(soc, graph, schedule).energy_j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ChipId;
    use crate::engine::EngineKind;
    use crate::executor::estimate_query_secs;
    use nn_graph::graph::retype;
    use nn_graph::models::ModelId;

    fn setup() -> (Soc, Graph, Vec<SearchTarget>) {
        let soc = ChipId::Dimensity1100.build();
        let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
        let npu = soc.engine_of_kind(EngineKind::Npu).unwrap();
        let cpu = soc.cpu();
        let targets = vec![
            SearchTarget { engine: npu, dtype: DataType::U8 },
            SearchTarget { engine: cpu, dtype: DataType::U8 },
        ];
        (soc, graph, targets)
    }

    /// Deterministic pseudo-random assignment stream (xorshift), mapped
    /// to supported targets only.
    fn random_assignments(model: &CostModel, count: usize, mut seed: u64) -> Vec<Vec<u8>> {
        let t = model.targets().len();
        (0..count)
            .map(|_| {
                (0..model.num_nodes())
                    .map(|i| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let mut k = (seed % t as u64) as usize;
                        while !model.is_supported(i, k) {
                            k = (k + 1) % t;
                        }
                        k as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn incremental_matches_executor_bit_exactly() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        for assign in random_assignments(&model, 32, 0x5eed_cafe) {
            let score = model.evaluate(&assign);
            let schedule = model.schedule(&assign);
            let canon_lat = estimate_query_secs(&soc, &graph, &schedule);
            let canon_j = active_energy_j(&soc, &graph, &schedule);
            assert_eq!(score.latency_secs.to_bits(), canon_lat.to_bits(), "latency ULP drift");
            assert_eq!(score.energy_j.to_bits(), canon_j.to_bits(), "energy ULP drift");
        }
    }

    #[test]
    fn bounds_are_admissible_along_random_paths() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        // Relative slack for fold-order differences between the bound
        // (one big suffix sum) and the exact completion.
        let slack = 1e-9;
        for assign in random_assignments(&model, 8, 0xab5e_11e5) {
            let final_score = model.evaluate(&assign);
            let mut p = model.root();
            for &k in &assign {
                assert!(
                    model.bound_latency(&p) <= final_score.latency_secs * (1.0 + slack),
                    "latency bound overshoots completion"
                );
                assert!(
                    model.bound_energy(&p) <= final_score.energy_j * (1.0 + slack),
                    "energy bound overshoots completion"
                );
                model.extend_in_place(&mut p, k);
            }
            let done = model.finish(&p);
            assert_eq!(done.latency_secs.to_bits(), final_score.latency_secs.to_bits());
        }
    }

    /// Every engine of the SoC at every dtype it has a rate for.
    fn every_engine_targets(soc: &Soc) -> Vec<SearchTarget> {
        soc.engines()
            .flat_map(|(engine, spec)| {
                [DataType::U8, DataType::F16, DataType::F32]
                    .into_iter()
                    .filter(move |&dtype| spec.peak_ops(dtype) > 0.0)
                    .map(move |dtype| SearchTarget { engine, dtype })
            })
            .collect()
    }

    /// Deterministic random path (xorshift) with sticky stages: a node
    /// keeps its predecessor's target three times in four when it can,
    /// so paths hold long open stages as well as frequent switches.
    fn sticky_path(model: &CostModel, mut seed: u64) -> Vec<u8> {
        let t = model.targets().len();
        let mut path: Vec<u8> = Vec::with_capacity(model.num_nodes());
        for i in 0..model.num_nodes() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let keep = path
                .last()
                .filter(|&&k| !seed.is_multiple_of(4) && model.is_supported(i, k as usize));
            let k = keep.copied().unwrap_or_else(|| {
                let mut k = ((seed >> 8) % t as u64) as usize;
                while !model.is_supported(i, k) {
                    k = (k + 1) % t;
                }
                k as u8
            });
            path.push(k);
        }
        path
    }

    #[test]
    fn peeked_bound_equals_bound_of_extension_bit_for_bit() {
        let (dimensity, edgetpu, npu_cpu) = setup();
        let snapdragon = ChipId::Snapdragon865Plus.build();
        let exynos = ChipId::Exynos2100.build();
        let deeplab = retype(&ModelId::DeepLabV3Plus.build(), DataType::U8);
        let cases = [
            (&dimensity, edgetpu, npu_cpu),
            (&snapdragon, ModelId::MobileBert.build(), every_engine_targets(&snapdragon)),
            (&exynos, deeplab, every_engine_targets(&exynos)),
        ];
        for (case, (soc, graph, targets)) in cases.into_iter().enumerate() {
            let model = CostModel::new(soc, &graph, &targets, 10.0, 5.0);
            let mut transfers = 0usize;
            for seed in [0x9eed_0001_u64, 0x9eed_0002] {
                let mut p = model.root();
                for (i, &next) in sticky_path(&model, seed ^ case as u64).iter().enumerate() {
                    for k in (0..targets.len()).filter(|&k| model.is_supported(i, k)) {
                        let q = model.extend(&p, k as u8);
                        transfers += usize::from(q.open_bytes > 0);
                        for (energy, bound) in
                            [(false, model.bound_latency(&q)), (true, model.bound_energy(&q))]
                        {
                            let peek = model.bound_if_extended(&p, k as u8, energy);
                            assert_eq!(
                                peek.to_bits(),
                                bound.to_bits(),
                                "case {case}, node {i}, target {k}, energy {energy}"
                            );
                        }
                    }
                    model.extend_in_place(&mut p, next);
                }
            }
            assert!(transfers > 0, "case {case}: no cross-engine transfer was exercised");
        }
    }

    /// Every field of a prefix, floats as bits.
    fn fields(p: &PartialAssign) -> (Vec<u8>, [u64; 9]) {
        let words = [
            u64::from(p.open_start),
            u64::from(p.num_stages),
            p.ops_sum.to_bits(),
            p.transfer.to_bits(),
            p.overhead.to_bits(),
            p.stage_time.to_bits(),
            p.energy.to_bits(),
            p.open_bytes,
            p.launched,
        ];
        (p.assign.clone(), words)
    }

    /// A beam slot is reused: `clone_from` a prefix into a slot that holds
    /// a different, longer prefix, then extend it in place. The result
    /// must be the prefix `extend` builds from scratch, in every field.
    #[test]
    fn reused_slot_extends_like_a_fresh_clone() {
        let soc = ChipId::Snapdragon865Plus.build();
        let graph = ModelId::MobileBert.build();
        let targets = every_engine_targets(&soc);
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 5.0);
        let n = model.num_nodes();
        let path = sticky_path(&model, 0x51a7_0001);
        let other = sticky_path(&model, 0x51a7_0002);
        let mut p = model.root();
        let mut slot = model.root();
        let mut stale_open_starts = 0usize;
        for (i, &next) in path.iter().enumerate().take(n - 1) {
            // The slot holds `other`'s prefix, 1 to 24 nodes longer.
            slot.clone_from(&model.root());
            for &k in &other[..(i + 1 + i % 24).min(n)] {
                model.extend_in_place(&mut slot, k);
            }
            stale_open_starts += usize::from(slot.open_start != p.open_start);
            let held = slot.clone();
            for k in (0..targets.len()).filter(|&k| model.is_supported(i, k)) {
                slot.clone_from(&held);
                slot.clone_from(&p);
                model.extend_in_place(&mut slot, k as u8);
                let fresh = model.extend(&p, k as u8);
                assert_eq!(fields(&slot), fields(&fresh), "node {i}, target {k}");
            }
            model.extend_in_place(&mut p, next);
        }
        assert!(stale_open_starts > n / 2, "slots rarely held another open stage");
    }

    #[test]
    fn assignment_round_trips_through_schedule() {
        let (soc, graph, targets) = setup();
        let model = CostModel::new(&soc, &graph, &targets, 10.0, 0.0);
        for assign in random_assignments(&model, 4, 0x0dd_ba11) {
            let schedule = model.schedule(&assign);
            schedule.validate(&graph).expect("induced schedule is valid");
            assert_eq!(model.assignment_of(&schedule), Some(assign));
        }
    }
}
