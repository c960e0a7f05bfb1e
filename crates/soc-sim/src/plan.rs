//! Compiled query plans: per-query graph traversal hoisted to compile time.
//!
//! Single-stream runs issue thousands of queries per benchmark cell, and
//! the only inputs that change between two queries of the same deployment
//! are the DVFS frequency factor and the thermal state. Everything else —
//! schedule validation, engine-support checks, `cross_engine_bytes`,
//! per-op roofline denominators, launch/sync/transfer/query overheads and
//! per-stage power terms — is a pure function of `(soc, graph, schedule)`
//! and is lowered **once** here, into flat arrays the hot loop streams
//! through.
//!
//! Two plan kinds mirror the executor's two entry points:
//! - [`QueryPlan`] for single-stream queries ([`crate::executor::run_query`]),
//! - [`OfflinePlan`] for batched multi-stream runs
//!   ([`crate::executor::run_offline`]).
//!
//! # One lowering
//!
//! Every evaluator reads the same two pieces of roofline arithmetic:
//! - `PlanOp::lower` derives one op's terms (`flops`, `denom`,
//!   `memory_secs`, `sched_secs`) on an `(engine, dtype)`. It is the only
//!   code that reads an engine's peak rate, efficiency, bandwidth and
//!   per-op cost.
//! - `StageOverheads` is the per-stage table of query, launch, sync and
//!   transfer overheads, and its `fold` sums them, optionally under a
//!   [`PlanDelta`].
//!
//! [`QueryPlan::new`], [`StreamPlan::lower`] and [`SweepPlan`] read both.
//! [`crate::search::CostModel`] takes its per-op terms from
//! `PlanOp::lower`; its incremental extension is the only other form of
//! the overhead fold. [`crate::search::active_energy_j`] reads the energy
//! sum `StreamPlan::lower` folds. None keeps roofline arithmetic of its
//! own, so they agree bit for bit by construction. Each keeps its own
//! operand order: `flops / (denom * freq)` on the single-stream path,
//! pre-divided `flops / denom` for the estimator and the search cost
//! model.

use crate::engine::{EngineId, EngineSpec};
use crate::executor::{OfflineResult, QueryBreakdown, QueryResult};
use crate::plan_batch::BatchPlan;
use crate::schedule::Schedule;
use crate::soc::{InterconnectSpec, Soc, SocState};
use crate::time::SimDuration;
use nn_graph::{DataType, Graph, OpClass, OpCost};
use std::sync::Arc;

/// One lowered graph node: everything the roofline model needs, with all
/// graph/engine lookups already resolved. Crate-visible so the batched
/// lockstep executor ([`crate::plan_batch`]) can stream the same arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanOp {
    /// Node FLOPs as `f64` (0.0 for memory-only ops).
    pub(crate) flops: f64,
    /// Roofline denominator `peak_ops(dtype) × efficiency(class)`; the hot
    /// loop divides by `denom * freq` so the operand order matches the
    /// unplanned executor bit-for-bit.
    pub(crate) denom: f64,
    /// Memory-bound time (seconds) — frequency-independent: DRAM is on
    /// its own rail, so DVFS does not scale it.
    pub(crate) memory_secs: f64,
    /// Per-op scheduling cost (seconds) — frequency-independent.
    pub(crate) sched_secs: f64,
}

impl PlanOp {
    /// Lowers an op of `class` costing `cost` onto `engine` at `dtype`.
    /// Unsupported placements are not rejected here: a zero `denom`
    /// yields an infinite compute term.
    pub(crate) fn lower(
        engine: &EngineSpec,
        class: OpClass,
        cost: &OpCost,
        dtype: DataType,
    ) -> Self {
        PlanOp {
            flops: cost.flops as f64,
            denom: engine.peak_ops(dtype) * engine.efficiency(class),
            memory_secs: cost.total_bytes(dtype) as f64 / (engine.mem_bandwidth_gbps * 1e9),
            sched_secs: engine.per_op_overhead_us * 1e-6,
        }
    }

    /// Compute time at full frequency, pre-divided as `flops / denom`
    /// (0.0 for memory-only ops): the estimator's operand order, which
    /// rounds differently from the single-stream `flops / (denom * freq)`.
    fn compute_secs(&self) -> f64 {
        if self.flops == 0.0 {
            0.0
        } else {
            self.flops / self.denom
        }
    }

    /// Roofline time at full frequency in the estimator's operand order:
    /// `compute.max(memory) + sched`.
    pub(crate) fn nominal_secs(&self) -> f64 {
        self.compute_secs().max(self.memory_secs) + self.sched_secs
    }
}

/// One lowered stage: a half-open op range plus the engine-level terms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanStage {
    /// End of this stage's range in [`QueryPlan::ops`] (the start is the
    /// previous stage's end).
    pub(crate) ops_end: usize,
    /// Engine this stage occupies.
    pub(crate) engine: EngineId,
    /// Active power of that engine (watts) — weight for the energy term.
    pub(crate) power_w: f64,
}

/// A compiled single-stream query: `(soc, graph, schedule)` lowered to
/// flat arrays so per-query execution is a tight roofline loop.
///
/// # Bit-identity contract
///
/// For any sequence of queries, [`QueryPlan::execute`] produces results
/// **bit-identical** to calling [`crate::executor::run_query`] with the
/// same `(soc, graph, schedule)` against the same evolving [`SocState`]:
/// every `f64` in the [`QueryResult`] (latency, breakdown, energy, DVFS
/// trajectory, temperatures) matches to 0 ULPs. The lowering preserves the
/// executor's exact operand order (`flops / (denom * freq)` where
/// `denom = peak_ops × efficiency`) and addition order (query overhead,
/// then per stage: first-launch overhead, sync overhead, transfer,
/// per-op `compute.max(memory) + sched`). The golden suite locks this
/// contract across all v1.0 cells; `tests/plan_equivalence.rs` fuzzes it
/// over random graphs, schedules, frequencies and thermal states.
///
/// Validation (schedule coverage/order, engine support) happens once in
/// [`QueryPlan::new`] with the same panics as the unplanned path; the hot
/// loop retains only `debug_assert!`-level checks.
///
/// # Examples
///
/// ```
/// use soc_sim::{catalog::ChipId, plan::QueryPlan, schedule::Schedule};
/// use nn_graph::{graph::retype, models::ModelId, DataType};
///
/// let soc = ChipId::Snapdragon888.build();
/// let graph = retype(&ModelId::MobileNetEdgeTpu.build(), DataType::I8);
/// let schedule = Schedule::single(&graph, soc.cpu(), DataType::I8, 0.0);
/// let plan = QueryPlan::new(&soc, &graph, &schedule);
/// let mut state = soc.new_state(22.0);
/// let result = plan.execute(&mut state);
/// assert!(result.latency.as_millis_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Flat per-op roofline terms, concatenated in stage order.
    pub(crate) ops: Vec<PlanOp>,
    /// Per-stage op ranges + engine terms, in schedule order.
    pub(crate) stages: Vec<PlanStage>,
    /// Precomputed inter-engine transfer time.
    pub(crate) transfer: SimDuration,
    /// Precomputed total overhead (query + launch + sync, accumulated in
    /// the executor's historical order before rounding).
    pub(crate) overhead: SimDuration,
    /// The per-engine runtime-launch share of `overhead`.
    pub(crate) launch: SimDuration,
    /// The per-stage framework-synchronization share of `overhead`.
    pub(crate) sync: SimDuration,
}

impl QueryPlan {
    /// Compiles a plan: validates the schedule, checks engine support and
    /// lowers every stage. All per-query-invariant work happens here.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid for the graph or places work on
    /// an engine that cannot execute it — the same panics (and messages)
    /// [`crate::executor::run_query`] raises.
    #[must_use]
    pub fn new(soc: &Soc, graph: &Graph, schedule: &Schedule) -> Self {
        schedule
            .validate(graph)
            .unwrap_or_else(|e| panic!("invalid schedule for {}: {e}", graph.name()));
        let mut ops = Vec::with_capacity(graph.len());
        let mut stages = Vec::with_capacity(schedule.stages.len());
        for stage in &schedule.stages {
            let engine = soc.engine(stage.engine);
            for &nid in &stage.nodes {
                let node = graph.node(nid);
                if node.cost.flops > 0 {
                    assert!(
                        engine.supports(node.class(), stage.dtype),
                        "{} cannot execute {} ({}) at {}",
                        engine.name,
                        node.name,
                        node.class(),
                        stage.dtype
                    );
                }
                ops.push(PlanOp::lower(engine, node.class(), &node.cost, stage.dtype));
            }
            stages.push(PlanStage {
                ops_end: ops.len(),
                engine: stage.engine,
                power_w: engine.active_power_w,
            });
        }

        let (transfer, overhead, launch, sync) =
            StageOverheads::new(soc, graph, schedule).fold(None);
        QueryPlan {
            ops,
            stages,
            transfer: SimDuration::from_secs_f64(transfer),
            overhead: SimDuration::from_secs_f64(overhead),
            launch: SimDuration::from_secs_f64(launch),
            sync: SimDuration::from_secs_f64(sync),
        }
    }

    /// Number of lowered stages.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of lowered ops across all stages.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Executes one query against the plan, advancing the SoC state —
    /// the single-stream hot loop. Allocates nothing beyond the returned
    /// breakdown. See the type-level docs for the bit-identity contract.
    #[must_use]
    pub fn execute(&self, state: &mut SocState) -> QueryResult {
        let freq = state.freq_factor();
        let steady = SteadyState::from_plan(self, freq);
        let step = self.advance(state, freq, &steady);
        self.result(step, steady.stage_compute)
    }

    /// [`Self::execute`] with a steady-state fast-forward memo.
    ///
    /// Every `f64` the per-op roofline loop produces is a pure function of
    /// the plan and the query's DVFS frequency factor: the loop reads
    /// nothing else from [`SocState`]. Once a query has run at a given
    /// `freq.to_bits()`, any later query at the same operating point can
    /// replay the recorded per-stage durations, energy terms and total
    /// latency on the accumulator — bit-identical by construction (the
    /// memo stores the *results* of the original operand and addition
    /// order) but O(1) in the op count. Thermal, energy and battery
    /// bookkeeping still advances per query, so trajectories (and
    /// therefore throttle transitions, which change `freq` and miss the
    /// memo) are untouched.
    ///
    /// This subsumes exact-state repetition detection: a repeated
    /// (freq bits, temperature bits, cycle position) triple necessarily
    /// repeats the frequency bits, so the memo is already warm by the
    /// time the full executor state revisits a fixed point.
    #[must_use]
    pub fn execute_memo(&self, state: &mut SocState, memo: &mut ExecMemo) -> QueryResult {
        let freq = state.freq_factor();
        let steady = memo.get_or_record(freq, |freq| SteadyState::from_plan(self, freq));
        let step = self.advance(state, freq, steady);
        self.result(step, steady.stage_compute.clone())
    }

    /// [`Self::execute_memo`] without the breakdown: the same state
    /// evolution and the same scalars, and no allocation once the memo
    /// holds the query's operating point. [`Self::step_result`] rebuilds
    /// the full [`QueryResult`] from the step and the memo afterwards.
    #[must_use]
    pub fn step_memo(&self, state: &mut SocState, memo: &mut ExecMemo) -> QueryStep {
        let freq = state.freq_factor();
        let steady = memo.get_or_record(freq, |freq| SteadyState::from_plan(self, freq));
        self.advance(state, freq, steady)
    }

    /// The [`QueryResult`] [`Self::execute_memo`] would have returned for
    /// a step [`Self::step_memo`] took with this `memo`: the breakdown is
    /// read back from the operating point the step recorded or replayed.
    /// Looking it up counts no memo hit.
    ///
    /// # Panics
    ///
    /// Panics if `memo` holds no entry at the step's frequency, i.e. the
    /// step was not taken with this memo.
    #[must_use]
    pub fn step_result(&self, step: QueryStep, memo: &ExecMemo) -> QueryResult {
        let steady = memo
            .get(step.freq_factor)
            .expect("the step recorded its operating point in this memo");
        self.result(step, steady.stage_compute.clone())
    }

    /// The per-query thermal, energy and battery bookkeeping: charges the
    /// query's average power over its duration and returns the scalars
    /// read at dispatch and after completion. Every entry point runs
    /// exactly this step.
    fn advance(&self, state: &mut SocState, freq: f64, steady: &SteadyState) -> QueryStep {
        let dvfs_level = state.dvfs_level();
        let temperature_c = state.thermal.temperature_c();
        debug_assert!(
            freq.is_finite() && freq > 0.0,
            "DVFS frequency factor must be positive, got {freq}"
        );
        debug_assert!(
            self.stages.last().map_or(self.ops.is_empty(), |s| s.ops_end == self.ops.len()),
            "plan op ranges must tile the op array"
        );

        let total = steady.compute_total + self.transfer + self.overhead;

        // Thermal/energy bookkeeping over the query duration.
        let avg_power = if total > SimDuration::ZERO {
            steady.energy_terms / total.as_secs_f64()
        } else {
            0.0
        };
        state.thermal.advance(avg_power, total);
        state.energy.record_active(avg_power, total);
        if let Some(battery) = state.battery.as_mut() {
            battery.drain(avg_power, total);
        }

        QueryStep {
            latency: total,
            freq_factor: freq,
            dvfs_level,
            temperature_c,
            total_joules: state.energy.total_joules(),
        }
    }

    /// Assembles a step and its per-stage compute times into the full
    /// result.
    fn result(&self, step: QueryStep, stage_compute: Vec<SimDuration>) -> QueryResult {
        QueryResult {
            latency: step.latency,
            freq_factor: step.freq_factor,
            dvfs_level: step.dvfs_level,
            temperature_c: step.temperature_c,
            total_joules: step.total_joules,
            breakdown: QueryBreakdown {
                stage_compute,
                stage_engines: self.stages.iter().map(|s| s.engine).collect(),
                transfer: self.transfer,
                overhead: self.overhead,
                launch: self.launch,
                sync: self.sync,
            },
        }
    }
}

/// The scalar half of a [`QueryResult`]: what one query step reports
/// without its per-stage breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStep {
    /// End-to-end latency.
    pub latency: SimDuration,
    /// DVFS frequency factor in effect (1.0 = unthrottled).
    pub freq_factor: f64,
    /// DVFS ladder index in effect at dispatch (0 = fastest point).
    pub dvfs_level: usize,
    /// Die temperature at dispatch, before this query's heat was
    /// deposited (°C).
    pub temperature_c: f64,
    /// Cumulative device energy after this query completed (joules).
    pub total_joules: f64,
}

/// The frequency-dependent slice of one executed query: everything the
/// per-op roofline loop produces before the (state-dependent) thermal and
/// energy bookkeeping. An [`ExecMemo`] records one per operating point.
#[derive(Debug, Clone)]
pub struct SteadyState {
    stage_compute: Vec<SimDuration>,
    energy_terms: f64,
    compute_total: SimDuration,
}

impl SteadyState {
    /// The full O(ops) roofline walk — the exact loop `execute` has always
    /// run, factored so the memoized path can replay its recorded output.
    fn from_plan(plan: &QueryPlan, freq: f64) -> Self {
        let mut stage_compute = Vec::with_capacity(plan.stages.len());
        let mut energy_terms = 0.0f64;
        let mut compute_total = SimDuration::ZERO;
        let mut op_start = 0usize;
        for stage in &plan.stages {
            let mut t = 0.0f64;
            for op in &plan.ops[op_start..stage.ops_end] {
                let compute = if op.flops == 0.0 {
                    0.0
                } else {
                    op.flops / (op.denom * freq)
                };
                t += compute.max(op.memory_secs) + op.sched_secs;
            }
            op_start = stage.ops_end;
            energy_terms += stage.power_w * t;
            let d = SimDuration::from_secs_f64(t);
            compute_total += d;
            stage_compute.push(d);
        }
        SteadyState { stage_compute, energy_terms, compute_total }
    }
}

/// A memo keyed by the exact bits of a DVFS frequency factor, sorted for
/// binary search: the first lookup at an operating point computes and
/// records its value, every later one replays it, bit-identical by
/// construction.
///
/// [`SocState::freq_factor`] always snaps to a point of the device's DVFS
/// ladder (six on the deepest catalog ladder), so a memo holds at most one
/// entry per ladder point and never needs evicting. A memo belongs to the
/// caller (one per benchmark run or stream), never to the plan: plans are
/// shared across threads and runs.
#[derive(Debug, Clone)]
pub struct FreqMemo<V> {
    /// `(freq bits, recorded value)`, sorted by bits.
    entries: Vec<(u64, V)>,
    hits: u64,
}

/// Steady-state fast-forward memo for [`QueryPlan::execute_memo`].
pub type ExecMemo = FreqMemo<SteadyState>;

/// Per-operating-point sample cost memo for
/// [`StreamPlan::sample_secs_memo`].
pub type RateMemo = FreqMemo<f64>;

impl<V> Default for FreqMemo<V> {
    fn default() -> Self {
        FreqMemo { entries: Vec::new(), hits: 0 }
    }
}

impl<V> FreqMemo<V> {
    /// An empty memo; the first lookup at each operating point pays the
    /// full computation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the memo so far (excludes the recording
    /// computations).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Distinct operating points recorded.
    #[must_use]
    pub fn operating_points(&self) -> usize {
        self.entries.len()
    }

    /// The value recorded at `freq`'s exact bits, or `compute(freq)`,
    /// recorded first.
    pub(crate) fn get_or_record(&mut self, freq: f64, compute: impl FnOnce(f64) -> V) -> &V {
        let bits = freq.to_bits();
        let i = match self.entries.binary_search_by_key(&bits, |e| e.0) {
            Ok(i) => {
                self.hits += 1;
                i
            }
            Err(i) => {
                self.entries.insert(i, (bits, compute(freq)));
                i
            }
        };
        &self.entries[i].1
    }

    /// The value recorded at `freq`'s exact bits, if any. Counts no hit.
    pub(crate) fn get(&self, freq: f64) -> Option<&V> {
        let bits = freq.to_bits();
        self.entries.binary_search_by_key(&bits, |e| e.0).ok().map(|i| &self.entries[i].1)
    }
}

/// One offline stream lowered to the fluid model's per-op terms.
///
/// The compute term is pre-divided by the roofline denominator
/// (`c = flops / (peak_ops × efficiency)`), matching the offline
/// estimator's historical arithmetic — which differs in rounding from the
/// single-stream path's `flops / (denom * freq)` and must stay distinct.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// `(compute_secs_at_full_freq, memory_secs, scheduling_secs)` per op.
    ops: Vec<(f64, f64, f64)>,
    /// Per-sample overhead at full batch amortization (seconds).
    overhead_secs: f64,
    /// Transfers between engines (seconds, frequency independent).
    transfer_secs: f64,
    /// Mean active power of the engines this stream occupies (watts).
    power_w: f64,
    /// Active compute energy of one sample at full frequency (joules):
    /// `Σ active_power_w · stage_time`, the numerator of `power_w`.
    pub(crate) energy_j: f64,
}

impl StreamPlan {
    /// Lowers one stream. Unlike [`QueryPlan::new`] this asserts nothing
    /// beyond engine-id bounds: the estimator historically tolerates
    /// unsupported placements (it is used to *cost* candidate placements,
    /// including bad ones).
    #[must_use]
    pub fn lower(soc: &Soc, graph: &Graph, schedule: &Schedule) -> Self {
        let (transfer_secs, overhead_secs, _, _) =
            StageOverheads::new(soc, graph, schedule).fold(None);
        let mut ops = Vec::with_capacity(graph.len());
        let mut energy_j = 0.0;
        let mut total_time = 0.0;
        for stage in &schedule.stages {
            let engine = soc.engine(stage.engine);
            let mut stage_time = 0.0;
            for &nid in &stage.nodes {
                let node = graph.node(nid);
                let op = PlanOp::lower(engine, node.class(), &node.cost, stage.dtype);
                ops.push((op.compute_secs(), op.memory_secs, op.sched_secs));
                stage_time += op.nominal_secs();
            }
            energy_j += engine.active_power_w * stage_time;
            total_time += stage_time;
        }
        let power_w = if total_time > 0.0 { energy_j / total_time } else { 0.0 };
        StreamPlan { ops, overhead_secs, transfer_secs, power_w, energy_j }
    }

    /// Seconds per sample at DVFS factor `freq` with overheads amortized
    /// over `batch` samples.
    #[must_use]
    pub fn sample_secs(&self, freq: f64, batch: usize) -> f64 {
        let ops: f64 = self.ops.iter().map(|&(c, m, s)| (c / freq).max(m) + s).sum();
        ops + self.transfer_secs + self.overhead_secs / batch.max(1) as f64
    }

    /// Mean active power of the engines this stream occupies (watts).
    #[must_use]
    pub fn power_w(&self) -> f64 {
        self.power_w
    }

    /// [`Self::sample_secs`] through a shared [`RateMemo`]: the first
    /// lookup at a given `freq.to_bits()` pays the per-op sum and records
    /// it; every later lookup — another 250 ms chunk at the same
    /// operating point, another batch lane in lockstep — replays the
    /// recorded value, bit-identical by construction.
    ///
    /// One memo is scoped to exactly one `(stream plan, batch)` pair;
    /// callers evaluating several streams or batch sizes keep one memo
    /// per pair (as [`OfflinePlan::execute`] does per stream).
    #[must_use]
    pub fn sample_secs_memo(&self, freq: f64, batch: usize, memo: &mut RateMemo) -> f64 {
        *memo.get_or_record(freq, |freq| self.sample_secs(freq, batch))
    }
}

/// A single-knob change to an already-lowered plan, for parameter sweeps.
///
/// Each variant names one scalar the ablation studies sweep. Everything
/// else about the `(soc, graph, schedule)` triple — placement, op
/// rooflines, power terms — is unaffected by these knobs, so
/// [`SweepPlan`] can re-lower just the overhead/transfer splits in
/// O(stages) instead of re-validating the schedule and re-walking the
/// graph.
///
/// The two remaining swept knobs need no delta at all: the offline batch
/// size is already an argument of [`OfflinePlan::execute`], and DVFS
/// frequency / thermal parameters are runtime [`SocState`], read fresh on
/// every [`QueryPlan::execute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanDelta {
    /// Set the framework synchronization overhead of **every** stage to
    /// this value (µs) — the schedule-wide knob the partition planner
    /// annotates uniformly onto each stage.
    SyncOverheadUs(f64),
    /// Set the per-query fixed overhead (µs).
    QueryOverheadUs(f64),
    /// Set the interconnect's effective transfer bandwidth (GB/s); the
    /// per-handoff latency is unchanged.
    InterconnectGbps(f64),
}

/// The per-stage overhead table of one `(soc, graph, schedule)` triple:
/// everything the query, launch, sync and transfer overheads are folded
/// from. Every plan kind builds one; [`SweepPlan`] keeps it so any
/// [`PlanDelta`] re-folds in O(stages).
#[derive(Debug, Clone)]
struct StageOverheads {
    /// The schedule-wide per-query overhead knob (µs).
    query_overhead_us: f64,
    /// Per stage: runtime-launch overhead charged at this stage (µs);
    /// `0.0` when the stage's engine already launched earlier in the
    /// schedule. Adding the zero is bit-identical to skipping it (the
    /// overhead accumulators never go negative).
    launch_us: Vec<f64>,
    /// Per stage: framework synchronization overhead (µs).
    sync_us: Vec<f64>,
    /// Per stage: bytes crossing the interconnect *into* this stage.
    cross_bytes: Vec<u64>,
    /// The SoC's interconnect (bandwidth knob + fixed handoff latency).
    interconnect: InterconnectSpec,
}

impl StageOverheads {
    fn new(soc: &Soc, graph: &Graph, schedule: &Schedule) -> Self {
        // Launch (runtime init) is paid once per engine per query; the
        // framework synchronization on every partition.
        let mut launched: Vec<bool> = vec![false; soc.engines.len()];
        let launch_us = schedule
            .stages
            .iter()
            .map(|stage| {
                if launched[stage.engine.0] {
                    0.0
                } else {
                    launched[stage.engine.0] = true;
                    soc.engine(stage.engine).launch_overhead_us
                }
            })
            .collect();
        StageOverheads {
            query_overhead_us: schedule.query_overhead_us,
            launch_us,
            sync_us: schedule.stages.iter().map(|s| s.sync_overhead_us).collect(),
            cross_bytes: schedule.cross_engine_bytes(graph),
            interconnect: soc.interconnect,
        }
    }

    /// Folds the table, with `delta` applied when given. Returns
    /// `(transfer, overhead, launch, sync)` in seconds, summed in the
    /// executor's historical order: query overhead, then per stage
    /// first-launch overhead, sync, transfer.
    fn fold(&self, delta: Option<PlanDelta>) -> (f64, f64, f64, f64) {
        let query_overhead_us = match delta {
            Some(PlanDelta::QueryOverheadUs(v)) => v,
            _ => self.query_overhead_us,
        };
        let interconnect = match delta {
            Some(PlanDelta::InterconnectGbps(v)) => InterconnectSpec {
                transfer_gbps: v,
                handoff_latency_us: self.interconnect.handoff_latency_us,
            },
            _ => self.interconnect,
        };
        let mut transfer = 0.0f64;
        let mut overhead = 0.0f64;
        let mut launch_secs = 0.0f64;
        let mut sync_secs = 0.0f64;
        overhead += query_overhead_us * 1e-6;
        for si in 0..self.sync_us.len() {
            let sync_us = match delta {
                Some(PlanDelta::SyncOverheadUs(v)) => v,
                _ => self.sync_us[si],
            };
            overhead += self.launch_us[si] * 1e-6;
            launch_secs += self.launch_us[si] * 1e-6;
            overhead += sync_us * 1e-6;
            sync_secs += sync_us * 1e-6;
            if self.cross_bytes[si] > 0 {
                transfer += interconnect.transfer_secs(self.cross_bytes[si]);
            }
        }
        (transfer, overhead, launch_secs, sync_secs)
    }
}

/// A `(soc, graph, schedule)` triple lowered once, with its per-stage
/// overhead table kept so any [`PlanDelta`] re-lowers in O(stages).
///
/// # Bit-identity contract
///
/// [`SweepPlan::relower_query`] (resp. [`relower_stream`]) returns a plan
/// bit-identical — every `f64`, 0 ULPs — to a fresh [`QueryPlan::new`]
/// (resp. [`StreamPlan::lower`]) against the knob-modified schedule or
/// SoC: both fold the same overhead table, and only the swept scalar
/// changes. `tests/plan_equivalence.rs` fuzzes this over random graphs,
/// schedules and knob values.
///
/// [`relower_stream`]: Self::relower_stream
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Fully-lowered baseline single-stream plan, shared (`Arc`) so
    /// batch re-lowerings hand their lanes the op arrays without
    /// copying them.
    query: Arc<QueryPlan>,
    /// Fully-lowered baseline estimator profile.
    stream: StreamPlan,
    /// The overhead table every re-lowering re-folds.
    overheads: StageOverheads,
}

impl SweepPlan {
    /// Lowers the triple once, keeping its overhead table.
    ///
    /// # Panics
    ///
    /// Panics exactly as [`QueryPlan::new`] does: on an invalid schedule
    /// or an unsupported placement.
    #[must_use]
    pub fn new(soc: &Soc, graph: &Graph, schedule: &Schedule) -> Self {
        SweepPlan {
            query: Arc::new(QueryPlan::new(soc, graph, schedule)),
            stream: StreamPlan::lower(soc, graph, schedule),
            overheads: StageOverheads::new(soc, graph, schedule),
        }
    }

    /// The baseline (no-delta) single-stream plan.
    #[must_use]
    pub fn query_plan(&self) -> &QueryPlan {
        &self.query
    }

    /// The baseline (no-delta) estimator profile.
    #[must_use]
    pub fn stream_plan(&self) -> &StreamPlan {
        &self.stream
    }

    /// The schedule-wide per-query overhead knob (µs) the plan was
    /// lowered with — the baseline that
    /// [`PlanDelta::QueryOverheadUs`] perturbations replace, so callers
    /// modelling *additional* per-query load pass `base + extra`.
    #[must_use]
    pub fn query_overhead_us(&self) -> f64 {
        self.overheads.query_overhead_us
    }

    /// Re-lowers the single-stream plan under `delta` — O(stages), no
    /// schedule re-validation, no graph walk. Bit-identical to a fresh
    /// [`QueryPlan::new`] against the knob-modified inputs.
    #[must_use]
    pub fn relower_query(&self, delta: PlanDelta) -> QueryPlan {
        let (transfer, overhead, launch_secs, sync_secs) = self.overheads.fold(Some(delta));
        QueryPlan {
            ops: self.query.ops.clone(),
            stages: self.query.stages.clone(),
            transfer: SimDuration::from_secs_f64(transfer),
            overhead: SimDuration::from_secs_f64(overhead),
            launch: SimDuration::from_secs_f64(launch_secs),
            sync: SimDuration::from_secs_f64(sync_secs),
        }
    }

    /// Re-lowers the estimator profile under `delta` — the [`StreamPlan`]
    /// analogue of [`Self::relower_query`].
    #[must_use]
    pub fn relower_stream(&self, delta: PlanDelta) -> StreamPlan {
        let (transfer_secs, overhead_secs, _, _) = self.overheads.fold(Some(delta));
        StreamPlan { overhead_secs, transfer_secs, ..self.stream.clone() }
    }

    /// [`crate::executor::estimate_query_secs`] under `delta`: the
    /// single-sample, full-frequency latency estimate the backends rank
    /// candidate placements by. The schedule was validated once at
    /// construction.
    #[must_use]
    pub fn estimate_query_secs(&self, delta: PlanDelta) -> f64 {
        self.relower_stream(delta).sample_secs(1.0, 1)
    }

    /// Re-lowers the single-stream plan under **each** delta in `deltas`,
    /// packed as one [`BatchPlan`] lane per knob variant, so K variants
    /// run in one pass over the op arrays — the fleet executor's path,
    /// one lane per device unit. All lanes share the baseline op/stage
    /// arrays (no swept knob touches them); each lane carries its own
    /// re-lowered overhead terms. Lane `k` executes bit-identically to
    /// `self.relower_query(deltas[k]).execute(..)` against the same
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` is empty.
    #[must_use]
    pub fn relower_query_batch(&self, deltas: &[PlanDelta]) -> BatchPlan {
        assert!(!deltas.is_empty(), "batch re-lowering needs at least one delta");
        let mut transfer = Vec::with_capacity(deltas.len());
        let mut overhead = Vec::with_capacity(deltas.len());
        let mut launch = Vec::with_capacity(deltas.len());
        let mut sync = Vec::with_capacity(deltas.len());
        for &delta in deltas {
            let (t, o, l, s) = self.overheads.fold(Some(delta));
            transfer.push(SimDuration::from_secs_f64(t));
            overhead.push(SimDuration::from_secs_f64(o));
            launch.push(SimDuration::from_secs_f64(l));
            sync.push(SimDuration::from_secs_f64(s));
        }
        BatchPlan::from_lanes(Arc::clone(&self.query), transfer, overhead, launch, sync)
    }

    /// [`Self::relower_query_batch`] into an existing batch: clears and
    /// refills `batch`'s per-lane overhead vectors in place, reusing the
    /// shared op arrays — the per-wave path for fleet sweeps, where a
    /// fresh [`BatchPlan`] per wave would pay four vector allocations
    /// each time. The lane count may change between refills.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` is empty or `batch` was not produced by
    /// [`Self::relower_query_batch`] on this same `SweepPlan` (the op
    /// arrays must be the very same `Arc`).
    pub fn relower_query_batch_into(&self, deltas: &[PlanDelta], batch: &mut BatchPlan) {
        assert!(!deltas.is_empty(), "batch re-lowering needs at least one delta");
        batch.refill_lanes(
            &self.query,
            deltas.iter().map(|&delta| {
                let (t, o, l, s) = self.overheads.fold(Some(delta));
                (
                    SimDuration::from_secs_f64(t),
                    SimDuration::from_secs_f64(o),
                    SimDuration::from_secs_f64(l),
                    SimDuration::from_secs_f64(s),
                )
            }),
        );
    }
}

/// Simulation step for the offline loop.
const OFFLINE_CHUNK: SimDuration = SimDuration::from_millis(250);

/// A compiled offline (batched, multi-stream) run: every stream lowered
/// once, with total run power precomputed. [`OfflinePlan::execute`]
/// reproduces [`crate::executor::run_offline`] bit-identically, and
/// memoizes per-stream rates on the chunk's `freq.to_bits()` so
/// steady-state chunks (unthrottled, or parked at one DVFS point) skip
/// re-summing the per-op profiles every 250 ms.
#[derive(Debug, Clone)]
pub struct OfflinePlan {
    /// Lowered per-stream profiles, in stream order.
    streams: Vec<StreamPlan>,
    /// Power of all streams running concurrently plus platform idle (W).
    total_power: f64,
    /// Baseline platform power (watts), excluded from active energy.
    idle_power_w: f64,
}

impl OfflinePlan {
    /// Compiles an offline plan: validates every stream schedule and
    /// lowers it.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or any schedule is invalid — the same
    /// panics (and messages) [`crate::executor::run_offline`] raises.
    #[must_use]
    pub fn new(soc: &Soc, graph: &Graph, streams: &[Schedule]) -> Self {
        assert!(!streams.is_empty(), "offline needs at least one stream");
        for s in streams {
            s.validate(graph)
                .unwrap_or_else(|e| panic!("invalid offline schedule: {e}"));
        }
        let streams: Vec<StreamPlan> =
            streams.iter().map(|s| StreamPlan::lower(soc, graph, s)).collect();
        let total_power: f64 =
            streams.iter().map(StreamPlan::power_w).sum::<f64>() + soc.idle_power_w;
        OfflinePlan { streams, total_power, idle_power_w: soc.idle_power_w }
    }

    /// Number of lowered streams.
    #[must_use]
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Executes `total_samples` across the plan's streams under the fluid
    /// model, advancing thermal/energy state chunk by chunk.
    ///
    /// # Panics
    ///
    /// Panics if `total_samples == 0` or no stream makes progress.
    #[must_use]
    pub fn execute(
        &self,
        state: &mut SocState,
        total_samples: u64,
        batch_size: usize,
    ) -> OfflineResult {
        assert!(total_samples > 0, "offline needs samples");

        let mut remaining = total_samples as f64;
        let mut per_stream = vec![0.0f64; self.streams.len()];
        let mut elapsed = SimDuration::ZERO;
        let mut throttled = SimDuration::ZERO;
        // Per-stream sample costs keyed by the chunk's exact frequency
        // bits, one shared memo per stream: steady-state chunks (and any
        // other caller at the same operating point) replay the recorded
        // per-op sum instead of re-deriving it.
        let mut rate_memos: Vec<RateMemo> = vec![RateMemo::new(); self.streams.len()];

        while remaining > 0.0 {
            let freq = state.freq_factor();
            if freq < 1.0 {
                throttled += OFFLINE_CHUNK;
            }

            let chunk_secs = OFFLINE_CHUNK.as_secs_f64();
            let mut processed_this_chunk = 0.0;
            for (i, stream) in self.streams.iter().enumerate() {
                let rate = 1.0 / stream.sample_secs_memo(freq, batch_size, &mut rate_memos[i]);
                let done = (rate * chunk_secs).min(remaining);
                per_stream[i] += done;
                processed_this_chunk += done;
                remaining -= done;
                if remaining <= 0.0 {
                    break;
                }
            }
            // All streams active concurrently: total power dissipates
            // together.
            state.thermal.advance(self.total_power, OFFLINE_CHUNK);
            state
                .energy
                .record_active(self.total_power - self.idle_power_w, OFFLINE_CHUNK);
            if let Some(battery) = state.battery.as_mut() {
                battery.drain(self.total_power, OFFLINE_CHUNK);
            }
            elapsed += OFFLINE_CHUNK;
            assert!(
                processed_this_chunk > 0.0,
                "offline run stalled: no stream makes progress"
            );
        }

        let fps = total_samples as f64 / elapsed.as_secs_f64();
        OfflineResult {
            duration: elapsed,
            throughput_fps: fps,
            throttled_fraction: throttled.as_secs_f64() / elapsed.as_secs_f64(),
            per_stream_samples: apportion_samples(&per_stream, total_samples),
        }
    }
}

/// Rounds the fluid model's fractional per-stream tallies to integers
/// that account for **every** sample: the returned counts always sum to
/// exactly `total_samples`.
///
/// The fluid-model rounding contract: each stream's tally is rounded to
/// the nearest integer first (preserving the historical per-stream
/// counts whenever they already added up); any residual — nearest
/// rounding can drift by up to ±0.5 per stream — is then settled against
/// the streams with the largest leftover fraction (largest-remainder
/// apportionment, ties broken by stream index), never driving a count
/// negative.
fn apportion_samples(per_stream: &[f64], total_samples: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = per_stream.iter().map(|&s| s.round() as u64).collect();
    let assigned: u64 = counts.iter().sum();
    if assigned == total_samples {
        return counts;
    }
    let mut order: Vec<usize> = (0..counts.len()).collect();
    if assigned < total_samples {
        // Hand the missing samples to the streams that rounded down most.
        order.sort_by(|&a, &b| {
            let ra = per_stream[a] - counts[a] as f64;
            let rb = per_stream[b] - counts[b] as f64;
            rb.partial_cmp(&ra).expect("tallies are finite").then(a.cmp(&b))
        });
        let mut deficit = total_samples - assigned;
        let mut i = 0;
        while deficit > 0 {
            counts[order[i % order.len()]] += 1;
            deficit -= 1;
            i += 1;
        }
    } else {
        // Claw back the surplus from the streams that rounded up most.
        order.sort_by(|&a, &b| {
            let ra = counts[a] as f64 - per_stream[a];
            let rb = counts[b] as f64 - per_stream[b];
            rb.partial_cmp(&ra).expect("tallies are finite").then(a.cmp(&b))
        });
        let mut surplus = assigned - total_samples;
        let mut i = 0;
        while surplus > 0 {
            let j = order[i % order.len()];
            if counts[j] > 0 {
                counts[j] -= 1;
                surplus -= 1;
            }
            i += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_identity_when_counts_already_sum() {
        assert_eq!(apportion_samples(&[3.0, 5.0], 8), vec![3, 5]);
        assert_eq!(apportion_samples(&[2.6, 5.4], 8), vec![3, 5]);
    }

    #[test]
    fn apportion_settles_deficit_by_largest_remainder() {
        // round() gives [1, 2] (1.4 -> 1, 2.4 -> 2) but 4 samples ran;
        // stream 0 and 1 tie on remainder 0.4 so index order wins.
        assert_eq!(apportion_samples(&[1.4, 2.4], 4), vec![2, 2]);
        // Half-way ties round away from zero: [1.5, 2.5] -> [2, 3] = 5.
        assert_eq!(apportion_samples(&[1.5, 2.5], 4), vec![1, 3]);
    }

    #[test]
    fn apportion_never_underflows() {
        assert_eq!(apportion_samples(&[0.4, 0.4, 0.2], 1), vec![1, 0, 0]);
        let counts = apportion_samples(&[0.5, 0.5], 1);
        assert_eq!(counts.iter().sum::<u64>(), 1);
    }

    /// A minimal hand-built plan for memo tests: one stage, one op.
    fn memo_plan() -> QueryPlan {
        QueryPlan {
            ops: vec![PlanOp { flops: 1.0e9, denom: 1.0e12, memory_secs: 1.0e-5, sched_secs: 1.0e-6 }],
            stages: vec![PlanStage { ops_end: 1, engine: EngineId(0), power_w: 2.0 }],
            transfer: SimDuration::ZERO,
            overhead: SimDuration::from_micros(100),
            launch: SimDuration::from_micros(100),
            sync: SimDuration::ZERO,
        }
    }

    #[test]
    fn exec_memo_recorded_walks_match_fresh_lowering() {
        let plan = memo_plan();
        let mut memo = ExecMemo::new();
        for freq in [1.0, 0.9, 0.8, 0.9, 1.0] {
            let mut via_memo = crate::soc::SocState {
                thermal: crate::thermal::ThermalState::new(crate::thermal::ThermalSpec::default(), 22.0),
                energy: crate::power::EnergyMeter::new(0.1),
                battery: None,
                dvfs: crate::dvfs::DvfsLadder::new(vec![freq]),
            };
            let mut fresh = via_memo.clone();
            let a = plan.execute_memo(&mut via_memo, &mut memo);
            let b = plan.execute(&mut fresh);
            assert_eq!(a, b, "memoized walk diverged at freq {freq}");
            assert_eq!(via_memo, fresh);
        }
    }

    #[test]
    fn step_memo_replays_execute_memo() {
        // The scalar step and the full result take the same bookkeeping
        // step: equal scalars, equal state, and the breakdown read back
        // from the memo equals the one execute_memo returned.
        let plan = memo_plan();
        let (mut step_memo, mut full_memo) = (ExecMemo::new(), ExecMemo::new());
        for freq in [1.0, 0.9, 0.9, 1.0, 0.8] {
            let thermal_spec = crate::thermal::ThermalSpec::default();
            let battery_spec = crate::battery::BatterySpec::default();
            let mut stepped = crate::soc::SocState {
                thermal: crate::thermal::ThermalState::new(thermal_spec, 22.0),
                energy: crate::power::EnergyMeter::new(0.1),
                battery: Some(crate::battery::BatteryState::new(battery_spec, 0.5)),
                dvfs: crate::dvfs::DvfsLadder::new(vec![freq]),
            };
            let mut full = stepped.clone();
            let step = plan.step_memo(&mut stepped, &mut step_memo);
            let result = plan.execute_memo(&mut full, &mut full_memo);
            assert_eq!(plan.step_result(step, &step_memo), result, "freq {freq}");
            assert_eq!(stepped, full);
        }
        assert_eq!(step_memo.hits(), full_memo.hits(), "step_result counts no hit");
    }

    #[test]
    fn relower_query_batch_into_matches_fresh_batch() {
        let soc = crate::catalog::ChipId::Dimensity1100.build();
        let graph = nn_graph::graph::retype(
            &nn_graph::models::ModelId::MobileNetEdgeTpu.build(),
            nn_graph::DataType::U8,
        );
        let npu = soc.engine_of_kind(crate::engine::EngineKind::Npu).unwrap();
        let schedule = crate::schedule::Schedule::single(&graph, npu, nn_graph::DataType::U8, 0.0);
        let sweep = SweepPlan::new(&soc, &graph, &schedule);
        let base = sweep.query_overhead_us();
        let first: Vec<PlanDelta> =
            (0..4).map(|i| PlanDelta::QueryOverheadUs(base + 100.0 * i as f64)).collect();
        let mut batch = sweep.relower_query_batch(&first);
        // Refill with a different (and differently sized) wave of deltas:
        // the refilled batch must match a fresh re-lowering lane-for-lane.
        let second: Vec<PlanDelta> =
            (0..3).map(|i| PlanDelta::QueryOverheadUs(base + 35.0 * i as f64)).collect();
        sweep.relower_query_batch_into(&second, &mut batch);
        let fresh = sweep.relower_query_batch(&second);
        assert_eq!(batch.lanes(), 3);
        for lane in 0..3 {
            let mut a = soc.new_state(22.0);
            let mut b = a.clone();
            assert_eq!(
                batch.lane_plan(lane).execute(&mut a),
                fresh.lane_plan(lane).execute(&mut b),
                "refilled lane {lane} diverged from fresh re-lowering"
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rate_memo_shares_rate_across_equal_freq_lanes() {
        let soc = crate::catalog::ChipId::Dimensity1100.build();
        let graph = nn_graph::graph::retype(
            &nn_graph::models::ModelId::MobileNetEdgeTpu.build(),
            nn_graph::DataType::U8,
        );
        let npu = soc.engine_of_kind(crate::engine::EngineKind::Npu).unwrap();
        let schedule = crate::schedule::Schedule::single(&graph, npu, nn_graph::DataType::U8, 0.0);
        let stream = StreamPlan::lower(&soc, &graph, &schedule);
        let mut memo = RateMemo::new();
        // Two lanes at the same dispatch frequency: the second lookup
        // must hit instead of re-deriving the rate.
        let lane_a = stream.sample_secs_memo(0.9, 16, &mut memo);
        let lane_b = stream.sample_secs_memo(0.9, 16, &mut memo);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.operating_points(), 1);
        assert_eq!(lane_a.to_bits(), lane_b.to_bits());
        assert_eq!(lane_a.to_bits(), stream.sample_secs(0.9, 16).to_bits());
        // A third lane at a different frequency records a second point.
        let _ = stream.sample_secs_memo(1.0, 16, &mut memo);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.operating_points(), 2);
    }
}
