//! Batched lockstep plan execution: K device lanes stepped together
//! through one compiled plan.
//!
//! The compiled [`QueryPlan`] evaluates one `(device, query)` pair per
//! call. Fleet-scale population sweeps want the *same* plan evaluated
//! against many device variants — different thermal states, battery
//! caps, DVFS ladders, or per-unit re-lowered overhead knobs. The fleet
//! executor builds its lanes with
//! [`crate::plan::SweepPlan::relower_query_batch`] (and refills them per
//! wave with [`crate::plan::SweepPlan::relower_query_batch_into`]).
//! [`BatchPlan`] steps K lanes in lockstep; per lane, a step reads the
//! dispatch frequency, looks up the roofline result at that operating
//! point, then runs the DVFS/thermal/energy/battery stepping in the exact
//! scalar order.
//!
//! No step walks the op arrays itself. The per-stage roofline result is
//! a pure function of the op arrays and the dispatch frequency's bits, so
//! a step reads it from a caller-owned [`ExecMemo`], the memo
//! [`QueryPlan::execute_memo`] uses. The memo's first lookup at each
//! operating point runs `SteadyState::from_plan`, soc-sim's one
//! single-stream roofline walk.
//!
//! # Lane layout
//!
//! [`BatchState`] is a structure-of-arrays transpose of [`SocState`]:
//! one vector per field, indexed by lane. [`BatchState::gather`] /
//! [`BatchState::scatter`] convert between the two layouts losslessly.
//!
//! ```text
//!  K × SocState (AoS)                BatchState (SoA)
//!  ┌─────────────────┐
//!  │ thermal energy … │ lane 0       thermal: [t0 t1 … tK]
//!  │ thermal energy … │ lane 1   ⇄   energy:  [e0 e1 … eK]
//!  │       …          │              battery: [b0 b1 … bK]
//!  └─────────────────┘              dvfs:    [d0 d1 … dK]
//! ```
//!
//! # Bit-identity contract
//!
//! Lane `k` of [`BatchPlan::execute`] is **bit-identical** — every `f64`,
//! 0 ULPs — to a scalar [`QueryPlan::execute`] of the same device through
//! the same query sequence: identical latencies, breakdowns, energy and
//! DVFS/thermal trajectories. Two caches carry this, and each replays a
//! result that the same inputs already produced:
//!
//! * **The memo.** It records `SteadyState::from_plan` at each distinct
//!   frequency's bits: the arithmetic [`QueryPlan::execute`] runs, op for
//!   op and in stage order (`flops / (denom * freq)`, then
//!   `.max(memory_secs) + sched_secs`; per stage `power_w * t`, then
//!   `SimDuration::from_secs_f64`).
//! * **The lane slot.** Each lane keeps its previous step's frequency
//!   bits, total latency, average power and RC decay factor
//!   `exp(-total/τ)`. All three values are pure functions of the
//!   frequency bits, the lane's re-lowered overheads and its thermal time
//!   constant. So while a lane's frequency bits do not change, the lane
//!   replays them: no memo lookup, no division, no `exp`.
//!
//! The slot is keyed by the frequency bits alone, so both caches hold
//! only under this contract:
//!
//! * a memo belongs to one plan's op arrays. Every [`BatchPlan`] that
//!   shares them, and [`QueryPlan::execute_memo`] on the same arrays, may
//!   share it;
//! * between two refills ([`BatchState::gather`], [`BatchState::refill`]),
//!   a [`BatchState`] is stepped by one [`BatchPlan`], whose lanes do not
//!   change, and one memo. A refill clears every slot.
//!
//! Debug builds check the contract on every slot hit: the step recomputes
//! the slot from the memo and the lane and asserts equal bits, so every
//! debug-build test runs the caches against that oracle.
//!
//! `tests/plan_equivalence.rs` fuzzes the contract over random graphs,
//! schedules, lane counts, heterogeneous states and waves of re-lowered
//! lanes through one memo.

use crate::battery::BatteryState;
use crate::dvfs::DvfsLadder;
use crate::engine::EngineId;
use crate::executor::{QueryBreakdown, QueryResult};
use crate::plan::{ExecMemo, QueryPlan, SteadyState};
use crate::power::EnergyMeter;
use crate::soc::SocState;
use crate::thermal::ThermalState;
use crate::time::SimDuration;
use std::sync::Arc;

/// What one lane replays while its dispatch frequency keeps its bits:
/// the step's total latency, average power and RC decay factor.
#[derive(Debug, Clone, Copy)]
struct LaneSlot {
    /// Bits of the dispatch frequency the slot was derived at.
    freq_bits: u64,
    /// Compute total plus the lane's transfer and overhead.
    total: SimDuration,
    /// Energy terms over `total`, as [`QueryPlan::execute`] derives it.
    avg_power: f64,
    /// `exp(-total/τ)` for the lane's thermal time constant.
    alpha: f64,
}

impl LaneSlot {
    /// Derives the slot at the operating point `steady` records, in
    /// [`QueryPlan::execute`]'s operand order.
    fn derive(
        freq_bits: u64,
        steady: &SteadyState,
        transfer: SimDuration,
        overhead: SimDuration,
        thermal: &ThermalState,
    ) -> Self {
        let total = steady.compute_total + transfer + overhead;
        let avg_power = if total > SimDuration::ZERO {
            steady.energy_terms / total.as_secs_f64()
        } else {
            0.0
        };
        LaneSlot { freq_bits, total, avg_power, alpha: thermal.decay_alpha(total) }
    }

    /// Every field as bits, for exact comparison.
    fn bits(&self) -> (u64, SimDuration, u64, u64) {
        (self.freq_bits, self.total, self.avg_power.to_bits(), self.alpha.to_bits())
    }
}

/// Structure-of-arrays transpose of K [`SocState`]s plus the reusable
/// per-step scratch lanes, so a steady-state batch step allocates
/// nothing.
///
/// Built with [`BatchState::gather`] (or re-targeted in place with
/// [`BatchState::refill`]) and read back with [`BatchState::scatter`].
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    /// Thermal trajectory per lane.
    thermal: Vec<ThermalState>,
    /// Energy meter per lane.
    energy: Vec<EnergyMeter>,
    /// Battery state per lane (`None` = wall power).
    battery: Vec<Option<BatteryState>>,
    /// DVFS ladder per lane.
    dvfs: Vec<DvfsLadder>,
    /// The previous step's slot per lane (`None` until the lane's first
    /// step after a gather or refill).
    slots: Vec<Option<LaneSlot>>,
    // ---- per-step scratch, refilled by every BatchPlan step ----
    /// Dispatch-time frequency factor per lane.
    freq: Vec<f64>,
    /// Dispatch-time DVFS ladder index per lane.
    level: Vec<usize>,
    /// Dispatch-time die temperature per lane.
    temp: Vec<f64>,
    /// Distinct dispatch-frequency bit patterns this step.
    uniq_freq: Vec<u64>,
    /// Latency of the most recent step, per lane.
    latency: Vec<SimDuration>,
    /// Cumulative joules after the most recent step, per lane.
    joules: Vec<f64>,
}

impl BatchState {
    /// Transposes K scalar states into lane vectors (SoA), every lane
    /// slot empty.
    #[must_use]
    pub fn gather(states: &[SocState]) -> Self {
        BatchState {
            thermal: states.iter().map(|s| s.thermal.clone()).collect(),
            energy: states.iter().map(|s| s.energy).collect(),
            battery: states.iter().map(|s| s.battery).collect(),
            dvfs: states.iter().map(|s| s.dvfs.clone()).collect(),
            slots: vec![None; states.len()],
            ..BatchState::default()
        }
    }

    /// Re-targets the batch at a fresh set of scalar states **in place**,
    /// reusing every lane and scratch allocation — the per-wave path for
    /// fleet sweeps, where one `BatchState` serves thousands of
    /// consecutive K-lane waves and a `gather` per wave would pay four
    /// vector allocations each time. The lane count may change between
    /// waves. Every lane slot is cleared, and so is the telemetry from the
    /// previous wave ([`Self::last_freq_factors`] and friends); the
    /// per-step scratch keeps its capacity.
    pub fn refill(&mut self, states: &[SocState]) {
        self.thermal.clear();
        self.thermal.extend(states.iter().map(|s| s.thermal.clone()));
        self.energy.clear();
        self.energy.extend(states.iter().map(|s| s.energy));
        self.battery.clear();
        self.battery.extend(states.iter().map(|s| s.battery));
        // Ladders own a heap buffer: copy into surviving slots so their
        // allocations are reused, then clone only net-new lanes.
        self.dvfs.truncate(states.len());
        let reused = self.dvfs.len();
        for (slot, state) in self.dvfs.iter_mut().zip(states) {
            slot.copy_from(&state.dvfs);
        }
        self.dvfs.extend(states[reused..].iter().map(|s| s.dvfs.clone()));
        // A slot holds the previous wave's overheads and thermal time
        // constant, so it must not outlive the wave.
        self.slots.clear();
        self.slots.resize(states.len(), None);
        // Stale step telemetry must not leak into the new wave.
        self.freq.clear();
        self.level.clear();
        self.temp.clear();
        self.uniq_freq.clear();
        self.latency.clear();
        self.joules.clear();
    }

    /// Transposes the lane vectors back into scalar states, in lane
    /// order. Non-consuming, so trajectories can be compared mid-run.
    #[must_use]
    pub fn scatter(&self) -> Vec<SocState> {
        (0..self.lanes()).map(|k| self.lane(k)).collect()
    }

    /// Number of in-flight lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.thermal.len()
    }

    /// Whether the batch has no lanes left.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thermal.is_empty()
    }

    /// The scalar state of lane `lane` (a copy; the lane stays in
    /// flight).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane(&self, lane: usize) -> SocState {
        SocState {
            thermal: self.thermal[lane].clone(),
            energy: self.energy[lane],
            battery: self.battery[lane],
            dvfs: self.dvfs[lane].clone(),
        }
    }

    /// Dispatch-time frequency factors of the most recent step, per lane
    /// (empty before the first step).
    #[must_use]
    pub fn last_freq_factors(&self) -> &[f64] {
        &self.freq
    }

    /// Per-lane latencies of the most recent step (empty before the
    /// first step).
    #[must_use]
    pub fn last_latencies(&self) -> &[SimDuration] {
        &self.latency
    }

    /// Cumulative joules per lane after the most recent step (empty
    /// before the first step).
    #[must_use]
    pub fn last_total_joules(&self) -> &[f64] {
        &self.joules
    }

    /// Distinct dispatch-frequency bit patterns the most recent step
    /// observed (0 before the first step). `lanes()` minus this is the
    /// number of lanes that dispatched at an operating point another lane
    /// of the same step also ran at: the count the fleet report prints as
    /// its lane dedup. No step walks the op arrays, so such a lane saves
    /// no walk; the count describes how alike a wave's lanes run.
    #[must_use]
    pub fn last_distinct_frequencies(&self) -> usize {
        self.uniq_freq.len()
    }
}

/// One compiled [`QueryPlan`] fanned out to K lockstep lanes, each lane
/// carrying its own overhead terms.
///
/// Two constructors cover the two batching shapes:
/// * [`BatchPlan::broadcast`] — K devices running the *same* deployment
///   with the plan's own overheads (the `batch_lanes` bench and the
///   equivalence tests).
/// * [`crate::plan::SweepPlan::relower_query_batch`] — K knob variants of
///   one deployment: lanes share the op arrays and differ only in
///   re-lowered overhead terms. The fleet executor uses this one, one
///   lane per device unit's background load.
///
/// See the [module docs](crate::plan_batch) for the bit-identity
/// contract and the memo it steps through.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// The shared op/stage arrays.
    plan: Arc<QueryPlan>,
    /// Inter-engine transfer time per lane.
    transfer: Vec<SimDuration>,
    /// Total overhead per lane.
    overhead: Vec<SimDuration>,
    /// Runtime-launch share of `overhead` per lane.
    launch: Vec<SimDuration>,
    /// Framework-synchronization share of `overhead` per lane.
    sync: Vec<SimDuration>,
}

impl BatchPlan {
    /// Fans one plan out to `lanes` identical lockstep lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn broadcast(plan: Arc<QueryPlan>, lanes: usize) -> Self {
        assert!(lanes > 0, "batch needs at least one lane");
        BatchPlan {
            transfer: vec![plan.transfer; lanes],
            overhead: vec![plan.overhead; lanes],
            launch: vec![plan.launch; lanes],
            sync: vec![plan.sync; lanes],
            plan,
        }
    }

    /// Assembles a batch from shared op arrays plus per-lane overhead
    /// terms (the [`crate::plan::SweepPlan::relower_query_batch`] path).
    pub(crate) fn from_lanes(
        plan: Arc<QueryPlan>,
        transfer: Vec<SimDuration>,
        overhead: Vec<SimDuration>,
        launch: Vec<SimDuration>,
        sync: Vec<SimDuration>,
    ) -> Self {
        assert!(!transfer.is_empty(), "batch needs at least one lane");
        assert!(
            transfer.len() == overhead.len()
                && overhead.len() == launch.len()
                && launch.len() == sync.len(),
            "per-lane overhead vectors must agree on the lane count"
        );
        BatchPlan { plan, transfer, overhead, launch, sync }
    }

    /// Re-targets this batch at a new set of re-lowered lanes **in
    /// place**: clears and refills the per-lane overhead vectors without
    /// touching the shared op arrays — the allocation-free path behind
    /// [`crate::plan::SweepPlan::relower_query_batch_into`]. The lane
    /// count may change between refills, and a [`BatchState`] this batch
    /// steps must be refilled with it.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is not the very `Arc` this batch shares its op
    /// arrays with, or if `lanes` yields nothing.
    pub(crate) fn refill_lanes(
        &mut self,
        plan: &Arc<QueryPlan>,
        lanes: impl Iterator<Item = (SimDuration, SimDuration, SimDuration, SimDuration)>,
    ) {
        assert!(
            Arc::ptr_eq(&self.plan, plan),
            "batch must share the sweep plan's op arrays"
        );
        self.transfer.clear();
        self.overhead.clear();
        self.launch.clear();
        self.sync.clear();
        for (transfer, overhead, launch, sync) in lanes {
            self.transfer.push(transfer);
            self.overhead.push(overhead);
            self.launch.push(launch);
            self.sync.push(sync);
        }
        assert!(!self.transfer.is_empty(), "batch needs at least one lane");
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.transfer.len()
    }

    /// The scalar [`QueryPlan`] equivalent to lane `lane`: shared op and
    /// stage arrays with that lane's overhead terms. Executing it against
    /// a lane's state reproduces the batched lane bit-for-bit — the
    /// reference the equivalence tests compare against.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_plan(&self, lane: usize) -> QueryPlan {
        QueryPlan {
            ops: self.plan.ops.clone(),
            stages: self.plan.stages.clone(),
            transfer: self.transfer[lane],
            overhead: self.overhead[lane],
            launch: self.launch[lane],
            sync: self.sync[lane],
        }
    }


    /// Executes one query on every lane in lockstep, advancing all lane
    /// states, and returns the per-lane [`QueryResult`]s — bit-identical
    /// to a scalar [`QueryPlan::execute`] per lane. It runs the step
    /// [`Self::execute_latencies`] runs, then reads each lane's breakdown
    /// back from `memo`, as [`QueryPlan::step_result`] does.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have exactly one state per lane, or if
    /// a lane's operating point is missing from `memo` because the batch
    /// was last stepped through another memo (see the
    /// [module docs](crate::plan_batch) for the contract).
    #[must_use]
    pub fn execute(&self, batch: &mut BatchState, memo: &mut ExecMemo) -> Vec<QueryResult> {
        self.step(batch, memo);
        let stage_engines: Vec<EngineId> = self.plan.stages.iter().map(|s| s.engine).collect();
        (0..batch.lanes())
            .map(|k| {
                let steady = memo
                    .get(batch.freq[k])
                    .expect("the step recorded every lane's operating point in this memo");
                QueryResult {
                    latency: batch.latency[k],
                    freq_factor: batch.freq[k],
                    dvfs_level: batch.level[k],
                    temperature_c: batch.temp[k],
                    total_joules: batch.joules[k],
                    breakdown: QueryBreakdown {
                        stage_compute: steady.stage_compute.clone(),
                        stage_engines: stage_engines.clone(),
                        transfer: self.transfer[k],
                        overhead: self.overhead[k],
                        launch: self.launch[k],
                        sync: self.sync[k],
                    },
                }
            })
            .collect()
    }

    /// The allocation-free hot path: executes one query on every lane
    /// and returns the per-lane latencies, skipping the per-lane
    /// breakdown assembly. State trajectories (thermal, energy, battery)
    /// are identical to [`Self::execute`]; telemetry for the step is
    /// readable from the batch state
    /// ([`BatchState::last_freq_factors`] and friends). Once `memo` holds
    /// every operating point the lanes visit, it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have exactly one state per lane.
    pub fn execute_latencies<'a>(
        &self,
        batch: &'a mut BatchState,
        memo: &mut ExecMemo,
    ) -> &'a [SimDuration] {
        self.step(batch, memo);
        &batch.latency
    }

    /// One lockstep query step. Per lane: the dispatch reads, the lane's
    /// slot (replayed, or derived from the memo), then the
    /// thermal/energy/battery stepping, every operation in the exact
    /// scalar order.
    fn step(&self, batch: &mut BatchState, memo: &mut ExecMemo) {
        let plan = &*self.plan;
        let lanes = batch.lanes();
        assert_eq!(
            lanes,
            self.lanes(),
            "batch state must have one lane per plan lane"
        );

        batch.freq.clear();
        batch.level.clear();
        batch.temp.clear();
        batch.uniq_freq.clear();
        batch.latency.clear();
        batch.joules.clear();
        for k in 0..lanes {
            // Dispatch-time reads, exactly as SocState::freq_factor /
            // dvfs_level derive them. One ladder scan per lane: `snap` is
            // `factors()[level_of(..)]`, so deriving the frequency from
            // the level halves the scans.
            let battery_cap = batch.battery[k].as_ref().map_or(1.0, BatteryState::freq_cap);
            let target = batch.thermal[k].freq_factor().min(battery_cap);
            let level = batch.dvfs[k].level_of(target);
            let freq = batch.dvfs[k].factors()[level];
            debug_assert!(
                freq.is_finite() && freq > 0.0,
                "DVFS frequency factor must be positive, got {freq}"
            );
            let bits = freq.to_bits();
            if !batch.uniq_freq.contains(&bits) {
                batch.uniq_freq.push(bits);
            }
            batch.freq.push(freq);
            batch.level.push(level);
            batch.temp.push(batch.thermal[k].temperature_c());

            let slot = match batch.slots[k] {
                Some(slot) if slot.freq_bits == bits => {
                    debug_assert!(
                        memo.get(freq).is_some_and(|steady| {
                            let fresh = LaneSlot::derive(
                                bits,
                                steady,
                                self.transfer[k],
                                self.overhead[k],
                                &batch.thermal[k],
                            );
                            fresh.bits() == slot.bits()
                        }),
                        "lane {k} replayed a stale slot: since its last refill the batch \
                         was stepped by another plan, another memo or re-lowered lanes"
                    );
                    slot
                }
                _ => {
                    let steady = memo.get_or_record(freq, |freq| SteadyState::from_plan(plan, freq));
                    let slot = LaneSlot::derive(
                        bits,
                        steady,
                        self.transfer[k],
                        self.overhead[k],
                        &batch.thermal[k],
                    );
                    batch.slots[k] = Some(slot);
                    slot
                }
            };
            batch.thermal[k].advance_with_alpha(slot.avg_power, slot.alpha);
            batch.energy[k].record_active(slot.avg_power, slot.total);
            if let Some(b) = batch.battery[k].as_mut() {
                b.drain(slot.avg_power, slot.total);
            }
            batch.latency.push(slot.total);
            batch.joules.push(batch.energy[k].total_joules());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::BatterySpec;
    use crate::plan::{PlanOp, PlanStage};
    use crate::thermal::ThermalSpec;

    /// A hand-lowered two-stage plan: compute-bound, memory-only and
    /// mixed ops, so every roofline branch runs.
    fn tiny_plan() -> QueryPlan {
        QueryPlan {
            ops: vec![
                PlanOp { flops: 2.0e9, denom: 1.0e12, memory_secs: 1.0e-4, sched_secs: 1.0e-6 },
                PlanOp { flops: 0.0, denom: 1.0e12, memory_secs: 5.0e-4, sched_secs: 1.0e-6 },
                PlanOp { flops: 7.3e9, denom: 2.0e12, memory_secs: 2.0e-5, sched_secs: 2.0e-6 },
                PlanOp { flops: 9.1e8, denom: 5.0e11, memory_secs: 3.0e-4, sched_secs: 1.5e-6 },
                PlanOp { flops: 4.4e9, denom: 2.0e12, memory_secs: 1.0e-5, sched_secs: 2.0e-6 },
            ],
            stages: vec![
                PlanStage { ops_end: 2, engine: EngineId(0), power_w: 2.5 },
                PlanStage { ops_end: 5, engine: EngineId(1), power_w: 4.0 },
            ],
            transfer: SimDuration::from_micros(120),
            overhead: SimDuration::from_micros(300),
            launch: SimDuration::from_micros(150),
            sync: SimDuration::from_micros(50),
        }
    }

    /// Heterogeneous lane states: ambients spread across the throttle
    /// ramp plus one low-battery lane, so dispatch frequencies differ
    /// between lanes and evolve over the run.
    fn lane_states(k: usize) -> Vec<SocState> {
        let ambients = [22.0, 55.0, 70.0, 78.0, 84.0, 95.0, 40.0, 66.0];
        (0..k)
            .map(|i| SocState {
                thermal: ThermalState::new(ThermalSpec::default(), ambients[i % ambients.len()]),
                energy: EnergyMeter::new(0.4),
                battery: if i % 3 == 2 {
                    Some(BatteryState::new(BatterySpec::default(), 0.10))
                } else {
                    None
                },
                dvfs: DvfsLadder::default(),
            })
            .collect()
    }

    fn assert_results_bit_identical(a: &QueryResult, b: &QueryResult) {
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.freq_factor.to_bits(), b.freq_factor.to_bits());
        assert_eq!(a.dvfs_level, b.dvfs_level);
        assert_eq!(a.temperature_c.to_bits(), b.temperature_c.to_bits());
        assert_eq!(a.total_joules.to_bits(), b.total_joules.to_bits());
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let states = lane_states(5);
        let batch = BatchState::gather(&states);
        assert_eq!(batch.lanes(), 5);
        assert_eq!(batch.scatter(), states);
        assert_eq!(batch.lane(3), states[3]);
    }

    #[test]
    fn broadcast_lanes_match_scalar_execute() {
        let plan = Arc::new(tiny_plan());
        for k in [1usize, 3, 4, 8] {
            let states = lane_states(k);
            let bp = BatchPlan::broadcast(Arc::clone(&plan), k);
            let mut batch = BatchState::gather(&states);
            let mut memo = ExecMemo::new();
            let mut scalar: Vec<SocState> = states.clone();
            for _ in 0..200 {
                let results = bp.execute(&mut batch, &mut memo);
                for (i, state) in scalar.iter_mut().enumerate() {
                    let reference = plan.execute(state);
                    assert_results_bit_identical(&reference, &results[i]);
                }
                assert_eq!(batch.scatter(), scalar, "state trajectories diverged");
            }
        }
    }

    #[test]
    fn identical_lanes_stay_identical_through_dedup() {
        let plan = Arc::new(tiny_plan());
        let states = vec![lane_states(1).remove(0); 6];
        let bp = BatchPlan::broadcast(Arc::clone(&plan), 6);
        let mut batch = BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        let mut reference_state = states[0].clone();
        for _ in 0..100 {
            let results = bp.execute(&mut batch, &mut memo);
            let reference = plan.execute(&mut reference_state);
            for r in &results {
                assert_results_bit_identical(&reference, r);
            }
        }
        assert!(batch.scatter().iter().all(|s| *s == reference_state));
    }

    #[test]
    fn fast_path_matches_full_execute() {
        let plan = Arc::new(tiny_plan());
        let k = 7;
        let states = lane_states(k);
        let bp = BatchPlan::broadcast(Arc::clone(&plan), k);
        let mut full = BatchState::gather(&states);
        let mut fast = BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        for _ in 0..150 {
            let results = bp.execute(&mut full, &mut memo);
            let latencies = bp.execute_latencies(&mut fast, &mut memo).to_vec();
            for (r, l) in results.iter().zip(&latencies) {
                assert_eq!(r.latency, *l);
            }
            assert_eq!(full.scatter(), fast.scatter());
        }
    }

    #[test]
    fn lane_plan_reproduces_broadcast_lane() {
        let plan = Arc::new(tiny_plan());
        let bp = BatchPlan::broadcast(Arc::clone(&plan), 3);
        let mut a = lane_states(1).remove(0);
        let mut b = a.clone();
        let ra = plan.execute(&mut a);
        let rb = bp.lane_plan(1).execute(&mut b);
        assert_results_bit_identical(&ra, &rb);
        assert_eq!(a, b);
    }

    #[test]
    fn refill_matches_fresh_gather_and_clears_telemetry() {
        let plan = Arc::new(tiny_plan());
        let bp = BatchPlan::broadcast(Arc::clone(&plan), 4);
        let first = lane_states(4);
        let mut batch = BatchState::gather(&first);
        let mut memo = ExecMemo::new();
        for _ in 0..10 {
            let _ = bp.execute_latencies(&mut batch, &mut memo);
        }
        assert!(!batch.last_latencies().is_empty());
        assert!(batch.last_distinct_frequencies() > 0);

        // Refill with a different wave: indistinguishable from a fresh
        // gather, with the previous wave's telemetry cleared.
        let second: Vec<SocState> = lane_states(8).split_off(4);
        batch.refill(&second);
        assert_eq!(batch.scatter(), BatchState::gather(&second).scatter());
        assert!(batch.last_latencies().is_empty());
        assert!(batch.last_freq_factors().is_empty());
        assert_eq!(batch.last_distinct_frequencies(), 0);
        assert!(batch.last_total_joules().is_empty());

        // Trajectories after a refill match a fresh gather bit-for-bit,
        // including a lane-count change (4 → 3).
        let third = lane_states(3);
        let bp3 = BatchPlan::broadcast(Arc::clone(&plan), 3);
        batch.refill(&third);
        let mut fresh = BatchState::gather(&third);
        for _ in 0..25 {
            let a = bp3.execute_latencies(&mut batch, &mut memo).to_vec();
            let b = bp3.execute_latencies(&mut fresh, &mut memo).to_vec();
            assert_eq!(a, b);
        }
        assert_eq!(batch.scatter(), fresh.scatter());
    }

    #[test]
    fn refill_lanes_matches_from_lanes() {
        let plan = Arc::new(tiny_plan());
        let mut bp = BatchPlan::broadcast(Arc::clone(&plan), 2);
        let lanes = [
            (SimDuration::from_micros(10), SimDuration::from_micros(20), SimDuration::from_micros(12), SimDuration::from_micros(8)),
            (SimDuration::from_micros(30), SimDuration::from_micros(40), SimDuration::from_micros(25), SimDuration::from_micros(15)),
            (SimDuration::from_micros(50), SimDuration::from_micros(60), SimDuration::from_micros(33), SimDuration::from_micros(27)),
        ];
        bp.refill_lanes(&plan, lanes.iter().copied());
        assert_eq!(bp.lanes(), 3);
        let reference = BatchPlan::from_lanes(
            Arc::clone(&plan),
            lanes.iter().map(|l| l.0).collect(),
            lanes.iter().map(|l| l.1).collect(),
            lanes.iter().map(|l| l.2).collect(),
            lanes.iter().map(|l| l.3).collect(),
        );
        let states = lane_states(3);
        let mut a = BatchState::gather(&states);
        let mut b = BatchState::gather(&states);
        let mut memo = ExecMemo::new();
        for _ in 0..20 {
            assert_eq!(
                bp.execute_latencies(&mut a, &mut memo).to_vec(),
                reference.execute_latencies(&mut b, &mut memo).to_vec()
            );
        }
        assert_eq!(a.scatter(), b.scatter());
    }

    #[test]
    #[should_panic(expected = "share the sweep plan's op arrays")]
    fn refill_lanes_rejects_foreign_plan() {
        let mut bp = BatchPlan::broadcast(Arc::new(tiny_plan()), 2);
        let other = Arc::new(tiny_plan());
        bp.refill_lanes(
            &other,
            std::iter::once((SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn broadcast_rejects_zero_lanes() {
        let _ = BatchPlan::broadcast(Arc::new(tiny_plan()), 0);
    }

    #[test]
    #[should_panic(expected = "one lane per plan lane")]
    fn lane_count_mismatch_panics() {
        let bp = BatchPlan::broadcast(Arc::new(tiny_plan()), 3);
        let mut batch = BatchState::gather(&lane_states(2));
        let _ = bp.execute(&mut batch, &mut ExecMemo::new());
    }
}
