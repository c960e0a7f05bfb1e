//! Fleet-scale population sweeps on the batched lockstep executor.
//!
//! The paper scores eight *lab* phones; the fleet executor asks what the
//! same deployments look like across a simulated *installed base* —
//! millions of field units whose silicon bin, thermal envelope, climate,
//! battery wear and background load are sampled per unit from a
//! [`FleetProfile`]. Per-device scores stream into sharded
//! [`LatencyHistogram`]s (merged exactly, shard order fixed), so the
//! population is never materialized: memory is O(shard), not O(fleet).
//!
//! # How a shard runs
//!
//! Each shard regenerates its slice of the population from
//! `(seed, index)` ([`soc_sim::fleet::sample_unit`]), groups units by
//! chip, **sorts each group by the unit's dedup key**, and packs them
//! into K-lane [`soc_sim::plan_batch::BatchPlan`] waves:
//!
//! * every wave of a (shard, chip) steps through one [`ExecMemo`] kept
//!   next to its `BatchPlan`, so the cell walks the op arrays once per
//!   operating point, and a lane replays its previous step while its
//!   frequency bits do not change;
//! * sorting clusters bit-equal units into the same wave, where they
//!   dispatch at the same frequencies (the report's lane dedup counts
//!   them);
//! * per-unit background load re-lowers through
//!   [`SweepPlan::relower_query_batch_into`] — O(stages) per lane, never
//!   a recompile, no allocation after the first wave;
//! * one [`BatchState`] per (shard, chip) is refilled across waves, so
//!   the steady state allocates nothing per wave;
//! * a unit whose sampled state is bit-equal to the last unit of the
//!   last flushed wave replays that unit's score instead of re-running.
//!   Sorting makes equal keys contiguous, so this one entry replays every
//!   unit an unbounded memo of executed units would — uniform
//!   sub-populations fast-forward after their first wave.
//!
//! # Determinism contract
//!
//! For a fixed `(seed, devices, profile, lanes, queries_per_device,
//! shard_devices)` the report is **byte-identical regardless of worker
//! count or shard interleaving**: sampling is a pure function of
//! `(seed, index)`, shard boundaries are fixed (never derived from the
//! worker count), [`par_map`] merges in item order, histogram merging is
//! exact, and the report contains no wall-clock. `make fleet` holds this
//! contract as a byte-diff across `MLPERF_WORKERS` settings.

use crate::app::submission_backend;
use crate::metrics::metrics;
use crate::obs::span::{span, Phase};
use crate::report::render_table;
use crate::runner::{default_threads, par_map, CompileCache};
use crate::task::{suite, SuiteVersion, Task};
use mobile_backend::backend::{BackendId, CompileError};
use mobile_metrics::hist::LatencyHistogram;
use nn_graph::models::ModelId;
use serde::Serialize;
use soc_sim::catalog::{ChipId, Generation};
use soc_sim::fleet::{sample_unit, DeviceUnit, FleetProfile};
use soc_sim::plan::{ExecMemo, PlanDelta, SweepPlan};
use soc_sim::plan_batch::{BatchPlan, BatchState};
use soc_sim::soc::{Soc, SocState};
use std::sync::Arc;

/// A fleet sweep: how many devices, how they are sampled, and how the
/// work is sharded. Scores depend on every field except `threads`,
/// which only changes wall-clock.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Population size.
    pub devices: u64,
    /// Sampling seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Queries each device runs (its thermal trajectory spans them).
    pub queries_per_device: u32,
    /// Lockstep lanes per wave (K).
    pub lanes: usize,
    /// Devices per shard. Fixed — never derived from the worker count —
    /// so shard boundaries (and therefore scores) are identical no
    /// matter how many workers process them.
    pub shard_devices: u64,
    /// Worker threads; affects wall-clock only.
    pub threads: usize,
    /// Chips in the population; device `i` is a `chips[i % len]` unit.
    pub chips: Vec<ChipId>,
    /// The per-unit perturbation distributions.
    pub profile: FleetProfile,
}

impl FleetConfig {
    /// A mixed-catalog fleet: all eight chips, the default consumer
    /// profile, K=8 lanes, 24 queries per device, 2048-device shards.
    #[must_use]
    pub fn new(devices: u64, seed: u64) -> Self {
        FleetConfig {
            devices,
            seed,
            queries_per_device: 24,
            lanes: 8,
            shard_devices: 2048,
            threads: default_threads(),
            chips: ChipId::ALL.to_vec(),
            profile: FleetProfile::default(),
        }
    }
}

/// One device's scored trajectory: the values the fleet histograms
/// record, and what a shard replays for a bit-equal unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitScore {
    /// Steady-state single-stream latency: the device's final query (ns).
    pub latency_ns: u64,
    /// Total active energy over the device's whole run (µJ).
    pub energy_uj: u64,
    /// Simulated time until the first query dispatched below the unit's
    /// top DVFS point (thermal ramp or battery saver); `None` if the
    /// device never slowed down.
    pub throttle_ns: Option<u64>,
}

/// Per-(chip, backend, model) population scores: the sharded histograms
/// merged across the whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetCell {
    /// Chip label.
    pub chip: String,
    /// Submission backend label.
    pub backend: String,
    /// Model label.
    pub model: String,
    /// Devices of this cell in the population.
    pub devices: u64,
    /// Devices that dispatched at least one query below their top DVFS
    /// point.
    pub throttled_devices: u64,
    /// Steady-state single-stream latency per device (ns).
    pub latency_ns: LatencyHistogram,
    /// Total active energy per device over its run (µJ).
    pub energy_uj: LatencyHistogram,
    /// Time to first slowed dispatch, over throttled devices only (ns).
    pub throttle_ns: LatencyHistogram,
}

/// The merged outcome of a fleet sweep. Everything in here derives from
/// the simulation alone — no wall-clock — so serializing it (or
/// rendering [`render_fleet_report`]) is byte-stable across worker
/// counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Population size.
    pub devices: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Lockstep lanes per wave.
    pub lanes: usize,
    /// Queries per device.
    pub queries_per_device: u32,
    /// Lane-queries executed through the batched executor.
    pub lane_queries: u64,
    /// Lane-queries that dispatched at a frequency another lane of the
    /// same step also ran at: per step, lanes minus distinct frequency
    /// bit patterns ([`BatchState::last_distinct_frequencies`]). No step
    /// walks the op arrays, so this counts alike lanes, not saved walks;
    /// the report still prints it as lanes that "shared another lane's
    /// walk".
    pub lanes_deduped: u64,
    /// Devices replayed from the last flushed unit instead of executed.
    pub memo_hits: u64,
    /// Unit-memo entries evicted across all shards: always 0, since a
    /// shard keeps only the last flushed unit and evicts nothing.
    pub memo_evictions: u64,
    /// Per-(chip, backend, model) population scores.
    pub cells: Vec<FleetCell>,
}

/// One compiled fleet cell: everything a shard needs to run a chip's
/// sub-population.
struct CellTarget {
    chip: ChipId,
    backend: BackendId,
    model: ModelId,
    soc: Arc<Soc>,
    sweep: Arc<SweepPlan>,
}

/// Per-shard, per-cell accumulation (merged across shards in shard
/// order).
struct CellShard {
    devices: u64,
    throttled_devices: u64,
    latency_ns: LatencyHistogram,
    energy_uj: LatencyHistogram,
    throttle_ns: LatencyHistogram,
}

impl CellShard {
    fn new() -> Self {
        CellShard {
            devices: 0,
            throttled_devices: 0,
            latency_ns: LatencyHistogram::new(),
            energy_uj: LatencyHistogram::new(),
            throttle_ns: LatencyHistogram::new(),
        }
    }

    fn record(&mut self, score: UnitScore) {
        self.devices += 1;
        self.latency_ns.record(score.latency_ns);
        self.energy_uj.record(score.energy_uj);
        if let Some(t) = score.throttle_ns {
            self.throttled_devices += 1;
            self.throttle_ns.record(t);
        }
    }
}

/// Everything a shard accumulates besides scores.
struct ShardOut {
    cells: Vec<CellShard>,
    lane_queries: u64,
    lanes_deduped: u64,
    memo_hits: u64,
}

/// Reusable per-cell-group execution buffers: allocated once per
/// (shard, chip), refilled across every wave.
struct WaveScratch {
    batch_plan: Option<BatchPlan>,
    /// The roofline results at every operating point the cell's waves
    /// reached; it belongs to `batch_plan`'s op arrays, so it is replaced
    /// together with the plan when the shard moves to the next cell.
    memo: ExecMemo,
    batch: BatchState,
    states: Vec<SocState>,
    deltas: Vec<PlanDelta>,
    tops: Vec<u64>,
    elapsed_ns: Vec<u64>,
    throttle_at: Vec<Option<u64>>,
    scores: Vec<UnitScore>,
}

impl WaveScratch {
    fn new(lanes: usize) -> Self {
        WaveScratch {
            batch_plan: None,
            memo: ExecMemo::new(),
            batch: BatchState::default(),
            states: Vec::with_capacity(lanes),
            deltas: Vec::with_capacity(lanes),
            tops: Vec::with_capacity(lanes),
            elapsed_ns: Vec::with_capacity(lanes),
            throttle_at: Vec::with_capacity(lanes),
            scores: Vec::with_capacity(lanes),
        }
    }
}

/// Executes one wave of up to K `(dedup key, unit)` pairs in lockstep,
/// leaving one [`UnitScore`] per wave unit in `scratch.scores`.
fn run_wave(
    target: &CellTarget,
    wave: &[([u64; 6], DeviceUnit)],
    queries: u32,
    scratch: &mut WaveScratch,
    lane_queries: &mut u64,
    lanes_deduped: &mut u64,
) {
    let base_overhead = target.sweep.query_overhead_us();
    scratch.deltas.clear();
    scratch.states.clear();
    scratch.tops.clear();
    for (_, unit) in wave {
        scratch
            .deltas
            .push(PlanDelta::QueryOverheadUs(base_overhead + unit.extra_query_overhead_us));
        let state = unit.state(&target.soc);
        scratch.tops.push(state.dvfs.factors()[0].to_bits());
        scratch.states.push(state);
    }
    // Re-lower the per-lane overheads in place: O(stages) per lane, the
    // op arrays stay shared with the cached sweep plan.
    match scratch.batch_plan.as_mut() {
        Some(bp) => target.sweep.relower_query_batch_into(&scratch.deltas, bp),
        None => scratch.batch_plan = Some(target.sweep.relower_query_batch(&scratch.deltas)),
    }
    let bp = scratch.batch_plan.as_ref().expect("batch plan just ensured");
    scratch.batch.refill(&scratch.states);

    let k = wave.len();
    scratch.elapsed_ns.clear();
    scratch.elapsed_ns.resize(k, 0);
    scratch.throttle_at.clear();
    scratch.throttle_at.resize(k, None);
    for _ in 0..queries {
        let _ = bp.execute_latencies(&mut scratch.batch, &mut scratch.memo);
        *lane_queries += k as u64;
        *lanes_deduped += (k - scratch.batch.last_distinct_frequencies()) as u64;
        let freqs = scratch.batch.last_freq_factors();
        let lats = scratch.batch.last_latencies();
        for i in 0..k {
            if scratch.throttle_at[i].is_none() && freqs[i].to_bits() != scratch.tops[i] {
                // Time-to-throttle: simulated time elapsed before this
                // query dispatched below the unit's top DVFS point.
                scratch.throttle_at[i] = Some(scratch.elapsed_ns[i]);
            }
            scratch.elapsed_ns[i] += lats[i].as_nanos();
        }
    }

    scratch.scores.clear();
    let lats = scratch.batch.last_latencies();
    let joules = scratch.batch.last_total_joules();
    for i in 0..k {
        scratch.scores.push(UnitScore {
            latency_ns: lats[i].as_nanos(),
            energy_uj: (joules[i] * 1e6).round() as u64,
            throttle_ns: scratch.throttle_at[i],
        });
    }
}

/// Runs one shard's slice `[lo, hi)` of the population.
fn run_shard(config: &FleetConfig, targets: &[CellTarget], lo: u64, hi: u64) -> ShardOut {
    let mut out = ShardOut {
        cells: targets.iter().map(|_| CellShard::new()).collect(),
        lane_queries: 0,
        lanes_deduped: 0,
        memo_hits: 0,
    };
    // Sample the shard's units, grouped by cell. This is the only place
    // the population ever exists, and only one shard of it at a time.
    let mut groups: Vec<Vec<([u64; 6], u64, DeviceUnit)>> =
        targets.iter().map(|_| Vec::new()).collect();
    for index in lo..hi {
        let cell = usize::try_from(index % targets.len() as u64).expect("cell index fits");
        let unit = sample_unit(config.seed, index, &config.profile);
        groups[cell].push((unit.dedup_key(), index, unit));
    }
    let queries = config.queries_per_device;
    let mut scratch = WaveScratch::new(config.lanes);
    let mut wave: Vec<([u64; 6], DeviceUnit)> = Vec::with_capacity(config.lanes);
    for (cell, mut group) in groups.into_iter().enumerate() {
        // Sort by dedup key (index breaks ties deterministically):
        // bit-equal units land in the same wave, where the executor's
        // frequency-bit dedup collapses them to one walk per step. Equal
        // keys are then contiguous, so a unit can equal an executed unit
        // only if that unit ended the last flushed wave.
        group.sort_unstable_by_key(|&(key, index, _)| (key, index));
        let target = &targets[cell];
        let mut last: Option<([u64; 6], UnitScore)> = None;
        scratch.batch_plan = None;
        scratch.memo = ExecMemo::new();
        wave.clear();
        for (key, _, unit) in group {
            if let Some((_, score)) = last.filter(|&(k, _)| k == key) {
                out.memo_hits += 1;
                out.cells[cell].record(score);
                continue;
            }
            wave.push((key, unit));
            if wave.len() == config.lanes {
                last = Some(flush_wave(target, &wave, queries, &mut scratch, &mut out, cell));
                wave.clear();
            }
        }
        if !wave.is_empty() {
            flush_wave(target, &wave, queries, &mut scratch, &mut out, cell);
        }
    }
    out
}

/// Executes a pending wave, folds its scores into the shard output, and
/// returns the key and score of its last unit.
fn flush_wave(
    target: &CellTarget,
    wave: &[([u64; 6], DeviceUnit)],
    queries: u32,
    scratch: &mut WaveScratch,
    out: &mut ShardOut,
    cell: usize,
) -> ([u64; 6], UnitScore) {
    run_wave(target, wave, queries, scratch, &mut out.lane_queries, &mut out.lanes_deduped);
    for &score in &scratch.scores {
        out.cells[cell].record(score);
    }
    let last = wave.len() - 1;
    (wave[last].0, scratch.scores[last])
}

/// The submission path a chip's fleet units run: its generation's suite
/// version, the vendor's submission backend, and the classification
/// reference model.
fn cell_path(chip: ChipId) -> (SuiteVersion, BackendId, ModelId) {
    let version = match chip.generation() {
        Generation::V0_7 => SuiteVersion::V0_7,
        Generation::V1_0 => SuiteVersion::V1_0,
    };
    let backend = submission_backend(chip, version, Task::ImageClassification);
    let model = suite(version)
        .into_iter()
        .find(|def| def.task == Task::ImageClassification)
        .expect("every suite version defines image classification")
        .model;
    (version, backend, model)
}

/// Sweeps the whole population and merges the sharded scores.
///
/// # Errors
///
/// Returns the first compile failure among the configured chips'
/// submission paths (the catalog's own submission pairs always compile).
///
/// # Panics
///
/// Panics if the config is degenerate: zero devices, lanes, queries,
/// shard size, or an empty chip list.
pub fn run_fleet(cache: &CompileCache, config: &FleetConfig) -> Result<FleetReport, CompileError> {
    assert!(config.devices > 0, "fleet needs at least one device");
    assert!(config.lanes > 0, "fleet needs at least one lane");
    assert!(config.queries_per_device > 0, "fleet needs at least one query per device");
    assert!(config.shard_devices > 0, "fleet shards need at least one device");
    assert!(!config.chips.is_empty(), "fleet needs at least one chip");
    let _suite_span = span(Phase::Suite, || {
        format!("fleet-{}-seed{}", config.devices, config.seed)
    });

    // Compile every cell once up front — the sweeps are cached, so the
    // shards below never contend on first-compile.
    let targets: Vec<CellTarget> = {
        let _span = span(Phase::Compile, || "fleet-cells".to_owned());
        config
            .chips
            .iter()
            .map(|&chip| {
                let (_, backend, model) = cell_path(chip);
                Ok(CellTarget {
                    chip,
                    backend,
                    model,
                    soc: cache.soc(chip),
                    sweep: cache.sweep_plan(chip, backend, model)?,
                })
            })
            .collect::<Result<_, CompileError>>()?
    };

    let shards: Vec<u64> = (0..config.devices.div_ceil(config.shard_devices)).collect();
    let outs: Vec<ShardOut> = par_map(&shards, config.threads, |&s| {
        let lo = s * config.shard_devices;
        let hi = config.devices.min(lo + config.shard_devices);
        let _span = span(Phase::Execute, || format!("fleet-shard-{s}"));
        let out = run_shard(config, &targets, lo, hi);
        // Live observability only — the report never reads the global
        // registry, so racy cross-shard ordering cannot leak into it.
        metrics().fleet_devices_simulated.add(hi - lo);
        metrics().fleet_lanes_deduped.add(out.lanes_deduped);
        out
    });

    // Merge in shard order (histogram merging is exact and commutative,
    // but fixing the order keeps the fold auditable).
    let mut cells: Vec<FleetCell> = targets
        .iter()
        .map(|t| FleetCell {
            chip: t.chip.to_string(),
            backend: t.backend.to_string(),
            model: t.model.name().to_owned(),
            devices: 0,
            throttled_devices: 0,
            latency_ns: LatencyHistogram::new(),
            energy_uj: LatencyHistogram::new(),
            throttle_ns: LatencyHistogram::new(),
        })
        .collect();
    let mut report = FleetReport {
        devices: config.devices,
        seed: config.seed,
        lanes: config.lanes,
        queries_per_device: config.queries_per_device,
        lane_queries: 0,
        lanes_deduped: 0,
        memo_hits: 0,
        memo_evictions: 0,
        cells: Vec::new(),
    };
    for out in outs {
        report.lane_queries += out.lane_queries;
        report.lanes_deduped += out.lanes_deduped;
        report.memo_hits += out.memo_hits;
        for (cell, shard) in cells.iter_mut().zip(out.cells) {
            cell.devices += shard.devices;
            cell.throttled_devices += shard.throttled_devices;
            cell.latency_ns.merge(&shard.latency_ns);
            cell.energy_uj.merge(&shard.energy_uj);
            cell.throttle_ns.merge(&shard.throttle_ns);
        }
    }
    report.cells = cells;
    Ok(report)
}

/// Formats nanoseconds as milliseconds with two decimals.
fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Renders the field-performance report: per-cell population
/// percentiles with the p99.9 deep tail, then the fleet-wide summary.
/// Pure function of the report — byte-stable for a fixed seed.
#[must_use]
pub fn render_fleet_report(report: &FleetReport) -> String {
    use std::fmt::Write as _;
    let header = [
        "Chip",
        "Path",
        "Devices",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "p99.9 ms",
        "p50 mJ",
        "Throttled",
        "p50 s->throttle",
    ];
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .filter(|cell| cell.devices > 0)
        .map(|cell| {
            vec![
                cell.chip.clone(),
                format!("{}/{}", cell.backend, cell.model),
                cell.devices.to_string(),
                ms(cell.latency_ns.quantile(0.50)),
                ms(cell.latency_ns.quantile(0.95)),
                ms(cell.latency_ns.quantile(0.99)),
                ms(cell.latency_ns.quantile(0.999)),
                format!("{:.2}", cell.energy_uj.quantile(0.50) as f64 / 1e3),
                format!(
                    "{} ({:.1}%)",
                    cell.throttled_devices,
                    cell.throttled_devices as f64 * 100.0 / cell.devices as f64
                ),
                if cell.throttle_ns.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{:.2}", cell.throttle_ns.quantile(0.50) as f64 / 1e9)
                },
            ]
        })
        .collect();
    let mut text = format!(
        "Field-performance fleet sweep - {} devices, seed {}, K={} lanes, {} queries/device\n{}",
        report.devices,
        report.seed,
        report.lanes,
        report.queries_per_device,
        render_table(&header, &rows),
    );
    let mut fleet_wide = LatencyHistogram::new();
    for cell in &report.cells {
        fleet_wide.merge(&cell.latency_ns);
    }
    if !fleet_wide.is_empty() {
        let _ = writeln!(
            text,
            "fleet-wide single-stream latency: p50 {} / p95 {} / p99 {} / p99.9 {} ms \
             over {} devices",
            ms(fleet_wide.quantile(0.50)),
            ms(fleet_wide.quantile(0.95)),
            ms(fleet_wide.quantile(0.99)),
            ms(fleet_wide.quantile(0.999)),
            fleet_wide.count(),
        );
    }
    let _ = writeln!(
        text,
        "lane dedup: {} of {} lane-queries shared another lane's walk ({:.1}%); \
         unit memo: {} replays, {} evictions",
        report.lanes_deduped,
        report.lane_queries,
        if report.lane_queries > 0 {
            report.lanes_deduped as f64 * 100.0 / report.lane_queries as f64
        } else {
            0.0
        },
        report.memo_hits,
        report.memo_evictions,
    );
    text
}

/// [`run_fleet`] + [`render_fleet_report`] in one call — the
/// `reproduce fleet` artifact body.
///
/// # Errors
///
/// Returns the first compile failure among the configured chips.
pub fn fleet_report_text(cache: &CompileCache, config: &FleetConfig) -> Result<String, CompileError> {
    Ok(render_fleet_report(&run_fleet(cache, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(devices: u64, threads: usize) -> FleetConfig {
        let mut config = FleetConfig::new(devices, 42);
        config.threads = threads;
        config.shard_devices = 96;
        config.chips = vec![ChipId::Dimensity1100, ChipId::Snapdragon888];
        config
    }

    /// Keeping only the last flushed unit replays exactly the units an
    /// unbounded memo of executed units would. The rare middle speed bin
    /// makes a run of equal keys shorter than a wave.
    #[test]
    fn replays_match_an_unbounded_memo() {
        let cache = CompileCache::new();
        let mut cells = None;
        for (lanes, bins, expected) in [(2, 2, 93), (3, 3, 88), (8, 3, 81), (32, 3, 33)] {
            let mut config = small_config(97, 1);
            config.chips = vec![ChipId::Dimensity1100];
            config.shard_devices = 97;
            config.lanes = lanes;
            config.profile = FleetProfile {
                speed_bins: [(1.0, 0.5), (0.96, 0.02), (0.94, 0.48)][..bins].to_vec(),
                ..FleetProfile::uniform(22.0)
            };
            // Oracle: walk the shard's sorted units; a unit is a replay
            // exactly when an equal-key unit ran in an already flushed wave.
            let mut units: Vec<([u64; 6], u64)> = (0..config.devices)
                .map(|i| (sample_unit(config.seed, i, &config.profile).dedup_key(), i))
                .collect();
            units.sort_unstable();
            let (mut flushed, mut pending, mut replays) = (Vec::new(), Vec::new(), 0u64);
            for (key, _) in units {
                if flushed.contains(&key) {
                    replays += 1;
                } else {
                    pending.push(key);
                    if pending.len() == lanes {
                        flushed.append(&mut pending);
                    }
                }
            }
            let report = run_fleet(&cache, &config).unwrap();
            assert_eq!(report.memo_hits, replays, "{lanes} lanes, {bins} bins");
            assert_eq!(replays, expected, "{lanes} lanes, {bins} bins");
            assert_eq!(report.memo_evictions, 0);
            if bins == 3 {
                // Replayed scores equal executed ones, whatever the lanes.
                assert_eq!(cells.get_or_insert_with(|| report.cells.clone()), &report.cells);
            }
        }
    }

    #[test]
    fn fleet_is_bit_identical_across_worker_counts() {
        let cache = CompileCache::new();
        let serial = run_fleet(&cache, &small_config(400, 1)).unwrap();
        let parallel = run_fleet(&cache, &small_config(400, 8)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            render_fleet_report(&serial),
            render_fleet_report(&parallel),
            "report text must be byte-identical across worker counts"
        );
    }

    #[test]
    fn uniform_fleet_fast_forwards_through_the_memo() {
        let cache = CompileCache::new();
        let mut config = small_config(256, 2);
        config.chips = vec![ChipId::Dimensity1100];
        config.shard_devices = 256;
        config.profile = FleetProfile::uniform(22.0);
        let report = run_fleet(&cache, &config).unwrap();
        // One wave executes; every later unit replays its score.
        assert_eq!(report.memo_hits, 256 - config.lanes as u64);
        assert_eq!(report.cells[0].devices, 256);
        // All devices bit-identical: one latency value fleet-wide, and
        // within each executed wave all lanes dispatch at one frequency.
        assert_eq!(report.cells[0].latency_ns.min(), report.cells[0].latency_ns.max());
        assert_eq!(
            report.lanes_deduped,
            report.lane_queries - u64::from(config.queries_per_device),
            "each wave step sees exactly one distinct frequency"
        );
    }

    #[test]
    fn fleet_report_renders_cells_and_tail() {
        let cache = CompileCache::new();
        let config = small_config(200, 4);
        let text = fleet_report_text(&cache, &config).unwrap();
        assert!(text.contains("200 devices"));
        assert!(text.contains("p99.9 ms"));
        assert!(text.contains("Dimensity 1100"));
        assert!(text.contains("fleet-wide single-stream latency"));
        assert!(text.contains("unit memo:"));
    }
}
