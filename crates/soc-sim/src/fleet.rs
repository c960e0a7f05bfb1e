//! Seeded device-population sampling for fleet-scale sweeps.
//!
//! The catalog ([`crate::catalog`]) models eight *lab* phones: nominal
//! silicon at a bench ambient. A fleet sweep asks a different question —
//! what does the same deployment look like across a million *field*
//! units, where silicon binning, case choice, climate, battery wear and
//! background load all perturb the device model? This module samples
//! those per-unit perturbations as a pure function of `(seed, index)`,
//! so any shard of the population can be regenerated independently —
//! nothing is ever materialized, and the sweep is bit-reproducible
//! regardless of worker count or shard interleaving.
//!
//! # Dedup-friendly by construction
//!
//! Every distribution is **discrete or grid-quantized** (speed bins,
//! envelope classes, ambients on a 0.25 °C grid, battery health/charge on
//! a 0.01 grid, background-load classes). Two units that land on the same
//! grid points have **bit-equal** sampled state, and units on one speed
//! bin dispatch at bit-equal DVFS frequencies. The fleet executor keys
//! its caches on exactly that: repeated units skip execution entirely,
//! and the batched executor ([`crate::plan_batch`]) walks each operating
//! point's op arrays once per memo, whichever lanes reach it.
//! Continuous distributions would make every unit unique and every
//! lane's frequencies its own, and silently turn both fast paths off.

use crate::battery::{BatterySpec, BatteryState};
use crate::dvfs::DvfsLadder;
use crate::power::EnergyMeter;
use crate::soc::{Soc, SocState};
use crate::thermal::{ThermalSpec, ThermalState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid step for sampled ambient temperatures (°C).
const AMBIENT_GRID_C: f64 = 0.25;

/// Grid step for sampled battery health and state-of-charge fractions.
const BATTERY_GRID: f64 = 0.01;

/// The population model: per-unit perturbation distributions applied on
/// top of a catalog [`Soc`]. All fields are public knobs; the
/// [`Default`] profile models a mixed consumer installed base.
///
/// Weights need not sum to 1 — they are normalized at sampling time.
///
/// # Distribution shapes
///
/// * `speed_bins` — silicon binning: each bin scales every DVFS ladder
///   point, so a 0.96 unit runs all its operating points 4 % slower.
/// * `envelopes` — thermal envelope classes (bare / case / heavy case):
///   each class scales the thermal resistance, so cased units heat up
///   further per watt and throttle earlier.
/// * `ambient_bands` — `(lo_c, hi_c, weight)` climate bands, sampled
///   uniformly inside the band then snapped to a 0.25 °C grid.
/// * `wall_power_fraction` — units benched on wall power (no battery
///   model); the rest sample battery health and charge.
/// * `health_range` / `charge_range` — battery capacity retention and
///   state of charge, uniform then snapped to a 0.01 grid.
/// * `background_us` — background-load classes: extra per-query overhead
///   (µs) from other apps sharing the device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProfile {
    /// Silicon speed bins: `(dvfs_scale, weight)`.
    pub speed_bins: Vec<(f64, f64)>,
    /// Thermal envelope classes: `(thermal_resistance_scale, weight)`.
    pub envelopes: Vec<(f64, f64)>,
    /// Climate bands: `(lo_c, hi_c, weight)`.
    pub ambient_bands: Vec<(f64, f64, f64)>,
    /// Fraction of units on wall power.
    pub wall_power_fraction: f64,
    /// Battery capacity retention range (fraction of spec capacity).
    pub health_range: (f64, f64),
    /// Battery state-of-charge range.
    pub charge_range: (f64, f64),
    /// Background-load classes: `(extra_query_overhead_us, weight)`.
    pub background_us: Vec<(f64, f64)>,
}

impl Default for FleetProfile {
    /// A mixed consumer installed base: most units near nominal silicon,
    /// indoors, on battery, with light background load.
    fn default() -> Self {
        FleetProfile {
            speed_bins: vec![(1.0, 0.28), (0.98, 0.40), (0.96, 0.22), (0.94, 0.10)],
            envelopes: vec![(1.0, 0.55), (1.12, 0.35), (1.30, 0.10)],
            ambient_bands: vec![
                (18.0, 26.0, 0.62), // indoors
                (4.0, 35.0, 0.30),  // outdoors, temperate
                (35.0, 48.0, 0.08), // hot climates / direct sun
            ],
            wall_power_fraction: 0.15,
            health_range: (0.80, 1.0),
            charge_range: (0.05, 1.0),
            background_us: vec![(0.0, 0.50), (150.0, 0.30), (400.0, 0.15), (1200.0, 0.05)],
        }
    }
}

impl FleetProfile {
    /// A degenerate profile where every sampled unit is bit-identical:
    /// nominal silicon, bare envelope, fixed `ambient_c`, wall power, no
    /// background load. The uniform-fleet fast path's best case, used by
    /// tests and throughput benches to bound the dedup win.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_c` is not on the 0.25 °C sampling grid.
    #[must_use]
    pub fn uniform(ambient_c: f64) -> Self {
        assert!(
            (ambient_c / AMBIENT_GRID_C).fract() == 0.0,
            "uniform ambient must sit on the {AMBIENT_GRID_C} degC sampling grid"
        );
        FleetProfile {
            speed_bins: vec![(1.0, 1.0)],
            envelopes: vec![(1.0, 1.0)],
            // A band narrower than half a grid step always snaps to
            // `ambient_c` itself.
            ambient_bands: vec![(ambient_c, ambient_c + AMBIENT_GRID_C / 4.0, 1.0)],
            wall_power_fraction: 1.0,
            health_range: (1.0, 1.0),
            charge_range: (1.0, 1.0),
            background_us: vec![(0.0, 1.0)],
        }
    }
}

/// One sampled field unit: the per-device perturbations applied on top
/// of a catalog [`Soc`]. Produced by [`sample_unit`]; purely a function
/// of `(seed, index, profile)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceUnit {
    /// Silicon speed bin: scales every DVFS ladder point.
    pub speed_scale: f64,
    /// Thermal envelope class: scales the SoC's thermal resistance.
    pub envelope_scale: f64,
    /// Ambient temperature (°C), on a 0.25 °C grid.
    pub ambient_c: f64,
    /// `Some((health, charge))` when on battery power, `None` on wall.
    pub battery: Option<(f64, f64)>,
    /// Background load: extra per-query overhead (µs).
    pub extra_query_overhead_us: f64,
}

impl DeviceUnit {
    /// The full sampled state as exact bit patterns: units with equal
    /// keys have bit-equal [`DeviceUnit::state`] and therefore bit-equal
    /// trajectories through any plan. The fleet executor sorts shard
    /// populations by this key so identical units pack into the same
    /// lanes (frequency-bit dedup) and repeats replay a memoized score.
    #[must_use]
    pub fn dedup_key(&self) -> [u64; 6] {
        let (health, charge) = match self.battery {
            // `to_bits` of a valid health/charge never collides with
            // `u64::MAX` (that bit pattern is a NaN).
            Some((h, c)) => (h.to_bits(), c.to_bits()),
            None => (u64::MAX, u64::MAX),
        };
        [
            self.speed_scale.to_bits(),
            self.envelope_scale.to_bits(),
            self.ambient_c.to_bits(),
            health,
            charge,
            self.extra_query_overhead_us.to_bits(),
        ]
    }

    /// Builds the unit's run-time state on `soc`: the catalog state with
    /// this unit's envelope scaling the thermal resistance, the speed bin
    /// scaling every DVFS point, and battery wear scaling the capacity.
    ///
    /// # Panics
    ///
    /// Panics (via [`BatteryState::new`] / [`DvfsLadder::new`]) if the
    /// unit's fields are out of range — sampled units never are.
    #[must_use]
    pub fn state(&self, soc: &Soc) -> SocState {
        let thermal = ThermalSpec {
            resistance_c_per_w: soc.thermal.resistance_c_per_w * self.envelope_scale,
            ..soc.thermal
        };
        let ladder: Vec<f64> =
            DvfsLadder::default().factors().iter().map(|f| f * self.speed_scale).collect();
        SocState {
            thermal: ThermalState::new(thermal, self.ambient_c),
            energy: EnergyMeter::new(soc.idle_power_w),
            battery: self.battery.map(|(health, charge)| {
                let spec = BatterySpec::default();
                BatteryState::new(
                    BatterySpec { capacity_wh: spec.capacity_wh * health, ..spec },
                    charge,
                )
            }),
            dvfs: DvfsLadder::new(ladder),
        }
    }
}

/// SplitMix64-style combine of the fleet seed and the unit index, so
/// neighbouring indices land on uncorrelated RNG streams.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Snaps `v` to the nearest multiple of `step`.
fn quantize(v: f64, step: f64) -> f64 {
    (v / step).round() * step
}

/// Weighted choice over `(value, weight)` pairs.
fn pick_weighted(rng: &mut StdRng, choices: &[(f64, f64)]) -> f64 {
    let total: f64 = choices.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for &(value, weight) in choices {
        if x < weight {
            return value;
        }
        x -= weight;
    }
    choices.last().expect("weighted choice needs at least one entry").0
}

/// Samples unit `index` of the population — a pure function of
/// `(seed, index, profile)`, so any sub-range of the population can be
/// regenerated on any worker with identical bits.
///
/// # Panics
///
/// Panics if the profile is degenerate in a way the device model rejects
/// (empty choice lists, inverted ranges, weights summing to zero).
#[must_use]
pub fn sample_unit(seed: u64, index: u64, profile: &FleetProfile) -> DeviceUnit {
    let mut rng = StdRng::seed_from_u64(mix(seed, index));
    let speed_scale = pick_weighted(&mut rng, &profile.speed_bins);
    let envelope_scale = pick_weighted(&mut rng, &profile.envelopes);
    let band_total: f64 = profile.ambient_bands.iter().map(|&(_, _, w)| w).sum();
    let mut x = rng.gen::<f64>() * band_total;
    let mut band = *profile.ambient_bands.last().expect("profile needs an ambient band");
    for &(lo, hi, w) in &profile.ambient_bands {
        if x < w {
            band = (lo, hi, w);
            break;
        }
        x -= w;
    }
    let ambient_c = quantize(rng.gen_range(band.0..band.1), AMBIENT_GRID_C);
    let battery = if rng.gen_bool(profile.wall_power_fraction) {
        None
    } else {
        let health = quantize(sample_range(&mut rng, profile.health_range), BATTERY_GRID);
        let charge = quantize(sample_range(&mut rng, profile.charge_range), BATTERY_GRID);
        Some((health, charge))
    };
    let extra_query_overhead_us = pick_weighted(&mut rng, &profile.background_us);
    DeviceUnit { speed_scale, envelope_scale, ambient_c, battery, extra_query_overhead_us }
}

/// Uniform sample over `[lo, hi]`, tolerating the degenerate `lo == hi`
/// point range (which `gen_range` rejects).
fn sample_range(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    assert!(lo <= hi, "range must be ordered");
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ChipId;

    fn population(seed: u64, n: u64, profile: &FleetProfile) -> Vec<DeviceUnit> {
        (0..n).map(|i| sample_unit(seed, i, profile)).collect()
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_index() {
        let profile = FleetProfile::default();
        let a = population(42, 512, &profile);
        let b = population(42, 512, &profile);
        assert_eq!(a, b);
        // Regenerating an arbitrary sub-range matches the full pass —
        // the property sharding relies on.
        for i in [0u64, 17, 311, 511] {
            assert_eq!(sample_unit(42, i, &profile), a[i as usize]);
        }
        // A different seed moves the population.
        let c = population(43, 512, &profile);
        assert_ne!(a, c);
    }

    #[test]
    fn distribution_shapes_match_the_profile() {
        let profile = FleetProfile::default();
        let n = 20_000u64;
        let units = population(7, n, &profile);

        // Speed bins: mean within 0.5 % of the weighted mean, and only
        // the profiled bins occur.
        let weighted_mean = 1.0 * 0.28 + 0.98 * 0.40 + 0.96 * 0.22 + 0.94 * 0.10;
        let mean: f64 = units.iter().map(|u| u.speed_scale).sum::<f64>() / n as f64;
        assert!((mean - weighted_mean).abs() < 0.005, "speed mean {mean} vs {weighted_mean}");
        assert!(units.iter().all(|u| [1.0, 0.98, 0.96, 0.94].contains(&u.speed_scale)));

        // Envelopes: only the profiled classes, with the common class
        // actually common.
        assert!(units.iter().all(|u| [1.0, 1.12, 1.30].contains(&u.envelope_scale)));
        let bare = units.iter().filter(|u| u.envelope_scale == 1.0).count() as f64 / n as f64;
        assert!((bare - 0.55).abs() < 0.02, "bare-envelope fraction {bare}");

        // Ambients: inside the union of bands, on the sampling grid.
        for u in &units {
            // Grid snapping can round a sample at a band edge up to the
            // edge itself, so the bound is inclusive.
            assert!((4.0..=48.0).contains(&u.ambient_c), "ambient {} out of band", u.ambient_c);
            assert!(
                (u.ambient_c / AMBIENT_GRID_C).fract() == 0.0,
                "ambient {} off grid",
                u.ambient_c
            );
        }

        // Battery: wall-power fraction near the knob; health/charge in
        // range and on the grid.
        let wall = units.iter().filter(|u| u.battery.is_none()).count() as f64 / n as f64;
        assert!((wall - 0.15).abs() < 0.02, "wall-power fraction {wall}");
        for (health, charge) in units.iter().filter_map(|u| u.battery) {
            assert!((0.80..=1.0).contains(&health));
            assert!((0.05..=1.0).contains(&charge));
            assert!((health / BATTERY_GRID).round() * BATTERY_GRID == health);
        }

        // Background load: only the profiled classes, idle class common.
        assert!(units
            .iter()
            .all(|u| [0.0, 150.0, 400.0, 1200.0].contains(&u.extra_query_overhead_us)));
        let idle = units.iter().filter(|u| u.extra_query_overhead_us == 0.0).count() as f64
            / n as f64;
        assert!((idle - 0.50).abs() < 0.02, "idle-background fraction {idle}");
    }

    #[test]
    fn sampled_units_build_valid_states_on_every_chip() {
        let profile = FleetProfile::default();
        for (i, chip) in ChipId::ALL.iter().cycle().take(400).enumerate() {
            let soc = chip.build();
            let unit = sample_unit(11, i as u64, &profile);
            let state = unit.state(&soc);
            // Ladder stays strictly descending in (0, 1] after binning.
            assert_eq!(state.dvfs.factors()[0], unit.speed_scale);
            assert_eq!(state.thermal.ambient_c(), unit.ambient_c);
            assert_eq!(state.battery.is_some(), unit.battery.is_some());
        }
    }

    #[test]
    fn equal_dedup_keys_mean_bit_equal_states() {
        let profile = FleetProfile::default();
        let soc = ChipId::Dimensity1100.build();
        let units = population(3, 4096, &profile);
        for w in units.windows(2) {
            if w[0].dedup_key() == w[1].dedup_key() {
                assert_eq!(w[0].state(&soc), w[1].state(&soc));
            }
        }
        // And the uniform profile collapses the whole population onto
        // one key.
        let uniform = FleetProfile::uniform(22.0);
        let key = sample_unit(9, 0, &uniform).dedup_key();
        assert!(population(9, 256, &uniform).iter().all(|u| u.dedup_key() == key));
    }
}
