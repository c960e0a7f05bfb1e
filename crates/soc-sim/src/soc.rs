//! SoC definitions: engine sets, interconnect, thermal envelope.

use crate::battery::BatteryState;
use crate::dvfs::DvfsLadder;
use crate::engine::{EngineId, EngineKind, EngineSpec};
use crate::power::EnergyMeter;
use crate::thermal::{ThermalSpec, ThermalState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Inter-engine data movement characteristics.
///
/// Moving intermediate tensors between IP blocks costs real time — the
/// paper attributes the Exynos 2100's 6x software uplift on segmentation
/// largely to "critical features that reduce data transfer between IP
/// blocks, enabled in software through improved scheduling".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Effective bandwidth for engine-to-engine tensor handoff (GB/s).
    pub transfer_gbps: f64,
    /// Fixed per-handoff latency (driver + cache maintenance), in µs.
    pub handoff_latency_us: f64,
}

impl InterconnectSpec {
    /// Time to move `bytes` between two engines, in seconds.
    #[must_use]
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.handoff_latency_us * 1e-6 + bytes as f64 / (self.transfer_gbps * 1e9)
    }
}

/// A complete system-on-chip (or laptop platform) description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Soc {
    /// Commercial name ("Snapdragon 888").
    pub name: String,
    /// Vendor ("Qualcomm").
    pub vendor: String,
    /// Compute engines, indexed by [`EngineId`].
    pub engines: Vec<EngineSpec>,
    /// Inter-engine interconnect.
    pub interconnect: InterconnectSpec,
    /// Thermal envelope.
    pub thermal: ThermalSpec,
    /// Baseline platform power (rails, DRAM refresh), watts.
    pub idle_power_w: f64,
    /// Whether this is a laptop-class platform (headless app path).
    pub is_laptop: bool,
}

impl Soc {
    /// Engine lookup.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn engine(&self, id: EngineId) -> &EngineSpec {
        &self.engines[id.0]
    }

    /// Iterator over `(EngineId, &EngineSpec)`.
    pub fn engines(&self) -> impl Iterator<Item = (EngineId, &EngineSpec)> {
        self.engines.iter().enumerate().map(|(i, e)| (EngineId(i), e))
    }

    /// Finds the first engine of a kind.
    #[must_use]
    pub fn engine_of_kind(&self, kind: EngineKind) -> Option<EngineId> {
        self.engines().find(|(_, e)| e.kind == kind).map(|(id, _)| id)
    }

    /// The CPU engine every schedule can fall back to.
    ///
    /// # Panics
    ///
    /// Panics if the SoC has no CPU (catalog invariant: all do).
    #[must_use]
    pub fn cpu(&self) -> EngineId {
        self.engines()
            .find(|(_, e)| e.kind.is_cpu())
            .map(|(id, _)| id)
            .expect("every SoC has a CPU")
    }

    /// Creates the mutable run-time state for this SoC at an ambient
    /// temperature (paper run rules: 20–25 °C), mains-powered (no battery).
    #[must_use]
    pub fn new_state(&self, ambient_c: f64) -> SocState {
        SocState {
            thermal: ThermalState::new(self.thermal, ambient_c),
            energy: EnergyMeter::new(self.idle_power_w),
            battery: None,
            dvfs: DvfsLadder::default(),
        }
    }

    /// Creates run-time state on battery power — the configuration the
    /// run rules prescribe for phones ("the benchmark runs while the phone
    /// is battery powered").
    #[must_use]
    pub fn new_state_on_battery(&self, ambient_c: f64, battery: BatteryState) -> SocState {
        SocState {
            thermal: ThermalState::new(self.thermal, ambient_c),
            energy: EnergyMeter::new(self.idle_power_w),
            battery: Some(battery),
            dvfs: DvfsLadder::default(),
        }
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} (", self.vendor, self.name)?;
        for (i, e) in self.engines.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", e.name)?;
        }
        write!(f, ")")
    }
}

/// Mutable run-time state: thermal trajectory and energy accounting.
///
/// Persisted across queries by the harness so that long performance runs
/// genuinely heat the device and throttle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocState {
    /// Thermal trajectory.
    pub thermal: ThermalState,
    /// Energy meter.
    pub energy: EnergyMeter,
    /// Battery state, when running on battery power.
    pub battery: Option<BatteryState>,
    /// DVFS operating-point ladder the governor snaps to.
    pub dvfs: DvfsLadder,
}

impl SocState {
    /// The DVFS frequency factor in effect: the thermal governor's
    /// continuous target combined with any battery power-saving cap,
    /// snapped down to the nearest operating point.
    #[must_use]
    pub fn freq_factor(&self) -> f64 {
        let battery_cap = self.battery.as_ref().map_or(1.0, BatteryState::freq_cap);
        self.dvfs.snap(self.thermal.freq_factor().min(battery_cap))
    }

    /// The ladder index of the operating point currently in effect
    /// (0 = fastest) — the "DVFS level" reported in run traces.
    #[must_use]
    pub fn dvfs_level(&self) -> usize {
        let battery_cap = self.battery.as_ref().map_or(1.0, BatteryState::freq_cap);
        self.dvfs.level_of(self.thermal.freq_factor().min(battery_cap))
    }

    /// Surfaces the energy meter's run-end totals over an elapsed window —
    /// what the harness stamps into run traces and reports.
    #[must_use]
    pub fn energy_snapshot(&self, elapsed: crate::time::SimDuration) -> crate::power::EnergySnapshot {
        self.energy.snapshot(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSpecBuilder;

    fn soc() -> Soc {
        Soc {
            name: "TestChip".into(),
            vendor: "Acme".into(),
            engines: vec![
                EngineSpecBuilder::new("big", EngineKind::CpuBig, 50.0, 50.0, 25.0).build(),
                EngineSpecBuilder::new("gpu", EngineKind::Gpu, 200.0, 400.0, 200.0).build(),
                EngineSpecBuilder::new("npu0", EngineKind::Npu, 1000.0, 250.0, 0.0).build(),
                EngineSpecBuilder::new("npu1", EngineKind::Npu, 1000.0, 250.0, 0.0).build(),
            ],
            interconnect: InterconnectSpec { transfer_gbps: 10.0, handoff_latency_us: 100.0 },
            thermal: ThermalSpec::default(),
            idle_power_w: 0.4,
            is_laptop: false,
        }
    }

    #[test]
    fn engine_lookup() {
        let s = soc();
        assert_eq!(s.engine(EngineId(1)).name, "gpu");
        assert_eq!(s.engine_of_kind(EngineKind::Npu), Some(EngineId(2)));
        assert_eq!(s.cpu(), EngineId(0));
        assert_eq!(s.engine_of_kind(EngineKind::Hta), None);
    }

    #[test]
    fn transfer_cost() {
        let ic = InterconnectSpec { transfer_gbps: 10.0, handoff_latency_us: 100.0 };
        // 10 MB at 10 GB/s = 1 ms, plus 0.1 ms latency.
        let t = ic.transfer_secs(10_000_000);
        assert!((t - 0.0011).abs() < 1e-9);
    }

    #[test]
    fn state_starts_cold() {
        let s = soc();
        let state = s.new_state(22.0);
        assert_eq!(state.thermal.temperature_c(), 22.0);
        assert_eq!(state.energy.total_joules(), 0.0);
    }

    #[test]
    fn display_lists_engines() {
        let text = soc().to_string();
        assert!(text.contains("Acme TestChip"));
        assert!(text.contains("npu1"));
    }
}
