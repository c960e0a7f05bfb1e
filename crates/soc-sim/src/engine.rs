//! Compute-engine models.
//!
//! A mobile SoC exposes a heterogeneous set of engines (paper Section 2.1):
//! big/LITTLE CPU clusters, GPU, DSP, and one or more NPUs under various
//! marketing names (APU, MDLA, HTA, HVX, Hexagon). Each engine is a
//! roofline: peak arithmetic throughput per precision, memory bandwidth,
//! a fixed kernel-launch overhead, and a per-op-class efficiency table
//! that captures how well the engine's dataflow matches each operator.

use nn_graph::{DataType, OpClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Engine family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EngineKind {
    /// Big (performance) CPU cluster.
    CpuBig,
    /// LITTLE (efficiency) CPU cluster.
    CpuLittle,
    /// Laptop-class CPU (x86).
    CpuLaptop,
    /// Mobile GPU (Mali, Adreno).
    Gpu,
    /// Integrated laptop GPU (Intel Xe).
    IntegratedGpu,
    /// Digital signal processor.
    Dsp,
    /// Neural processing unit (NPU/APU/MDLA).
    Npu,
    /// Hexagon Tensor Accelerator.
    Hta,
    /// Hexagon Vector Extensions.
    Hvx,
}

impl EngineKind {
    /// Whether this engine is a CPU cluster.
    #[must_use]
    pub fn is_cpu(self) -> bool {
        matches!(self, EngineKind::CpuBig | EngineKind::CpuLittle | EngineKind::CpuLaptop)
    }

    /// Whether this is a dedicated AI accelerator.
    #[must_use]
    pub fn is_accelerator(self) -> bool {
        matches!(self, EngineKind::Npu | EngineKind::Hta | EngineKind::Hvx | EngineKind::Dsp)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::CpuBig => "CPU(big)",
            EngineKind::CpuLittle => "CPU(LITTLE)",
            EngineKind::CpuLaptop => "CPU",
            EngineKind::Gpu => "GPU",
            EngineKind::IntegratedGpu => "iGPU",
            EngineKind::Dsp => "DSP",
            EngineKind::Npu => "NPU",
            EngineKind::Hta => "HTA",
            EngineKind::Hvx => "HVX",
        };
        f.write_str(s)
    }
}

/// Index of an engine within one SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EngineId(pub usize);

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Roofline description of one compute engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Marketing/architectural name ("Hexagon 780", "Mali-G77").
    pub name: String,
    /// Engine family.
    pub kind: EngineKind,
    /// Peak INT8 throughput in GOPS (ops/sec / 1e9).
    pub peak_int8_gops: f64,
    /// Peak FP16 throughput in GOPS.
    pub peak_fp16_gops: f64,
    /// Peak FP32 throughput in GOPS.
    pub peak_fp32_gops: f64,
    /// Sustainable memory bandwidth in GB/s (the engine's share of DRAM).
    pub mem_bandwidth_gbps: f64,
    /// Fixed per-partition launch overhead.
    pub launch_overhead_us: f64,
    /// Per-operator scheduling cost (command-buffer submission, tile
    /// setup), in µs. Paid once per op per inference.
    pub per_op_overhead_us: f64,
    /// Per-op-class utilization in `(0, 1]`; classes absent from the map
    /// fall back to [`EngineSpec::DEFAULT_EFFICIENCY`].
    pub efficiency: BTreeMap<OpClass, f64>,
    /// Sustained power draw when active, in watts (for the thermal model).
    pub active_power_w: f64,
}

impl EngineSpec {
    /// Utilization assumed for op classes without an explicit entry.
    pub const DEFAULT_EFFICIENCY: f64 = 0.10;

    /// Peak arithmetic throughput (ops/sec) at a given precision.
    ///
    /// INT8 and UINT8 run at the integer rate; INT32 falls back to FP32
    /// rate (scalar-ish).
    #[must_use]
    pub fn peak_ops(&self, dtype: DataType) -> f64 {
        let gops = match dtype {
            DataType::I8 | DataType::U8 => self.peak_int8_gops,
            DataType::F16 => self.peak_fp16_gops,
            DataType::F32 | DataType::I32 => self.peak_fp32_gops,
        };
        gops * 1e9
    }

    /// Utilization for one op class.
    #[must_use]
    pub fn efficiency(&self, class: OpClass) -> f64 {
        self.efficiency
            .get(&class)
            .copied()
            .unwrap_or(Self::DEFAULT_EFFICIENCY)
    }

    /// Whether the engine can execute the class at all (efficiency > 0).
    ///
    /// Zero-efficiency entries model missing kernel support: those ops must
    /// be placed elsewhere (usually the CPU) — the fragmentation the
    /// paper's Section 2.2 describes.
    #[must_use]
    pub fn supports(&self, class: OpClass, dtype: DataType) -> bool {
        self.efficiency(class) > 0.0 && self.peak_ops(dtype) > 0.0
    }
}

/// Builder-style helper for writing catalog entries tersely.
#[derive(Debug)]
pub struct EngineSpecBuilder {
    spec: EngineSpec,
}

impl EngineSpecBuilder {
    /// Starts a spec with the given name/kind and peak GOPS triple
    /// (int8, fp16, fp32).
    #[must_use]
    pub fn new(name: &str, kind: EngineKind, int8: f64, fp16: f64, fp32: f64) -> Self {
        EngineSpecBuilder {
            spec: EngineSpec {
                name: name.to_owned(),
                kind,
                peak_int8_gops: int8,
                peak_fp16_gops: fp16,
                peak_fp32_gops: fp32,
                mem_bandwidth_gbps: 10.0,
                launch_overhead_us: 50.0,
                per_op_overhead_us: 2.0,
                efficiency: BTreeMap::new(),
                active_power_w: 1.0,
            },
        }
    }

    /// Sets memory bandwidth (GB/s).
    #[must_use]
    pub fn bandwidth(mut self, gbps: f64) -> Self {
        self.spec.mem_bandwidth_gbps = gbps;
        self
    }

    /// Sets launch overhead (microseconds).
    #[must_use]
    pub fn launch_us(mut self, us: f64) -> Self {
        self.spec.launch_overhead_us = us;
        self
    }

    /// Sets the per-operator scheduling cost (microseconds).
    #[must_use]
    pub fn per_op_us(mut self, us: f64) -> Self {
        self.spec.per_op_overhead_us = us;
        self
    }

    /// Sets active power (watts).
    #[must_use]
    pub fn power_w(mut self, w: f64) -> Self {
        self.spec.active_power_w = w;
        self
    }

    /// Sets the efficiency of one op class.
    #[must_use]
    pub fn eff(mut self, class: OpClass, value: f64) -> Self {
        assert!((0.0..=1.0).contains(&value), "efficiency must be in [0, 1]");
        self.spec.efficiency.insert(class, value);
        self
    }

    /// Sets the same efficiency for several classes.
    #[must_use]
    pub fn eff_all(mut self, classes: &[OpClass], value: f64) -> Self {
        for &c in classes {
            self = self.eff(c, value);
        }
        self
    }

    /// Finalizes the spec.
    #[must_use]
    pub fn build(self) -> EngineSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsLadder;
    use crate::plan::{PlanOp, PlanStage, QueryPlan};
    use crate::power::EnergyMeter;
    use crate::soc::SocState;
    use crate::thermal::{ThermalSpec, ThermalState};
    use crate::time::SimDuration;
    use nn_graph::OpCost;

    fn npu() -> EngineSpec {
        EngineSpecBuilder::new("test-npu", EngineKind::Npu, 1000.0, 250.0, 0.0)
            .bandwidth(20.0)
            .eff(OpClass::Conv, 0.5)
            .eff(OpClass::DepthwiseConv, 0.1)
            .eff(OpClass::Nms, 0.0)
            .build()
    }

    #[test]
    fn peak_ops_by_dtype() {
        let e = npu();
        assert_eq!(e.peak_ops(DataType::I8), 1e12);
        assert_eq!(e.peak_ops(DataType::U8), 1e12);
        assert_eq!(e.peak_ops(DataType::F16), 250e9);
        assert_eq!(e.peak_ops(DataType::F32), 0.0);
    }

    #[test]
    fn support_table() {
        let e = npu();
        assert!(e.supports(OpClass::Conv, DataType::I8));
        assert!(!e.supports(OpClass::Nms, DataType::I8)); // zero efficiency
        assert!(!e.supports(OpClass::Conv, DataType::F32)); // no fp32 rate
        // Unlisted class falls back to default efficiency: supported.
        assert!(e.supports(OpClass::Softmax, DataType::I8));
    }

    /// Roofline time (seconds, net of the per-op scheduling cost) of one
    /// I8 op moving `bytes` of memory, lowered by [`PlanOp::lower`] and
    /// executed as a one-op query at DVFS factor `freq`.
    fn op_time(e: &EngineSpec, class: OpClass, flops: u64, bytes: u64, freq: f64) -> f64 {
        // One I8 element is one byte.
        let cost = OpCost { flops, weight_elements: bytes, ..OpCost::default() };
        let op = PlanOp::lower(e, class, &cost, DataType::I8);
        let plan = QueryPlan {
            ops: vec![op],
            stages: vec![PlanStage { ops_end: 1, engine: EngineId(0), power_w: e.active_power_w }],
            transfer: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            launch: SimDuration::ZERO,
            sync: SimDuration::ZERO,
        };
        let mut state = SocState {
            thermal: ThermalState::new(ThermalSpec::default(), 22.0),
            energy: EnergyMeter::new(0.0),
            battery: None,
            dvfs: DvfsLadder::new(vec![freq]),
        };
        plan.execute(&mut state).breakdown.stage_compute[0].as_secs_f64() - op.sched_secs
    }

    #[test]
    fn compute_bound_op_time() {
        let e = npu();
        // 1e9 flops at 1e12 ops * 0.5 eff = 2 ms; tiny memory traffic.
        let t = op_time(&e, OpClass::Conv, 1_000_000_000, 1000, 1.0);
        assert!((t - 0.002).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn memory_bound_op_time() {
        let e = npu();
        // Tiny flops, 20 MB of traffic at 20 GB/s = 1 ms.
        let t = op_time(&e, OpClass::DepthwiseConv, 1000, 20_000_000, 1.0);
        assert!((t - 0.001).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn throttling_slows_compute_not_memory() {
        let e = npu();
        let full = op_time(&e, OpClass::Conv, 1_000_000_000, 0, 1.0);
        let half = op_time(&e, OpClass::Conv, 1_000_000_000, 0, 0.5);
        assert!((half - full * 2.0).abs() < 1e-9);
        let mem_full = op_time(&e, OpClass::Conv, 0, 20_000_000, 1.0);
        let mem_half = op_time(&e, OpClass::Conv, 0, 20_000_000, 0.5);
        assert_eq!(mem_full, mem_half);
    }

    #[test]
    fn kind_predicates() {
        assert!(EngineKind::CpuBig.is_cpu());
        assert!(!EngineKind::Gpu.is_cpu());
        assert!(EngineKind::Hta.is_accelerator());
        assert!(!EngineKind::Gpu.is_accelerator());
    }
}
