//! The backend abstraction (paper Figure 5).
//!
//! A backend is what turns a frozen reference model into something that
//! runs on a particular SoC: it picks numerics, partitions the graph onto
//! engines, and carries the framework overheads of its code path. The
//! benchmark app talks to every backend through this one trait, exactly as
//! the MLPerf app's backend layer does.

use crate::partition::PartitionError;
use nn_graph::Graph;
use quant::Scheme;
use serde::{Deserialize, Serialize};
use soc_sim::schedule::Schedule;
use soc_sim::soc::Soc;
use std::fmt;

/// Identifier of a backend implementation (a "code path" in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BackendId {
    /// TFLite CPU kernels (XNNPACK-style) — the universal baseline.
    TfliteCpu,
    /// TFLite GPU delegate (FP16).
    TfliteGpu,
    /// Android NNAPI with the platform driver.
    Nnapi,
    /// MediaTek Neuron delegate (vendor driver, no HAL hop).
    Neuron,
    /// Samsung Exynos Neural Network SDK.
    Enn,
    /// Qualcomm Snapdragon Neural Processing Engine.
    Snpe,
    /// Intel OpenVINO (laptop code path 3).
    OpenVino,
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendId::TfliteCpu => "TFLite (CPU)",
            BackendId::TfliteGpu => "TFLite delegate (GPU)",
            BackendId::Nnapi => "NNAPI",
            BackendId::Neuron => "Neuron Delegate",
            BackendId::Enn => "ENN",
            BackendId::Snpe => "SNPE",
            BackendId::OpenVino => "OpenVINO",
        };
        f.write_str(s)
    }
}

/// A compiled deployment: the retyped graph plus its placement.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Which backend produced it.
    pub backend: BackendId,
    /// Numerics scheme in force.
    pub scheme: Scheme,
    /// The graph, retyped to the deployment precision.
    pub graph: Graph,
    /// Single-query (single-stream) placement.
    pub schedule: Schedule,
    /// Concurrent streams for offline mode (accelerator-level
    /// parallelism); at least one, the first equals `schedule` when no ALP
    /// is available.
    pub offline_streams: Vec<Schedule>,
}

impl Deployment {
    /// Estimated single-stream latency in milliseconds (nominal frequency).
    #[must_use]
    pub fn estimate_ms(&self, soc: &Soc) -> f64 {
        soc_sim::executor::estimate_query_secs(soc, &self.graph, &self.schedule) * 1e3
    }

    /// Human-readable accelerator summary ("NPU+CPU"), as in paper Table 2.
    #[must_use]
    pub fn accelerator_summary(&self, soc: &Soc) -> String {
        let mut kinds: Vec<String> = Vec::new();
        for stage in &self.schedule.stages {
            let k = soc.engine(stage.engine).kind.to_string();
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
        kinds.join("+")
    }

    /// Peak memory footprint of the deployment in bytes: all weights at
    /// their stage precision plus the largest intermediate activation.
    ///
    /// Devices "vary in their memory capacity and storage features" (paper
    /// Section 2.1) — this is the number a memory-tiered device compares
    /// against its budget.
    #[must_use]
    pub fn peak_memory_bytes(&self) -> u64 {
        let stage_of = self.schedule.stage_of(&self.graph);
        let mut weights = 0u64;
        let mut peak_activation = 0u64;
        for node in &self.graph {
            let dtype = self.schedule.stages[stage_of[node.id.index()]].dtype;
            weights += node.cost.weight_bytes(dtype);
            peak_activation =
                peak_activation.max(node.output.shape.byte_size(dtype) as u64);
        }
        weights + peak_activation
    }
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The backend cannot target this SoC at all (e.g. SNPE on Exynos).
    UnsupportedSoc {
        /// SoC name.
        soc: String,
        /// Backend that refused.
        backend: BackendId,
    },
    /// No engine arrangement could place the graph.
    Partition(PartitionError),
    /// The requested numerics scheme is not runnable on this SoC.
    UnsupportedScheme {
        /// Requested scheme description.
        scheme: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedSoc { soc, backend } => {
                write!(f, "{backend} cannot target {soc}")
            }
            CompileError::Partition(e) => write!(f, "partitioning failed: {e}"),
            CompileError::UnsupportedScheme { scheme } => {
                write!(f, "scheme {scheme} not runnable on this SoC")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PartitionError> for CompileError {
    fn from(e: PartitionError) -> Self {
        CompileError::Partition(e)
    }
}

/// A backend: compiles reference graphs into deployments for a SoC.
///
/// Object-safe so the harness can hold heterogeneous backends, mirroring
/// the app's pluggable backend layer.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Which code path this is.
    fn id(&self) -> BackendId;

    /// Compiles the FP32 reference graph for the SoC, choosing numerics
    /// and placement. Backends pick the best-estimated option among their
    /// legal candidates (vendor SDKs are exactly this kind of
    /// auto-tuner; paper Section 7.4).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the backend cannot produce a valid
    /// deployment on this SoC.
    fn compile(&self, reference: &Graph, soc: &Soc) -> Result<Deployment, CompileError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ids_display() {
        assert_eq!(BackendId::Snpe.to_string(), "SNPE");
        assert_eq!(BackendId::Neuron.to_string(), "Neuron Delegate");
        assert_eq!(BackendId::TfliteGpu.to_string(), "TFLite delegate (GPU)");
    }

    #[test]
    fn peak_memory_tracks_precision() {
        use crate::backends::{TfliteCpu, TfliteGpu};
        use nn_graph::models::ModelId;
        use soc_sim::catalog::ChipId;
        let soc = ChipId::Snapdragon888.build();
        let reference = ModelId::MobileBert.build();
        let int8 = TfliteCpu.compile(&reference, &soc).unwrap();
        let fp16 = TfliteGpu.compile(&reference, &soc).unwrap();
        // FP16 weights are twice the INT8 bytes; ~21M params dominate.
        let ratio = fp16.peak_memory_bytes() as f64 / int8.peak_memory_bytes() as f64;
        assert!((1.7..2.2).contains(&ratio), "ratio {ratio:.2}");
        assert!(int8.peak_memory_bytes() > 20_000_000);
    }

    #[test]
    fn compile_error_displays() {
        let e = CompileError::UnsupportedSoc { soc: "Exynos 990".into(), backend: BackendId::Snpe };
        assert!(e.to_string().contains("SNPE"));
        assert!(e.to_string().contains("Exynos 990"));
    }
}
