//! The per-vendor transition-penalty table.
//!
//! Every backend pays two scheduling overheads when its compiled
//! [`Schedule`] crosses engines (paper Section 7.4 and Insights 2–5: the
//! HAL hop is why NNAPI placements lose to direct vendor SDKs on the same
//! silicon):
//!
//! - **`sync_us`** — per-stage synchronization, paid once per stage
//!   (fence + dispatch of the next partition).
//! - **`query_us`** — one-time per-query request setup.
//!
//! | framework path                          | sync µs | query µs |
//! |-----------------------------------------|---------|----------|
//! | TFLite CPU (single engine, no crossing) |     0.0 |      0.0 |
//! | NNAPI (Android HAL hop)                 |    40.0 |    190.0 |
//! | vendor / delegate (direct driver)       |    10.0 |      0.0 |
//!
//! This table is the *single source* for these constants: the backend
//! plan builders in [`crate::backends`] read them when constructing
//! [`PartitionPlan`](crate::partition::PartitionPlan)s, and the schedule
//! auto-tuner ([`crate::tune`](mod@crate::tune)) carries the same
//! penalties into every candidate schedule and its branch-and-bound lower
//! bound — so tuned and heuristic schedules are always compared under
//! identical framework costs.
//!
//! OpenVINO's CPU-only plan is the one accelerated path that pays no
//! sync (a single-process inference engine with no device crossing); its
//! iGPU plan pays the vendor penalty like every other delegate. That is
//! why [`TransitionPenalty::of_schedule`] — which reads the penalties a
//! compiled schedule actually carries — is what the tuner uses, while
//! [`TransitionPenalty::for_backend`] documents the framework-level
//! table above.

use crate::backend::BackendId;
use serde::{Deserialize, Serialize};
use soc_sim::schedule::Schedule;

/// The two scheduling overheads a framework pays around engine
/// transitions, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionPenalty {
    /// Per-stage synchronization overhead (fence + next-partition
    /// dispatch), µs.
    pub sync_us: f64,
    /// One-time per-query request-setup overhead, µs.
    pub query_us: f64,
}

/// No transition cost: single-engine paths that never cross (TFLite CPU,
/// OpenVINO's CPU plan).
pub const NONE: TransitionPenalty = TransitionPenalty { sync_us: 0.0, query_us: 0.0 };

/// The Android NNAPI HAL hop: every stage round-trips through the
/// platform driver interface, and each query pays a request-setup cost.
pub const NNAPI: TransitionPenalty = TransitionPenalty { sync_us: 40.0, query_us: 190.0 };

/// Direct vendor SDKs and in-process delegates (TFLite GPU, Neuron, ENN,
/// SNPE, OpenVINO iGPU): a cheap driver-level fence, no per-query setup.
pub const VENDOR: TransitionPenalty = TransitionPenalty { sync_us: 10.0, query_us: 0.0 };

impl TransitionPenalty {
    /// The framework-level penalty of a backend's accelerated path (the
    /// table in the module docs).
    #[must_use]
    pub const fn for_backend(backend: BackendId) -> TransitionPenalty {
        match backend {
            BackendId::TfliteCpu => NONE,
            BackendId::Nnapi => NNAPI,
            BackendId::TfliteGpu
            | BackendId::Neuron
            | BackendId::Enn
            | BackendId::Snpe
            | BackendId::OpenVino => VENDOR,
        }
    }

    /// The penalties a compiled schedule actually carries: `sync_us` from
    /// its first stage (backends apply one uniform per-stage sync),
    /// `query_us` from the schedule itself. This is what the tuner reads,
    /// so candidates pay exactly what the heuristic paid.
    #[must_use]
    pub fn of_schedule(schedule: &Schedule) -> TransitionPenalty {
        TransitionPenalty {
            sync_us: schedule.stages.first().map_or(0.0, |s| s.sync_overhead_us),
            query_us: schedule.query_overhead_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::create;
    use nn_graph::models::ModelId;
    use soc_sim::catalog::ChipId;

    /// Every multi-stage (engine-crossing) schedule a backend compiles
    /// carries exactly the table's penalties for that backend — the table
    /// and the compiled plans cannot drift apart.
    #[test]
    fn compiled_schedules_match_the_table() {
        let cases = [
            (ChipId::Dimensity1100, BackendId::TfliteCpu),
            (ChipId::Dimensity1100, BackendId::TfliteGpu),
            (ChipId::Dimensity1100, BackendId::Nnapi),
            (ChipId::Dimensity1100, BackendId::Neuron),
            (ChipId::Exynos990, BackendId::Enn),
            (ChipId::Snapdragon888, BackendId::Snpe),
        ];
        for (chip, backend) in cases {
            let soc = chip.build();
            let graph = ModelId::SsdMobileNetV2.build();
            let dep = create(backend).compile(&graph, &soc).expect("compiles");
            let got = TransitionPenalty::of_schedule(&dep.schedule);
            let want = TransitionPenalty::for_backend(backend);
            if dep.schedule.num_transitions() > 0 {
                assert_eq!(got, want, "{backend:?} on {chip:?} drifted from the penalty table");
            }
            assert_eq!(got.query_us, want.query_us, "{backend:?} query overhead drifted");
        }
    }

    /// The re-exported legacy constants stay aliased to the table.
    #[test]
    fn legacy_constants_alias_the_table() {
        assert_eq!(crate::backends::NNAPI_SYNC_US.to_bits(), NNAPI.sync_us.to_bits());
        assert_eq!(crate::backends::NNAPI_QUERY_US.to_bits(), NNAPI.query_us.to_bits());
        assert_eq!(crate::backends::VENDOR_SYNC_US.to_bits(), VENDOR.sync_us.to_bits());
    }
}
