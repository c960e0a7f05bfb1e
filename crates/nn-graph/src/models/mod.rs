//! The MLPerf Mobile model zoo (paper Table 1).
//!
//! Five reference models across four tasks. Each is constructed layer by
//! layer with realistic shapes so parameter and MAC counts line up with the
//! published figures; see each submodule for architecture notes.

pub mod common;
pub mod deeplab_v3plus;
pub mod edsr_mobile;
pub mod mobile_rnnt;
pub mod mobilebert;
pub mod mobiledet;
pub mod mobilenet_edgetpu;
pub mod ssd_mobilenet_v2;

use crate::graph::Graph;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier for a reference model in the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelId {
    /// Image classification, v0.7 + v1.0 (224x224 ImageNet).
    MobileNetEdgeTpu,
    /// Object detection, v0.7 (300x300 COCO).
    SsdMobileNetV2,
    /// Object detection, v1.0 (320x320 COCO).
    MobileDetSsd,
    /// Semantic segmentation, v0.7 + v1.0 (512x512 ADE20K).
    DeepLabV3Plus,
    /// Question answering, v0.7 + v1.0 (SQuAD v1.1, seq len 384).
    MobileBert,
    /// Speech recognition — the in-progress extension task (Appendix E).
    MobileRnnt,
    /// 2x super-resolution — the future-work extension task (Appendix E).
    EdsrMobile,
}

impl ModelId {
    /// All models in the zoo, including the extension tasks.
    pub const ALL: [ModelId; 7] = [
        ModelId::MobileNetEdgeTpu,
        ModelId::SsdMobileNetV2,
        ModelId::MobileDetSsd,
        ModelId::DeepLabV3Plus,
        ModelId::MobileBert,
        ModelId::MobileRnnt,
        ModelId::EdsrMobile,
    ];

    /// Builds the FP32 reference graph for this model.
    #[must_use]
    pub fn build(self) -> Graph {
        match self {
            ModelId::MobileNetEdgeTpu => mobilenet_edgetpu::build(),
            ModelId::SsdMobileNetV2 => ssd_mobilenet_v2::build(),
            ModelId::MobileDetSsd => mobiledet::build(),
            ModelId::DeepLabV3Plus => deeplab_v3plus::build(),
            ModelId::MobileBert => mobilebert::build(),
            ModelId::MobileRnnt => mobile_rnnt::build(),
            ModelId::EdsrMobile => edsr_mobile::build(),
        }
    }

    /// Canonical model name as used in result tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelId::MobileNetEdgeTpu => "MobileNetEdgeTPU",
            ModelId::SsdMobileNetV2 => "SSD-MobileNet v2",
            ModelId::MobileDetSsd => "MobileDET-SSD",
            ModelId::DeepLabV3Plus => "DeepLab v3+ MobileNet v2",
            ModelId::MobileBert => "MobileBERT",
            ModelId::MobileRnnt => "Mobile RNN-T",
            ModelId::EdsrMobile => "EDSR-mobile x2",
        }
    }

    /// Nominal parameter count from paper Table 1, in millions.
    #[must_use]
    pub fn nominal_params_m(self) -> f64 {
        match self {
            ModelId::MobileNetEdgeTpu => 4.0,
            ModelId::SsdMobileNetV2 => 17.0,
            ModelId::MobileDetSsd => 4.0,
            ModelId::DeepLabV3Plus => 2.0,
            ModelId::MobileBert => 25.0,
            // Extension models: no published counts; our design targets.
            ModelId::MobileRnnt => 23.0,
            ModelId::EdsrMobile => 0.12,
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build() {
        for id in ModelId::ALL {
            let g = id.build();
            assert!(!g.is_empty(), "{id} builds an empty graph");
            assert!(crate::graph::validate(&g).is_ok(), "{id} fails validation");
        }
    }

    #[test]
    fn params_within_2x_of_nominal() {
        for id in ModelId::ALL {
            let params_m = id.build().parameter_count() as f64 / 1e6;
            let nominal = id.nominal_params_m();
            let ratio = params_m / nominal;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{id}: {params_m:.2}M params vs nominal {nominal}M"
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = ModelId::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ModelId::ALL.len());
    }
}
