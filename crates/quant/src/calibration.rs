//! Post-training calibration settings.
//!
//! The paper (Section 5.1) mandates that submitters quantize from the
//! frozen FP32 reference using *only* an approved calibration set —
//! "typically 500 samples or images from the training or validation data
//! set". This module holds that budget and the range-estimation strategies
//! a PTQ scheme names; the quality model prices both.

use serde::{Deserialize, Serialize};

/// Size of the approved calibration set (paper Section 5.1).
pub const APPROVED_CALIBRATION_SAMPLES: usize = 500;

/// Range-estimation strategy used during calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CalibrationMethod {
    /// Track the global min/max. Simple but outlier-sensitive.
    MinMax,
    /// Clip to the given two-sided percentile (e.g. 99.9), discarding
    /// outliers for a tighter scale.
    Percentile(f64),
}

impl Default for CalibrationMethod {
    fn default() -> Self {
        CalibrationMethod::Percentile(99.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approved_budget_is_500() {
        assert_eq!(APPROVED_CALIBRATION_SAMPLES, 500);
    }
}
