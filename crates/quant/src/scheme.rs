//! Deployment numerics schemes and the submission rules that govern them.
//!
//! Paper Section 5.1: submissions must start from the frozen FP32
//! reference; post-training quantization (PTQ) with the approved
//! calibration set is allowed, quantization-aware training (QAT) is not —
//! unless all participants mutually agreed on a provided reference QAT
//! model. Pruning/weight-skipping is banned outright.

use crate::calibration::CalibrationMethod;
use nn_graph::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a submitter deploys the reference model numerically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Unmodified FP32 reference.
    Fp32,
    /// FP16 cast — mathematically-equivalent approximation, always allowed.
    Fp16,
    /// Post-training quantization to 8-bit with the given calibration
    /// method, using only the approved calibration set.
    PtqInt8 {
        /// Calibration strategy used to derive ranges.
        method: CalibrationMethod,
        /// Signed (`I8`) or unsigned (`U8`) deployment.
        dtype: DataType,
    },
    /// Quantization-aware-trained 8-bit model. Only legal if it is the
    /// mutually-agreed reference QAT checkpoint.
    QatInt8 {
        /// Whether this is the provided reference QAT model.
        reference_model: bool,
    },
}

impl Scheme {
    /// Convenience constructor for the default PTQ pipeline.
    #[must_use]
    pub fn ptq_default(dtype: DataType) -> Self {
        Scheme::PtqInt8 { method: CalibrationMethod::default(), dtype }
    }

    /// Element type tensors carry under this scheme.
    #[must_use]
    pub fn dtype(self) -> DataType {
        match self {
            Scheme::Fp32 => DataType::F32,
            Scheme::Fp16 => DataType::F16,
            Scheme::PtqInt8 { dtype, .. } => dtype,
            Scheme::QatInt8 { .. } => DataType::I8,
        }
    }

    /// Whether the scheme is legal under the MLPerf Mobile run rules.
    #[must_use]
    pub fn is_submission_legal(self) -> bool {
        match self {
            Scheme::Fp32 | Scheme::Fp16 | Scheme::PtqInt8 { .. } => true,
            // QAT retraining is banned; the provided reference QAT model is
            // the one exception (paper Section 5.1).
            Scheme::QatInt8 { reference_model } => reference_model,
        }
    }

    /// Whether the scheme quantizes to 8 bits.
    #[must_use]
    pub fn is_quantized(self) -> bool {
        self.dtype().is_quantized()
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Fp32 => write!(f, "FP32"),
            Scheme::Fp16 => write!(f, "FP16"),
            Scheme::PtqInt8 { dtype, .. } => write!(f, "{dtype} (PTQ)"),
            Scheme::QatInt8 { .. } => write!(f, "INT8 (QAT)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtypes_match_scheme() {
        assert_eq!(Scheme::Fp32.dtype(), DataType::F32);
        assert_eq!(Scheme::Fp16.dtype(), DataType::F16);
        assert_eq!(Scheme::ptq_default(DataType::U8).dtype(), DataType::U8);
        assert_eq!(Scheme::QatInt8 { reference_model: true }.dtype(), DataType::I8);
    }

    #[test]
    fn qat_only_legal_as_reference() {
        assert!(Scheme::QatInt8 { reference_model: true }.is_submission_legal());
        assert!(!Scheme::QatInt8 { reference_model: false }.is_submission_legal());
    }

    #[test]
    fn ptq_and_floats_always_legal() {
        assert!(Scheme::Fp32.is_submission_legal());
        assert!(Scheme::Fp16.is_submission_legal());
        assert!(Scheme::ptq_default(DataType::I8).is_submission_legal());
    }

    #[test]
    fn display_matches_table2_vocabulary() {
        assert_eq!(Scheme::Fp16.to_string(), "FP16");
        assert_eq!(Scheme::ptq_default(DataType::U8).to_string(), "UINT8 (PTQ)");
    }
}
