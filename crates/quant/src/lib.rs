//! Numerics for the MLPerf Mobile reproduction.
//!
//! Covers the paper's Section 5 ("Model Optimizations"): legal/illegal
//! deployment schemes, the approved 500-sample calibration budget, a
//! calibrated quality-impact model, and the structural model-equivalence
//! checks the audit performs.
//!
//! # Examples
//!
//! ```
//! use quant::{Scheme, Sensitivity, nominal_retention};
//! use nn_graph::models::ModelId;
//! use nn_graph::DataType;
//!
//! // INT8 PTQ keeps classification comfortably above its 98% gate...
//! let cls = Sensitivity::for_model(ModelId::MobileNetEdgeTpu);
//! assert!(nominal_retention(Scheme::ptq_default(DataType::U8), cls) >= 0.98);
//! // ...but barely clears the 93% NLP gate, which is why phones run FP16.
//! let nlp = Sensitivity::for_model(ModelId::MobileBert);
//! assert!(nominal_retention(Scheme::Fp16, nlp) > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod calibration;
mod equivalence;
mod quality;
mod scheme;

pub use calibration::CalibrationMethod;
pub use equivalence::{check_equivalence, EquivalenceViolation};
pub use quality::{nominal_retention, Sensitivity};
pub use scheme::Scheme;
