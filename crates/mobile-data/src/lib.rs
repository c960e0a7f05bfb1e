//! Synthetic stand-ins for the MLPerf Mobile datasets plus the
//! approved calibration-set selection.
//!
//! ImageNet 2012, COCO 2017, ADE20K and SQuAD v1.1 are licensed datasets;
//! per the substitution policy in DESIGN.md this crate generates seeded
//! synthetic equivalents with full ground truth. Calibration-set selection
//! is implemented for real, and the audit checks submissions against it.
//! Preprocessing is not run on pixels: `mlperf_mobile::ai_tax` models its
//! host cost.
//!
//! # Examples
//!
//! ```
//! use mobile_data::datasets::{Dataset, SyntheticImageNet};
//! use mobile_data::approved_calibration_indices;
//!
//! let imagenet = SyntheticImageNet::with_len(42, 1000);
//! assert!((1..=1000).contains(&imagenet.label(0)));
//! let calibration = approved_calibration_indices(7, imagenet.len(), 500);
//! assert_eq!(calibration.len(), 500);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod calibration_set;
pub mod datasets;
pub mod extended;
pub mod image;
pub mod types;

pub use calibration_set::{approved_calibration_indices, is_approved_set, CALIBRATION_SET_SIZE};
pub use datasets::{
    Dataset, QaSample, SyntheticAde20k, SyntheticCoco, SyntheticImageNet, SyntheticSquad,
};
pub use extended::{SyntheticDiv2k, SyntheticLibriSpeech, Utterance};
pub use image::Image;
pub use types::{AnswerSpan, BBox, Detection, GtObject, LabelMap};
