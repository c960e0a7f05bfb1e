//! Quality and performance metrics for the MLPerf Mobile reproduction.
//!
//! Real implementations of the four task quality metrics from paper
//! Table 1 — Top-1 accuracy, COCO mAP (101-point, IoU 0.50:0.95), mean IoU
//! over the benchmark's 31 evaluated ADE20K classes, SQuAD token F1 — plus
//! the run-rule performance statistics (90th-percentile latency,
//! throughput).
//!
//! # Examples
//!
//! ```
//! use mobile_metrics::latency::LatencyStats;
//!
//! let lat: Vec<u64> = (1..=1024).map(|i| i * 1_000).collect();
//! let stats = LatencyStats::from_latencies(&lat);
//! assert_eq!(stats.p90_ns, 922 * 1_000);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accuracy;
pub mod hist;
pub mod latency;
pub mod map;
pub mod miou;
pub mod psnr;
pub mod wer;

pub use accuracy::{span_exact_match, span_f1, squad_scores, top1_accuracy, topk_accuracy};
pub use hist::{LatencyHistogram, MAX_RELATIVE_ERROR, SUB_BUCKET_BITS};
pub use latency::{percentile_nearest_rank, throughput_fps, LatencyStats};
pub use map::{average_precision, coco_map};
pub use miou::{benchmark_eval_classes, benchmark_miou, ConfusionMatrix, IouCounts};
pub use psnr::{mean_psnr_db, noise_sigma_for_psnr, psnr_db};
pub use wer::{corpus_wer, edit_ops, utterance_wer, EditOps};
