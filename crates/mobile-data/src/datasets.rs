//! Seeded synthetic stand-ins for the four benchmark datasets.
//!
//! Each dataset generates its ground truth deterministically from
//! `(dataset_seed, sample_index)`, so the whole suite is reproducible from
//! a single seed — mirroring the LoadGen's seeded sample selection (paper
//! Section 4.1). Ground truth and token streams are produced lazily.

use crate::types::{AnswerSpan, BBox, GtObject, LabelMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common interface over the synthetic datasets.
pub trait Dataset {
    /// Dataset name as reported in logs.
    fn name(&self) -> &str;
    /// Number of samples in the (validation) split.
    fn len(&self) -> usize;
    /// True if the dataset has no samples (never, for these).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn sample_rng(seed: u64, index: usize) -> StdRng {
    // Mix index into the seed with a splitmix-style finalizer so nearby
    // indices produce unrelated streams.
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

// ---------------------------------------------------------------------------
// ImageNet (classification)
// ---------------------------------------------------------------------------

/// Synthetic ImageNet-2012 validation split: 50 000 samples, 1000 classes.
#[derive(Debug, Clone)]
pub struct SyntheticImageNet {
    seed: u64,
    len: usize,
}

/// ImageNet class count (background class 0 excluded from labels).
pub const IMAGENET_CLASSES: u32 = 1000;
/// Official validation-split size.
pub const IMAGENET_VAL_LEN: usize = 50_000;

impl SyntheticImageNet {
    /// Full-size validation split.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_len(seed, IMAGENET_VAL_LEN)
    }

    /// Reduced split for fast tests.
    #[must_use]
    pub fn with_len(seed: u64, len: usize) -> Self {
        SyntheticImageNet { seed, len }
    }

    /// Ground-truth label for a sample (1..=1000; 0 is background).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn label(&self, index: usize) -> u32 {
        assert!(index < self.len);
        sample_rng(self.seed, index).gen_range(1..=IMAGENET_CLASSES)
    }
}

impl Dataset for SyntheticImageNet {
    fn name(&self) -> &str {
        "ImageNet 2012 (synthetic)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// COCO (detection)
// ---------------------------------------------------------------------------

/// Synthetic COCO-2017 validation split: 5000 samples, 90 categories.
#[derive(Debug, Clone)]
pub struct SyntheticCoco {
    seed: u64,
    len: usize,
}

/// COCO category count (ids 1..=90).
pub const COCO_CLASSES: u32 = 90;
/// Official validation-split size.
pub const COCO_VAL_LEN: usize = 5_000;

impl SyntheticCoco {
    /// Full-size validation split.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_len(seed, COCO_VAL_LEN)
    }

    /// Reduced split for fast tests.
    #[must_use]
    pub fn with_len(seed: u64, len: usize) -> Self {
        SyntheticCoco { seed, len }
    }

    /// Ground-truth objects for a sample (1–8 boxes).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn objects(&self, index: usize) -> Vec<GtObject> {
        assert!(index < self.len);
        let mut rng = sample_rng(self.seed, index);
        let n = rng.gen_range(1..=8);
        (0..n)
            .map(|_| {
                let cx: f32 = rng.gen_range(0.1..0.9);
                let cy: f32 = rng.gen_range(0.1..0.9);
                let w: f32 = rng.gen_range(0.05..0.4);
                let h: f32 = rng.gen_range(0.05..0.4);
                GtObject {
                    class: rng.gen_range(1..=COCO_CLASSES),
                    bbox: BBox::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0),
                }
            })
            .collect()
    }
}

impl Dataset for SyntheticCoco {
    fn name(&self) -> &str {
        "COCO 2017 (synthetic)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// ADE20K (segmentation)
// ---------------------------------------------------------------------------

/// Synthetic ADE20K validation split with the benchmark's 32-class
/// remapping (31 frequent classes + "other"; paper Section 3.2).
#[derive(Debug, Clone)]
pub struct SyntheticAde20k {
    seed: u64,
    len: usize,
    resolution: usize,
}

/// Benchmark class count after remapping.
pub const ADE20K_CLASSES: u8 = 32;
/// Official validation-split size.
pub const ADE20K_VAL_LEN: usize = 2_000;

impl SyntheticAde20k {
    /// Full split at evaluation resolution 64 (maps are class-statistics
    /// equivalent to 512x512; see DESIGN.md quality model).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, ADE20K_VAL_LEN, 64)
    }

    /// Custom split size and label-map resolution.
    ///
    /// # Panics
    ///
    /// Panics if resolution is zero.
    #[must_use]
    pub fn with_params(seed: u64, len: usize, resolution: usize) -> Self {
        assert!(resolution > 0);
        SyntheticAde20k { seed, len, resolution }
    }

    /// Label-map resolution (square).
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Generator seed; together with `len` and `resolution` it fully
    /// determines every label map, so `(seed, len, resolution)` is a
    /// complete identity key for derived-statistics caches.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ground-truth label map: blocky regions of 2–6 classes, biased
    /// toward frequent classes like real scene parsing data.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn label_map(&self, index: usize) -> LabelMap {
        assert!(index < self.len);
        let mut rng = sample_rng(self.seed, index);
        let r = self.resolution;
        let mut map = LabelMap::zeros(r, r);
        // Background region: a frequent class.
        let bg: u8 = rng.gen_range(0..6);
        map.labels.fill(bg);
        // Superimpose 2-6 rectangular "objects".
        let regions = rng.gen_range(2..=6);
        for _ in 0..regions {
            // Zipf-ish class bias: frequent classes dominate.
            let class: u8 = if rng.gen_bool(0.7) {
                rng.gen_range(0..8)
            } else {
                rng.gen_range(8..ADE20K_CLASSES)
            };
            let y0 = rng.gen_range(0..r);
            let x0 = rng.gen_range(0..r);
            let h = rng.gen_range(r / 8..=r / 2);
            let w = rng.gen_range(r / 8..=r / 2);
            for y in y0..(y0 + h).min(r) {
                for x in x0..(x0 + w).min(r) {
                    map.labels[y * r + x] = class;
                }
            }
        }
        map
    }
}

impl Dataset for SyntheticAde20k {
    fn name(&self) -> &str {
        "ADE20K (synthetic, 32-class)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// SQuAD (question answering)
// ---------------------------------------------------------------------------

/// One synthetic QA sample: passage/question token ids plus answer span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QaSample {
    /// Concatenated question+passage token ids (WordPiece-style).
    pub tokens: Vec<u32>,
    /// Ground-truth answer span over `tokens`.
    pub answer: AnswerSpan,
}

/// Synthetic "mini SQuAD v1.1 dev" split (paper Table 1).
#[derive(Debug, Clone)]
pub struct SyntheticSquad {
    seed: u64,
    len: usize,
}

/// Mini-dev split size used by the benchmark app.
pub const SQUAD_MINI_DEV_LEN: usize = 2_000;
/// Maximum sequence length MobileBERT was trained with.
pub const SQUAD_MAX_SEQ: usize = 384;
/// WordPiece vocabulary size.
pub const SQUAD_VOCAB: u32 = 30_522;

impl SyntheticSquad {
    /// Full mini-dev split.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_len(seed, SQUAD_MINI_DEV_LEN)
    }

    /// Reduced split for fast tests.
    #[must_use]
    pub fn with_len(seed: u64, len: usize) -> Self {
        SyntheticSquad { seed, len }
    }

    /// The QA sample at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn sample(&self, index: usize) -> QaSample {
        assert!(index < self.len);
        let mut rng = sample_rng(self.seed, index);
        let seq_len = rng.gen_range(128..=SQUAD_MAX_SEQ);
        let tokens: Vec<u32> = (0..seq_len).map(|_| rng.gen_range(5..SQUAD_VOCAB)).collect();
        // Answers live in the passage part (after the ~10-30 token question).
        let question_len = rng.gen_range(10..30);
        let ans_len = rng.gen_range(1..=8u32);
        let latest_start = seq_len as u32 - ans_len;
        let start = rng.gen_range(question_len as u32..latest_start);
        QaSample { tokens, answer: AnswerSpan::new(start, start + ans_len - 1) }
    }
}

impl Dataset for SyntheticSquad {
    fn name(&self) -> &str {
        "Mini SQuAD v1.1 dev (synthetic)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imagenet_labels_deterministic_and_in_range() {
        let d = SyntheticImageNet::with_len(7, 100);
        for i in 0..100 {
            let l = d.label(i);
            assert!((1..=IMAGENET_CLASSES).contains(&l));
            assert_eq!(l, SyntheticImageNet::with_len(7, 100).label(i));
        }
    }

    #[test]
    fn imagenet_labels_spread() {
        let d = SyntheticImageNet::with_len(1, 2000);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000 {
            seen.insert(d.label(i));
        }
        assert!(seen.len() > 500, "only {} distinct labels", seen.len());
    }

    #[test]
    fn coco_boxes_valid() {
        let d = SyntheticCoco::with_len(3, 50);
        for i in 0..50 {
            let objs = d.objects(i);
            assert!(!objs.is_empty() && objs.len() <= 8);
            for o in objs {
                assert!((1..=COCO_CLASSES).contains(&o.class));
                assert!(o.bbox.area() > 0.0);
            }
        }
    }

    #[test]
    fn ade20k_maps_use_32_classes() {
        let d = SyntheticAde20k::with_params(5, 20, 64);
        for i in 0..20 {
            let m = d.label_map(i);
            assert_eq!(m.len(), 64 * 64);
            assert!(m.labels.iter().all(|&l| l < ADE20K_CLASSES));
        }
    }

    #[test]
    fn ade20k_frequent_classes_dominate() {
        let d = SyntheticAde20k::with_params(11, 200, 32);
        let mut freq = 0u64;
        let mut rare = 0u64;
        for i in 0..200 {
            for &l in &d.label_map(i).labels {
                if l < 8 {
                    freq += 1;
                } else {
                    rare += 1;
                }
            }
        }
        assert!(freq > 3 * rare, "frequent {freq} vs rare {rare}");
    }

    #[test]
    fn squad_answers_inside_sequence() {
        let d = SyntheticSquad::with_len(9, 100);
        for i in 0..100 {
            let s = d.sample(i);
            assert!(s.tokens.len() <= SQUAD_MAX_SEQ);
            assert!((s.answer.end as usize) < s.tokens.len());
            assert!(s.answer.len() <= 8);
        }
    }

    #[test]
    fn different_seeds_different_data() {
        let a = SyntheticSquad::with_len(1, 10).sample(0);
        let b = SyntheticSquad::with_len(2, 10).sample(0);
        assert_ne!(a, b);
    }

    #[test]
    fn dataset_trait_lens() {
        assert_eq!(SyntheticImageNet::new(0).len(), 50_000);
        assert_eq!(SyntheticCoco::new(0).len(), 5_000);
        assert_eq!(SyntheticAde20k::new(0).len(), 2_000);
        assert_eq!(SyntheticSquad::new(0).len(), 2_000);
        assert!(!SyntheticSquad::new(0).is_empty());
    }
}
