//! Mean intersection-over-union for semantic segmentation.
//!
//! Per the paper's Section 3.2, the benchmark's mIoU only counts pixels
//! whose *ground-truth* label is one of the 31 most frequent classes (class
//! 31, "other", is excluded from the ground-truth side but predictions may
//! still land there).
//!
//! Two tallies feed one formula. A dense [`ConfusionMatrix`] keeps every
//! `(gt, pred)` cell; [`IouCounts`] keeps only each class's true
//! positives, false positives and false negatives, which is all the mIoU
//! reads. Both are integer counts, so they sum exactly in any order and
//! give bit-equal scores over the same pixels.

use mobile_data::types::LabelMap;
use serde::{Deserialize, Serialize};

/// Dense confusion matrix over `n` classes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an `n x n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        ConfusionMatrix { n, counts: vec![0; n * n] }
    }

    /// Class count.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.n
    }

    /// Records one pixel: ground truth `gt`, prediction `pred`.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, gt: u8, pred: u8) {
        let (g, p) = (gt as usize, pred as usize);
        assert!(g < self.n && p < self.n, "label out of range");
        self.counts[g * self.n + p] += 1;
    }

    /// Records `count` pixels of the same `(gt, pred)` cell at once —
    /// equivalent to `count` calls to [`Self::record`]. Confusion counts
    /// are plain integers, so bulk accumulation is exact; callers that
    /// know a run of identical pixels (e.g. the mIoU calibration's
    /// all-correct baseline) skip the per-pixel loop.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record_n(&mut self, gt: u8, pred: u8, count: u64) {
        let (g, p) = (gt as usize, pred as usize);
        assert!(g < self.n && p < self.n, "label out of range");
        self.counts[g * self.n + p] += count;
    }

    /// Accumulates a full ground-truth/prediction map pair.
    ///
    /// # Panics
    ///
    /// Panics if the maps have different geometry.
    pub fn record_maps(&mut self, gt: &LabelMap, pred: &LabelMap) {
        assert_eq!((gt.height, gt.width), (pred.height, pred.width), "map size mismatch");
        for (&g, &p) in gt.labels.iter().zip(pred.labels.iter()) {
            self.record(g, p);
        }
    }

    /// Count of pixels with ground truth `gt` predicted as `pred`.
    #[must_use]
    pub fn count(&self, gt: u8, pred: u8) -> u64 {
        self.counts[gt as usize * self.n + pred as usize]
    }

    /// One class's `(tp, fp, fn)` read off the matrix.
    #[must_use]
    pub fn class_counts(&self, class: u8) -> (u64, u64, u64) {
        let c = class as usize;
        let tp = self.counts[c * self.n + c];
        let fp: u64 = (0..self.n).filter(|&g| g != c).map(|g| self.counts[g * self.n + c]).sum();
        let fn_: u64 = (0..self.n).filter(|&p| p != c).map(|p| self.counts[c * self.n + p]).sum();
        (tp, fp, fn_)
    }

    /// IoU of one class: `tp / (tp + fp + fn)`, or `None` if the class
    /// never appears in either role.
    #[must_use]
    pub fn class_iou(&self, class: u8) -> Option<f64> {
        iou(self.class_counts(class))
    }

    /// Mean IoU over the classes in `eval_classes` that actually occur.
    ///
    /// Returns 0 if none occur.
    #[must_use]
    pub fn mean_iou(&self, eval_classes: &[u8]) -> f64 {
        mean_iou(eval_classes, |c| self.class_counts(c))
    }
}

/// Per-class `(tp, fp, fn)` pixel counts over `n` classes: the part of a
/// [`ConfusionMatrix`] the mIoU reads, in `3n` integers instead of `n²`.
///
/// A pixel with ground truth `g` predicted as `p` is a true positive of
/// `g` when they agree, and otherwise a false negative of `g` and a false
/// positive of `p`. Tallies of disjoint pixel sets [`merge`](Self::merge)
/// exactly, so a dataset can be folded one sample at a time, in any order
/// or split, and [`Self::mean_iou`] still equals the confusion matrix's
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IouCounts {
    tp: Vec<u64>,
    fp: Vec<u64>,
    fn_: Vec<u64>,
}

impl IouCounts {
    /// Zero counts over `n` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        IouCounts { tp: vec![0; n], fp: vec![0; n], fn_: vec![0; n] }
    }

    /// Class count.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.tp.len()
    }

    /// Records one pixel: ground truth `gt`, prediction `pred`.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, gt: u8, pred: u8) {
        let (g, p) = (gt as usize, pred as usize);
        assert!(g < self.tp.len() && p < self.tp.len(), "label out of range");
        if g == p {
            self.tp[g] += 1;
        } else {
            self.fn_[g] += 1;
            self.fp[p] += 1;
        }
    }

    /// Accumulates a full ground-truth/prediction map pair.
    ///
    /// # Panics
    ///
    /// Panics if the maps have different geometry.
    pub fn record_maps(&mut self, gt: &LabelMap, pred: &LabelMap) {
        assert_eq!((gt.height, gt.width), (pred.height, pred.width), "map size mismatch");
        for (&g, &p) in gt.labels.iter().zip(pred.labels.iter()) {
            self.record(g, p);
        }
    }

    /// Adds another tally over the same classes.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &IouCounts) {
        assert_eq!(self.num_classes(), other.num_classes(), "class count mismatch");
        for (mine, theirs) in
            [(&mut self.tp, &other.tp), (&mut self.fp, &other.fp), (&mut self.fn_, &other.fn_)]
        {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// One class's `(tp, fp, fn)`.
    #[must_use]
    pub fn class_counts(&self, class: u8) -> (u64, u64, u64) {
        let c = class as usize;
        (self.tp[c], self.fp[c], self.fn_[c])
    }

    /// Mean IoU over the classes in `eval_classes` that actually occur —
    /// [`ConfusionMatrix::mean_iou`]'s formula.
    ///
    /// Returns 0 if none occur.
    #[must_use]
    pub fn mean_iou(&self, eval_classes: &[u8]) -> f64 {
        mean_iou(eval_classes, |c| self.class_counts(c))
    }
}

/// IoU from one class's `(tp, fp, fn)`: `tp / (tp + fp + fn)`, or `None`
/// if the class never appears in either role.
fn iou((tp, fp, fn_): (u64, u64, u64)) -> Option<f64> {
    let denom = tp + fp + fn_;
    if denom == 0 {
        None
    } else {
        Some(tp as f64 / denom as f64)
    }
}

/// The mIoU formula both tallies share: the mean of the IoUs of the
/// `eval_classes` that occur, summed in `eval_classes` order; 0 if none
/// occur.
fn mean_iou(eval_classes: &[u8], counts: impl Fn(u8) -> (u64, u64, u64)) -> f64 {
    let ious: Vec<f64> = eval_classes.iter().filter_map(|&c| iou(counts(c))).collect();
    if ious.is_empty() {
        0.0
    } else {
        ious.iter().sum::<f64>() / ious.len() as f64
    }
}

/// The benchmark's evaluation classes: the 31 frequent ADE20K classes
/// (0..=30); class 31 ("other") is excluded from the ground-truth side.
#[must_use]
pub fn benchmark_eval_classes() -> Vec<u8> {
    (0..31).collect()
}

/// Convenience: benchmark mIoU over whole datasets of map pairs. Accepts
/// owned maps or references (anything that borrows as a [`LabelMap`]), so
/// callers scoring existing prediction buffers need not clone them.
///
/// # Panics
///
/// Panics if slices differ in length.
#[must_use]
pub fn benchmark_miou<G, P>(gts: &[G], preds: &[P]) -> f64
where
    G: std::borrow::Borrow<LabelMap>,
    P: std::borrow::Borrow<LabelMap>,
{
    assert_eq!(gts.len(), preds.len());
    let mut cm = ConfusionMatrix::new(32);
    for (g, p) in gts.iter().zip(preds.iter()) {
        cm.record_maps(g.borrow(), p.borrow());
    }
    cm.mean_iou(&benchmark_eval_classes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_one() {
        let mut cm = ConfusionMatrix::new(32);
        for c in 0..31u8 {
            for _ in 0..10 {
                cm.record(c, c);
            }
        }
        assert!((cm.mean_iou(&benchmark_eval_classes()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_wrong_is_zero() {
        let mut cm = ConfusionMatrix::new(4);
        cm.record(0, 1);
        cm.record(1, 2);
        assert_eq!(cm.mean_iou(&[0, 1, 2]), 0.0);
    }

    #[test]
    fn half_right_single_class() {
        let mut cm = ConfusionMatrix::new(4);
        cm.record(0, 0);
        cm.record(0, 0);
        cm.record(0, 1); // one false negative for 0 / false positive for 1
        // class0: tp=2, fn=1, fp=0 -> 2/3.
        assert!((cm.class_iou(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absent_classes_excluded_from_mean() {
        let mut cm = ConfusionMatrix::new(32);
        cm.record(5, 5);
        // Only class 5 occurs: mean over {5} = 1.0 even though 30 other
        // eval classes exist.
        assert!((cm.mean_iou(&benchmark_eval_classes()) - 1.0).abs() < 1e-12);
        assert!(cm.class_iou(7).is_none());
    }

    #[test]
    fn other_class_not_evaluated() {
        let classes = benchmark_eval_classes();
        assert_eq!(classes.len(), 31);
        assert!(!classes.contains(&31));
    }

    #[test]
    fn map_pair_accumulation() {
        let mut gt = LabelMap::zeros(4, 4);
        let mut pred = LabelMap::zeros(4, 4);
        gt.labels[0] = 3;
        pred.labels[0] = 3;
        pred.labels[1] = 7; // gt 0 predicted as 7
        let miou = benchmark_miou(&[gt], &[pred]);
        // class0: tp=14, fp=0, fn=1 -> 14/15; class3: 1; class7: fp only -> 0.
        let expected = (14.0 / 15.0 + 1.0 + 0.0) / 3.0;
        assert!((miou - expected).abs() < 1e-9, "miou {miou} vs {expected}");
    }

    /// A tiny deterministic generator for random maps (xorshift).
    fn random_map(state: &mut u64, h: usize, w: usize, classes: u64) -> LabelMap {
        let mut map = LabelMap::zeros(h, w);
        for l in &mut map.labels {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *l = (*state % classes) as u8;
        }
        map
    }

    #[test]
    fn iou_counts_sum_to_the_confusion_matrix() {
        // Random map pairs, folded one sample at a time and in two halves
        // merged out of order: every class's (tp, fp, fn) equals the
        // confusion matrix's, and the mIoU is bit-equal to benchmark_miou.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..24 {
            let n = 1 + case % 7;
            // Few classes make some eval classes absent; 32 uses "other".
            let classes = [3, 8, 32][case % 3];
            let gts: Vec<LabelMap> =
                (0..n).map(|_| random_map(&mut state, 5, 9, classes)).collect();
            let preds: Vec<LabelMap> =
                (0..n).map(|_| random_map(&mut state, 5, 9, classes)).collect();
            let mut cm = ConfusionMatrix::new(32);
            let mut whole = IouCounts::new(32);
            let (mut front, mut back) = (IouCounts::new(32), IouCounts::new(32));
            for (i, (g, p)) in gts.iter().zip(&preds).enumerate() {
                cm.record_maps(g, p);
                whole.record_maps(g, p);
                if i < n / 2 { &mut front } else { &mut back }.record_maps(g, p);
            }
            back.merge(&front);
            assert_eq!(back, whole, "merge order must not matter");
            for c in 0..32u8 {
                assert_eq!(whole.class_counts(c), cm.class_counts(c), "class {c}");
            }
            let want = benchmark_miou(&gts, &preds);
            assert_eq!(whole.mean_iou(&benchmark_eval_classes()).to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "map size mismatch")]
    fn mismatched_maps_panic() {
        let mut cm = ConfusionMatrix::new(32);
        cm.record_maps(&LabelMap::zeros(2, 2), &LabelMap::zeros(3, 3));
    }
}
