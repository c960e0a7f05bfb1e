//! Statistical inference simulation (see DESIGN.md, "Quality model").
//!
//! Real weights are unavailable, so predictions are generated from ground
//! truth degraded at the rate implied by the deployment's quality
//! retention (FP32 reference quality x numerics retention from the
//! `quant` crate). The *metrics* that score these predictions are the real
//! algorithms in `mobile-metrics`; only the predictor is synthetic.

use mobile_data::datasets::{
    SyntheticAde20k, SyntheticCoco, SyntheticImageNet, SyntheticSquad, ADE20K_CLASSES,
    COCO_CLASSES, IMAGENET_CLASSES,
};
use mobile_data::extended::{SyntheticDiv2k, SyntheticLibriSpeech, SPEECH_VOCAB};
use mobile_data::image::Image;
use mobile_data::types::{AnswerSpan, BBox, Detection, LabelMap};
use mobile_metrics::miou::IouCounts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Low-discrepancy uniform in `[0, 1)` for hit/miss decisions: the golden
/// ratio sequence over `index`, phase-shifted by the seed. Stratified, so
/// the empirical hit rate over N consecutive indices deviates from the
/// target probability by O(1/N) instead of the O(1/sqrt(N)) of iid draws —
/// the measured accuracy converges to the quality model's target even on
/// reduced test datasets.
fn stratified01(seed: u64, index: u64) -> f64 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let offset = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    (index as f64 * PHI + offset).fract()
}

fn rng_for(seed: u64, sample: usize) -> StdRng {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(0xA5A5_5A5A_DEAD_BEEF)
        ^ (sample as u64).wrapping_mul(0xD134_2543_DE82_EF95);
    z = (z ^ (z >> 29)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    StdRng::seed_from_u64(z ^ (z >> 32))
}

/// Predicts a classification label: correct with probability
/// `target_accuracy`, otherwise a uniformly wrong label.
#[must_use]
pub fn classify(dataset: &SyntheticImageNet, sample: usize, target_accuracy: f64, seed: u64) -> u32 {
    let gt = dataset.label(sample);
    let mut rng = rng_for(seed, sample);
    if stratified01(seed, sample as u64) < target_accuracy.clamp(0.0, 1.0) {
        gt
    } else {
        // A wrong label distinct from the ground truth.
        let mut wrong = rng.gen_range(1..=IMAGENET_CLASSES);
        if wrong == gt {
            wrong = if gt == IMAGENET_CLASSES { 1 } else { gt + 1 };
        }
        wrong
    }
}

/// Predicts detections: each ground-truth object is found with probability
/// `target_map` (with tight boxes, no-false-positive mAP equals recall),
/// plus occasional low-scored false positives that exercise the
/// precision-recall machinery without moving the score materially.
#[must_use]
pub fn detect(dataset: &SyntheticCoco, sample: usize, target_map: f64, seed: u64) -> Vec<Detection> {
    let gt = dataset.objects(sample);
    let mut rng = rng_for(seed, sample);
    let mut out = Vec::new();
    // The 101-point interpolation floor and the occasional false positive
    // shave ~4% off the raw hit rate; compensate so the dataset-level mAP
    // lands on target.
    let hit_rate = (target_map * 1.045).clamp(0.0, 1.0);
    for (oi, obj) in gt.iter().enumerate() {
        if stratified01(seed, (sample * 8 + oi) as u64) < hit_rate {
            // Tiny jitter: IoU stays above the strictest 0.95 threshold.
            let jx = rng.gen_range(-0.001..0.001f32);
            let jy = rng.gen_range(-0.001..0.001f32);
            out.push(Detection {
                class: obj.class,
                score: rng.gen_range(0.6..0.99),
                bbox: BBox::new(
                    obj.bbox.x_min + jx,
                    obj.bbox.y_min + jy,
                    obj.bbox.x_max + jx,
                    obj.bbox.y_max + jy,
                ),
            });
        }
    }
    // Rare low-confidence false positive.
    if rng.gen_bool(0.05) {
        out.push(Detection {
            class: rng.gen_range(1..=COCO_CLASSES),
            score: rng.gen_range(0.05..0.15),
            bbox: BBox::new(0.01, 0.01, 0.05, 0.05),
        });
    }
    out
}

/// Predicts a segmentation map: each pixel keeps its ground-truth label
/// with probability `pixel_accuracy`, otherwise flips to a random other
/// class. Use [`pixel_accuracy_for_miou`] to derive the rate from a target
/// mIoU.
#[must_use]
pub fn segment(dataset: &SyntheticAde20k, sample: usize, pixel_accuracy: f64, seed: u64) -> LabelMap {
    let mut pred = dataset.label_map(sample);
    degrade_labels(&mut pred.labels, sample, pixel_accuracy, seed);
    pred
}

/// Folds [`segment`]'s prediction for `sample` into `counts` against the
/// sample's ground truth, which it generates once, and keeps no map:
/// the same tally as `counts.record_maps(&dataset.label_map(sample),
/// &segment(dataset, sample, pixel_accuracy, seed))`.
pub fn segment_counts(
    dataset: &SyntheticAde20k,
    sample: usize,
    pixel_accuracy: f64,
    seed: u64,
    counts: &mut IouCounts,
) {
    let gt = dataset.label_map(sample);
    let mut pred = gt.clone();
    degrade_labels(&mut pred.labels, sample, pixel_accuracy, seed);
    counts.record_maps(&gt, &pred);
}

/// [`segment`]'s per-pixel draw, in place: turns the ground-truth
/// `labels` of `sample` into its prediction.
fn degrade_labels(labels: &mut [u8], sample: usize, pixel_accuracy: f64, seed: u64) {
    let mut rng = rng_for(seed, sample);
    let base = (sample as u64) << 20;
    for (pi, l) in labels.iter_mut().enumerate() {
        if stratified01(seed, base + pi as u64) >= pixel_accuracy.clamp(0.0, 1.0) {
            let mut wrong = rng.gen_range(0..ADE20K_CLASSES);
            if wrong == *l {
                wrong = (wrong + 1) % ADE20K_CLASSES;
            }
            *l = wrong;
        }
    }
}

/// Process-wide memo for [`pixel_accuracy_for_miou`], keyed by the full
/// identity of the inversion: dataset generator parameters plus the exact
/// target bits. The bisection below costs 24 probes x up-to-64 simulated
/// `segment()` calls, and every suite run over the same dataset scale
/// repeats it with identical inputs — across a parallel sweep the same
/// inversion would otherwise run once per (chip, backend) pair.
///
/// [`noise_sigma_for_psnr`] keeps the analogous memo (same shape, same
/// lock discipline) so a sweep's super-resolution cells share one
/// inversion per `(dataset, target)` pair too.
static MIOU_CALIBRATION: std::sync::Mutex<Option<CalibrationMap>> =
    std::sync::Mutex::new(None);

/// `(dataset seed, len, resolution, target-mIoU bits)`.
type MiouCalKey = (u64, usize, usize, u64);

/// [`MiouCalKey`] -> pixel accuracy.
type CalibrationMap = std::collections::HashMap<MiouCalKey, f64>;

/// Process-wide memo for [`noise_sigma_for_psnr`], keyed by
/// `(dataset seed, len, HR height, HR width, target-PSNR bits)` -> sigma.
static PSNR_CALIBRATION: std::sync::Mutex<Option<PsnrCalibrationMap>> =
    std::sync::Mutex::new(None);

type PsnrCalibrationMap = std::collections::HashMap<(u64, usize, usize, usize, u64), f64>;

/// Inverts the PSNR curve for this dataset's dynamic range: the noise
/// sigma at which [`reconstruct`]'s predictions land on `target_psnr`.
///
/// The inversion itself is closed-form (`sigma = peak * 10^(-psnr/20)`
/// with the synthetic pipeline's unit peak), but like
/// [`pixel_accuracy_for_miou`] the result is memoized process-wide on the
/// dataset's identity plus the exact target bits, computed outside the
/// lock — every `(chip, backend)` pair sweeping the same dataset shares
/// one inversion, and the memo's hit path is what a future non-closed-form
/// quality model (a measured PSNR curve, say) would need anyway.
#[must_use]
pub fn noise_sigma_for_psnr(dataset: &SyntheticDiv2k, target_psnr: f64) -> f64 {
    use mobile_data::datasets::Dataset;
    let (h, w) = dataset.hr_size();
    let key = (dataset.seed(), dataset.len(), h, w, target_psnr.to_bits());
    {
        let mut cache = PSNR_CALIBRATION.lock().unwrap();
        if let Some(&hit) = cache.get_or_insert_with(Default::default).get(&key) {
            return hit;
        }
    }
    // Invert outside the lock, mirroring the mIoU calibration: other
    // dataset keys should not wait, and a rare duplicate is deterministic.
    let sigma = mobile_metrics::psnr::noise_sigma_for_psnr(target_psnr, 1.0);
    let mut cache = PSNR_CALIBRATION.lock().unwrap();
    cache.get_or_insert_with(Default::default).insert(key, sigma);
    sigma
}

/// Numerically inverts the mIoU curve: finds the per-pixel accuracy that
/// produces `target_miou` on this dataset's class statistics.
///
/// Deterministic (fixed calibration seed) and monotone, solved by
/// bisection over a 24-sample calibration subset. Results are memoized
/// process-wide on `(dataset seed, len, resolution, target bits)`, so
/// concurrent benchmark runs over the same dataset pay for the bisection
/// once.
///
/// # Panics
///
/// Panics if the dataset has no samples.
#[must_use]
pub fn pixel_accuracy_for_miou(dataset: &SyntheticAde20k, target_miou: f64) -> f64 {
    use mobile_data::datasets::Dataset;
    let key = (dataset.seed(), dataset.len(), dataset.resolution(), target_miou.to_bits());
    {
        let mut cache = MIOU_CALIBRATION.lock().unwrap();
        if let Some(&hit) = cache.get_or_insert_with(Default::default).get(&key) {
            return hit;
        }
    }
    // Shipped table first, then bisect outside the lock: other dataset
    // keys should not wait on this one, and a rare duplicate bisection is
    // deterministic anyway.
    let q = SHIPPED_MIOU_CALIBRATION
        .iter()
        .find(|(k, _)| *k == key)
        .map_or_else(|| pixel_accuracy_for_miou_uncached(dataset, target_miou), |&(_, bits)| {
            f64::from_bits(bits)
        });
    let mut cache = MIOU_CALIBRATION.lock().unwrap();
    cache.get_or_insert_with(Default::default).insert(key, q);
    q
}

/// The calibration seed [`pixel_accuracy_for_miou`] probes with.
const MIOU_CALIBRATION_SEED: u64 = 0xCA11_B8A7E;

/// Shipped calibration table: bisection results for the standard
/// benchmark configurations, keyed exactly like the process memo
/// (`(dataset seed, len, resolution, target-mIoU bits)` -> accuracy
/// bits). MLPerf distributions ship calibration data alongside the
/// benchmark; this table plays that role for the synthetic quality model,
/// sparing the suite's hot path the one-time 24-probe bisection that
/// otherwise lands inside the first segmentation run of a sweep. Every
/// entry is verified bit-exact against the live bisection by
/// `shipped_calibration_matches_bisection` below, which also prints the
/// corrected row if the quality model or dataset generator ever changes.
const SHIPPED_MIOU_CALIBRATION: &[(MiouCalKey, u64)] = &[
    // V1.0 segmentation quality gate on the Reduced(48), seed-7,
    // resolution-64 dataset every smoke-rules suite run uses.
    ((7, 48, 64, 0x3fe1_3868_fd19_9bb3), 0x3fed_91a5_f000_0000),
];

fn pixel_accuracy_for_miou_uncached(dataset: &SyntheticAde20k, target_miou: f64) -> f64 {
    use mobile_data::datasets::Dataset;
    use mobile_metrics::miou::{benchmark_eval_classes, ConfusionMatrix};
    assert!(dataset.len() > 0);
    // Each probe simulates `segment()` on the same calibration subset, and
    // `segment()` flips pixel `pi` exactly when its stratified01 draw —
    // which depends only on (seed, sample, pi), never on the probed
    // accuracy `q` — lands at or above `q`. So the 24-probe bisection can
    // hoist every q-independent quantity out of the loop: the ground-truth
    // maps, the per-pixel flip thresholds, the all-correct diagonal of the
    // confusion matrix, and even the wrong-label RNG stream itself — the
    // k-th flipped pixel (in pixel order) consumes `segment()`'s k-th draw
    // no matter *which* pixel it is, so one lazily-extended draw vector
    // per sample serves every probe.
    //
    // The bisection bracket then carries the partition the probes need:
    // once `hi` has moved down, every pixel with threshold >= hi flips at
    // *every* remaining probe (all future probes are < hi), and once `lo`
    // has moved up, pixels with threshold <= lo can never flip again. Each
    // sample therefore keeps an `always` list (pixel order, settled
    // flippers) and an `active` band (lo < threshold < hi) that roughly
    // halves at every probe — no per-probe full-image scan and no sorted
    // index to build. A probe merges `always` with the passing slice of
    // `active`, preserving pixel order so draw k lands on the k-th flipped
    // pixel exactly as `segment()`'s serial walk would. The resulting
    // confusion counts are integer-identical to a full `record_maps` pass,
    // so the measured mIoU (and therefore the bisection result) matches
    // the naive probe bit-for-bit. The tests below keep the naive probe as
    // an oracle.
    struct CalSample {
        gt: LabelMap,
        /// Pixels with threshold >= hi — flipped at every remaining probe.
        /// Pixel order.
        always: Vec<u32>,
        /// Undecided pixels (lo < threshold < hi), pixel order.
        active: Vec<(u32, f64)>,
        /// `segment()`'s wrong-label draw stream, extended on demand.
        draws: Vec<u8>,
        rng: StdRng,
    }
    /// Merges two pixel-index lists, each already in pixel order.
    fn merge_sorted(a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }
    let n = dataset.len().min(64);
    let mut samples: Vec<CalSample> = (0..n)
        .map(|i| {
            let gt = dataset.label_map(i);
            let base = (i as u64) << 20;
            let active = (0..gt.labels.len())
                .map(|pi| (pi as u32, stratified01(MIOU_CALIBRATION_SEED, base + pi as u64)))
                .collect();
            CalSample {
                gt,
                always: Vec::new(),
                active,
                draws: Vec::new(),
                rng: rng_for(MIOU_CALIBRATION_SEED, i),
            }
        })
        .collect();
    let mut gt_counts = vec![0u64; ADE20K_CLASSES as usize];
    for s in &samples {
        for &l in &s.gt.labels {
            gt_counts[l as usize] += 1;
        }
    }
    let eval_classes = benchmark_eval_classes();
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        let q = mid.clamp(0.0, 1.0);
        let mut cm = ConfusionMatrix::new(ADE20K_CLASSES as usize);
        let mut flipped = vec![0u64; ADE20K_CLASSES as usize];
        /// One flip: the k-th flipped pixel (pixel order) takes the k-th
        /// wrong-label draw, extending the sample's draw stream on demand
        /// (k never skips ahead, so the stream grows one draw at a time in
        /// `segment()`'s exact order).
        fn flip_one(
            cm: &mut ConfusionMatrix,
            flipped: &mut [u64],
            s: &mut CalSample,
            k: usize,
            pi: u32,
        ) {
            if k == s.draws.len() {
                s.draws.push(s.rng.gen_range(0..ADE20K_CLASSES));
            }
            let l = s.gt.labels[pi as usize];
            let mut wrong = s.draws[k];
            if wrong == l {
                wrong = (wrong + 1) % ADE20K_CLASSES;
            }
            cm.record(l, wrong);
            flipped[l as usize] += 1;
        }
        for s in &mut samples {
            // Merge the settled flippers with the passing active pixels,
            // keeping pixel order across both lists.
            let mut k = 0usize;
            let mut ai = 0usize;
            for idx in 0..s.active.len() {
                let (pi, t) = s.active[idx];
                if t < q {
                    continue;
                }
                while ai < s.always.len() && s.always[ai] < pi {
                    let a = s.always[ai];
                    ai += 1;
                    flip_one(&mut cm, &mut flipped, s, k, a);
                    k += 1;
                }
                flip_one(&mut cm, &mut flipped, s, k, pi);
                k += 1;
            }
            while ai < s.always.len() {
                let a = s.always[ai];
                ai += 1;
                flip_one(&mut cm, &mut flipped, s, k, a);
                k += 1;
            }
        }
        for (c, (&total, &bad)) in gt_counts.iter().zip(&flipped).enumerate() {
            cm.record_n(c as u8, c as u8, total - bad);
        }
        if cm.mean_iou(&eval_classes) < target_miou {
            // Accuracy goes up: thresholds <= mid can never flip again.
            lo = mid;
            for s in &mut samples {
                s.active.retain(|&(_, t)| t > mid);
            }
        } else {
            // Accuracy comes down: thresholds >= mid flip at every
            // remaining probe — settle them into `always`.
            hi = mid;
            for s in &mut samples {
                let mut moved = Vec::new();
                s.active.retain(|&(pi, t)| {
                    if t >= mid {
                        moved.push(pi);
                        false
                    } else {
                        true
                    }
                });
                if !moved.is_empty() {
                    let settled = std::mem::take(&mut s.always);
                    s.always = merge_sorted(settled, moved);
                }
            }
        }
    }
    (lo + hi) / 2.0
}

/// Predicts an answer span: exact with probability `target_f1` adjusted
/// for the partial credit of near misses; otherwise off-by-one (partial
/// F1) or disjoint (zero F1).
#[must_use]
pub fn answer(dataset: &SyntheticSquad, sample: usize, target_f1: f64, seed: u64) -> AnswerSpan {
    let qa = dataset.sample(sample);
    let gt = qa.answer;
    let mut rng = rng_for(seed, sample);
    // Near-miss rate is fixed; exact-match rate solves
    //   E[F1] = p_exact + p_miss * f1_miss = target.
    let p_miss = 0.08;
    let len = f64::from(gt.len());
    // Token F1 of an off-by-one span of the same length: overlap len-1.
    let f1_miss = if gt.len() > 1 { (len - 1.0) / len } else { 0.0 };
    // E[F1] = p_exact + p_miss * f1_miss  =>  solve for p_exact.
    let p_exact = (target_f1 - p_miss * f1_miss).clamp(0.0, 1.0);
    let roll: f64 = stratified01(seed, sample as u64);
    if roll < p_exact {
        gt
    } else if roll < p_exact + p_miss && gt.start > 0 && gt.len() > 1 {
        // Off-by-one span of the same length: overlap len-1.
        AnswerSpan::new(gt.start - 1, gt.end - 1)
    } else {
        // Disjoint span early in the sequence.
        let start = rng.gen_range(0..5u32);
        AnswerSpan::new(start, start + 1)
    }
}

/// Predicts a transcript: each reference word survives with probability
/// `target_word_accuracy`; errors split into substitutions (70%),
/// deletions (15%) and insertions (15%), so the corpus WER lands on
/// `1 - target_word_accuracy`.
#[must_use]
pub fn transcribe(
    dataset: &SyntheticLibriSpeech,
    sample: usize,
    target_word_accuracy: f64,
    seed: u64,
) -> Vec<u32> {
    let gt = dataset.utterance(sample).transcript;
    let mut rng = rng_for(seed, sample);
    let err = (1.0 - target_word_accuracy).clamp(0.0, 1.0);
    let mut out = Vec::with_capacity(gt.len());
    for (wi, &w) in gt.iter().enumerate() {
        let roll = stratified01(seed, (sample * 32 + wi) as u64);
        if roll >= 0.85 * err {
            out.push(w); // survives
        } else if roll < 0.70 * err {
            // Substitution: a different word.
            let mut wrong = rng.gen_range(0..SPEECH_VOCAB);
            if wrong == w {
                wrong = (wrong + 1) % SPEECH_VOCAB;
            }
            out.push(wrong);
        }
        // else (0.70e..0.85e): deletion — emit nothing.
        // Insertions at 0.15e per reference word.
        if rng.gen_bool(0.15 * err) {
            out.push(rng.gen_range(0..SPEECH_VOCAB));
        }
    }
    out
}

/// Reconstructs a super-resolved image: the ground truth plus zero-mean
/// uniform noise whose variance hits the target PSNR exactly in
/// expectation (`sigma = peak * 10^(-psnr/20)`, uniform half-width
/// `sigma * sqrt(3)`). Pixels are deliberately not clamped so the measured
/// PSNR matches the closed form.
#[must_use]
pub fn reconstruct(dataset: &SyntheticDiv2k, sample: usize, noise_sigma: f64, seed: u64) -> Image {
    let mut img = dataset.high_res(sample);
    let mut rng = rng_for(seed, sample);
    let half_width = (noise_sigma * 3f64.sqrt()) as f32;
    if half_width > 0.0 {
        for v in &mut img.data {
            *v += rng.gen_range(-half_width..half_width);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_metrics::accuracy::{squad_scores, top1_accuracy};
    use mobile_metrics::map::coco_map;
    use mobile_metrics::miou::benchmark_miou;

    #[test]
    fn classification_hits_target_rate() {
        let ds = SyntheticImageNet::with_len(1, 5000);
        let target = 0.7619;
        let gt: Vec<u32> = (0..5000).map(|i| ds.label(i)).collect();
        let pred: Vec<u32> = (0..5000).map(|i| classify(&ds, i, target, 9)).collect();
        let acc = top1_accuracy(&gt, &pred);
        assert!((acc - target).abs() < 0.02, "accuracy {acc} vs target {target}");
    }

    #[test]
    fn classification_never_accidentally_correct_when_wrong() {
        let ds = SyntheticImageNet::with_len(2, 500);
        let pred: Vec<u32> = (0..500).map(|i| classify(&ds, i, 0.0, 3)).collect();
        let gt: Vec<u32> = (0..500).map(|i| ds.label(i)).collect();
        assert_eq!(top1_accuracy(&gt, &pred), 0.0);
    }

    #[test]
    fn detection_map_tracks_target() {
        let ds = SyntheticCoco::with_len(3, 400);
        let target = 0.244;
        let gts: Vec<_> = (0..400).map(|i| ds.objects(i)).collect();
        let preds: Vec<_> = (0..400).map(|i| detect(&ds, i, target, 5)).collect();
        let map = coco_map(&gts, &preds);
        assert!((map - target).abs() < 0.05, "mAP {map} vs target {target}");
    }

    #[test]
    fn miou_inversion_converges() {
        let ds = SyntheticAde20k::with_params(7, 100, 48);
        let target = 0.548;
        let q = pixel_accuracy_for_miou(&ds, target);
        assert!((0.3..1.0).contains(&q), "q = {q}");
        let gts: Vec<_> = (0..100).map(|i| ds.label_map(i)).collect();
        let preds: Vec<_> = (0..100).map(|i| segment(&ds, i, q, 11)).collect();
        let miou = benchmark_miou(&gts, &preds);
        assert!((miou - target).abs() < 0.04, "mIoU {miou} vs target {target}");
    }

    #[test]
    fn miou_calibration_cache_matches_uncached_bisection() {
        let ds = SyntheticAde20k::with_params(21, 80, 32);
        let target = 0.51;
        // First call populates the cache, second must hit it; both must be
        // bit-identical to the raw bisection.
        let first = pixel_accuracy_for_miou(&ds, target);
        let second = pixel_accuracy_for_miou(&ds, target);
        let raw = pixel_accuracy_for_miou_uncached(&ds, target);
        assert_eq!(first.to_bits(), raw.to_bits());
        assert_eq!(second.to_bits(), raw.to_bits());
        // A different target must not collide with the cached key.
        let other = pixel_accuracy_for_miou(&ds, 0.60);
        assert!(other > first, "higher mIoU target needs higher pixel accuracy");
    }

    #[test]
    fn shipped_calibration_matches_bisection() {
        for &((seed, len, resolution, target_bits), q_bits) in SHIPPED_MIOU_CALIBRATION {
            let ds = SyntheticAde20k::with_params(seed, len, resolution);
            let target = f64::from_bits(target_bits);
            let fresh = pixel_accuracy_for_miou_uncached(&ds, target);
            assert_eq!(
                fresh.to_bits(),
                q_bits,
                "stale shipped calibration row; regenerate as \
                 (({seed}, {len}, {resolution}, {target_bits:#018x}), {:#018x})",
                fresh.to_bits(),
            );
        }
    }

    /// The historical probe: simulate `segment()` in full and score the
    /// whole maps. The production probe hoists the q-independent work out
    /// of the bisection; this oracle pins its bit-identity.
    fn naive_bisection(dataset: &SyntheticAde20k, target_miou: f64) -> f64 {
        use mobile_data::datasets::Dataset;
        use mobile_metrics::miou::{benchmark_eval_classes, ConfusionMatrix};
        let probe = |q: f64| -> f64 {
            let mut cm = ConfusionMatrix::new(ADE20K_CLASSES as usize);
            let n = dataset.len().min(64);
            for i in 0..n {
                let gt = dataset.label_map(i);
                let pred = segment(dataset, i, q, MIOU_CALIBRATION_SEED);
                cm.record_maps(&gt, &pred);
            }
            cm.mean_iou(&benchmark_eval_classes())
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..24 {
            let mid = (lo + hi) / 2.0;
            if probe(mid) < target_miou {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }

    #[test]
    fn fast_calibration_probe_matches_naive_probe_bitwise() {
        // Mixed geometry and several targets: the incremental
        // confusion-matrix probe must reproduce the full-simulation
        // bisection to the last bit.
        for (seed, len, res) in [(21, 80, 32), (3, 48, 64), (9, 5, 16)] {
            let ds = SyntheticAde20k::with_params(seed, len, res);
            for target in [0.12, 0.51, 0.60, 0.87, 0.999] {
                let fast = pixel_accuracy_for_miou_uncached(&ds, target);
                let naive = naive_bisection(&ds, target);
                assert_eq!(
                    fast.to_bits(),
                    naive.to_bits(),
                    "probe divergence: seed {seed} len {len} res {res} target {target}"
                );
            }
        }
    }

    #[test]
    fn psnr_calibration_cache_matches_closed_form() {
        let ds = SyntheticDiv2k::with_params(7, 20, 72, 128);
        let target = 33.58;
        let first = noise_sigma_for_psnr(&ds, target);
        let second = noise_sigma_for_psnr(&ds, target);
        let raw = mobile_metrics::psnr::noise_sigma_for_psnr(target, 1.0);
        assert_eq!(first.to_bits(), raw.to_bits());
        assert_eq!(second.to_bits(), raw.to_bits());
        // Distinct targets and datasets get distinct keys.
        let other = noise_sigma_for_psnr(&ds, 20.0);
        assert!(other > first, "lower PSNR target tolerates more noise");
        let ds2 = SyntheticDiv2k::with_params(8, 20, 72, 128);
        assert_eq!(noise_sigma_for_psnr(&ds2, target).to_bits(), raw.to_bits());
    }

    #[test]
    fn qa_f1_tracks_target() {
        let ds = SyntheticSquad::with_len(5, 2000);
        let target = 0.9398;
        let gts: Vec<_> = (0..2000).map(|i| ds.sample(i).answer).collect();
        let preds: Vec<_> = (0..2000).map(|i| answer(&ds, i, target, 13)).collect();
        let (f1, em) = squad_scores(&gts, &preds);
        assert!((f1 - target).abs() < 0.02, "F1 {f1} vs target {target}");
        assert!(em <= f1, "EM {em} must not exceed F1 {f1}");
    }

    #[test]
    fn transcription_wer_tracks_target() {
        let ds = SyntheticLibriSpeech::with_len(3, 500);
        let target_acc = 0.925; // WER 7.5%
        let refs: Vec<Vec<u32>> = (0..500).map(|i| ds.utterance(i).transcript).collect();
        let hyps: Vec<Vec<u32>> = (0..500).map(|i| transcribe(&ds, i, target_acc, 7)).collect();
        let wer = mobile_metrics::wer::corpus_wer(&refs, &hyps);
        assert!((wer - 0.075).abs() < 0.015, "WER {wer:.4} vs target 0.075");
    }

    #[test]
    fn perfect_transcription_at_accuracy_one() {
        let ds = SyntheticLibriSpeech::with_len(4, 50);
        for i in 0..50 {
            assert_eq!(transcribe(&ds, i, 1.0, 9), ds.utterance(i).transcript);
        }
    }

    #[test]
    fn reconstruction_psnr_tracks_target() {
        let ds = SyntheticDiv2k::with_params(5, 16, 64, 96);
        let target_db = 33.0;
        let sigma = mobile_metrics::psnr::noise_sigma_for_psnr(target_db, 1.0);
        let refs: Vec<Image> = (0..16).map(|i| ds.high_res(i)).collect();
        let recs: Vec<Image> = (0..16).map(|i| reconstruct(&ds, i, sigma, 3)).collect();
        let psnr = mobile_metrics::psnr::mean_psnr_db(&refs, &recs, 1.0);
        assert!((psnr - target_db).abs() < 0.5, "PSNR {psnr:.2} vs {target_db}");
    }

    #[test]
    fn predictions_are_deterministic() {
        let ds = SyntheticCoco::with_len(9, 50);
        let a = detect(&ds, 7, 0.3, 42);
        let b = detect(&ds, 7, 0.3, 42);
        assert_eq!(a, b);
        let c = detect(&ds, 7, 0.3, 43);
        // Different seed generally differs (not guaranteed per-sample, but
        // across many samples it must).
        let all_a: Vec<_> = (0..50).map(|i| detect(&ds, i, 0.3, 42)).collect();
        let all_c: Vec<_> = (0..50).map(|i| detect(&ds, i, 0.3, 43)).collect();
        assert!(all_a != all_c || a == c);
    }
}

