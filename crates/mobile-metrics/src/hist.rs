//! Log-bucketed latency histograms (HDR-histogram style).
//!
//! The exact percentile path ([`crate::latency`]) keeps every sample; that
//! is right for scoring, where the rules demand the exact nearest-rank
//! p90, but wrong for long-running observability, where memory must stay
//! bounded and histograms from many runs must merge. A
//! [`LatencyHistogram`] stores counts in logarithmically spaced buckets
//! with [`SUB_BUCKET_BITS`] bits of sub-bucket resolution: values below
//! 2^6 = 64 are recorded exactly, larger values keep their top 6
//! significant bits, bounding the relative quantization error at
//! 2^(1-6) = 1/32 ≈ 3.1% while using a fixed 1920 buckets regardless of
//! sample count or range.
//!
//! Histograms merge by element-wise count addition, so per-run histograms
//! aggregate into suite-level ones without touching raw samples. The
//! percentile path is checked for consistency against
//! [`crate::latency::percentile_nearest_rank`] by property tests below.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: each octave above the linear region is split
/// into 2^(B-1) = 32 buckets, keeping the top B significant bits.
pub const SUB_BUCKET_BITS: u32 = 6;

/// Buckets in the exact linear region `[0, 2^SUB_BUCKET_BITS)`.
const LINEAR_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Buckets per octave in the logarithmic region.
const OCTAVE_BUCKETS: usize = 1 << (SUB_BUCKET_BITS - 1);

/// Total bucket count covering the full `u64` range:
/// 64 linear + (64 - 6) octaves x 32 = 1920.
const TOTAL_BUCKETS: usize = LINEAR_BUCKETS + (64 - SUB_BUCKET_BITS as usize) * OCTAVE_BUCKETS;

/// Worst-case relative quantization error of a reported percentile:
/// one bucket width over the bucket's lower bound, `2^(1 - SUB_BUCKET_BITS)`.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// A fixed-size log-bucketed histogram of `u64` values (latencies in ns).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; TOTAL_BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value maps to.
    fn index_of(value: u64) -> usize {
        if value < LINEAR_BUCKETS as u64 {
            return value as usize;
        }
        let h = 63 - value.leading_zeros(); // floor(log2 value) >= SUB_BUCKET_BITS
        let shift = h - (SUB_BUCKET_BITS - 1);
        let sub = (value >> shift) as usize - OCTAVE_BUCKETS;
        LINEAR_BUCKETS + (h - SUB_BUCKET_BITS) as usize * OCTAVE_BUCKETS + sub
    }

    /// The largest value mapping to `index` — the representative reported
    /// for percentiles, so reported quantiles never understate latency.
    fn value_at_index(index: usize) -> u64 {
        if index < LINEAR_BUCKETS {
            return index as u64;
        }
        let octave = (index - LINEAR_BUCKETS) / OCTAVE_BUCKETS;
        let sub = (index - LINEAR_BUCKETS) % OCTAVE_BUCKETS;
        let h = octave as u32 + SUB_BUCKET_BITS;
        let shift = h - (SUB_BUCKET_BITS - 1);
        // The very top octave's upper bound exceeds u64::MAX; saturate.
        let upper = (((sub + OCTAVE_BUCKETS + 1) as u128) << shift) - 1;
        upper.min(u128::from(u64::MAX)) as u64
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index_of(value)] += n;
        self.count += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Builds a histogram from a slice of values.
    #[must_use]
    pub fn from_values(values: &[u64]) -> Self {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Total recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (exact), or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.is_empty() { 0 } else { self.min }
    }

    /// Largest recorded value (exact), or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Element-wise merges `other` into `self` — the aggregation path for
    /// combining per-run histograms across a suite.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile over the bucketed distribution: the upper
    /// bound of the bucket containing the rank-th smallest value, clamped
    /// to the exact observed maximum. Within [`MAX_RELATIVE_ERROR`] of the
    /// exact nearest-rank percentile (property-tested against it).
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram or a percentile outside `(0, 100]`.
    #[must_use]
    pub fn value_at_percentile(&self, percentile: f64) -> u64 {
        assert!(!self.is_empty(), "no samples");
        assert!(percentile > 0.0 && percentile <= 100.0, "percentile out of range");
        // Same multiply-before-divide rank convention as the exact path.
        let rank = ((percentile * self.count as f64 / 100.0).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_at_index(i).min(self.max);
            }
        }
        self.max
    }

    /// [`Self::value_at_percentile`] on the quantile scale: `q` in
    /// `(0, 1]`, so deep field tails read naturally —
    /// `quantile(0.999)` is the fleet report's p99.9 headline. Same
    /// nearest-rank convention and error bound as the percentile form.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram or a quantile outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range");
        self.value_at_percentile(q * 100.0)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::percentile_nearest_rank;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for p in [1.0f64, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((p * 64.0 / 100.0).ceil() as u64).clamp(1, 64);
            assert_eq!(h.value_at_percentile(p), rank - 1, "p{p}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn bucket_mapping_round_trips() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within the relative error bound.
        for v in (0..200u64)
            .chain((1..40).map(|i| 1u64 << i))
            .chain((1..40).map(|i| (1u64 << i) + (1 << i) / 3))
            .chain([u64::MAX / 2, u64::MAX - 1])
        {
            let idx = LatencyHistogram::index_of(v);
            let rep = LatencyHistogram::value_at_index(idx);
            assert!(rep >= v, "rep {rep} < value {v}");
            let err = (rep - v) as f64;
            assert!(
                err <= v as f64 * MAX_RELATIVE_ERROR + 1.0,
                "value {v}: rep {rep}, err {err}"
            );
            // Monotone: the next bucket's representative is strictly larger
            // (away from the saturated top of the u64 range).
            if idx + 1 < TOTAL_BUCKETS && v < (1u64 << 50) {
                assert!(LatencyHistogram::value_at_index(idx + 1) > rep);
            }
        }
    }

    #[test]
    fn total_bucket_count_is_fixed() {
        assert_eq!(TOTAL_BUCKETS, 1920);
        // The largest representable value maps inside the table.
        assert!(LatencyHistogram::index_of(u64::MAX) < TOTAL_BUCKETS);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a_vals: Vec<u64> = (1..500).map(|i| i * 997).collect();
        let b_vals: Vec<u64> = (1..300).map(|i| i * i * 13).collect();
        let mut merged = LatencyHistogram::from_values(&a_vals);
        merged.merge(&LatencyHistogram::from_values(&b_vals));
        let mut all = a_vals.clone();
        all.extend(&b_vals);
        let combined = LatencyHistogram::from_values(&all);
        assert_eq!(merged, combined);
        assert_eq!(merged.count(), (a_vals.len() + b_vals.len()) as u64);
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_empty_panics() {
        let _ = LatencyHistogram::new().value_at_percentile(90.0);
    }

    proptest! {
        #[test]
        fn quantiles_exact_nearest_rank_at_small_n(
            mut values in proptest::collection::vec(0u64..64, 1..64),
        ) {
            // Values below 64 land in exact unit-width buckets, so the
            // histogram quantile must reproduce nearest-rank exactly —
            // including the deep-tail q = 0.999, where small N makes the
            // rank clamp to the maximum.
            let h = LatencyHistogram::from_values(&values);
            values.sort_unstable();
            for q in [0.5f64, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = percentile_nearest_rank(&values, q * 100.0);
                prop_assert_eq!(h.quantile(q), exact, "q={}", q);
            }
        }

        #[test]
        fn percentiles_consistent_with_exact_nearest_rank(
            mut values in proptest::collection::vec(1u64..2_000_000_000, 1..400),
            sampled in 0.5f64..100.0,
        ) {
            let h = LatencyHistogram::from_values(&values);
            values.sort_unstable();
            // Always exercise the rule-relevant percentiles plus a sampled
            // one from across the range.
            for percentile in [50.0, 90.0, 99.0, sampled] {
                let exact = percentile_nearest_rank(&values, percentile);
                let approx = h.value_at_percentile(percentile);
                // The bucketed percentile never understates and overstates
                // by at most the bucket width (bounded relative error).
                prop_assert!(approx >= exact, "p{percentile}: approx {approx} < exact {exact}");
                prop_assert!(
                    approx as f64 <= exact as f64 * (1.0 + MAX_RELATIVE_ERROR) + 1.0,
                    "p{percentile}: approx {approx} vs exact {exact}"
                );
            }
        }

        #[test]
        fn percentiles_are_monotone(values in proptest::collection::vec(1u64..1_000_000_000, 1..300)) {
            let h = LatencyHistogram::from_values(&values);
            let p50 = h.value_at_percentile(50.0);
            let p90 = h.value_at_percentile(90.0);
            let p99 = h.value_at_percentile(99.0);
            prop_assert!(p50 <= p90 && p90 <= p99);
            prop_assert!(p99 <= h.max());
            prop_assert!(h.min() <= p50);
        }

        #[test]
        fn merge_is_order_independent(
            a in proptest::collection::vec(1u64..1_000_000, 0..100),
            b in proptest::collection::vec(1u64..1_000_000, 0..100),
        ) {
            let ha = LatencyHistogram::from_values(&a);
            let hb = LatencyHistogram::from_values(&b);
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merged_shards_equal_concatenated_stream(
            values in proptest::collection::vec(1u64..u64::MAX, 0..400),
            shards in 1usize..12,
        ) {
            // The streaming shard-merge contract: split the stream across
            // K per-thread shards arbitrarily (round-robin here), fold the
            // shards with merge(), and the result is *bucket-exact* equal —
            // counts, count, min, max — to one histogram fed the whole
            // concatenated stream. This is what lets the runner pool (and
            // fleet loops) aggregate without a shared lock.
            let mut sharded: Vec<LatencyHistogram> =
                (0..shards).map(|_| LatencyHistogram::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                sharded[i % shards].record(v);
            }
            let mut merged = LatencyHistogram::new();
            for shard in &sharded {
                merged.merge(shard);
            }
            let single = LatencyHistogram::from_values(&values);
            prop_assert_eq!(&merged, &single);
            prop_assert_eq!(merged.count(), values.len() as u64);
            // Quantiles of the merged histogram are exactly the single-
            // stream histogram's quantiles (same buckets, same counts).
            if !values.is_empty() {
                for p in [50.0, 90.0, 99.0, 100.0] {
                    prop_assert_eq!(
                        merged.value_at_percentile(p),
                        single.value_at_percentile(p)
                    );
                }
            }
        }
    }
}
