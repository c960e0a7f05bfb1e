//! Order statistics over small samples.

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The item timing summary of one traced call: median, the tail (the
/// highest order statistic with at least ten items beyond it) and the
/// maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemSummary {
    /// Items summarised.
    pub n: usize,
    /// Median item time.
    pub p50: f64,
    /// Highest order statistic with at least ten items above it; the
    /// median when there are ten items or fewer.
    pub tail: f64,
    /// Percentile rank of `tail`.
    pub tail_pct: f64,
    /// Slowest item.
    pub max: f64,
}

/// Summarises item times; all zero for an empty sample.
#[must_use]
pub fn items(values: &[f64]) -> ItemSummary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = median(&sorted);
    let (tail, tail_pct) = if n > 10 {
        let idx = n - 11;
        (sorted[idx], (idx + 1) as f64 / n as f64 * 100.0)
    } else {
        (p50, 50.0)
    };
    ItemSummary {
        n,
        p50,
        tail,
        tail_pct,
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

/// `num / den`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_items_beyond_it() {
        let values: Vec<f64> = (1..=32).map(f64::from).collect();
        let s = items(&values);
        assert_eq!(s.n, 32);
        assert_eq!(s.tail, 22.0);
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);
        assert_eq!(s.max, 32.0);
        let few = items(&[5.0, 1.0, 3.0]);
        assert_eq!((few.tail, few.tail_pct), (3.0, 50.0));
    }
}
