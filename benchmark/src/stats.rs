//! Order statistics used by every metric the harness reports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it; the median when the sample is too small for any tail.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: nearest rank takes the lower middle, never a value
        // that was not observed.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        // Five slice rates, one outlier: the median ignores it.
        assert_eq!(median(&[100.0, 101.0, 5.0, 99.0, 102.0]), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(1_000_000), 0.9999);
    }
}
