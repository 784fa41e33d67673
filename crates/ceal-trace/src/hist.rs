//! Log2-bucketed HDR-style latency histogram.
//!
//! Values (microseconds) are binned log-linearly: each power-of-two range
//! `[2^m, 2^(m+1))` is split into `2^SUB_BITS = 32` equal sub-buckets, and
//! values below 32 get one bucket each (exact). Worst-case relative error
//! of any reported quantile is therefore one sub-bucket width — `2^-5`
//! ≈ 3.2 % — across the whole range, unlike fixed-bound histograms whose
//! error explodes between bounds. Values are capped at `2^MAX_EXP` µs
//! (~12.7 days), far beyond any request.
//!
//! Recording is two relaxed `fetch_add`s; snapshots and quantiles read the
//! counters without stopping writers, matching the rest of the metrics
//! layer's lock-free discipline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values are capped just below `2^MAX_EXP` microseconds.
pub const MAX_EXP: u32 = 40;
/// Total bucket count.
pub const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS) as usize * SUB;

/// Upper bound on the relative error of any quantile estimate.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

/// Index of the bucket holding `v`.
fn index_of(v: u64) -> usize {
    let v = v.min((1u64 << MAX_EXP) - 1);
    if v < SUB as u64 {
        v as usize
    } else {
        let m = 63 - v.leading_zeros();
        (((m - SUB_BITS + 1) as usize) << SUB_BITS) + ((v >> (m - SUB_BITS)) as usize - SUB)
    }
}

/// Exclusive upper edge of bucket `i`.
fn upper_edge(i: usize) -> u64 {
    if i < SUB {
        i as u64 + 1
    } else {
        let group = (i >> SUB_BITS) as u32; // = m - SUB_BITS + 1 ≥ 1
        let m = group + SUB_BITS - 1;
        let sub = (i & (SUB - 1)) as u64;
        (SUB as u64 + sub + 1) << (m - SUB_BITS)
    }
}

/// A concurrent log-linear histogram of microsecond latencies.
pub struct LogHistogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let counts = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            counts,
            total: AtomicU64::new(0),
        }
    }

    /// Records one value (microseconds).
    pub fn record(&self, us: u64) {
        self.counts[index_of(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) as the highest value
    /// equivalent to the sample at nearest rank `ceil(q·n)`; 0 when empty.
    /// The estimate is within one sub-bucket (`MAX_RELATIVE_ERROR`) of the
    /// exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_edge(i) - 1;
            }
        }
        upper_edge(BUCKETS - 1) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32u64 {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(upper_edge(v as usize), v + 1);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn bucket_edges_are_consistent() {
        // Every bucket's upper edge minus one must map back to that bucket,
        // and the next value must map to the next bucket.
        for i in 0..BUCKETS {
            let hi = upper_edge(i) - 1;
            assert_eq!(index_of(hi), i, "upper edge of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(index_of(hi + 1), i + 1, "lower edge of bucket {}", i + 1);
            }
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1, "cap lands in last bucket");
    }

    #[test]
    fn quantile_of_constant_stream_is_that_constant_bucket() {
        let h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(5_000);
        }
        let p99 = h.quantile(0.99);
        let err = (p99 as f64 - 5_000.0).abs() / 5_000.0;
        assert!(err <= MAX_RELATIVE_ERROR, "p99={p99}");
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }
}
