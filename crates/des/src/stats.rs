//! The fixed-bucket quantile digest a simulation records, and the
//! median that aggregates a measurement point's repeats.

/// Number of linear sub-buckets per power-of-two range in a
/// [`QuantileDigest`] (as a power of two: 2^5 = 32 sub-buckets, bounding
/// the relative quantile error at 1/32 ≈ 3%).
const DIGEST_SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two range.
const DIGEST_SUBS: usize = 1 << DIGEST_SUB_BITS;

/// Total bucket count: the exact values `0..32`, then 32 sub-buckets for
/// each of the 59 power-of-two ranges `[2^5, 2^6) .. [2^63, 2^64)`.
const DIGEST_BUCKETS: usize = DIGEST_SUBS + (64 - DIGEST_SUB_BITS as usize) * DIGEST_SUBS;

/// A fixed-bucket quantile digest over `u64` values: the one summary
/// of every named observation a simulation records (latencies, queue
/// depths, batch sizes).
///
/// HDR-histogram style: each power-of-two range is split into
/// [`DIGEST_SUBS`] linear sub-buckets, so any reported quantile is
/// within one sub-bucket (≤ ~3% relative error) of the exact order
/// statistic, while the digest stays a fixed array of integer counters
/// beside an exact count, saturating sum, min and max. One simulation
/// records each digest, and the digest has two properties:
///
/// * **Exactly order-independent**: recording the same multiset of
///   values in any order produces identical bucket counts, so the
///   rendered quantiles depend on what was recorded, never on when.
/// * **Deterministically rendered**: quantiles are integer bucket lower
///   bounds selected by integer rank (no float interpolation), clamped
///   to the observed `[min, max]`, so no platform float variance can
///   leak into the output.
#[derive(Clone, PartialEq, Eq)]
pub struct QuantileDigest {
    counts: Box<[u64; DIGEST_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileDigest {
    fn default() -> Self {
        QuantileDigest {
            counts: Box::new([0; DIGEST_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for QuantileDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The bucket array is 2k counters; summarize it instead.
        f.debug_struct("QuantileDigest")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl QuantileDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    fn index(value: u64) -> usize {
        if value < DIGEST_SUBS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // value in [2^exp, 2^(exp+1))
        let sub = (value >> (exp - DIGEST_SUB_BITS)) as usize - DIGEST_SUBS;
        DIGEST_SUBS + (exp - DIGEST_SUB_BITS) as usize * DIGEST_SUBS + sub
    }

    /// The smallest value that lands in bucket `index`.
    fn bucket_lo(index: usize) -> u64 {
        if index < DIGEST_SUBS {
            return index as u64;
        }
        let block = (index - DIGEST_SUBS) / DIGEST_SUBS;
        let sub = (index - DIGEST_SUBS) % DIGEST_SUBS;
        let exp = block as u32 + DIGEST_SUB_BITS;
        (DIGEST_SUBS as u64 + sub as u64) << (exp - DIGEST_SUB_BITS)
    }

    /// Add one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean of the (saturating) sum (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile as an integer: the lower bound of the sub-bucket
    /// holding the rank-`ceil(q·count)` order statistic, clamped to the
    /// observed `[min, max]`. Returns 0 when empty. A pure function of
    /// the bucket counts, so it does not depend on recording order.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Integer rank: ceil(q * count), clamped into [1, count]. The
        // product is exact for every count below 2^53.
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The last-ranked observation is the recorded maximum itself.
        if rank == self.count {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lo(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// The ledger's standard latency summary: p50 / p90 / p99 / p99.9.
    pub fn percentiles(&self) -> [u64; 4] {
        [
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.quantile(0.999),
        ]
    }
}

/// Median of a slice (averaging the middle pair for even lengths).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_buckets_partition_and_contain() {
        // Every value's bucket contains it, and bucket lower bounds are
        // strictly increasing (no gap or overlap in coverage).
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = QuantileDigest::index(v);
            assert!(i < DIGEST_BUCKETS, "index {i} for {v}");
            let lo = QuantileDigest::bucket_lo(i);
            assert!(lo <= v, "bucket lo {lo} above value {v}");
            if i + 1 < DIGEST_BUCKETS {
                assert!(
                    v < QuantileDigest::bucket_lo(i + 1),
                    "value {v} at or past next bucket"
                );
            }
        }
        for i in 1..DIGEST_BUCKETS {
            assert!(QuantileDigest::bucket_lo(i) > QuantileDigest::bucket_lo(i - 1));
            // bucket_lo is a left inverse of index.
            assert_eq!(QuantileDigest::index(QuantileDigest::bucket_lo(i)), i);
        }
        assert_eq!(QuantileDigest::index(u64::MAX), DIGEST_BUCKETS - 1);
    }

    #[test]
    fn digest_quantiles_are_tight() {
        let mut d = QuantileDigest::new();
        for v in 1..=1000u64 {
            d.record(v);
        }
        assert_eq!(d.count(), 1000);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 1000);
        assert_eq!(d.quantile(0.0), 1);
        assert_eq!(d.quantile(1.0), 1000);
        // Relative error bounded by one sub-bucket (~3%).
        let p50 = d.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.04, "p50 = {p50}");
        let p99 = d.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.04, "p99 = {p99}");
        let [a, b, c, dd] = d.percentiles();
        assert!(a <= b && b <= c && c <= dd, "monotone percentiles");
    }

    #[test]
    fn digest_empty_and_single() {
        let d = QuantileDigest::new();
        assert_eq!(d.count(), 0);
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), 0);
        assert_eq!(d.quantile(0.5), 0);
        let mut one = QuantileDigest::new();
        one.record(42);
        assert_eq!(one.percentiles(), [42, 42, 42, 42]);
    }

    #[test]
    fn digest_is_recording_order_independent() {
        // The same multiset recorded in either order is bit-identical.
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2654435761) >> 16)
            .collect();
        let mut all = QuantileDigest::new();
        for &v in &values {
            all.record(v);
        }
        let mut reversed = QuantileDigest::new();
        for &v in values.iter().rev() {
            reversed.record(v);
        }
        assert_eq!(all, reversed);
        assert_eq!(all.percentiles(), reversed.percentiles());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Percentiles are ordered and bounded by the exact extremes.
            #[test]
            fn digest_percentiles_are_monotone_and_bounded(
                values in proptest::collection::vec(any::<u64>(), 1..300),
            ) {
                let mut d = QuantileDigest::new();
                values.iter().for_each(|&v| d.record(v));
                let [p50, p90, p99, p999] = d.percentiles();
                prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
                prop_assert!(p999 <= d.max());
                prop_assert_eq!(d.quantile(1.0), d.max());
            }

            // The exact summary is a naive fold of the inputs; the empty
            // digest reads 0 throughout.
            #[test]
            fn digest_summary_matches_a_naive_fold(
                values in proptest::collection::vec(
                    prop_oneof![any::<u64>(), 0u64..100_000],
                    0..300,
                ),
            ) {
                let mut d = QuantileDigest::new();
                values.iter().for_each(|&v| d.record(v));
                let count = values.len() as u64;
                let sum = values.iter().copied().fold(0u64, u64::saturating_add);
                let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
                prop_assert_eq!(d.count(), count);
                prop_assert_eq!(d.sum(), sum);
                prop_assert_eq!(d.min(), values.iter().copied().min().unwrap_or(0));
                prop_assert_eq!(d.max(), values.iter().copied().max().unwrap_or(0));
                prop_assert_eq!(d.mean(), mean);
            }
        }
    }
}
