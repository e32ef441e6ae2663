//! Small statistics helpers shared by the measurement crates.

/// Streaming accumulator for min / max / mean / variance (Welford).
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// Histogram over `u64` values with power-of-two (log2) buckets.
///
/// Bucket 0 holds the value 0; bucket `i` (1 ≤ i ≤ 64) holds values in
/// `[2^(i-1), 2^i - 1]` (bucket 64's upper bound saturates at `u64::MAX`).
/// Recording is branch-free apart from the zero check, making it cheap
/// enough for per-packet instrumentation, and the fixed bucket layout keeps
/// rendered output byte-identical across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: 0 for 0, `floor(log2(v)) + 1`
    /// otherwise.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `[lo, hi]` value range covered by bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index <= 64, "log histogram has buckets 0..=64");
        if index == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (index - 1);
            let hi = if index == 64 {
                u64::MAX
            } else {
                (1u64 << index) - 1
            };
            (lo, hi)
        }
    }

    /// Add one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
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

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in one bucket.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// `(bucket_lo, bucket_hi, count)` for every non-empty bucket, in
    /// ascending value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Number of linear sub-buckets per power-of-two range in a
/// [`QuantileDigest`] (as a power of two: 2^5 = 32 sub-buckets, bounding
/// the relative quantile error at 1/32 ≈ 3%).
const DIGEST_SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two range.
const DIGEST_SUBS: usize = 1 << DIGEST_SUB_BITS;

/// Total bucket count: the exact values `0..32`, then 32 sub-buckets for
/// each of the 59 power-of-two ranges `[2^5, 2^6) .. [2^63, 2^64)`.
const DIGEST_BUCKETS: usize = DIGEST_SUBS + (64 - DIGEST_SUB_BITS as usize) * DIGEST_SUBS;

/// A mergeable, order-independent quantile digest over `u64` values.
///
/// An HDR-histogram-style refinement of [`LogHistogram`]: each
/// power-of-two range is split into [`DIGEST_SUBS`] linear sub-buckets,
/// so any reported quantile is within one sub-bucket (≤ ~3% relative
/// error) of the exact order statistic — while the digest stays a fixed
/// array of integer counters. That buys the two properties a cross-run
/// ledger needs:
///
/// * **Exactly order-independent**: recording the same multiset of
///   values in any order — or recording disjoint parts into separate
///   digests and [`QuantileDigest::merge`]-ing them in any order —
///   produces identical bucket counts, so rendered quantiles are
///   byte-identical at any worker count or chunking.
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

    /// The `q`-quantile as an integer: the lower bound of the sub-bucket
    /// holding the rank-`ceil(q·count)` order statistic, clamped to the
    /// observed `[min, max]`. Returns 0 when empty. A pure function of
    /// the bucket counts, so merged digests report identical quantiles
    /// regardless of recording or merge order.
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

    /// Merge another digest into this one (bucket-wise sum — exactly
    /// associative and commutative).
    pub fn merge(&mut self, other: &QuantileDigest) {
        for (b, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

/// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics. Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.add(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 9.0);
        // population stddev is 2; sample stddev = sqrt(32/7)
        assert!((a.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn accumulator_empty() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
        assert_eq!(a.stddev(), 0.0);
    }

    #[test]
    fn accumulator_single_observation() {
        // n = 1: mean/min/max echo the observation, variance is undefined
        // so stddev must report 0 (not NaN).
        let mut a = Accumulator::new();
        a.add(42.5);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 42.5);
        assert_eq!(a.min(), 42.5);
        assert_eq!(a.max(), 42.5);
        assert_eq!(a.stddev(), 0.0);
        assert!(!a.stddev().is_nan());
    }

    #[test]
    fn accumulator_zero_observations_have_no_nan() {
        let a = Accumulator::new();
        assert_eq!(a.count(), 0);
        for v in [a.mean(), a.min(), a.max(), a.stddev()] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
    }

    #[test]
    fn accumulator_two_observations_variance() {
        // First n where the sample variance becomes defined.
        let mut a = Accumulator::new();
        a.add(1.0);
        a.add(3.0);
        // sample variance = ((1-2)^2 + (3-2)^2) / (2-1) = 2
        assert!((a.stddev() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_bucket_edges() {
        // 0 is its own bucket; each power of two starts a new bucket and
        // the value just below it closes the previous one.
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(7), 3);
        assert_eq!(LogHistogram::bucket_index(8), 4);
        for i in 1..=63u32 {
            let p = 1u64 << i;
            assert_eq!(LogHistogram::bucket_index(p), i as usize + 1);
            assert_eq!(LogHistogram::bucket_index(p - 1), i as usize);
        }
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn log_histogram_bucket_bounds_partition_u64() {
        assert_eq!(LogHistogram::bucket_bounds(0), (0, 0));
        assert_eq!(LogHistogram::bucket_bounds(1), (1, 1));
        assert_eq!(LogHistogram::bucket_bounds(2), (2, 3));
        assert_eq!(LogHistogram::bucket_bounds(64).1, u64::MAX);
        // Consecutive buckets tile the value space with no gap or overlap.
        for i in 1..=63usize {
            let (_, hi) = LogHistogram::bucket_bounds(i);
            let (lo_next, _) = LogHistogram::bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next);
        }
        // Every value's bucket actually contains it.
        for v in [0u64, 1, 2, 3, 4, 255, 256, 257, u64::MAX - 1, u64::MAX] {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn log_histogram_record_and_stats() {
        let mut h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [0u64, 1, 5, 5, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1035);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.bucket_count(0), 1); // the 0
        assert_eq!(h.bucket_count(1), 1); // the 1
        assert_eq!(h.bucket_count(3), 2); // both 5s in [4,7]
        assert_eq!(h.bucket_count(11), 1); // 1024 in [1024,2047]
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 0, 1), (1, 1, 1), (4, 7, 2), (1024, 2047, 1)]
        );
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(3);
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 303);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 300);
    }

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
    fn digest_merge_is_order_independent() {
        // The same multiset recorded in any order, or split across
        // digests merged in any order, is bit-identical.
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
        let (lo, hi) = values.split_at(137);
        let (mut a, mut b) = (QuantileDigest::new(), QuantileDigest::new());
        lo.iter().for_each(|&v| a.record(v));
        hi.iter().for_each(|&v| b.record(v));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, all);
        assert_eq!(ab.percentiles(), all.percentiles());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert!((quantile(&xs, 0.25) - 25.0).abs() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Any multiset, split at any points into up to four shards
            // merged in any of two orders, is bit-identical to recording
            // it straight — the property the cross-run ledger relies on
            // to stay byte-stable however cells are split across workers.
            #[test]
            fn digest_merge_is_partition_and_order_independent(
                values in proptest::collection::vec(any::<u64>(), 0..300),
                cut_a in 0usize..=300,
                cut_b in 0usize..=300,
                forward in any::<bool>(),
            ) {
                let mut whole = QuantileDigest::new();
                values.iter().for_each(|&v| whole.record(v));
                let (a, b) = (cut_a.min(values.len()), cut_b.min(values.len()));
                let (lo, hi) = (a.min(b), a.max(b));
                let mut shards =
                    [QuantileDigest::new(), QuantileDigest::new(), QuantileDigest::new()];
                values[..lo].iter().for_each(|&v| shards[0].record(v));
                values[lo..hi].iter().for_each(|&v| shards[1].record(v));
                values[hi..].iter().for_each(|&v| shards[2].record(v));
                let mut merged = QuantileDigest::new();
                if forward {
                    shards.iter().for_each(|s| merged.merge(s));
                } else {
                    shards.iter().rev().for_each(|s| merged.merge(s));
                }
                prop_assert_eq!(&merged, &whole);
                prop_assert_eq!(merged.percentiles(), whole.percentiles());
            }

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
                prop_assert_eq!(d.count(), values.len() as u64);
                prop_assert_eq!(d.sum(), values.iter().copied().fold(0u64, u64::saturating_add));
            }
        }
    }
}
