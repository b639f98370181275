//! Streaming HDR-style latency histograms.
//!
//! [`LatencyHistogram`] records every latency distribution in the crate
//! without storing samples: a fixed 2 KB array of log-linear buckets (4 sub-buckets per power of two, so
//! any percentile estimate is within one bucket — ≤ 25% relative — of the
//! exact value, and far tighter at the small-count end), plus exact
//! `count`/`sum`/`min`/`max`. Recording is O(1), merging is element-wise
//! addition, and summaries never mutate the recorder.

use std::fmt;

use catfish_simnet::SimDuration;

use crate::stats::LatencySummary;

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Linear sub-buckets per power-of-two value range.
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are counted in exact unit buckets.
const LINEAR_LIMIT: u64 = SUB * 2;
/// Total buckets: unit buckets + SUB per octave for octaves
/// `SUB_BITS + 1 ..= 63`.
const BUCKETS: usize = (LINEAR_LIMIT + (63 - SUB_BITS) as u64 * SUB) as usize;

/// Bucket index for a nanosecond value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) - SUB;
    (LINEAR_LIMIT + u64::from(msb - SUB_BITS - 1) * SUB + sub) as usize
}

/// Inclusive lower bound of a bucket, in nanoseconds.
fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_LIMIT {
        return idx;
    }
    let j = idx - LINEAR_LIMIT;
    let octave = SUB_BITS + 1 + (j / SUB) as u32;
    let sub = j % SUB;
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// Exclusive upper bound of a bucket, in nanoseconds.
fn bucket_high(idx: usize) -> u64 {
    if (idx as u64) < LINEAR_LIMIT {
        return idx as u64 + 1;
    }
    let j = idx as u64 - LINEAR_LIMIT;
    let octave = SUB_BITS + 1 + (j / SUB) as u32;
    bucket_low(idx) + (1u64 << (octave - SUB_BITS))
}

/// A mergeable, fixed-footprint latency histogram over nanosecond spans.
///
/// # Examples
///
/// ```
/// use catfish_core::obs::LatencyHistogram;
/// use catfish_simnet::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=100u64 {
///     h.record(SimDuration::from_micros(i));
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 100);
/// assert_eq!(s.mean, SimDuration::from_nanos(50_500)); // sum/count: exact
/// assert_eq!(s.min, SimDuration::from_micros(1));
/// assert_eq!(s.max, SimDuration::from_micros(100));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min_ns", &self.min)
            .field("max_ns", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample. O(1), no allocation.
    pub fn record(&mut self, latency: SimDuration) {
        self.record_nanos(latency.as_nanos());
    }

    /// Records a raw nanosecond value.
    pub fn record_nanos(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum += u128::from(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every bucket of `other` into this histogram. A merged
    /// histogram is bucket-for-bucket identical to one that recorded the
    /// concatenated sample streams.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The quantile `q` in `[0, 1]`, estimated as the upper edge of the
    /// bucket holding the rank — within one bucket width of the exact
    /// sorted-sample quantile, and clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        // Same rank convention as the exact recorder:
        // index = floor((n - 1) * q) into the sorted samples.
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).floor() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let est = bucket_high(idx).saturating_sub(1);
                return SimDuration::from_nanos(est.clamp(self.min, self.max));
            }
        }
        SimDuration::from_nanos(self.max)
    }

    /// Exact arithmetic mean (sum and count are tracked exactly).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / u128::from(self.count)) as u64)
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.min)
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Full summary; `&self` — summarizing never disturbs the recorder.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count as usize,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            min: self.min(),
            max: self.max(),
        }
    }

    /// Iterates the non-empty buckets as `(low_ns, high_ns, count)` with
    /// `high` exclusive — the exposition layer's view for Prometheus
    /// bucket lines and JSONL dumps.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), bucket_high(i), c))
    }

    /// Total of all recorded values, in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum
    }

    /// The width of the bucket that `v` falls into, in nanoseconds — the
    /// quantile estimation error bound at that magnitude.
    pub fn bucket_width_at(v: u64) -> u64 {
        let idx = bucket_index(v);
        bucket_high(idx) - bucket_low(idx)
    }

    /// Estimated fraction of samples strictly above `threshold` — the
    /// numerator of an SLO latency burn rate. Buckets entirely above the
    /// threshold count fully; the straddling bucket is pro-rated by the
    /// portion of its value range above the threshold (a uniform-within-
    /// bucket assumption, so the estimate is within one bucket of exact).
    pub fn fraction_above(&self, threshold: SimDuration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let t = threshold.as_nanos();
        let mut above = 0.0f64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = bucket_low(idx);
            if lo > t {
                above += c as f64;
                continue;
            }
            let hi = bucket_high(idx); // exclusive: values span [lo, hi - 1]
            if hi - 1 > t {
                let frac = (hi - 1 - t) as f64 / (hi - lo) as f64;
                above += c as f64 * frac.clamp(0.0, 1.0);
            }
        }
        (above / self.count as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_about_two_kilobytes() {
        // 8 unit buckets + 4 sub-buckets × 61 octaves = 252 buckets.
        assert_eq!(BUCKETS, 252);
        assert_eq!(BUCKETS * std::mem::size_of::<u64>(), 2016);
        assert!(std::mem::size_of::<LatencyHistogram>() <= 2112);
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every bucket's high equals the next bucket's low, starting at 0.
        assert_eq!(bucket_low(0), 0);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_high(i), bucket_low(i + 1), "bucket {i}");
        }
        // Probe values land in buckets that contain them.
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index in range for {v}");
            assert!(bucket_low(idx) <= v, "low({idx}) <= {v}");
            if idx < BUCKETS - 1 {
                assert!(v < bucket_high(idx), "{v} < high({idx})");
            }
        }
    }

    #[test]
    fn empty_summary_is_default() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), LatencySummary::default());
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn small_exact_values_are_exact() {
        // Values < 8 ns live in unit buckets: quantiles are exact.
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.record_nanos(v);
        }
        assert_eq!(h.quantile(0.0), SimDuration::from_nanos(1));
        assert_eq!(h.quantile(1.0), SimDuration::from_nanos(7));
        assert_eq!(h.quantile(0.5), SimDuration::from_nanos(4));
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(30));
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert_eq!(h.min(), SimDuration::from_micros(10));
        assert_eq!(h.max(), SimDuration::from_micros(30));
    }

    #[test]
    fn quantile_within_one_bucket_of_exact() {
        let mut h = LatencyHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 17u64;
        for _ in 0..10_000 {
            // Deterministic LCG spread over ~6 decades.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 1_000_000_000;
            h.record_nanos(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = exact[((exact.len() as f64 - 1.0) * q).floor() as usize];
            let got = h.quantile(q).as_nanos();
            let width = LatencyHistogram::bucket_width_at(want);
            assert!(
                got.abs_diff(want) <= width,
                "q{q}: got {got}, exact {want}, width {width}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 733 + 5;
            if i % 2 == 0 {
                a.record_nanos(v);
            } else {
                b.record_nanos(v);
            }
            c.record_nanos(v);
        }
        a.merge(&b);
        assert_eq!(a.counts, c.counts);
        assert_eq!(a.summary(), c.summary());
    }

    #[test]
    fn fraction_above_tracks_exact_tail() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 µs, uniformly: exactly 10% of samples are above 900 µs.
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        for (thresh_us, want) in [(0u64, 1.0f64), (500, 0.5), (900, 0.1), (1000, 0.0)] {
            let got = h.fraction_above(SimDuration::from_micros(thresh_us));
            // Bucketed estimate: within one bucket's worth of samples.
            assert!(
                (got - want).abs() < 0.15,
                "above {thresh_us}us: got {got}, want {want}"
            );
        }
        assert_eq!(h.fraction_above(SimDuration::from_secs(10)), 0.0);
        assert_eq!(
            LatencyHistogram::new().fraction_above(SimDuration::ZERO),
            0.0
        );
    }

    #[test]
    fn nonzero_buckets_cover_all_counts() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_nanos(i * 997);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, 1000);
        // Buckets come out in increasing, non-overlapping order.
        let edges: Vec<(u64, u64)> = h.nonzero_buckets().map(|(l, h, _)| (l, h)).collect();
        assert!(edges.windows(2).all(|w| w[0].1 <= w[1].0));
    }
}
