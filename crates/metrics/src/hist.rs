//! Streaming log-bucketed histograms (HDR-style fixed bins).
//!
//! Long-trace replays produce one waiting / execution / completion time
//! per job; buffering them for an exact percentile sort makes telemetry
//! O(n) in job count. [`LogHistogram`] instead accumulates each duration
//! into one of a fixed set of logarithmically spaced bins, so percentile
//! queries cost O(bins) and memory stays constant no matter how many jobs
//! stream through — the property the tail-latency reporting of
//! multi-thousand-job campaigns needs.

use dmr_sim::Span;
use serde::Serialize;

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal bins, bounding the relative quantization error of a
/// percentile at `2^-SUB_BITS` (≈ 3.1 %).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 sub-buckets per octave
/// Values below `SUB` microseconds get exact unit-width bins; above, the
/// remaining 59 octaves of the `u64` microsecond range get `SUB` bins
/// each: `2 * SUB + (63 - SUB_BITS) * SUB`.
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// A streaming histogram of durations with fixed log-spaced bins.
///
/// Recording is O(1); percentile, mean, min and max queries are exact in
/// count and integral quantities (count, sum, min, max are tracked
/// exactly) and bounded within one bin width for percentiles. Memory is a
/// constant ~15 KiB regardless of how many values are recorded.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
    /// Exact sum of all recorded values, microseconds.
    sum_us: u128,
    /// Exact extremes, microseconds.
    min_us: u64,
    max_us: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Mean of an exact microsecond sum over `n` samples, in seconds. Shared
/// by the histogram and the summary assembly so the buffered and online
/// paths produce bit-identical averages regardless of accumulation order.
pub(crate) fn mean_secs(sum_us: u128, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        (sum_us as f64 / n as f64) / 1e6
    }
}

/// Bucket index for a value in microseconds.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (us >> shift) as usize - SUB;
    SUB * (octave - SUB_BITS + 1) as usize + sub
}

/// `[low, high)` bounds of bucket `i`, microseconds.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 2 * SUB {
        return (i as u64, i as u64 + 1);
    }
    let group = (i / SUB) as u32; // >= 2
    let sub = (i % SUB) as u64;
    let shift = group - 1;
    let low = (SUB as u64 + sub) << shift;
    // The very last bin's upper edge is 2^64; saturate it to u64::MAX.
    (low, low.saturating_add(1u64 << shift))
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, v: Span) {
        let us = v.as_micros();
        self.counts[bucket_of(us)] += 1;
        self.total += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one duration given in (non-negative) seconds, rounded to
    /// the nearest microsecond exactly like [`Span::from_secs_f64`].
    pub fn record_secs(&mut self, s: f64) {
        self.record(Span::from_secs_f64(s));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of the recorded values, seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        mean_secs(self.sum_us, self.total)
    }

    /// Exact minimum, seconds (0 when empty).
    pub fn min_s(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min_us as f64 / 1e6
        }
    }

    /// Exact maximum, seconds (0 when empty).
    pub fn max_s(&self) -> f64 {
        self.max_us as f64 / 1e6
    }

    /// The `q`-th percentile (`q` in `[0, 100]`), seconds.
    ///
    /// Returns an *upper bound* of the exact rank-`⌈q/100·n⌉` order
    /// statistic: the upper edge of its bin, clamped to the exact
    /// maximum. The result therefore never undershoots the true
    /// percentile and overshoots it by at most one bin width
    /// (relative error ≤ 2^-5 above 32 µs; ≤ 1 µs below).
    pub fn percentile_s(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == 0 {
                    // Bin 0 holds only exact zeros.
                    return 0.0;
                }
                let (_, high) = bucket_bounds(i);
                return high.min(self.max_us) as f64 / 1e6;
            }
        }
        self.max_s()
    }

    /// The non-empty bins as `(low_s, high_s, count)`, ascending — the
    /// rows of an ASCII histogram rendering.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo as f64 / 1e6, hi as f64 / 1e6, c)
            })
            .collect()
    }

    /// Width in microseconds of the bin that would hold `us` (test
    /// support for the one-bin-width percentile guarantee).
    pub fn bin_width_us(us: u64) -> u64 {
        let (lo, hi) = bucket_bounds(bucket_of(us));
        hi - lo
    }
}

/// P50/P95/P99 of one duration distribution, seconds — the tail columns
/// the summary tables and sweep CSV report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct Quantiles {
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
}

impl Quantiles {
    /// All-zero quantiles (empty distribution).
    pub const ZERO: Quantiles = Quantiles {
        p50_s: 0.0,
        p95_s: 0.0,
        p99_s: 0.0,
    };

    /// Reads the three tail points off a histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        Quantiles {
            p50_s: h.percentile_s(50.0),
            p95_s: h.percentile_s(95.0),
            p99_s: h.percentile_s(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_s(s: f64) -> Span {
        Span::from_secs_f64(s)
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_hi = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} not contiguous");
            assert!(hi > lo);
            prev_hi = hi;
        }
        // Every microsecond value lands in the bucket whose bounds hold it.
        for us in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            999_999,
            1 << 40,
            u64::MAX,
        ] {
            let i = bucket_of(us);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (lo..hi).contains(&us) || (us == u64::MAX && us >= lo),
                "{us} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn exact_quantities() {
        let mut h = LogHistogram::new();
        for s in [1.0, 2.0, 3.0, 10.0] {
            h.record(span_s(s));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_s(), 4.0);
        assert_eq!(h.min_s(), 1.0);
        assert_eq!(h.max_s(), 10.0);
    }

    #[test]
    fn percentiles_bound_the_order_statistics() {
        let mut h = LogHistogram::new();
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        for &v in &values {
            h.record(span_s(v));
        }
        // p50 covers the 50th smallest (50.0) within one bin (~3.1 %).
        let p50 = h.percentile_s(50.0);
        assert!((50.0..=52.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile_s(99.0);
        assert!((99.0..=104.0).contains(&p99), "p99 = {p99}");
        // p100 is clamped to the exact max.
        assert_eq!(h.percentile_s(100.0), 100.0);
    }

    #[test]
    fn empty_and_zero_values() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile_s(99.0), 0.0);
        assert_eq!(h.mean_s(), 0.0);
        let mut h = LogHistogram::new();
        h.record(Span::ZERO);
        h.record(Span::ZERO);
        assert_eq!(h.percentile_s(50.0), 0.0, "zero bin is exact");
        assert_eq!(h.max_s(), 0.0);
    }

    #[test]
    fn quantiles_from_histogram() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(span_s(i as f64 / 10.0));
        }
        let q = Quantiles::from_histogram(&h);
        assert!(q.p50_s <= q.p95_s && q.p95_s <= q.p99_s);
        assert!(q.p99_s >= 99.0);
        assert_eq!(Quantiles::ZERO.p95_s, 0.0);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(Span(u64::MAX));
        h.record(Span(u64::MAX - 1));
        assert_eq!(h.count(), 2);
        assert!(h.percentile_s(99.0) >= h.max_s() * 0.96);
    }
}
