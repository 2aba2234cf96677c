//! Event-driven step functions over virtual time.

use dmr_sim::SimTime;
use serde::Serialize;

/// A right-continuous step function sampled at change points: the value is
/// `points[i].1` from `points[i].0` until the next point. Used for
/// allocated-node counts and running/completed job counts over a workload
/// execution.
#[derive(Clone, Debug, Default, Serialize)]
pub struct StepSeries {
    points: Vec<(u64, f64)>, // (micros, value)
}

impl StepSeries {
    pub fn new() -> Self {
        StepSeries { points: Vec::new() }
    }

    /// Records `value` from instant `t` on. Recording an identical value
    /// is a no-op; recording at an existing timestamp overwrites (the last
    /// write at an instant wins, matching event processing order), and an
    /// overwrite that lands back on the preceding point's value *removes*
    /// the point. That last rule makes the series canonical: it depends
    /// only on the final value at each instant, never on how many
    /// intermediate same-instant writes a feeder produced — so an
    /// event-batching driver and an event-at-a-time driver that agree on
    /// end-of-instant state record bit-identical series (a redundant
    /// plateau point would otherwise split one integral segment in two
    /// and shift the sum by an ulp).
    pub fn record(&mut self, t: SimTime, value: f64) {
        let n = self.points.len();
        if n > 0 {
            let last = self.points[n - 1];
            debug_assert!(t.as_micros() >= last.0, "series must advance in time");
            if last.0 == t.as_micros() {
                if n >= 2 && self.points[n - 2].1 == value {
                    self.points.pop();
                } else {
                    self.points[n - 1].1 = value;
                }
                return;
            }
            if last.1 == value {
                return;
            }
        }
        self.points.push((t.as_micros(), value));
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Value at instant `t` (0 before the first point).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self
            .points
            .binary_search_by_key(&t.as_micros(), |&(m, _)| m)
        {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Exact integral of the step function over `[from, to]`, in
    /// value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cur_t = from;
        let mut cur_v = self.value_at(from);
        for &(m, v) in &self.points {
            let pt = SimTime(m);
            if pt <= from {
                continue;
            }
            if pt >= to {
                break;
            }
            acc += cur_v * pt.since(cur_t).as_secs_f64();
            cur_t = pt;
            cur_v = v;
        }
        acc + cur_v * to.since(cur_t).as_secs_f64()
    }

    /// Mean value over `[from, to]`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integral(from, to) / span
        }
    }

    /// Maximum recorded value.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The change points as `(seconds, value)` for plotting.
    pub fn points_secs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points
            .iter()
            .map(|&(m, v)| (SimTime(m).as_secs_f64(), v))
    }

    /// Resamples onto a uniform grid of `n` buckets over `[0, end]`
    /// (bucket mean), for compact terminal plots.
    ///
    /// Bucket edges are computed in integer microseconds (`i · end / n`),
    /// so they stay exact for end times beyond 2^53 µs where an f64
    /// round-trip would drift, and the last bucket always ends exactly at
    /// `end`.
    pub fn resample(&self, end: SimTime, n: usize) -> Vec<f64> {
        if n == 0 || end == SimTime::ZERO {
            return Vec::new();
        }
        let e = end.as_micros() as u128;
        let edge = |i: usize| SimTime((i as u128 * e / n as u128) as u64);
        (0..n).map(|i| self.mean(edge(i), edge(i + 1))).collect()
    }
}

/// The O(1)-memory counterpart of [`StepSeries`]: same `record` contract
/// (monotone time, same-instant overwrite, identical-value coalescing)
/// but instead of buffering change points it maintains the running
/// integral online.
///
/// The accumulation replays the exact floating-point operation sequence
/// of [`StepSeries::integral`] from `t = 0`, so for any record sequence
/// [`OnlineSeries::integral_to`] is **bit-for-bit equal** to the buffered
/// series' `integral` (pinned by proptests in
/// `tests/metrics_properties.rs`). This is what lets the streaming
/// telemetry path report the same utilization figures as the buffered
/// one.
#[derive(Clone, Debug, Default)]
pub struct OnlineSeries {
    /// Integral of the step function over `[0, tail[0].0]`: every change
    /// point *before* the uncommitted tail has its segment folded in.
    acc: f64,
    /// The last one or two retained change points `(micros, value)`, not
    /// yet folded into `acc`. Two are kept because the most recent point
    /// can still be *popped* — a same-instant overwrite back to its
    /// predecessor's value removes it (see [`StepSeries::record`]) — and
    /// the predecessor's segment must then stay unbroken: committing it
    /// early and extending with a second product would split one buffered
    /// multiply into two and lose bit-equality.
    tail: [(u64, f64); 2],
    tail_len: u8,
}

impl OnlineSeries {
    pub fn new() -> Self {
        OnlineSeries::default()
    }

    /// Records `value` from instant `t` on; same semantics as
    /// [`StepSeries::record`], including the canonicalising pop on a
    /// same-instant overwrite back to the preceding value.
    pub fn record(&mut self, t: SimTime, value: f64) {
        if self.tail_len == 0 {
            self.tail[0] = (t.as_micros(), value);
            self.tail_len = 1;
            return;
        }
        let li = usize::from(self.tail_len - 1);
        debug_assert!(
            t.as_micros() >= self.tail[li].0,
            "series must advance in time"
        );
        if self.tail[li].0 == t.as_micros() {
            if li == 1 && self.tail[0].1 == value {
                self.tail_len = 1;
            } else {
                self.tail[li].1 = value;
            }
            return;
        }
        if self.tail[li].1 == value {
            return;
        }
        if self.tail_len == 2 {
            // A third point finalises the oldest tail segment: the middle
            // point survived same-instant overwrites, so its start time is
            // fixed and the segment can be committed.
            let (t0, v0) = self.tail[0];
            self.acc += v0 * SimTime(self.tail[1].0).since(SimTime(t0)).as_secs_f64();
            self.tail[0] = self.tail[1];
        }
        self.tail[1] = (t.as_micros(), value);
        self.tail_len = 2;
    }

    /// Exact integral over `[0, to]`, value·seconds. `to` must not
    /// precede the last recorded change (the buffered equivalent of
    /// integrating past the end of the series).
    pub fn integral_to(&self, to: SimTime) -> f64 {
        if self.tail_len == 0 {
            return 0.0;
        }
        let (lt, lv) = self.tail[usize::from(self.tail_len - 1)];
        debug_assert!(to.as_micros() >= lt, "integral_to before last change");
        let mut acc = self.acc;
        if self.tail_len == 2 {
            let (t0, v0) = self.tail[0];
            acc += v0 * SimTime(self.tail[1].0).since(SimTime(t0)).as_secs_f64();
        }
        acc + lv * to.since(SimTime(lt)).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_follows_steps() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(10), 3.0);
        s.record(t(20), 0.0);
        assert_eq!(s.value_at(t(0)), 1.0);
        assert_eq!(s.value_at(t(5)), 1.0);
        assert_eq!(s.value_at(t(10)), 3.0);
        assert_eq!(s.value_at(t(19)), 3.0);
        assert_eq!(s.value_at(t(25)), 0.0);
    }

    #[test]
    fn integral_is_exact() {
        let mut s = StepSeries::new();
        s.record(t(0), 2.0);
        s.record(t(10), 4.0);
        s.record(t(20), 0.0);
        // 10s at 2 + 10s at 4 = 60
        assert_eq!(s.integral(t(0), t(20)), 60.0);
        // Partial windows.
        assert_eq!(s.integral(t(5), t(15)), 2.0 * 5.0 + 4.0 * 5.0);
        assert_eq!(s.integral(t(0), t(40)), 60.0);
        assert_eq!(s.integral(t(15), t(15)), 0.0);
    }

    #[test]
    fn mean_over_window() {
        let mut s = StepSeries::new();
        s.record(t(0), 10.0);
        s.record(t(50), 0.0);
        assert_eq!(s.mean(t(0), t(100)), 5.0);
    }

    #[test]
    fn duplicate_values_collapse() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(5), 1.0);
        s.record(t(9), 1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(5), 2.0);
        s.record(t(5), 7.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(t(5)), 7.0);
    }

    #[test]
    fn same_instant_revert_drops_redundant_point() {
        // Microsecond instants: 3 × 0.250003 s is not the sum of
        // 3 × 0.100001 s and 3 × 0.150002 s in f64, so a segment split at
        // the reverted instant would show in the integral's bits.
        let (start, revert, end) = (SimTime(0), SimTime(100_001), SimTime(250_003));
        let mut s = StepSeries::new();
        let mut o = OnlineSeries::new();
        for (at, v) in [(start, 3.0), (revert, 6.0), (revert, 3.0)] {
            s.record(at, v);
            o.record(at, v);
        }
        // The reverted point leaves no trace, and the integral stays one
        // unbroken segment (bit-exact).
        assert_eq!(s.len(), 1);
        let whole: f64 = 3.0 * 0.250003;
        assert_ne!(
            whole.to_bits(),
            (3.0 * 0.100001 + 3.0 * 0.150002f64).to_bits()
        );
        assert_eq!(s.integral(start, end).to_bits(), whole.to_bits());
        assert_eq!(o.integral_to(end).to_bits(), whole.to_bits());
        // A later differing write at the same instant re-creates the point.
        s.record(revert, 9.0);
        o.record(revert, 9.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(SimTime(200_000)), 9.0);
        let split: f64 = 3.0 * 0.100001 + 9.0 * 0.150002;
        assert_eq!(s.integral(start, end).to_bits(), split.to_bits());
        assert_eq!(o.integral_to(end).to_bits(), split.to_bits());
    }

    #[test]
    fn before_first_point_is_zero() {
        let mut s = StepSeries::new();
        s.record(t(10), 5.0);
        assert_eq!(s.value_at(t(3)), 0.0);
        assert_eq!(s.integral(t(0), t(10)), 0.0);
    }

    #[test]
    fn resample_buckets() {
        let mut s = StepSeries::new();
        s.record(t(0), 4.0);
        s.record(t(50), 8.0);
        let r = s.resample(t(100), 4);
        assert_eq!(r, vec![4.0, 4.0, 8.0, 8.0]);
        assert!(s.resample(SimTime::ZERO, 4).is_empty());
        assert!(s.resample(t(100), 0).is_empty());
    }

    #[test]
    fn max_value() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(1), 9.0);
        s.record(t(2), 3.0);
        assert_eq!(s.max_value(), 9.0);
    }

    #[test]
    fn resample_edges_are_exact_beyond_f64_precision() {
        // end = 3e18 + 3 µs: the old `u64 → f64 → u64` edge computation
        // rounded the first bucket edge to 1_000_000_000_000_000_128
        // instead of the exact 1_000_000_000_000_000_001, leaking 127 µs
        // of the second step into the first bucket's mean.
        let end = SimTime(3_000_000_000_000_000_003);
        let edge = SimTime(1_000_000_000_000_000_001); // = end / 3 exactly
        let mut s = StepSeries::new();
        s.record(SimTime(0), 0.0);
        s.record(edge, 6.0);
        let r = s.resample(end, 3);
        assert_eq!(r[0], 0.0, "first bucket must end exactly at end/3");
        assert_eq!(r[1], 6.0);
        assert_eq!(r[2], 6.0);
    }

    #[test]
    fn online_series_mirrors_buffered_semantics() {
        let mut buffered = StepSeries::new();
        let mut online = OnlineSeries::new();
        // Exercise coalescing, same-instant overwrite and plateaus.
        for (ts, v) in [(0, 2.0), (5, 2.0), (10, 7.0), (10, 4.0), (30, 0.0)] {
            buffered.record(t(ts), v);
            online.record(t(ts), v);
        }
        let end = t(50);
        assert_eq!(
            buffered.integral(SimTime::ZERO, end).to_bits(),
            online.integral_to(end).to_bits()
        );
        assert_eq!(OnlineSeries::new().integral_to(end), 0.0);
    }
}
