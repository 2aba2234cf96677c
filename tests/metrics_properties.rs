//! Property tests for the measurement layer: the summaries that back
//! every reported number must be internally consistent, and the
//! streaming (bounded-memory) recorders must agree with the buffered
//! ones — bit-for-bit where the design promises it.

use proptest::prelude::*;

use dmr::metrics::{
    JobOutcome, LogHistogram, MetricsSink, OnlineAccumulator, OnlineSeries, SeriesRecorder,
    StepSeries, WorkloadSummary,
};
use dmr::sim::{SimTime, Span};

proptest! {
    /// The step-series integral equals the piecewise sum for any set of
    /// change points, and splitting the window never changes the total.
    #[test]
    fn integral_is_additive(
        mut points in proptest::collection::vec((0u64..10_000, 0u32..100), 1..50),
        split in 0u64..10_000,
    ) {
        points.sort();
        let mut s = StepSeries::new();
        let mut last_t = None;
        for &(t, v) in &points {
            if last_t == Some(t) {
                continue;
            }
            s.record(SimTime::from_secs(t), v as f64);
            last_t = Some(t);
        }
        let end = SimTime::from_secs(10_000);
        let whole = s.integral(SimTime::ZERO, end);
        let split_t = SimTime::from_secs(split);
        let parts = s.integral(SimTime::ZERO, split_t) + s.integral(split_t, end);
        prop_assert!((whole - parts).abs() < 1e-6, "{whole} vs {parts}");
        // Mean is bounded by the recorded extremes.
        let max = s.max_value();
        prop_assert!(s.mean(SimTime::ZERO, end) <= max + 1e-9);
    }

    /// Summary averages are means of the per-job quantities and the
    /// makespan covers every end time.
    #[test]
    fn summary_matches_manual_averages(
        raw in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..1000), 1..40)
    ) {
        let outcomes: Vec<JobOutcome> = raw
            .iter()
            .map(|&(submit, wait, run)| {
                JobOutcome::new(
                    SimTime::from_secs(submit),
                    SimTime::from_secs(submit + wait),
                    SimTime::from_secs(submit + wait + run),
                    0,
                )
            })
            .collect();
        let mut alloc = StepSeries::new();
        alloc.record(SimTime::ZERO, 1.0);
        let s = WorkloadSummary::compute(&outcomes, &alloc, 10);
        let n = outcomes.len() as f64;
        let wait: f64 = raw.iter().map(|&(_, w, _)| w as f64).sum::<f64>() / n;
        let run: f64 = raw.iter().map(|&(_, _, r)| r as f64).sum::<f64>() / n;
        prop_assert!((s.avg_waiting_s - wait).abs() < 1e-9);
        prop_assert!((s.avg_execution_s - run).abs() < 1e-9);
        prop_assert!((s.avg_completion_s - (wait + run)).abs() < 1e-9);
        // Makespan spans first submission to last completion: every
        // completion lands inside `[first_submit, first_submit + makespan]`.
        let first_submit = outcomes.iter().map(|o| o.submit).fold(f64::INFINITY, f64::min);
        let last_end = outcomes.iter().map(|o| o.end).fold(0.0, f64::max);
        prop_assert!((s.makespan_s - (last_end - first_submit)).abs() < 1e-9);
        for o in &outcomes {
            prop_assert!(o.end <= first_submit + s.makespan_s + 1e-9);
        }
    }

    /// The online accumulator's integral / mean / max / change count match
    /// the buffered [`StepSeries`] **bit-for-bit** over arbitrary record
    /// sequences — including same-instant overwrites and value repeats,
    /// which both sides must coalesce identically.
    #[test]
    fn online_series_matches_buffered_bit_for_bit(
        mut points in proptest::collection::vec((0u64..5_000, 0u32..60), 1..80),
        tail in 0u64..1_000,
    ) {
        points.sort_by_key(|&(t, _)| t);
        let mut buffered = StepSeries::new();
        let mut online = OnlineSeries::new();
        for &(t, v) in &points {
            buffered.record(SimTime::from_secs(t), v as f64);
            online.record(SimTime::from_secs(t), v as f64);
        }
        let last_t = points.last().expect("non-empty").0;
        let end = SimTime::from_secs(last_t + tail);
        let b = buffered.integral(SimTime::ZERO, end);
        let o = online.integral_to(end);
        prop_assert_eq!(b.to_bits(), o.to_bits(), "integral {} vs {}", b, o);
        let (bm, om) = (buffered.mean(SimTime::ZERO, end), online.mean_to(end));
        prop_assert_eq!(bm.to_bits(), om.to_bits(), "mean {} vs {}", bm, om);
        prop_assert_eq!(
            buffered.max_value().to_bits(),
            online.max_value().to_bits(),
            "max {} vs {}", buffered.max_value(), online.max_value()
        );
        prop_assert_eq!(buffered.len(), online.changes(), "change counts");
    }

    /// A sample that repeats the one before it tells the shipped sinks
    /// nothing (most of the driver's per-event samples do: a step
    /// boundary whose check says "no action" moves no quantity). A feed
    /// with every such sample left out must leave both sinks exactly
    /// where the sample-per-event feed leaves them: same change points,
    /// same integral, mean and maximum bits — same-instant overwrites
    /// and reverts included, which is where a dropped sample could
    /// matter.
    #[test]
    fn state_change_feed_matches_the_per_event_feed_bit_for_bit(
        steps in proptest::collection::vec((0u64..3, 0u32..3, 0u32..3, 0u32..2), 1..120),
        tail in 0u64..50,
    ) {
        // Few distinct values and many zero time steps: repeats, ties
        // and reverts are the common case.
        let mut now = 0;
        let mut completed = 0;
        let feed: Vec<(SimTime, [f64; 3])> = steps
            .iter()
            .map(|&(dt, allocated, running, done)| {
                now += dt;
                completed += done;
                (SimTime::from_secs(now), [allocated, running, completed].map(f64::from))
            })
            .collect();
        let mut every = (SeriesRecorder::new(), OnlineAccumulator::new());
        let mut changes = (SeriesRecorder::new(), OnlineAccumulator::new());
        let mut delivered = None;
        for &(t, [a, r, c]) in &feed {
            every.0.on_sample(t, a, r, c);
            every.1.on_sample(t, a, r, c);
            if delivered != Some([a, r, c]) {
                delivered = Some([a, r, c]);
                changes.0.on_sample(t, a, r, c);
                changes.1.on_sample(t, a, r, c);
            }
        }
        let end = SimTime::from_secs(now + tail);
        let (every_rec, every_acc) = every;
        let (changes_rec, changes_acc) = changes;
        let online = |acc: &OnlineAccumulator| {
            [acc.allocation(), acc.running(), acc.completed()].map(|s| {
                (s.integral_to(end).to_bits(), s.max_value().to_bits(), s.changes(), s.value().to_bits())
            })
        };
        prop_assert_eq!(online(&every_acc), online(&changes_acc));
        let buffered = |rec: SeriesRecorder| {
            let (allocation, running, completed, _) = rec.into_parts();
            [allocation, running, completed].map(|s| {
                let points: Vec<(u64, u64)> =
                    s.points_secs().map(|(t, v)| (t.to_bits(), v.to_bits())).collect();
                (points, s.integral(SimTime::ZERO, end).to_bits())
            })
        };
        prop_assert_eq!(buffered(every_rec), buffered(changes_rec));
    }

    /// Histogram percentiles bound the exact sorted-vector order
    /// statistics from above, within one bin width.
    #[test]
    fn histogram_percentiles_bound_exact_order_statistics(
        micros in proptest::collection::vec(0u64..2_000_000_000, 1..120),
        q_raw in 0u32..101,
    ) {
        let mut hist = LogHistogram::new();
        let mut sorted = micros.clone();
        sorted.sort_unstable();
        for &us in &micros {
            hist.record(Span(us));
        }
        let q = q_raw as f64;
        let n = sorted.len() as u64;
        let rank = ((q / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let exact_us = sorted[(rank - 1) as usize];
        let exact_s = exact_us as f64 / 1e6;
        let p = hist.percentile_s(q);
        let width_s = LogHistogram::bin_width_us(exact_us) as f64 / 1e6;
        prop_assert!(
            p >= exact_s,
            "percentile {} undershoots exact {} at q={}", p, exact_s, q
        );
        prop_assert!(
            p <= exact_s + width_s,
            "percentile {} overshoots exact {} by more than bin width {} at q={}",
            p, exact_s, width_s, q
        );
        // Exact scalar quantities.
        prop_assert_eq!(hist.count(), n);
        prop_assert!((hist.max_s() - *sorted.last().unwrap() as f64 / 1e6).abs() == 0.0);
        prop_assert!((hist.min_s() - sorted[0] as f64 / 1e6).abs() == 0.0);
        let mean_exact = sorted.iter().map(|&v| v as u128).sum::<u128>() as f64
            / n as f64
            / 1e6;
        prop_assert!((hist.mean_s() - mean_exact).abs() < 1e-9);
    }
}
