//! Streaming metric sinks: where the driver's telemetry goes.
//!
//! The `dmr-core` driver publishes two event families while a workload
//! runs — one *sample* of the evolution quantities after every simulation
//! event, and one *job outcome* as each job completes. A [`MetricsSink`]
//! consumes both. Two implementations ship:
//!
//! * [`SeriesRecorder`] — the buffered recorder: full [`StepSeries`] for
//!   the paper's timeline figures plus the complete `Vec<JobOutcome>`.
//!   Memory grows with trace length; right for the figure pipeline.
//! * [`OnlineAccumulator`] — the bounded-memory recorder: running
//!   integrals ([`OnlineSeries`]) and log-bucketed histograms
//!   ([`LogHistogram`]), O(1) in both event and job count, producing a
//!   [`WorkloadSummary`] bit-identical to the buffered path. The default
//!   for sweeps and long-trace replays.
//!
//! Custom sinks (live dashboards, protocol exporters) implement the trait
//! and run through `dmr_core::run_experiment_with_sink`.

use dmr_sim::SimTime;

use crate::hist::{LogHistogram, Quantiles};
use crate::series::{OnlineSeries, StepSeries};
use crate::summary::{JobOutcome, SummaryInputs, WorkloadSummary};

/// Consumer of per-event telemetry from a workload run.
pub trait MetricsSink {
    /// One sample of the evolution quantities, taken after every handled
    /// simulation event at instant `now`.
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64);

    /// One finished job's accounting, delivered at its completion
    /// instant. `seq` is the job's submission sequence number (0-based
    /// arrival index) — jobs complete out of submission order, so sinks
    /// that need submission order key on it.
    fn on_job(&mut self, seq: u64, outcome: JobOutcome);
}

/// The buffered sink: full evolution series + every job outcome.
#[derive(Clone, Debug, Default)]
pub struct SeriesRecorder {
    allocation: StepSeries,
    running: StepSeries,
    completed: StepSeries,
    outcomes: Vec<(u64, JobOutcome)>,
}

impl SeriesRecorder {
    pub fn new() -> Self {
        SeriesRecorder::default()
    }

    /// Consumes the recorder: `(allocation, running, completed,
    /// outcomes)`, with outcomes restored to submission order.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(mut self) -> (StepSeries, StepSeries, StepSeries, Vec<JobOutcome>) {
        self.outcomes.sort_by_key(|&(seq, _)| seq);
        (
            self.allocation,
            self.running,
            self.completed,
            self.outcomes.into_iter().map(|(_, o)| o).collect(),
        )
    }
}

impl MetricsSink for SeriesRecorder {
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64) {
        self.allocation.record(now, allocated);
        self.running.record(now, running);
        self.completed.record(now, completed);
    }

    fn on_job(&mut self, seq: u64, outcome: JobOutcome) {
        self.outcomes.push((seq, outcome));
    }
}

/// The bounded-memory sink: exact online integrals plus log-bucketed
/// duration histograms. Never retains a per-job or per-event record, so a
/// million-job replay runs in constant telemetry memory, and
/// [`OnlineAccumulator::summary`] is bit-identical to what
/// [`WorkloadSummary::compute`] produces from the equivalent buffered run
/// (pinned by `tests/streaming_equivalence.rs`).
#[derive(Clone, Debug)]
pub struct OnlineAccumulator {
    allocation: OnlineSeries,
    running: OnlineSeries,
    completed: OnlineSeries,
    waiting: LogHistogram,
    execution: LogHistogram,
    completion: LogHistogram,
    inputs: SummaryInputs,
}

impl Default for OnlineAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineAccumulator {
    pub fn new() -> Self {
        OnlineAccumulator {
            allocation: OnlineSeries::new(),
            running: OnlineSeries::new(),
            completed: OnlineSeries::new(),
            waiting: LogHistogram::new(),
            execution: LogHistogram::new(),
            completion: LogHistogram::new(),
            inputs: SummaryInputs::new(),
        }
    }

    /// The summary of everything accumulated so far.
    ///
    /// Bit-identity with [`WorkloadSummary::compute`] rests on two
    /// invariants the `dmr-core` driver guarantees and custom feeders
    /// must uphold: the allocation sample is **zero before the first
    /// completed job's submission** (the buffered path integrates over
    /// `[first_submit, last_end]`, the online integral from 0 — equal
    /// only while the prefix contributes nothing), and **no allocation
    /// change lands after the last completion** (the online integral
    /// cannot rewind past its last retained change point). In a
    /// scheduler-driven run both hold by construction: nothing can be
    /// allocated before the first job exists, and every node is free
    /// after the last one completes.
    pub fn summary(&self, total_nodes: u32) -> WorkloadSummary {
        let mut inputs = self.inputs.clone();
        if inputs.jobs > 0 {
            inputs.node_seconds = self
                .allocation
                .integral_to(SimTime::from_secs_f64(inputs.last_end_s));
        }
        inputs.waiting_q = Quantiles::from_histogram(&self.waiting);
        inputs.execution_q = Quantiles::from_histogram(&self.execution);
        inputs.completion_q = Quantiles::from_histogram(&self.completion);
        inputs.assemble(total_nodes)
    }

    /// The online allocation series (integral / max / change count).
    pub fn allocation(&self) -> &OnlineSeries {
        &self.allocation
    }

    /// The online running-job-count series (e.g. `max_value()` is the
    /// peak number of concurrently running jobs).
    pub fn running(&self) -> &OnlineSeries {
        &self.running
    }

    /// The online completed-job-count series (monotone; `value()` is the
    /// current completion count).
    pub fn completed(&self) -> &OnlineSeries {
        &self.completed
    }

    /// The waiting-time histogram.
    pub fn waiting(&self) -> &LogHistogram {
        &self.waiting
    }

    /// The execution-time histogram.
    pub fn execution(&self) -> &LogHistogram {
        &self.execution
    }

    /// The completion-time histogram.
    pub fn completion(&self) -> &LogHistogram {
        &self.completion
    }

    /// Jobs folded in so far.
    pub fn jobs(&self) -> u64 {
        self.inputs.jobs
    }
}

impl MetricsSink for OnlineAccumulator {
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64) {
        self.allocation.record(now, allocated);
        self.running.record(now, running);
        self.completed.record(now, completed);
    }

    fn on_job(&mut self, _seq: u64, outcome: JobOutcome) {
        self.inputs.fold_job(
            &outcome,
            &mut self.waiting,
            &mut self.execution,
            &mut self.completion,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn outcome(submit: u64, start: u64, end: u64) -> JobOutcome {
        JobOutcome::new(t(submit), t(start), t(end), 0)
    }

    #[test]
    fn recorder_restores_submission_order() {
        let mut rec = SeriesRecorder::new();
        // Jobs complete out of submission order.
        rec.on_job(2, outcome(20, 21, 30));
        rec.on_job(0, outcome(0, 1, 90));
        rec.on_job(1, outcome(10, 11, 50));
        let (_, _, _, outcomes) = rec.into_parts();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].submit, 0.0);
        assert_eq!(outcomes[1].submit, 10.0);
        assert_eq!(outcomes[2].submit, 20.0);
    }

    #[test]
    fn online_summary_matches_buffered_compute() {
        // No allocation before the first submission (t = 5), exactly as
        // the driver produces: nothing can be allocated before a job
        // exists.
        let samples = [(5u64, 3.0), (10, 7.0), (40, 2.0), (90, 0.0)];
        let mut rec = SeriesRecorder::new();
        let mut acc = OnlineAccumulator::new();
        for &(ts, v) in &samples {
            rec.on_sample(t(ts), v, 0.0, 0.0);
            acc.on_sample(t(ts), v, 0.0, 0.0);
        }
        let jobs = [outcome(5, 6, 40), outcome(7, 30, 90), outcome(12, 12, 60)];
        for (i, o) in jobs.iter().enumerate() {
            rec.on_job(i as u64, *o);
        }
        // Online sees them in completion order.
        acc.on_job(0, jobs[0]);
        acc.on_job(2, jobs[2]);
        acc.on_job(1, jobs[1]);
        let (alloc, _, _, outcomes) = rec.into_parts();
        let buffered = WorkloadSummary::compute(&outcomes, &alloc, 10);
        let online = acc.summary(10);
        assert_eq!(buffered.makespan_s, online.makespan_s);
        assert_eq!(buffered.utilization, online.utilization);
        assert_eq!(buffered.avg_waiting_s, online.avg_waiting_s);
        assert_eq!(buffered.avg_completion_s, online.avg_completion_s);
        assert_eq!(buffered.completion_q, online.completion_q);
        assert_eq!(buffered.jobs, online.jobs);
    }

    #[test]
    fn accumulator_is_constant_size() {
        // No per-job state: folding many jobs leaves the struct size
        // untouched (histogram bins + a handful of scalars).
        let mut acc = OnlineAccumulator::new();
        for i in 0..10_000u64 {
            acc.on_sample(t(i), (i % 20) as f64, 1.0, i as f64);
            acc.on_job(i, outcome(i, i + 1, i + 10));
        }
        assert_eq!(acc.jobs(), 10_000);
        assert_eq!(acc.waiting().count(), 10_000);
        let s = acc.summary(20);
        assert_eq!(s.jobs, 10_000);
        assert!(s.makespan_s > 0.0);
    }
}
