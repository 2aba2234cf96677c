//! Workload-level summary statistics (the rows of Table II).

use dmr_sim::{SimTime, Span};
use serde::Serialize;

use crate::hist::{mean_secs, LogHistogram, Quantiles};
use crate::series::StepSeries;

/// Accounting for one finished job.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct JobOutcome {
    /// Submission instant, seconds.
    pub submit: f64,
    /// Start instant, seconds.
    pub start: f64,
    /// Completion instant, seconds.
    pub end: f64,
    /// Completed reconfigurations.
    pub reconfigurations: u32,
}

impl JobOutcome {
    pub fn new(submit: SimTime, start: SimTime, end: SimTime, reconfigurations: u32) -> Self {
        JobOutcome {
            submit: submit.as_secs_f64(),
            start: start.as_secs_f64(),
            end: end.as_secs_f64(),
            reconfigurations,
        }
    }

    pub fn waiting_s(&self) -> f64 {
        (self.start - self.submit).max(0.0)
    }

    pub fn execution_s(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    pub fn completion_s(&self) -> f64 {
        (self.end - self.submit).max(0.0)
    }
}

/// The aggregate measures the paper reports per workload (Table II plus the
/// bar-chart quantities of Figures 3, 7–11), extended with the tail
/// percentiles multi-thousand-job campaigns report.
#[derive(Clone, Debug, Serialize)]
pub struct WorkloadSummary {
    /// Total workload execution time (first submission to last completion),
    /// seconds.
    pub makespan_s: f64,
    /// Average resource-utilization rate in `[0, 1]`: node-seconds
    /// allocated over `total_nodes * makespan`, with the integral running
    /// over `[first_submit, last_end]`.
    pub utilization: f64,
    /// Average job waiting time, seconds.
    pub avg_waiting_s: f64,
    /// Average job execution time, seconds.
    pub avg_execution_s: f64,
    /// Average job completion (waiting + execution) time, seconds.
    pub avg_completion_s: f64,
    /// P50/P95/P99 of the per-job waiting time, seconds.
    pub waiting_q: Quantiles,
    /// P50/P95/P99 of the per-job execution time, seconds.
    pub execution_q: Quantiles,
    /// P50/P95/P99 of the per-job completion time, seconds.
    pub completion_q: Quantiles,
    /// Jobs in the workload.
    pub jobs: usize,
    /// Total reconfigurations across all jobs.
    pub reconfigurations: u32,
    /// Total cluster energy over the run, joules — the
    /// `dmr_cluster::PowerMeter` integral the driver patches in after the
    /// run (zero when no meter ran, e.g. summaries parsed from CSV).
    pub energy_to_solution_j: f64,
    /// Mean cluster power over the metered window, watts (zero when no
    /// meter ran).
    pub avg_watts: f64,
    /// Per-machine-class busy fraction over the metered window, in class
    /// table order (empty when no meter ran; one entry on uniform
    /// clusters).
    pub class_utilization: Vec<f64>,
    /// Injected fault events that hit an `Up` node — patched in by the
    /// driver, zero under the zero-fault load (or when parsed from a
    /// pre-fault CSV).
    pub failures: u64,
    /// Running jobs killed by a node failure and resubmitted.
    pub requeues: u64,
    /// Compute time destroyed by failures (work since the last
    /// checkpoint image, summed over kills), seconds.
    pub lost_work_s: f64,
    /// Useful compute over useful-plus-lost compute: an exact `1.0`
    /// whenever nothing was lost (including every zero-fault run).
    pub goodput_ratio: f64,
    /// P95 failure-to-restart latency across requeued jobs, seconds.
    pub restart_p95_s: f64,
}

/// The order-independent ingredients of a [`WorkloadSummary`].
///
/// Both metric paths reduce to this struct — the buffered path by folding
/// a `Vec<JobOutcome>`, the streaming path by accumulating per job as it
/// completes — and both call [`SummaryInputs::assemble`], so the two
/// produce bit-identical summaries: sums are exact integer microseconds,
/// extremes are min/max folds, and the allocation integral replays the
/// same operation sequence (see [`crate::series::OnlineSeries`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct SummaryInputs {
    pub jobs: u64,
    pub reconfigurations: u32,
    /// Min over completed jobs' submit instants (`f64::INFINITY` when no
    /// job completed).
    pub first_submit_s: f64,
    /// Max over completed jobs' end instants.
    pub last_end_s: f64,
    pub wait_sum_us: u128,
    pub exec_sum_us: u128,
    pub compl_sum_us: u128,
    /// Allocation integral over `[first_submit, last_end]`, node-seconds.
    pub node_seconds: f64,
    pub waiting_q: Quantiles,
    pub execution_q: Quantiles,
    pub completion_q: Quantiles,
}

impl SummaryInputs {
    pub(crate) fn new() -> Self {
        SummaryInputs {
            first_submit_s: f64::INFINITY,
            ..SummaryInputs::default()
        }
    }

    /// Folds one job's accounting in (everything except the allocation
    /// integral, which the caller owns).
    pub(crate) fn fold_job(
        &mut self,
        outcome: &JobOutcome,
        waiting: &mut LogHistogram,
        execution: &mut LogHistogram,
        completion: &mut LogHistogram,
    ) {
        self.jobs += 1;
        self.reconfigurations += outcome.reconfigurations;
        self.first_submit_s = self.first_submit_s.min(outcome.submit);
        self.last_end_s = self.last_end_s.max(outcome.end);
        let w = Span::from_secs_f64(outcome.waiting_s());
        let e = Span::from_secs_f64(outcome.execution_s());
        let c = Span::from_secs_f64(outcome.completion_s());
        waiting.record(w);
        execution.record(e);
        completion.record(c);
        self.wait_sum_us += w.as_micros() as u128;
        self.exec_sum_us += e.as_micros() as u128;
        self.compl_sum_us += c.as_micros() as u128;
    }

    pub(crate) fn assemble(self, total_nodes: u32) -> WorkloadSummary {
        if self.jobs == 0 {
            return WorkloadSummary {
                makespan_s: 0.0,
                utilization: 0.0,
                avg_waiting_s: 0.0,
                avg_execution_s: 0.0,
                avg_completion_s: 0.0,
                waiting_q: Quantiles::ZERO,
                execution_q: Quantiles::ZERO,
                completion_q: Quantiles::ZERO,
                jobs: 0,
                reconfigurations: self.reconfigurations,
                energy_to_solution_j: 0.0,
                avg_watts: 0.0,
                class_utilization: Vec::new(),
                failures: 0,
                requeues: 0,
                lost_work_s: 0.0,
                goodput_ratio: 1.0,
                restart_p95_s: 0.0,
            };
        }
        // "First submission to last completion" — not `last_end - 0`,
        // which deflated both the makespan and the utilization for any
        // trace whose first job arrives after t = 0 (SWF replays, diurnal
        // sources).
        let makespan_s = (self.last_end_s - self.first_submit_s).max(0.0);
        let capacity = total_nodes as f64 * makespan_s;
        let utilization = if capacity > 0.0 {
            self.node_seconds / capacity
        } else {
            0.0
        };
        WorkloadSummary {
            makespan_s,
            utilization,
            avg_waiting_s: mean_secs(self.wait_sum_us, self.jobs),
            avg_execution_s: mean_secs(self.exec_sum_us, self.jobs),
            avg_completion_s: mean_secs(self.compl_sum_us, self.jobs),
            waiting_q: self.waiting_q,
            execution_q: self.execution_q,
            completion_q: self.completion_q,
            jobs: self.jobs as usize,
            reconfigurations: self.reconfigurations,
            energy_to_solution_j: 0.0,
            avg_watts: 0.0,
            class_utilization: Vec::new(),
            failures: 0,
            requeues: 0,
            lost_work_s: 0.0,
            goodput_ratio: 1.0,
            restart_p95_s: 0.0,
        }
    }
}

impl WorkloadSummary {
    /// Builds the summary from per-job outcomes and the allocation series.
    ///
    /// `allocation` must be the step series of *allocated node count* over
    /// time; `total_nodes` the cluster size. The utilization integral runs
    /// over `[first_submit, last_end]` — the same window the makespan
    /// measures.
    pub fn compute(outcomes: &[JobOutcome], allocation: &StepSeries, total_nodes: u32) -> Self {
        let mut inputs = SummaryInputs::new();
        let mut waiting = LogHistogram::new();
        let mut execution = LogHistogram::new();
        let mut completion = LogHistogram::new();
        for o in outcomes {
            inputs.fold_job(o, &mut waiting, &mut execution, &mut completion);
        }
        if inputs.jobs > 0 {
            inputs.node_seconds = allocation.integral(
                SimTime::from_secs_f64(inputs.first_submit_s),
                SimTime::from_secs_f64(inputs.last_end_s),
            );
        }
        inputs.waiting_q = Quantiles::from_histogram(&waiting);
        inputs.execution_q = Quantiles::from_histogram(&execution);
        inputs.completion_q = Quantiles::from_histogram(&completion);
        inputs.assemble(total_nodes)
    }

    /// Makespan as a [`Span`] for callers still in virtual time.
    pub fn makespan(&self) -> Span {
        Span::from_secs_f64(self.makespan_s)
    }
}

/// The "Gain" the paper annotates its charts with: percentage reduction of
/// `flexible` relative to `fixed`. Positive = flexible is better (smaller).
pub fn gain_pct(fixed: f64, flexible: f64) -> f64 {
    if fixed == 0.0 {
        return 0.0;
    }
    (fixed - flexible) / fixed * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn outcome_spans() {
        let o = JobOutcome::new(t(10), t(30), t(90), 2);
        assert_eq!(o.waiting_s(), 20.0);
        assert_eq!(o.execution_s(), 60.0);
        assert_eq!(o.completion_s(), 80.0);
    }

    #[test]
    fn summary_averages() {
        let outcomes = vec![
            JobOutcome::new(t(0), t(0), t(100), 0),
            JobOutcome::new(t(0), t(100), t(200), 1),
        ];
        let mut alloc = StepSeries::new();
        alloc.record(t(0), 10.0);
        alloc.record(t(200), 0.0);
        let s = WorkloadSummary::compute(&outcomes, &alloc, 10);
        assert_eq!(s.makespan_s, 200.0);
        assert_eq!(s.avg_waiting_s, 50.0);
        assert_eq!(s.avg_execution_s, 100.0);
        assert_eq!(s.avg_completion_s, 150.0);
        assert!((s.utilization - 1.0).abs() < 1e-9);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.reconfigurations, 1);
        // The percentile columns bound the per-job values.
        assert!(s.completion_q.p50_s >= 100.0);
        assert!(s.completion_q.p99_s >= 200.0 && s.completion_q.p99_s <= 207.0);
    }

    #[test]
    fn utilization_half() {
        let outcomes = vec![JobOutcome::new(t(0), t(0), t(100), 0)];
        let mut alloc = StepSeries::new();
        alloc.record(t(0), 5.0);
        let s = WorkloadSummary::compute(&outcomes, &alloc, 10);
        assert!((s.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn offset_trace_is_not_deflated() {
        // Regression for the makespan/utilization accounting bug: the
        // same one-job workload, shifted to start at t = 1000 s, must
        // report the same makespan and utilization as the t = 0 version.
        let at_zero = vec![JobOutcome::new(t(0), t(0), t(100), 0)];
        let mut alloc0 = StepSeries::new();
        alloc0.record(t(0), 5.0);
        alloc0.record(t(100), 0.0);
        let s0 = WorkloadSummary::compute(&at_zero, &alloc0, 10);

        let offset = vec![JobOutcome::new(t(1000), t(1000), t(1100), 0)];
        let mut alloc1 = StepSeries::new();
        alloc1.record(t(1000), 5.0);
        alloc1.record(t(1100), 0.0);
        let s1 = WorkloadSummary::compute(&offset, &alloc1, 10);

        assert_eq!(s1.makespan_s, 100.0, "makespan must ignore the offset");
        assert_eq!(s0.makespan_s, s1.makespan_s);
        assert!(
            (s1.utilization - 0.5).abs() < 1e-9,
            "utilization deflated to {} by the t=1000 offset",
            s1.utilization
        );
        assert_eq!(s0.utilization, s1.utilization);
    }

    #[test]
    fn empty_workload_is_zeroes() {
        let s = WorkloadSummary::compute(&[], &StepSeries::new(), 10);
        assert_eq!(s.makespan_s, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.waiting_q, Quantiles::ZERO);
    }

    #[test]
    fn gain_matches_paper_convention() {
        // Figure 10 style: fixed 100, flexible 58 → 42 % gain.
        assert!((gain_pct(100.0, 58.0) - 42.0).abs() < 1e-9);
        // Negative gain when flexible is worse (Figure 7 small loads).
        assert!(gain_pct(100.0, 107.0) < 0.0);
        assert_eq!(gain_pct(0.0, 5.0), 0.0);
    }
}
