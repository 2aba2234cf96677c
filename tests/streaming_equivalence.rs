//! The streaming telemetry acceptance bar: the summary a run folds in
//! its own bounded-memory accumulator must be **bit-identical** —
//! including the P50/P95/P99 percentile columns — to the one
//! [`WorkloadSummary::compute`] derives from the outcomes and allocation
//! series a [`SeriesRecorder`] buffered over the same run, across every
//! workload family, scheduling mode and policy.

use dmr::core::{ExperimentConfig, PolicyKind, Simulation, WorkloadKind};
use dmr::metrics::{MetricsSink, OnlineAccumulator, SeriesRecorder, WorkloadSummary};
use dmr::sim::SimTime;
use dmr::workload::source::collect_jobs;
use dmr::workload::{SwfMapping, SwfTrace, WorkloadSource};

fn assert_summaries_identical(
    label: &str,
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
) {
    let mut rec = SeriesRecorder::new();
    let online = Simulation::new(cfg)
        .source(source)
        .sink(&mut rec)
        .run()
        .unwrap();
    let (allocation, _, _, outcomes) = rec.into_parts();
    let buffered = WorkloadSummary::compute(&outcomes, &allocation, cfg.nodes);
    let (a, b) = (&buffered, &online.summary);
    assert_eq!(a.jobs, b.jobs, "{label}: job counts");
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{label}: makespan"
    );
    assert_eq!(
        a.utilization.to_bits(),
        b.utilization.to_bits(),
        "{label}: utilization"
    );
    assert_eq!(
        a.avg_waiting_s.to_bits(),
        b.avg_waiting_s.to_bits(),
        "{label}: avg wait"
    );
    assert_eq!(
        a.avg_execution_s.to_bits(),
        b.avg_execution_s.to_bits(),
        "{label}: avg exec"
    );
    assert_eq!(
        a.avg_completion_s.to_bits(),
        b.avg_completion_s.to_bits(),
        "{label}: avg compl"
    );
    assert_eq!(a.waiting_q, b.waiting_q, "{label}: waiting percentiles");
    assert_eq!(
        a.execution_q, b.execution_q,
        "{label}: execution percentiles"
    );
    assert_eq!(
        a.completion_q, b.completion_q,
        "{label}: completion percentiles"
    );
    assert_eq!(
        a.reconfigurations, b.reconfigurations,
        "{label}: reconfigurations"
    );
    assert!(!outcomes.is_empty(), "{label}: buffered run sanity");
}

#[test]
fn online_summaries_match_buffered_across_sources_and_modes() {
    let kinds = [
        WorkloadKind::FsPreliminary,
        WorkloadKind::burst(),
        WorkloadKind::diurnal(),
    ];
    for kind in kinds {
        for cfg in [
            ExperimentConfig::preliminary(),
            ExperimentConfig::preliminary().asynchronous(),
            ExperimentConfig::preliminary().as_fixed(),
            ExperimentConfig::preliminary().with_policy(PolicyKind::fair_share()),
        ] {
            let label = format!("{kind:?}/{:?}/{:?}", cfg.mode, cfg.policy);
            assert_summaries_identical(&label, &cfg, kind.build(60, 7).as_mut());
        }
    }
}

#[test]
fn online_summaries_match_buffered_on_offset_trace_replay() {
    // An SWF replay whose first job arrives an hour after t = 0,
    // exercising the `[first_submit, last_end]` accounting window on
    // both paths.
    const TRACE: &str = include_str!("fixtures/tiny.swf");
    let mut specs = collect_jobs(&mut SwfTrace::from_static(TRACE, SwfMapping::default()));
    for spec in &mut specs {
        spec.arrival_s += 3600.0;
    }
    let cfg = ExperimentConfig::preliminary();
    assert_summaries_identical("swf-offset", &cfg, &mut specs.iter());
}

#[test]
fn large_streaming_run_records_percentiles_with_no_job_buffers() {
    // A multi-thousand-job streaming run with an accumulator attached
    // through the public sink API: it sees every job exactly once and its
    // summary carries populated percentile columns, equal to the run's
    // own — with nothing job-sized retained anywhere (both sinks are
    // O(1)).
    let mut source = WorkloadKind::diurnal().build(800, 3);
    let mut sink = OnlineAccumulator::new();
    let cfg = ExperimentConfig::preliminary();
    let stats = Simulation::new(&cfg)
        .source(source.as_mut())
        .sink(&mut sink)
        .run()
        .unwrap();
    assert_eq!(sink.jobs(), 800);
    assert_eq!(sink.completion().count(), 800);
    let summary = sink.summary(cfg.nodes);
    assert_eq!(summary.jobs, 800);
    assert_eq!(summary.completion_q, stats.summary.completion_q);
    assert!(summary.completion_q.p50_s > 0.0);
    assert!(summary.completion_q.p50_s <= summary.completion_q.p95_s);
    assert!(summary.completion_q.p95_s <= summary.completion_q.p99_s);
    assert!(summary.completion_q.p99_s <= summary.makespan_s);
    assert_eq!(stats.past_schedules, 0);
    assert!(stats.end_time.as_secs_f64() >= summary.makespan_s);
}

#[test]
fn custom_sink_sees_every_sample_and_job() {
    // The README "adding a sink" contract: samples arrive in
    // non-decreasing time order — one per processed event (a relayed
    // check-pause end is one), plus one per deferred scheduling-pass
    // flush so the end-of-instant state is always the last word at its
    // instant — and one outcome arrives per job with its submission
    // sequence number. The outcomes
    // are the ground truth the samples are held against: a job runs from
    // its start to its end, so they say what the running and completed
    // counts were after every instant.
    #[derive(Default)]
    struct CheckingSink {
        samples: Vec<(SimTime, [f64; 3])>,
        jobs: Vec<(u64, dmr::metrics::JobOutcome)>,
    }
    impl MetricsSink for CheckingSink {
        fn on_sample(&mut self, now: SimTime, a: f64, r: f64, c: f64) {
            // A completion is reported before the sample that shows it.
            assert_eq!(c, self.jobs.len() as f64, "completed count is current");
            self.samples.push((now, [a, r, c]));
        }
        fn on_job(&mut self, seq: u64, outcome: dmr::metrics::JobOutcome) {
            self.jobs.push((seq, outcome));
        }
    }
    let mut source = WorkloadKind::burst().build(25, 5);
    let mut sink = CheckingSink::default();
    let stats = Simulation::new(&ExperimentConfig::preliminary())
        .source(source.as_mut())
        .sink(&mut sink)
        .run()
        .unwrap();
    assert_eq!(sink.jobs.len(), 25, "one outcome per job");
    let mut seqs: Vec<u64> = sink.jobs.iter().map(|&(seq, _)| seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), 25, "sequence numbers are unique");
    assert_eq!(*seqs.last().unwrap(), 24, "seqs are the arrival indices");

    let samples = &sink.samples;
    for pair in samples.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "samples arrive in time order");
    }
    // The first event is the first arrival: sampled although, where
    // the pass that starts the job is deferred, every quantity is
    // still zero.
    let first_submit = sink
        .jobs
        .iter()
        .map(|(_, o)| o.submit)
        .fold(f64::MAX, f64::min);
    assert_eq!(samples[0].0, SimTime::from_secs_f64(first_submit));
    assert_eq!(samples.last().unwrap().1, [0.0, 0.0, 25.0], "final state");
    // Every change is delivered: each start and each end is an
    // instant with a sample, and the last sample of every instant
    // shows the counts the outcomes imply for it.
    let last_at = |t: f64| {
        let upto = samples.partition_point(|&(at, _)| at.as_secs_f64() <= t);
        samples[..upto]
            .last()
            .filter(|&&(at, _)| at.as_secs_f64() == t)
    };
    for (seq, o) in &sink.jobs {
        assert!(last_at(o.start).is_some(), "start of job {seq} not sampled");
        assert!(last_at(o.end).is_some(), "end of job {seq} not sampled");
    }
    for (i, &(at, [_, running, completed])) in samples.iter().enumerate() {
        if samples.get(i + 1).is_some_and(|next| next.0 == at) {
            continue;
        }
        let t = at.as_secs_f64();
        let jobs = sink.jobs.iter().map(|(_, o)| o);
        let want_running = jobs.clone().filter(|o| o.start <= t && t < o.end).count();
        let want_completed = jobs.filter(|o| o.end <= t).count();
        assert_eq!(running, want_running as f64, "running jobs after t = {t}");
        assert_eq!(
            completed, want_completed as f64,
            "completed jobs after t = {t}"
        );
    }
    assert!(
        samples.len() as u64 >= stats.events,
        "batching must not drop samples: {} < {}",
        samples.len(),
        stats.events
    );
}
