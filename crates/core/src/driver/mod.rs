//! The discrete-event workload driver.
//!
//! Reproduces the full §III methodology loop: jobs arrive (Feitelson
//! process), Slurm starts them (EASY backfill + multifactor priority), each
//! flexible job exposes reconfiguring points at its step boundaries where
//! the runtime calls the DMR API; the installed [`dmr_slurm::ResizePolicy`]
//! (Algorithm 1 by default, selected by
//! [`crate::config::ExperimentConfig::policy`]) answers expand /
//! shrink / no-action; expansions run the four-step resizer-job protocol
//! (with queue-wait and timeout in asynchronous mode) followed by an
//! `MPI_Comm_spawn` + data-redistribution charge; shrinks drain data first
//! (the ACK workflow) and then release nodes, boosting the queued job that
//! triggered them.
//!
//! The driver is split along the lifecycle of a job (private modules):
//!
//! * `events` — the event vocabulary (`Ev`) and dispatch;
//! * `arrivals` — job submission, scheduling cycles, compute segments
//!   and completion;
//! * `reconfig` — the DMR check points and the expansion protocol
//!   (synchronous and asynchronous variants, resizer-job timeout);
//! * `shrink` — the ACK-style shrink workflow (drain, release, boost);
//! * `failure` — injected node failures, kill-and-requeue recovery, and
//!   the resize-retry backoff schedule;
//! * `metrics` — evolution-series sampling and final summary assembly.

pub(crate) mod arrivals;
pub(crate) mod events;
pub(crate) mod failure;
pub(crate) mod metrics;
pub(crate) mod reconfig;
pub(crate) mod shrink;

use dmr_cluster::{Cluster, FaultSource, FaultTrace, PowerMeter};
use dmr_metrics::{MetricsSink, OnlineAccumulator, SeriesRecorder, StepSeries, WorkloadSummary};
use dmr_sim::{Engine, EventId, SimTime, Span, Step, CLASS_EARLY};
use dmr_slurm::{JobId, JobMap, ResizeAction, Slurm, SlurmConfig};
use dmr_workload::WorkloadSource;
use rand::{rngs::StdRng, SeedableRng};

use crate::config::{ExperimentConfig, Telemetry};
use crate::error::DmrError;
use crate::model::SimJob;
use crate::result::{ExperimentResult, RunStats};
use events::Ev;

/// Per-running-job state the runtime would keep.
#[derive(Debug)]
pub(crate) struct RunState {
    pub(crate) spec_idx: usize,
    /// Current process count (= node count; one rank per node). Changed
    /// only through [`RunState::set_procs`].
    pub(crate) procs: u32,
    /// [`SimJob::step_time`] at `procs`: every compute segment needs it,
    /// and it only changes when `procs` does.
    pub(crate) step: Span,
    pub(crate) steps_done: u32,
    /// Inhibitor gate: checks before this instant are swallowed.
    pub(crate) next_check_at: SimTime,
    /// Asynchronous mode: the action decided at the previous boundary.
    pub(crate) planned: Option<ResizeAction>,
    /// Asynchronous mode: a queued resizer started and its nodes are
    /// already attached; apply (spawn + redistribute) at the next boundary.
    pub(crate) granted_expand: Option<u32>,
    /// Reconfiguration in flight: target process count to adopt at
    /// [`Ev::ReconfigDone`].
    pub(crate) pending_expand: Option<u32>,
    pub(crate) pending_shrink: Option<u32>,
    /// Outstanding queued resizer job and its timeout event.
    pub(crate) waiting_rj: Option<(JobId, EventId)>,
    /// The in-flight `SegmentDone` / `ReconfigDone` event for this job.
    /// Exactly one is pending whenever the job is computing, pausing at
    /// a check (the relayed `SegmentDone` of the segment after the
    /// pause) or reconfiguring; a node failure cancels it so the dead
    /// incarnation can never fire a stale completion.
    pub(crate) inflight: Option<EventId>,
    /// When this incarnation started computing (scratch-restart baseline
    /// for lost-work accounting).
    pub(crate) started_at: SimTime,
    /// Instant of the last checkpoint image (= `started_at` until the
    /// first image; a requeued incarnation starts "holding" the image it
    /// resumed from).
    pub(crate) last_ckpt_at: SimTime,
    /// Steps covered by the last checkpoint image.
    pub(crate) ckpt_steps: u32,
    /// An expansion retry (after injected-failure backoff) is eligible:
    /// target process count to attempt at the next reconfiguring point.
    pub(crate) retry_expand: Option<u32>,
    /// Injected-failure retry attempts consumed for the current target
    /// (bounds the exponential backoff schedule).
    pub(crate) retry_attempt: u32,
}

impl RunState {
    pub(crate) fn new(spec_idx: usize, sim: &SimJob, procs: u32, now: SimTime) -> Self {
        RunState {
            spec_idx,
            procs,
            step: sim.step_time(procs),
            steps_done: 0,
            next_check_at: now,
            planned: None,
            granted_expand: None,
            pending_expand: None,
            pending_shrink: None,
            waiting_rj: None,
            inflight: None,
            started_at: now,
            last_ckpt_at: now,
            ckpt_steps: 0,
            retry_expand: None,
            retry_attempt: 0,
        }
    }

    /// Adopts a new process count (`sim` is this job's spec).
    pub(crate) fn set_procs(&mut self, procs: u32, sim: &SimJob) {
        self.procs = procs;
        self.step = sim.step_time(procs);
    }
}

/// Recovery bookkeeping for a job that was killed by a node failure and
/// resubmitted, keyed by the *new* incarnation's id. Carried until the
/// job completes so accounting spans every incarnation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequeueInfo {
    /// Submission instant of the first incarnation — the completion
    /// outcome is reported against it, so waiting time includes the lost
    /// run and the requeue wait.
    pub(crate) orig_submit: SimTime,
    /// When the failure killed the previous incarnation (time-to-restart
    /// is measured from here to the restart).
    pub(crate) failed_at: SimTime,
    /// Steps already safe in the last checkpoint image (zero when
    /// restarting from scratch); the new incarnation resumes here.
    pub(crate) resume_steps: u32,
    /// Reconfigurations accumulated by the dead incarnations.
    pub(crate) prior_reconfigs: u32,
}

/// Slab of the active jobs' specs, addressed by the slot index the
/// [`Ev::Arrival`] payload carries. The driver used to key this table by
/// arrival index in a `BTreeMap`; the slab replaces every tree descent
/// on the segment hot path (two lookups per compute segment) with an
/// indexed load, and recycles slots as jobs retire so the table stays as
/// dense as the active set. Each entry keeps the job's monotonic arrival
/// sequence number — the stable telemetry id `MetricsSink::on_job`
/// reports — precisely *because* slots recycle.
///
/// No generation check is needed: a slot is referenced only between its
/// arrival and its completion (`account_completion` frees it last), so a
/// stale index can never be observed.
#[derive(Default)]
pub(crate) struct SpecSlab {
    slots: Vec<Option<(u64, SimJob)>>,
    free: Vec<usize>,
}

impl SpecSlab {
    pub(crate) fn insert(&mut self, seq: u64, job: SimJob) -> usize {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx].is_none(), "free spec slot occupied");
                self.slots[idx] = Some((seq, job));
                idx
            }
            None => {
                self.slots.push(Some((seq, job)));
                self.slots.len() - 1
            }
        }
    }

    /// The arrival sequence number of the job in `idx`.
    pub(crate) fn seq(&self, idx: usize) -> u64 {
        self.slots[idx].as_ref().expect("spec slot vacant").0
    }

    pub(crate) fn remove(&mut self, idx: usize) {
        let freed = self.slots[idx].take();
        debug_assert!(freed.is_some(), "spec slot double-freed");
        self.free.push(idx);
    }
}

impl std::ops::Index<usize> for SpecSlab {
    type Output = SimJob;

    fn index(&self, idx: usize) -> &SimJob {
        &self.slots[idx].as_ref().expect("spec slot vacant").1
    }
}

/// Where the driver pulls its jobs from: a pre-materialized list (the
/// historical [`run_experiment`] API) or a streaming
/// [`dmr_workload::WorkloadSource`]. Either way the driver consumes
/// demand one job at a time — only the next arrival is ever scheduled.
pub(crate) enum JobFeed<'a> {
    Materialized(std::iter::Cloned<std::slice::Iter<'a, SimJob>>),
    Streaming(&'a mut dyn WorkloadSource),
}

impl JobFeed<'_> {
    fn next_job(&mut self) -> Option<SimJob> {
        match self {
            JobFeed::Materialized(it) => it.next(),
            JobFeed::Streaming(src) => src.next_job().map(SimJob::from_spec),
        }
    }
}

/// The simulation state shared by every driver submodule.
pub(crate) struct Driver<'a, 's> {
    pub(crate) cfg: ExperimentConfig,
    /// Specs of the jobs currently *in* the simulation, keyed by slab
    /// slot (the `Ev::Arrival` payload). An entry is inserted when the
    /// feed yields the job and removed when the job completes, so the
    /// slab holds only the active set — O(active jobs), not O(trace
    /// length).
    pub(crate) jobs: SpecSlab,
    /// Jobs pulled from the feed so far (the next arrival sequence
    /// number, and the telemetry id of the next arrival).
    pub(crate) arrived: usize,
    pub(crate) feed: JobFeed<'a>,
    pub(crate) slurm: Slurm,
    pub(crate) engine: Engine<Ev>,
    pub(crate) running: JobMap<RunState>,
    pub(crate) spec_of: JobMap<usize>,
    pub(crate) rj_to_orig: JobMap<JobId>,
    /// Where telemetry goes: one sample per processed event, one outcome
    /// per completed job.
    pub(crate) sink: &'s mut dyn MetricsSink,
    pub(crate) completed: u32,
    /// An arrival event is in flight (the feed was not exhausted at the
    /// last pull).
    pub(crate) arrivals_pending: bool,
    /// Arrival instant of the last scheduled arrival; sources must be
    /// arrival-sorted, stragglers are clamped here defensively.
    pub(crate) last_arrival: SimTime,
    /// A scheduling pass was requested at the current instant but not run
    /// yet (same-instant batching — see [`Driver::request_schedule`]).
    pub(crate) pass_due: bool,
    /// Integrates cluster watts over virtual time (charged whenever the
    /// per-class counts may be about to change, see [`Driver::sample`]).
    pub(crate) power: PowerMeter,
    /// Per-class busy/off counts in force since the previous charge — the
    /// meter charges each interval at the counts that *were* live during
    /// it, so the driver caches the post-event counts of the last charge.
    pub(crate) prev_busy: Vec<u32>,
    pub(crate) prev_off: Vec<u32>,
    /// The cluster's change counter as of the previous charge.
    pub(crate) metered_changes: u64,
    /// An [`Ev::NodeWake`] is already scheduled (wake requests coalesce).
    pub(crate) wake_pending: bool,
    /// Faultload event stream; [`FaultSource::None`] under the zero-fault
    /// configuration (nothing is ever pulled or scheduled).
    pub(crate) faults: FaultSource,
    /// A fault event is already scheduled in the engine (the driver keeps
    /// exactly one in flight, like arrivals).
    pub(crate) fault_pending: bool,
    /// Bernoulli source for injected resize-negotiation failures. `None`
    /// under [`dmr_cluster::FaultLoad::None`], so zero-fault runs never
    /// construct or draw from it.
    pub(crate) proto_rng: Option<StdRng>,
    /// Per-negotiation injected-failure probability (0.0 when inactive).
    pub(crate) resize_fail_p: f64,
    /// Recovery bookkeeping for requeued jobs, keyed by the live
    /// incarnation's id.
    pub(crate) requeued: JobMap<RequeueInfo>,
    /// Fault events that hit the cluster (idle or busy nodes).
    pub(crate) failures: u64,
    /// Running jobs killed and resubmitted after losing a node.
    pub(crate) requeues: u64,
    /// Resize negotiations failed by injection.
    pub(crate) resize_faults: u64,
    /// Backoff retries scheduled after injected negotiation failures.
    pub(crate) resize_retries: u64,
    /// Compute time destroyed by failures (work since the last image).
    pub(crate) lost_work: Span,
    /// Failure-to-restart latencies (µs), one per successful restart.
    pub(crate) restart_lat: Vec<u64>,
}

/// Runs one workload under one configuration.
pub fn run_experiment(cfg: &ExperimentConfig, jobs: &[SimJob]) -> ExperimentResult {
    run_feed(cfg, JobFeed::Materialized(jobs.iter().cloned()), None)
}

/// Runs one workload with a *scripted* faultload: `trace` replaces
/// whatever [`ExperimentConfig::faults`] preset the configuration names
/// (the injected resize-failure probability still follows the preset).
/// Deterministic by construction — the trace is replayed verbatim — so
/// regression tests can pin an exact incident. A trace naming a node the
/// machine does not have is refused with [`DmrError::FaultScript`]
/// before anything runs.
pub fn run_experiment_with_faults(
    cfg: &ExperimentConfig,
    jobs: &[SimJob],
    trace: FaultTrace,
) -> Result<ExperimentResult, DmrError> {
    check_fault_script(cfg, &trace)?;
    let feed = JobFeed::Materialized(jobs.iter().cloned());
    Ok(run_feed(cfg, feed, Some(trace)))
}

/// Runs one streamed workload under one configuration.
///
/// Unlike [`run_experiment`], the job list is never materialized: the
/// driver pulls one job at a time from `source` and keeps a single
/// arrival event in flight, so a million-job trace replays in O(1)
/// arrival memory. Per-job accounting is copied into the metrics sink at
/// each completion, after which the driver prunes the job from the
/// scheduler and its own spec table (in every telemetry mode — the sink
/// owns all accounting). With [`Telemetry::Online`] the run is therefore
/// O(1) in job count end to end: the sink folds outcomes into streaming
/// histograms and no `Vec<JobOutcome>` is ever built.
/// Streaming the [`dmr_workload::Feitelson`] source is result-identical
/// to running [`run_experiment`] on the materialized generator output
/// (pinned by `tests/source_equivalence.rs`), and `Online` summaries are
/// bit-identical to `Full` ones (pinned by
/// `tests/streaming_equivalence.rs`).
pub fn run_experiment_streaming(
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
) -> ExperimentResult {
    run_feed(cfg, JobFeed::Streaming(source), None)
}

/// [`run_experiment_streaming`] with a *scripted* faultload — the
/// streaming counterpart of [`run_experiment_with_faults`], so `repro
/// --trace --faults trace:incident.txt` can replay an exact recorded
/// incident over an SWF trace in O(1) arrival memory. Refuses a trace
/// naming a node the machine does not have, as that function does.
pub fn run_experiment_streaming_with_faults(
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
    trace: FaultTrace,
) -> Result<ExperimentResult, DmrError> {
    check_fault_script(cfg, &trace)?;
    Ok(run_feed(cfg, JobFeed::Streaming(source), Some(trace)))
}

/// Whether every event of `trace` names a node of the `cfg.nodes`-node
/// machine (every machine mix lays out exactly that many).
fn check_fault_script(cfg: &ExperimentConfig, trace: &FaultTrace) -> Result<(), DmrError> {
    trace.check_nodes(cfg.nodes).map_err(DmrError::FaultScript)
}

/// Runs one streamed workload, feeding telemetry to a caller-supplied
/// [`MetricsSink`] — the extension point for custom recorders (live
/// dashboards, exporters). The driver itself retains nothing; everything
/// except the [`RunStats`] scalars flows through `sink`.
pub fn run_experiment_with_sink(
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
    sink: &mut dyn MetricsSink,
) -> RunStats {
    Driver::new(*cfg, JobFeed::Streaming(source), sink).run()
}

/// Drives `feed` under the telemetry mode `cfg` selects and assembles
/// the [`ExperimentResult`].
fn run_feed(
    cfg: &ExperimentConfig,
    feed: JobFeed<'_>,
    trace: Option<FaultTrace>,
) -> ExperimentResult {
    // Both telemetry branches patch the driver-side scalars into the
    // summary identically, so `Online` stays bit-identical to `Full`.
    let patch = |summary: &mut WorkloadSummary, stats: &RunStats| {
        summary.energy_to_solution_j = stats.power.energy_j;
        summary.avg_watts = stats.power.avg_watts;
        summary.class_utilization = stats.power.class_utilization().to_vec();
        summary.failures = stats.faults.failures;
        summary.requeues = stats.faults.requeues;
        summary.lost_work_s = stats.faults.lost_work_s;
        summary.restart_p95_s = stats.faults.restart_p95_s;
        // Useful compute over total compute destroyed-or-delivered; an
        // exact 1.0 whenever nothing was lost.
        let exec = summary.avg_execution_s * summary.jobs as f64;
        summary.goodput_ratio = if exec > 0.0 {
            exec / (exec + stats.faults.lost_work_s)
        } else {
            1.0
        };
    };
    match cfg.telemetry {
        Telemetry::Full => {
            let mut recorder = SeriesRecorder::new();
            let mut driver = Driver::new(*cfg, feed, &mut recorder);
            if let Some(t) = trace {
                driver = driver.with_fault_trace(t);
            }
            let stats = driver.run();
            let (allocation, running, completed, outcomes) = recorder.into_parts();
            let mut summary = WorkloadSummary::compute(&outcomes, &allocation, cfg.nodes);
            patch(&mut summary, &stats);
            ExperimentResult {
                summary,
                allocation,
                running,
                completed,
                outcomes,
                end_time: stats.end_time,
                events: stats.events,
                past_schedules: stats.past_schedules,
                sched: stats.sched,
            }
        }
        Telemetry::Online => {
            let mut acc = OnlineAccumulator::new();
            let mut driver = Driver::new(*cfg, feed, &mut acc);
            if let Some(t) = trace {
                driver = driver.with_fault_trace(t);
            }
            let stats = driver.run();
            let mut summary = acc.summary(cfg.nodes);
            patch(&mut summary, &stats);
            ExperimentResult {
                summary,
                allocation: StepSeries::new(),
                running: StepSeries::new(),
                completed: StepSeries::new(),
                outcomes: Vec::new(),
                end_time: stats.end_time,
                events: stats.events,
                past_schedules: stats.past_schedules,
                sched: stats.sched,
            }
        }
    }
}

/// Runs the workload twice — rigid ("fixed") and malleable ("flexible") —
/// and returns `(fixed, flexible)`, the comparison every §VIII/§IX chart
/// is built from.
pub fn compare_fixed_flexible(
    cfg: &ExperimentConfig,
    jobs: &[SimJob],
) -> (ExperimentResult, ExperimentResult) {
    let fixed = run_experiment(&cfg.as_fixed(), jobs);
    let mut flex_cfg = *cfg;
    flex_cfg.malleability = true;
    let flexible = run_experiment(&flex_cfg, jobs);
    (fixed, flexible)
}

impl<'a, 's> Driver<'a, 's> {
    fn new(cfg: ExperimentConfig, feed: JobFeed<'a>, sink: &'s mut dyn MetricsSink) -> Self {
        let cluster = Cluster::with_classes(cfg.machine_mix.table(cfg.nodes, cfg.cores_per_node));
        let power = PowerMeter::new(cluster.table());
        let classes = cluster.table().num_classes();
        let mut scfg = SlurmConfig::for_cluster(cfg.nodes);
        scfg.backfill = cfg.backfill;
        scfg.backfill_family = cfg.backfill_family;
        scfg.resizer_timeout = Span::from_secs_f64(cfg.resizer_timeout_s);
        scfg.shrink_boost = cfg.shrink_boost;
        scfg.policy = cfg.policy;
        scfg.sched_index = cfg.sched_index;
        // The driver copies each job's accounting into the sink at
        // completion, so the scheduler never needs to keep terminal
        // records — the active set is all that stays resident.
        scfg.retain_completed = false;
        // Faultload plumbing: under `FaultLoad::None` the source is inert
        // and the protocol RNG is never even constructed — the zero-fault
        // path performs zero RNG work, keeping it bit-identical to a
        // build without fault injection.
        let faults = FaultSource::from_load(cfg.faults, cluster.table(), cfg.fault_seed);
        let proto_rng =
            (!cfg.faults.is_none()).then(|| StdRng::seed_from_u64(cfg.fault_seed ^ 0x5EED_F417));
        let resize_fail_p = cfg.faults.resize_fail_p();
        Driver {
            cfg,
            jobs: SpecSlab::default(),
            arrived: 0,
            feed,
            slurm: Slurm::new(cluster, scfg),
            engine: Engine::new(),
            running: JobMap::default(),
            spec_of: JobMap::default(),
            rj_to_orig: JobMap::default(),
            sink,
            completed: 0,
            arrivals_pending: false,
            last_arrival: SimTime::ZERO,
            pass_due: false,
            power,
            prev_busy: vec![0; classes],
            prev_off: vec![0; classes],
            metered_changes: 0,
            wake_pending: false,
            faults,
            fault_pending: false,
            proto_rng,
            resize_fail_p,
            requeued: JobMap::default(),
            failures: 0,
            requeues: 0,
            resize_faults: 0,
            resize_retries: 0,
            lost_work: Span::ZERO,
            restart_lat: Vec::new(),
        }
    }

    /// Replaces the configured faultload with a scripted trace (the
    /// regression-test / incident-replay path) whose nodes the caller
    /// checked ([`check_fault_script`]).
    fn with_fault_trace(mut self, trace: FaultTrace) -> Self {
        self.faults = FaultSource::from_trace(trace);
        self
    }

    fn run(mut self) -> RunStats {
        // Pull only the first job; each arrival pulls its successor, so
        // the event queue carries one arrival at a time.
        self.schedule_next_arrival();
        if self.cfg.backfill {
            self.engine.schedule_in(
                Span::from_secs_f64(self.cfg.backfill_interval_s),
                Ev::BackfillTick,
            );
        }
        // Faults follow the same one-in-flight discipline as arrivals.
        self.schedule_next_fault(SimTime::ZERO);
        let mut last_now = SimTime::ZERO;
        loop {
            // Flush any deferred scheduling pass — unless the very next
            // event is a same-instant arrival about to extend the current
            // submission batch, in which case one combined pass after the
            // batch replaces a pass per submission. A pass can complete
            // zero-remaining jobs, which re-request a pass; loop until
            // quiescent so virtual time never advances over a due pass.
            while self.pass_due {
                if self.engine.peek_head() == Some((last_now, CLASS_EARLY)) {
                    break;
                }
                self.pass_due = false;
                self.do_schedule(last_now);
                // Re-sample so the last sample at this instant reflects
                // the post-pass state, exactly as the unbatched path's
                // does; the deferred samples above it are zero-width.
                self.sample(last_now);
            }
            // A relayed pause end is an event with nothing to handle,
            // but it is sampled like any other: the sink sees the clock
            // reach every processed instant.
            let now = match self.engine.step() {
                Some(Step::Fired(now, ev)) => {
                    self.handle(now, ev);
                    now
                }
                Some(Step::Relayed(now)) => now,
                None => break,
            };
            last_now = now;
            self.sample(now);
        }
        self.finish()
    }

    /// Runs a scheduling cycle now — or, on the production path, marks
    /// one due and lets the run loop flush it once the current instant's
    /// arrival batch is fully submitted (the scan reference keeps the
    /// unbatched pass-per-submission cadence, and its order is never
    /// static).
    /// Batching is sound precisely when the
    /// pending order is the static `(boosted, submit, seq)` key order
    /// ([`Slurm::pending_order_is_static`]): a new submission then sorts
    /// strictly after every job already pending, so the combined pass
    /// walks the queue through the same decisions the per-submission
    /// passes would have made.
    pub(crate) fn request_schedule(&mut self, now: SimTime) {
        if self.slurm.pending_order_is_static() {
            self.pass_due = true;
        } else {
            self.do_schedule(now);
        }
    }

    pub(crate) fn is_flexible(&self, idx: usize) -> bool {
        let spec = &self.jobs[idx].spec;
        self.cfg.malleability && spec.flexible && !spec.malleability.is_rigid()
    }

    pub(crate) fn inhibitor_period(&self, idx: usize) -> Option<f64> {
        self.cfg
            .inhibitor_override
            .unwrap_or(self.jobs[idx].spec.malleability.sched_period_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpeedupCurve;
    use dmr_workload::{AppClass, JobSpec, MalleabilitySpec};

    fn fs_job(index: u32, arrival: f64, procs: u32, steps: u32, step_s: f64) -> SimJob {
        SimJob {
            spec: JobSpec {
                index,
                arrival_s: arrival,
                submit_procs: procs,
                steps,
                step_s,
                walltime_s: steps as f64 * step_s * 2.5,
                data_bytes: 1 << 28,
                app: AppClass::Fs,
                flexible: true,
                gpu: false,
                malleability: MalleabilitySpec {
                    min_procs: 1,
                    max_procs: 20,
                    preferred: None,
                    factor: 2,
                    sched_period_s: None,
                },
            },
            curve: SpeedupCurve::Linear,
        }
    }

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::preliminary()
    }

    #[test]
    fn rigid_run_completes_all_jobs() {
        let jobs: Vec<SimJob> = (0..5)
            .map(|i| fs_job(i, i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let r = run_experiment(&cfg().as_fixed(), &jobs);
        assert_eq!(r.summary.jobs, 5);
        assert_eq!(r.summary.reconfigurations, 0);
        assert!(r.summary.makespan_s > 0.0);
    }

    #[test]
    fn lone_flexible_job_expands_and_finishes_faster() {
        let jobs = vec![fs_job(0, 0.0, 2, 8, 30.0)];
        let fixed = run_experiment(&cfg().as_fixed(), &jobs);
        let flex = run_experiment(&cfg(), &jobs);
        // Fixed: 8 steps * 30 s = 240 s. Flexible expands (2→4→8→16) and
        // must finish substantially sooner despite reconfiguration costs.
        assert!((fixed.summary.makespan_s - 240.0).abs() < 1.0);
        assert!(
            flex.summary.makespan_s < fixed.summary.makespan_s * 0.7,
            "flex {} vs fixed {}",
            flex.summary.makespan_s,
            fixed.summary.makespan_s
        );
        assert!(flex.summary.reconfigurations >= 1);
    }

    #[test]
    fn shrink_admits_queued_job_earlier() {
        // One flexible 16-node job hogging a 20-node cluster, then a rigid
        // 8-node job arrives: the policy must shrink the first so the
        // second starts before the first finishes.
        let mut hog = fs_job(0, 0.0, 16, 40, 10.0);
        hog.spec.flexible = true;
        let mut rigid = fs_job(1, 5.0, 8, 2, 10.0);
        rigid.spec.flexible = false;
        let jobs = vec![hog, rigid];
        let (fixed, flex) = compare_fixed_flexible(&cfg(), &jobs);
        let wait_fixed = fixed.outcomes[1].waiting_s();
        let wait_flex = flex.outcomes[1].waiting_s();
        assert!(
            wait_flex < wait_fixed * 0.5,
            "queued job should start much earlier: {wait_flex} vs {wait_fixed}"
        );
        assert!(flex.summary.reconfigurations >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let jobs: Vec<SimJob> = (0..12)
            .map(|i| fs_job(i, i as f64 * 7.0, 1 + i % 6, 3, 20.0))
            .collect();
        let a = run_experiment(&cfg(), &jobs);
        let b = run_experiment(&cfg(), &jobs);
        assert_eq!(a.summary.makespan_s, b.summary.makespan_s);
        assert_eq!(a.summary.reconfigurations, b.summary.reconfigurations);
        assert_eq!(a.events, b.events);
        assert_eq!(a.summary.avg_waiting_s, b.summary.avg_waiting_s);
    }

    #[test]
    fn allocation_never_exceeds_cluster() {
        let jobs: Vec<SimJob> = (0..10)
            .map(|i| fs_job(i, i as f64 * 3.0, 2 + i % 8, 4, 15.0))
            .collect();
        let r = run_experiment(&cfg(), &jobs);
        assert!(r.allocation.max_value() <= 20.0);
        assert_eq!(r.completed.max_value(), 10.0);
    }

    #[test]
    fn async_mode_runs_to_completion() {
        let jobs: Vec<SimJob> = (0..8)
            .map(|i| fs_job(i, i as f64 * 4.0, 2 + i % 5, 5, 12.0))
            .collect();
        let r = run_experiment(&cfg().asynchronous(), &jobs);
        assert_eq!(r.summary.jobs, 8);
    }

    #[test]
    fn inhibitor_reduces_check_overhead_for_micro_steps() {
        // 40 micro-steps of 1 s with 0.3 s check overhead: without the
        // inhibitor ~12 s of pure overhead; with a 5 s period only ~1/5 of
        // the boundaries pay it.
        let mk = |i| fs_job(i, 0.0, 4, 40, 1.0);
        let jobs: Vec<SimJob> = (0..4).map(mk).collect();
        let no_inh = run_experiment(&cfg().with_inhibitor(None), &jobs);
        let inh5 = run_experiment(&cfg().with_inhibitor(Some(5.0)), &jobs);
        assert!(
            inh5.summary.makespan_s < no_inh.summary.makespan_s,
            "inhibitor must reduce makespan: {} vs {}",
            inh5.summary.makespan_s,
            no_inh.summary.makespan_s
        );
    }

    #[test]
    fn preferred_jobs_shrink_to_preference() {
        // A CG-style job submitted at 16 with preference 4 on a busy
        // cluster (a rigid companion keeps it from being "alone").
        let mut j = fs_job(0, 0.0, 16, 30, 5.0);
        j.spec.malleability.preferred = Some(4);
        j.spec.malleability.min_procs = 2;
        // Long-lived rigid companion so the flexible job is never "alone
        // in the system" (which would trigger the Algorithm-1 line-2
        // expand-to-max rule).
        let mut rigid = fs_job(1, 0.0, 2, 200, 5.0);
        rigid.spec.flexible = false;
        let r = run_experiment(&cfg(), &[j, rigid]);
        assert!(r.summary.reconfigurations >= 1);
        // After shrinking 16→4 the job runs 4× slower (linear curve): one
        // 5 s step at 16 plus 29 steps of 20 s — far above the fixed 150 s.
        assert!(
            r.outcomes[0].execution_s() > 450.0,
            "exec = {}",
            r.outcomes[0].execution_s()
        );
    }

    #[test]
    fn driver_never_schedules_in_the_past() {
        for cfg in [cfg(), cfg().asynchronous(), cfg().as_fixed()] {
            let jobs: Vec<SimJob> = (0..15)
                .map(|i| fs_job(i, i as f64 * 4.0, 1 + i % 8, 4, 18.0))
                .collect();
            let r = run_experiment(&cfg, &jobs);
            assert_eq!(r.past_schedules, 0, "past-scheduled events in {cfg:?}");
        }
    }

    #[test]
    fn policy_selection_reaches_the_scheduler() {
        use dmr_slurm::PolicyKind;
        let jobs: Vec<SimJob> = (0..10)
            .map(|i| fs_job(i, i as f64 * 6.0, 2 + i % 6, 6, 20.0))
            .collect();
        let alg1 = run_experiment(&cfg(), &jobs);
        let fair = run_experiment(&cfg().with_policy(PolicyKind::fair_share()), &jobs);
        let util = run_experiment(
            &cfg().with_policy(PolicyKind::UtilizationTarget {
                low: 0.05,
                high: 0.95,
            }),
            &jobs,
        );
        // All complete under every policy.
        for r in [&alg1, &fair, &util] {
            assert_eq!(r.summary.jobs, 10);
        }
        // A near-inert utilization band reconfigures less than the
        // opportunistic Algorithm 1.
        assert!(
            util.summary.reconfigurations < alg1.summary.reconfigurations,
            "util {} vs alg1 {}",
            util.summary.reconfigurations,
            alg1.summary.reconfigurations
        );
    }

    #[test]
    fn end_time_is_the_engine_clock_not_a_makespan_round_trip() {
        // A lone rigid job submitted at t = 1000.25 s with micro-odd step
        // times: the run ends at submit + 3 * 472913 µs. The old
        // `SimTime::from_secs_f64(makespan_s)` derivation pointed at
        // 1418739 µs — the makespan length, not the end instant — as soon
        // as the first submission left t = 0.
        let mut cfg = cfg().as_fixed();
        cfg.backfill = false; // no trailing backfill tick after the last completion
        let mut job = fs_job(0, 1000.25, 4, 3, 0.472913);
        job.spec.flexible = false;
        let r = run_experiment(&cfg, &[job]);
        let expected = SimTime::from_secs_f64(1000.25) + Span(3 * 472_913);
        assert_eq!(r.end_time, expected, "end_time must be the engine clock");
        assert!((r.summary.makespan_s - 1.418739).abs() < 1e-9);
    }

    #[test]
    fn offset_arrivals_do_not_deflate_makespan_or_utilization() {
        // The same workload shifted to start at t = 2000 s must report
        // identical makespan and utilization ("first submission to last
        // completion"), not quantities diluted by the idle prefix.
        let base: Vec<SimJob> = (0..6)
            .map(|i| fs_job(i, i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let shifted: Vec<SimJob> = (0..6)
            .map(|i| fs_job(i, 2000.0 + i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let a = run_experiment(&cfg(), &base);
        let b = run_experiment(&cfg(), &shifted);
        // Equal up to f64 cancellation in `last_end - first_submit` (the
        // offset run subtracts two ~2000 s instants).
        assert!(
            (a.summary.makespan_s - b.summary.makespan_s).abs() < 1e-6,
            "makespan deflated by the offset: {} vs {}",
            a.summary.makespan_s,
            b.summary.makespan_s
        );
        assert!((a.summary.utilization - b.summary.utilization).abs() < 1e-6);
        assert_eq!(a.summary.avg_waiting_s, b.summary.avg_waiting_s);
    }

    #[test]
    fn online_telemetry_is_bit_identical_and_buffer_free() {
        use dmr_workload::WorkloadKind;
        for base in [cfg(), cfg().asynchronous()] {
            let mut src = WorkloadKind::burst().build(40, 11);
            let full = run_experiment_streaming(&base, src.as_mut());
            let mut src = WorkloadKind::burst().build(40, 11);
            let online = run_experiment_streaming(&base.online(), src.as_mut());
            assert_eq!(full.summary.makespan_s, online.summary.makespan_s);
            assert_eq!(full.summary.utilization, online.summary.utilization);
            assert_eq!(full.summary.avg_waiting_s, online.summary.avg_waiting_s);
            assert_eq!(full.summary.completion_q, online.summary.completion_q);
            assert_eq!(full.events, online.events);
            assert_eq!(full.end_time, online.end_time);
            // The streaming path buffers nothing.
            assert!(online.outcomes.is_empty());
            assert!(online.allocation.is_empty());
        }
    }

    #[test]
    fn streaming_source_is_result_identical_to_materialized_path() {
        use dmr_workload::{Feitelson, WorkloadConfig, WorkloadGenerator};
        let wcfg = WorkloadConfig::fs_preliminary(30);
        let specs = WorkloadGenerator::new(wcfg.clone(), 9).generate();
        let materialized = run_experiment(&cfg(), &SimJob::from_specs(specs));
        let mut src = Feitelson::new(wcfg, 9);
        let streamed = run_experiment_streaming(&cfg(), &mut src);
        assert_eq!(materialized.summary.makespan_s, streamed.summary.makespan_s);
        assert_eq!(
            materialized.summary.avg_waiting_s,
            streamed.summary.avg_waiting_s
        );
        assert_eq!(
            materialized.summary.reconfigurations,
            streamed.summary.reconfigurations
        );
        assert_eq!(materialized.events, streamed.events);
        assert_eq!(materialized.outcomes.len(), streamed.outcomes.len());
        for (a, b) in materialized.outcomes.iter().zip(&streamed.outcomes) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
        }
    }

    #[test]
    fn adversarial_sources_run_to_completion() {
        use dmr_workload::WorkloadKind;
        for kind in [WorkloadKind::burst(), WorkloadKind::diurnal()] {
            let mut src = kind.build(20, 5);
            let r = run_experiment_streaming(&cfg(), src.as_mut());
            assert_eq!(r.summary.jobs, 20, "{kind:?}");
            assert_eq!(r.past_schedules, 0, "{kind:?}");
        }
    }

    #[test]
    fn scripted_node_failure_requeues_and_completes() {
        use dmr_cluster::FaultTrace;
        // One rigid 4-node job, 2 steps of 30 s. Failing one of its nodes
        // at t = 25 s kills the incarnation; the requeued job restarts
        // from scratch and still completes.
        let mut job = fs_job(0, 0.0, 4, 2, 30.0);
        job.spec.flexible = false;
        let trace = FaultTrace::parse("25 fail 0\n200 repair 0\n").unwrap();
        let clean = run_experiment(&cfg().as_fixed(), &[job.clone()]);
        let faulty = run_experiment_with_faults(&cfg().as_fixed(), &[job], trace).unwrap();
        assert_eq!(faulty.summary.jobs, 1, "the requeued job completes");
        assert_eq!(faulty.summary.failures, 1);
        assert_eq!(faulty.summary.requeues, 1);
        // 25 s of scratch-restart work destroyed.
        assert!((faulty.summary.lost_work_s - 25.0).abs() < 1e-6);
        assert!(faulty.summary.goodput_ratio < 1.0);
        // The cluster had spare capacity and the requeue is boosted, so
        // the restart is immediate — zero failure-to-restart latency.
        assert_eq!(faulty.summary.restart_p95_s, 0.0);
        assert!(
            faulty.summary.makespan_s > clean.summary.makespan_s,
            "the failure must cost wall-clock time: {} vs {}",
            faulty.summary.makespan_s,
            clean.summary.makespan_s
        );
        // Outcome accounting spans incarnations: waiting is measured from
        // the original submission.
        assert!(faulty.outcomes[0].waiting_s() >= 25.0);
    }

    #[test]
    fn a_scripted_fault_on_a_node_the_machine_lacks_stops_the_run_before_it_starts() {
        use dmr_cluster::FaultTrace;
        use dmr_workload::{Feitelson, WorkloadConfig};
        // Scheduled at t = 1e9 s, long after the job is done: the check
        // is made up front, not when (or whether) the event fires.
        let script = |node| FaultTrace::parse(&format!("1000000000 fail {node}\n")).unwrap();
        assert_eq!(cfg().nodes, 20);
        let jobs = [fs_job(0, 0.0, 4, 2, 30.0)];
        let err = run_experiment_with_faults(&cfg(), &jobs, script(20)).unwrap_err();
        assert!(matches!(err, DmrError::FaultScript(_)), "{err:?}");
        let said = err.to_string();
        assert!(
            said.contains("names a node the 20-node machine does not have"),
            "{said}"
        );
        let mut source = Feitelson::new(WorkloadConfig::fs_preliminary(4), 1);
        let streamed = run_experiment_streaming_with_faults(&cfg(), &mut source, script(20));
        assert_eq!(streamed.unwrap_err(), err);
        // Node 19 is the machine's last: the same script on it runs.
        assert!(run_experiment_with_faults(&cfg(), &jobs, script(19)).is_ok());
    }

    #[test]
    fn checkpoint_interval_bounds_lost_work() {
        use dmr_cluster::FaultTrace;
        // 12 steps of 10 s; the failure lands at t = 115 s. From scratch
        // the whole 115 s is lost; with a 30 s checkpoint interval the
        // last image is at most ~40 s old.
        let mut job = fs_job(0, 0.0, 4, 12, 10.0);
        job.spec.flexible = false;
        let trace = || FaultTrace::parse("115 fail 1\n400 repair 1\n").unwrap();
        let base = cfg().as_fixed();
        let scratch = run_experiment_with_faults(&base, &[job.clone()], trace()).unwrap();
        let ckpt_cfg = base.with_ckpt_interval(30.0);
        let ckpt = run_experiment_with_faults(&ckpt_cfg, &[job], trace()).unwrap();
        assert!((scratch.summary.lost_work_s - 115.0).abs() < 1e-6);
        assert!(
            ckpt.summary.lost_work_s < 50.0,
            "periodic images bound lost work: {}",
            ckpt.summary.lost_work_s
        );
        assert!(ckpt.summary.goodput_ratio > scratch.summary.goodput_ratio);
        assert!(
            ckpt.summary.makespan_s < scratch.summary.makespan_s,
            "resuming from the image finishes earlier: {} vs {}",
            ckpt.summary.makespan_s,
            scratch.summary.makespan_s
        );
    }

    #[test]
    fn zero_fault_knobs_are_inert() {
        use dmr_cluster::FaultLoad;
        // Under FaultLoad::None the seed and checkpoint interval must not
        // perturb a run in any way — the fault machinery does zero work.
        let jobs: Vec<SimJob> = (0..10)
            .map(|i| fs_job(i, i as f64 * 5.0, 2 + i % 5, 4, 15.0))
            .collect();
        let a = run_experiment(&cfg(), &jobs);
        let b = run_experiment(&cfg().with_fault_seed(0xDEAD_BEEF), &jobs);
        let c = run_experiment(&cfg().with_ckpt_interval(60.0), &jobs);
        // The rigid path is the one the interval knob could perturb (it
        // cuts monolithic segments at image boundaries when armed): the
        // cut must not happen — `events` included — with no fault source.
        let fa = run_experiment(&cfg().as_fixed(), &jobs);
        let fc = run_experiment(&cfg().as_fixed().with_ckpt_interval(60.0), &jobs);
        assert_eq!(fa.events, fc.events);
        assert_eq!(fa.end_time, fc.end_time);
        assert_eq!(fa.summary.makespan_s, fc.summary.makespan_s);
        for r in [&b, &c] {
            assert_eq!(a.summary.makespan_s, r.summary.makespan_s);
            assert_eq!(a.summary.avg_waiting_s, r.summary.avg_waiting_s);
            assert_eq!(a.summary.reconfigurations, r.summary.reconfigurations);
            assert_eq!(a.events, r.events);
            assert_eq!(a.end_time, r.end_time);
        }
        assert_eq!(a.summary.failures, 0);
        assert_eq!(a.summary.requeues, 0);
        assert_eq!(a.summary.goodput_ratio, 1.0);
        assert_eq!(a.summary.lost_work_s, 0.0);
        let _ = FaultLoad::None;
    }

    #[test]
    fn harsh_faultload_is_deterministic_and_completes() {
        use dmr_cluster::FaultLoad;
        let jobs: Vec<SimJob> = (0..20)
            .map(|i| fs_job(i, i as f64 * 40.0, 2 + i % 6, 20, 30.0))
            .collect();
        let fcfg = cfg().with_faults(FaultLoad::Harsh);
        let a = run_experiment(&fcfg, &jobs);
        let b = run_experiment(&fcfg, &jobs);
        assert_eq!(a.summary.jobs, 20, "every job survives recovery");
        assert_eq!(a.summary.makespan_s, b.summary.makespan_s);
        assert_eq!(a.summary.failures, b.summary.failures);
        assert_eq!(a.summary.requeues, b.summary.requeues);
        assert_eq!(a.summary.lost_work_s, b.summary.lost_work_s);
        assert_eq!(a.events, b.events);
        assert!(a.summary.failures > 0, "harsh load injects failures");
        // A different seed moves the failures.
        let c = run_experiment(&fcfg.with_fault_seed(99), &jobs);
        assert_eq!(c.summary.jobs, 20);
    }

    #[test]
    fn estimates_do_not_break_backfill() {
        // Mixed sizes under heavy load: just assert global sanity — all
        // complete, waits non-negative, makespan finite.
        let jobs: Vec<SimJob> = (0..30)
            .map(|i| fs_job(i, i as f64 * 2.0, 1 + (i * 7) % 16, 3, 25.0))
            .collect();
        let r = run_experiment(&cfg(), &jobs);
        assert_eq!(r.summary.jobs, 30);
        assert!(r.outcomes.iter().all(|o| o.waiting_s() >= 0.0));
        assert!(r.summary.utilization > 0.0 && r.summary.utilization <= 1.0);
    }
}
