//! The discrete-event workload driver.
//!
//! Reproduces the full §III methodology loop: jobs arrive (Feitelson
//! process), Slurm starts them (EASY backfill; boosted jobs first, then
//! submission order), each flexible job exposes reconfiguring points at
//! its step boundaries where the runtime calls the DMR API; the installed
//! [`dmr_slurm::ResizePolicy`] (Algorithm 1 by default, selected by
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
//! * `reconfig` — the DMR check points, the expansion protocol
//!   (synchronous and asynchronous variants, resizer-job timeout), and
//!   the cost and the end of every reconfiguration (a shrink's release);
//! * `failure` — injected node failures, kill-and-requeue recovery, and
//!   the resize-retry backoff schedule;
//! * `metrics` — evolution-series sampling and final summary assembly.
//!
//! Each piece of a job's driver state has one home:
//!
//! * `Driver::specs` — the job's arrival sequence number and spec,
//!   keyed by its scheduler id from submission to completion (a requeue
//!   re-keys the entry to the new incarnation's id);
//! * `Driver::running` — the `RunState` of a started incarnation, whose
//!   `phase` is where it stands in the resize protocol: its in-flight
//!   event, and the plan, awaited resizer or grant of asynchronous mode;
//! * `Driver::requeued` — the recovery bookkeeping of a requeued job;
//! * the job's events — an `Ev::ReconfigDone` carries the size it
//!   adopts, an `Ev::RjTimeout` names the job whose awaited resizer it
//!   times out.
//!
//! Before submission, the spec of the one arrival in flight waits in
//! `Driver::next_arrival`.
//!
//! A run is set up and started through [`Simulation`].

pub(crate) mod arrivals;
pub(crate) mod events;
pub(crate) mod failure;
pub(crate) mod metrics;
pub(crate) mod reconfig;

use dmr_cluster::{Cluster, FaultSource, FaultTrace, PowerMeter};
use dmr_metrics::{JobOutcome, MetricsSink, OnlineAccumulator};
use dmr_sim::{Engine, EventId, SimTime, Span, Step, CLASS_EARLY};
use dmr_slurm::{Hold, JobId, JobMap, ResizeAction, Slurm, SlurmConfig};
use dmr_workload::{JobSpec, WorkloadSource};
use rand::{rngs::StdRng, SeedableRng};

use crate::config::{ExperimentConfig, ScheduleMode};
use crate::error::DmrError;
use crate::model::SimJob;
use crate::result::{CheckStats, ExperimentResult, RunStats};
use events::Ev;

/// Where a started incarnation stands in the resize protocol (§III,
/// §V-B1). A computing job names its one in-flight `SegmentDone` (relayed
/// or not) as `seg`; a reconfiguring one its `ReconfigDone` as `done`. A
/// plan, an awaited resizer and a grant exist only in asynchronous mode,
/// one at a time. Changed only through [`RunState::enter`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// No event in flight: the incarnation has just started, or its
    /// reconfiguration has just ended, and its next segment is being
    /// planned.
    Resuming,
    /// Computing, nothing negotiated.
    Computing { seg: EventId },
    /// Computing; `action` was decided at the previous check point and
    /// applies at the next.
    Planned { seg: EventId, action: ResizeAction },
    /// Computing while the job's queued resizer `rj` waits to start,
    /// until its [`Ev::RjTimeout`] `timeout` aborts it.
    Awaiting {
        seg: EventId,
        rj: JobId,
        timeout: EventId,
    },
    /// Computing; the resizer started and its nodes are attached, so the
    /// job holds `to`. Spawn + redistribution begin at the next check
    /// point.
    Granted { seg: EventId, to: u32 },
    /// Spawning and redistributing, or draining, until `done`.
    Reconfiguring { done: EventId },
}

impl Phase {
    /// The job's in-flight event, if any.
    pub(crate) fn event(self) -> Option<EventId> {
        match self {
            Phase::Resuming => None,
            Phase::Computing { seg }
            | Phase::Planned { seg, .. }
            | Phase::Awaiting { seg, .. }
            | Phase::Granted { seg, .. } => Some(seg),
            Phase::Reconfiguring { done } => Some(done),
        }
    }
}

/// Per-running-job state the runtime would keep.
#[derive(Debug)]
pub(crate) struct RunState {
    /// Current process count (= node count; one rank per node). Changed
    /// only through [`RunState::set_procs`].
    pub(crate) procs: u32,
    /// [`SimJob::step_time`] at `procs`: every compute segment needs it,
    /// and it only changes when `procs` does.
    pub(crate) step: Span,
    pub(crate) steps_done: u32,
    /// Inhibitor gate: checks before this instant are swallowed.
    pub(crate) next_check_at: SimTime,
    /// Where the job stands in the resize protocol.
    pub(crate) phase: Phase,
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
    /// A mailbox, outside the phase: every check point empties it, and
    /// uses it unless a grant, a plan or an awaited resizer goes first.
    pub(crate) retry_expand: Option<u32>,
    /// Injected-failure retry attempts consumed for the current target
    /// (bounds the exponential backoff schedule).
    pub(crate) retry_attempt: u32,
    /// The policy's [`Hold`] on "no action" for this job and the process
    /// count it was granted at. Whenever the job is at that count —
    /// including after a resize away and back — a check point with
    /// nothing negotiated passes without consulting the policy
    /// (`reconfig`'s held path). Granted only where the inhibitor gates no
    /// check.
    pub(crate) hold: Option<(Hold, u32)>,
}

impl RunState {
    pub(crate) fn new(sim: &SimJob, procs: u32, now: SimTime) -> Self {
        RunState {
            procs,
            step: sim.step_time(procs),
            steps_done: 0,
            next_check_at: now,
            phase: Phase::Resuming,
            started_at: now,
            last_ckpt_at: now,
            ckpt_steps: 0,
            retry_expand: None,
            retry_attempt: 0,
            hold: None,
        }
    }

    /// Moves the job to `next`; debug builds check the move. A check
    /// point ends a segment and begins the next or a reconfiguration (an
    /// awaited resizer stays awaited, a grant is applied); mid segment an
    /// awaited resizer starts or times out; a reconfiguration ends before
    /// the next segment is planned.
    pub(crate) fn enter(&mut self, next: Phase) {
        use Phase::*;
        let legal = match (self.phase, next) {
            (
                Computing { seg } | Planned { seg, .. },
                Computing { seg: s } | Planned { seg: s, .. } | Awaiting { seg: s, .. },
            ) => s != seg,
            (Computing { .. } | Planned { .. } | Granted { .. }, Reconfiguring { .. }) => true,
            (Awaiting { rj, timeout, .. }, Awaiting { seg, .. }) => {
                next != self.phase && next == Awaiting { seg, rj, timeout }
            }
            (Awaiting { seg, .. }, Computing { seg: s } | Granted { seg: s, .. }) => s == seg,
            (Reconfiguring { .. }, Resuming) | (Resuming, Computing { .. }) => true,
            _ => false,
        };
        debug_assert!(legal, "{:?} cannot enter {next:?}", self.phase);
        self.phase = next;
    }

    /// Adopts a new process count (`sim` is this job's spec).
    pub(crate) fn set_procs(&mut self, procs: u32, sim: &SimJob) {
        self.procs = procs;
        self.step = sim.step_time(procs);
    }

    /// The boundary bookkeeping of a compute segment of `steps`
    /// iterations ending at `now`: counts the steps, and takes a
    /// checkpoint image if `ckpt_interval_s` has elapsed since the last
    /// one — step boundaries are where rank state is consistent. Shared
    /// by the segment-end handler and the held path.
    pub(crate) fn close_segment(&mut self, steps: u32, now: SimTime, ckpt_interval_s: Option<f64>) {
        self.steps_done += steps;
        if let Some(interval_s) = ckpt_interval_s {
            if now.since(self.last_ckpt_at).as_secs_f64() >= interval_s {
                self.last_ckpt_at = now;
                self.ckpt_steps = self.steps_done;
            }
        }
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

/// The simulation state shared by every driver submodule.
pub(crate) struct Driver<'a, 's> {
    pub(crate) cfg: ExperimentConfig,
    /// What a check point costs the job: the runtime↔RMS round trip
    /// ([`ExperimentConfig::check_overhead_s`]) in synchronous mode;
    /// nothing in asynchronous mode, where the negotiation overlaps the
    /// next step. This and the two spans below are converted from the
    /// configuration's seconds once, not at every use.
    pub(crate) check_pause: Span,
    /// The period of the backfill tick
    /// ([`ExperimentConfig::backfill_interval_s`]).
    pub(crate) backfill_interval: Span,
    /// How long an asynchronous resizer may wait
    /// ([`ExperimentConfig::resizer_timeout_s`]).
    pub(crate) resizer_timeout: Span,
    /// The jobs submitted and not yet completed, keyed by their
    /// scheduler id: each one's arrival sequence number — the telemetry
    /// id [`MetricsSink::on_job`] reports — and its spec. An entry is
    /// inserted at submission, re-keyed when a failure requeues the job
    /// under a new id, and removed when the job completes, so the map
    /// holds only the active set — O(active jobs), not O(trace length).
    pub(crate) specs: JobMap<(u64, SimJob)>,
    /// Jobs submitted so far (the sequence number of the next arrival).
    pub(crate) arrived: u64,
    /// Where jobs come from, one at a time: only the next arrival is
    /// ever scheduled.
    pub(crate) source: &'a mut dyn WorkloadSource,
    /// The job the in-flight [`Ev::Arrival`] submits; `None` once the
    /// source is exhausted.
    pub(crate) next_arrival: Option<SimJob>,
    pub(crate) slurm: Slurm,
    pub(crate) engine: Engine<Ev>,
    /// The state of every started incarnation, keyed by its id.
    pub(crate) running: JobMap<RunState>,
    /// Where telemetry goes: one sample per processed event, one outcome
    /// per completed job.
    pub(crate) sink: &'s mut dyn MetricsSink,
    pub(crate) completed: u32,
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
    /// Check points passed held and policy consultations.
    pub(crate) checks: CheckStats,
}

/// One simulation run, assembled step by step: a configuration, the
/// workload source, optionally a scripted faultload and an observing
/// sink.
///
/// ```
/// use dmr_core::{ExperimentConfig, Simulation, WorkloadKind};
/// let cfg = ExperimentConfig::preliminary();
/// let mut source = WorkloadKind::FsPreliminary.build(10, 7);
/// let result = Simulation::new(&cfg).source(source.as_mut()).run()?;
/// assert_eq!(result.summary.jobs, 10);
/// # Ok::<(), dmr_core::DmrError>(())
/// ```
///
/// The driver pulls one job at a time from the source and keeps a single
/// arrival event in flight. Each completing job is folded into the run's
/// own [`OnlineAccumulator`] and then pruned from the scheduler and the
/// driver, so a million-job trace replays in memory proportional to the
/// jobs active at once.
pub struct Simulation<'a> {
    cfg: ExperimentConfig,
    source: Option<&'a mut dyn WorkloadSource>,
    faults: Option<FaultTrace>,
    sink: Option<&'a mut dyn MetricsSink>,
}

impl<'a> Simulation<'a> {
    /// A run of `cfg` with nothing attached yet.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        Simulation {
            cfg: *cfg,
            source: None,
            faults: None,
            sink: None,
        }
    }

    /// Where the jobs come from, in arrival order. A materialized list
    /// streams as `&mut specs.iter()`.
    pub fn source(mut self, source: &'a mut dyn WorkloadSource) -> Self {
        self.source = Some(source);
        self
    }

    /// A *scripted* faultload: `trace` replaces whatever
    /// [`ExperimentConfig::faults`] preset the configuration names (the
    /// injected resize-failure probability still follows the preset).
    /// Deterministic by construction — the trace is replayed verbatim — so
    /// regression tests can pin an exact incident.
    pub fn faults(mut self, trace: FaultTrace) -> Self {
        self.faults = Some(trace);
        self
    }

    /// An observer fed every sample and every job outcome the run folds
    /// into its summary, in the same order: a
    /// [`dmr_metrics::SeriesRecorder`] for the evolution series and the
    /// per-job outcomes, or a custom sink (live dashboards, exporters).
    pub fn sink(mut self, sink: &'a mut dyn MetricsSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the simulation to the end.
    ///
    /// # Errors
    /// [`DmrError::Config`] when no source is attached or the
    /// configuration cannot run, and [`DmrError::FaultScript`] when the
    /// scripted faultload names a node the machine does not have — both
    /// before anything runs.
    pub fn run(self) -> Result<ExperimentResult, DmrError> {
        check_config(&self.cfg)?;
        if let Some(trace) = &self.faults {
            trace
                .check_nodes(self.cfg.nodes)
                .map_err(DmrError::FaultScript)?;
        }
        let source = self
            .source
            .ok_or_else(|| DmrError::Config("no workload source attached".into()))?;
        let mut acc = OnlineAccumulator::new();
        let stats = match self.sink {
            None => Driver::new(self.cfg, source, &mut acc, self.faults).run(),
            Some(observer) => {
                let mut both = Observed {
                    acc: &mut acc,
                    observer,
                };
                Driver::new(self.cfg, source, &mut both, self.faults).run()
            }
        };
        let mut summary = acc.summary(self.cfg.nodes);
        stats.fold_into(&mut summary);
        Ok(ExperimentResult {
            summary,
            end_time: stats.end_time,
            events: stats.events,
            past_schedules: stats.past_schedules,
            sched: stats.sched,
            checks: stats.checks,
        })
    }
}

/// Refuses a configuration the driver would panic or spin on.
fn check_config(cfg: &ExperimentConfig) -> Result<(), DmrError> {
    let mix = cfg.machine_mix;
    if cfg.nodes < mix.min_nodes() {
        return Err(DmrError::Config(format!(
            "a {} machine needs at least {} nodes, got {}",
            mix.name(),
            mix.min_nodes(),
            cfg.nodes
        )));
    }
    // The periodic pass re-arms itself one interval on: an interval that
    // rounds to 0 µs (zero, NaN, negative) would tick at one instant
    // forever.
    if cfg.backfill && Span::from_secs_f64(cfg.backfill_interval_s).is_zero() {
        return Err(DmrError::Config(format!(
            "backfill_interval_s must be at least 1 µs, got {}",
            cfg.backfill_interval_s
        )));
    }
    // The other durations and factors reach `Span::from_secs_f64` or
    // `mul_f64`, which turn NaN, infinities and negatives silently into
    // 0 or a saturated span.
    let durations = [
        ("check_overhead_s", Some(cfg.check_overhead_s)),
        ("estimate_padding", Some(cfg.estimate_padding)),
        ("resizer_timeout_s", Some(cfg.resizer_timeout_s)),
        ("wake_latency_s", Some(cfg.wake_latency_s)),
        ("inhibitor_override", cfg.inhibitor_override.flatten()),
    ];
    for (field, value) in durations {
        if let Some(v) = value.filter(|v| !(v.is_finite() && *v >= 0.0)) {
            return Err(DmrError::Config(format!(
                "{field} must be finite and non-negative, got {v}"
            )));
        }
    }
    // A zero or NaN interval would cut every rigid segment to one step.
    if let Some(v) = cfg.ckpt_interval_s.filter(|v| !(v.is_finite() && *v > 0.0)) {
        return Err(DmrError::Config(format!(
            "ckpt_interval_s must be finite and positive, got {v}"
        )));
    }
    Ok(())
}

/// The sink of a run with an observer attached: the run's accumulator
/// and the observer, fed the same calls.
struct Observed<'a, 'b> {
    acc: &'a mut OnlineAccumulator,
    observer: &'b mut dyn MetricsSink,
}

impl MetricsSink for Observed<'_, '_> {
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64) {
        self.acc.on_sample(now, allocated, running, completed);
        self.observer.on_sample(now, allocated, running, completed);
    }

    fn on_job(&mut self, seq: u64, outcome: JobOutcome) {
        self.acc.on_job(seq, outcome);
        self.observer.on_job(seq, outcome);
    }
}

/// Runs `source` under `cfg` with `sink` as the only telemetry: no
/// accumulator, no configuration check, and the driver's scalars returned
/// unfolded. The benchmark package (`benchmark/`) calls it; everything
/// else runs through [`Simulation`].
pub fn run_experiment_with_sink(
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
    sink: &mut dyn MetricsSink,
) -> RunStats {
    Driver::new(*cfg, source, sink, None).run()
}

/// Runs `jobs` twice — rigid ("fixed") and malleable ("flexible") — and
/// returns `(fixed, flexible)`, the comparison every §VIII/§IX chart is
/// built from.
pub fn compare_fixed_flexible(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
) -> Result<(ExperimentResult, ExperimentResult), DmrError> {
    let run = |cfg: &ExperimentConfig| Simulation::new(cfg).source(&mut jobs.iter()).run();
    let mut flex_cfg = *cfg;
    flex_cfg.malleability = true;
    Ok((run(&cfg.as_fixed())?, run(&flex_cfg)?))
}

impl<'a, 's> Driver<'a, 's> {
    /// `trace`, when given, replaces the configured faultload (its nodes
    /// were checked by the caller).
    fn new(
        cfg: ExperimentConfig,
        source: &'a mut dyn WorkloadSource,
        sink: &'s mut dyn MetricsSink,
        trace: Option<FaultTrace>,
    ) -> Self {
        let cluster = Cluster::with_classes(cfg.machine_mix.table(cfg.nodes, cfg.cores_per_node));
        let power = PowerMeter::new(cluster.table());
        let classes = cluster.table().num_classes();
        let mut scfg = SlurmConfig::for_cluster(cfg.nodes);
        scfg.backfill = cfg.backfill;
        scfg.backfill_family = cfg.backfill_family;
        let resizer_timeout = Span::from_secs_f64(cfg.resizer_timeout_s);
        scfg.resizer_timeout = resizer_timeout;
        scfg.shrink_boost = cfg.shrink_boost;
        scfg.policy = cfg.policy;
        // The driver copies each job's accounting into the sink at
        // completion, so the scheduler never needs to keep terminal
        // records — the active set is all that stays resident.
        scfg.retain_completed = false;
        // Faultload plumbing: under `FaultLoad::None` the source is inert
        // and the protocol RNG is never even constructed — the zero-fault
        // path performs zero RNG work, keeping it bit-identical to a
        // build without fault injection. A scripted trace replaces the
        // preset's fault process, not its resize-failure probability.
        let faults = match trace {
            Some(trace) => FaultSource::from_trace(trace),
            None => FaultSource::from_load(cfg.faults, cluster.table(), cfg.fault_seed),
        };
        let proto_rng =
            (!cfg.faults.is_none()).then(|| StdRng::seed_from_u64(cfg.fault_seed ^ 0x5EED_F417));
        let resize_fail_p = cfg.faults.resize_fail_p();
        let check_pause = match cfg.mode {
            ScheduleMode::Synchronous => Span::from_secs_f64(cfg.check_overhead_s),
            ScheduleMode::Asynchronous => Span::ZERO,
        };
        Driver {
            cfg,
            check_pause,
            backfill_interval: Span::from_secs_f64(cfg.backfill_interval_s),
            resizer_timeout,
            specs: JobMap::default(),
            arrived: 0,
            source,
            next_arrival: None,
            slurm: Slurm::new(cluster, scfg),
            engine: Engine::new(),
            running: JobMap::default(),
            sink,
            completed: 0,
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
            checks: CheckStats::default(),
        }
    }

    fn run(mut self) -> RunStats {
        // Pull only the first job; each arrival pulls its successor, so
        // the event queue carries one arrival at a time.
        self.schedule_next_arrival();
        if self.cfg.backfill {
            self.engine
                .schedule_in(self.backfill_interval, Ev::BackfillTick);
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
                // the post-pass state; the deferred samples above it are
                // zero-width.
                self.sample(last_now);
            }
            // A relayed pause end is an event with nothing to handle,
            // and a held check point one handled without its handler,
            // but both are sampled like any other: the sink sees the
            // clock reach every processed instant.
            let now = match self.engine.step() {
                Some(Step::Fired(now, ev)) => {
                    self.handle(now, ev);
                    now
                }
                Some(Step::Relayed(now)) => now,
                Some(Step::Due(now)) => {
                    self.on_due_segment(now);
                    now
                }
                None => break,
            };
            last_now = now;
            self.sample(now);
        }
        self.finish()
    }

    /// Marks a scheduling cycle due; the run loop flushes it once the
    /// current instant's arrival batch is fully submitted. Batching is
    /// sound because the pending order is the `(boosted, submit, seq)`
    /// key order ([`Slurm::pending_queue`]): a new submission sorts
    /// strictly after every job already pending, so the combined pass
    /// walks the queue through the same decisions the per-submission
    /// passes would have made.
    pub(crate) fn request_schedule(&mut self) {
        self.pass_due = true;
    }

    pub(crate) fn is_flexible(&self, spec: &JobSpec) -> bool {
        self.cfg.malleability && spec.flexible && !spec.malleability.is_rigid()
    }

    pub(crate) fn inhibitor_period(&self, spec: &JobSpec) -> Option<f64> {
        self.cfg
            .inhibitor_override
            .unwrap_or(spec.malleability.sched_period_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_metrics::SeriesRecorder;
    use dmr_workload::{AppClass, MalleabilitySpec};

    fn fs_job(index: u32, arrival: f64, procs: u32, steps: u32, step_s: f64) -> JobSpec {
        JobSpec {
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
        }
    }

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::preliminary()
    }

    fn run(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> ExperimentResult {
        Simulation::new(cfg).source(&mut jobs.iter()).run().unwrap()
    }

    /// [`run`] with a recorder attached: the result and the per-job
    /// outcomes in submission order.
    fn run_recorded(
        cfg: &ExperimentConfig,
        jobs: &[JobSpec],
    ) -> (ExperimentResult, Vec<JobOutcome>) {
        let mut rec = SeriesRecorder::new();
        let r = Simulation::new(cfg)
            .source(&mut jobs.iter())
            .sink(&mut rec)
            .run()
            .unwrap();
        (r, rec.into_parts().3)
    }

    #[test]
    fn rigid_run_completes_all_jobs() {
        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| fs_job(i, i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let r = run(&cfg().as_fixed(), &jobs);
        assert_eq!(r.summary.jobs, 5);
        assert_eq!(r.summary.reconfigurations, 0);
        assert!(r.summary.makespan_s > 0.0);
    }

    #[test]
    fn lone_flexible_job_expands_and_finishes_faster() {
        let jobs = vec![fs_job(0, 0.0, 2, 8, 30.0)];
        let (fixed, flex) = compare_fixed_flexible(&cfg(), &jobs).unwrap();
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
        let hog = fs_job(0, 0.0, 16, 40, 10.0);
        let mut rigid = fs_job(1, 5.0, 8, 2, 10.0);
        rigid.flexible = false;
        let jobs = vec![hog, rigid];
        let (_, fixed) = run_recorded(&cfg().as_fixed(), &jobs);
        let (flex, flex_outcomes) = run_recorded(&cfg(), &jobs);
        let wait_fixed = fixed[1].waiting_s();
        let wait_flex = flex_outcomes[1].waiting_s();
        assert!(
            wait_flex < wait_fixed * 0.5,
            "queued job should start much earlier: {wait_flex} vs {wait_fixed}"
        );
        assert!(flex.summary.reconfigurations >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| fs_job(i, i as f64 * 7.0, 1 + i % 6, 3, 20.0))
            .collect();
        let a = run(&cfg(), &jobs);
        let b = run(&cfg(), &jobs);
        assert_eq!(a.summary.makespan_s, b.summary.makespan_s);
        assert_eq!(a.summary.reconfigurations, b.summary.reconfigurations);
        assert_eq!(a.events, b.events);
        assert_eq!(a.summary.avg_waiting_s, b.summary.avg_waiting_s);
    }

    #[test]
    fn allocation_never_exceeds_cluster() {
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| fs_job(i, i as f64 * 3.0, 2 + i % 8, 4, 15.0))
            .collect();
        let mut rec = SeriesRecorder::new();
        Simulation::new(&cfg())
            .source(&mut jobs.iter())
            .sink(&mut rec)
            .run()
            .unwrap();
        let (allocation, _, completed, _) = rec.into_parts();
        assert!(allocation.max_value() <= 20.0);
        assert_eq!(completed.max_value(), 10.0);
    }

    #[test]
    fn async_mode_runs_to_completion() {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| fs_job(i, i as f64 * 4.0, 2 + i % 5, 5, 12.0))
            .collect();
        let r = run(&cfg().asynchronous(), &jobs);
        assert_eq!(r.summary.jobs, 8);
    }

    #[test]
    fn inhibitor_reduces_check_overhead_for_micro_steps() {
        // 40 micro-steps of 1 s with 0.3 s check overhead: without the
        // inhibitor ~12 s of pure overhead; with a 5 s period only ~1/5 of
        // the boundaries pay it.
        let mk = |i| fs_job(i, 0.0, 4, 40, 1.0);
        let jobs: Vec<JobSpec> = (0..4).map(mk).collect();
        let no_inh = run(&cfg().with_inhibitor(None), &jobs);
        let inh5 = run(&cfg().with_inhibitor(Some(5.0)), &jobs);
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
        j.malleability.preferred = Some(4);
        j.malleability.min_procs = 2;
        // Long-lived rigid companion so the flexible job is never "alone
        // in the system" (which would trigger the Algorithm-1 line-2
        // expand-to-max rule).
        let mut rigid = fs_job(1, 0.0, 2, 200, 5.0);
        rigid.flexible = false;
        let (r, outcomes) = run_recorded(&cfg(), &[j, rigid]);
        assert!(r.summary.reconfigurations >= 1);
        // After shrinking 16→4 the job runs 4× slower (linear curve): one
        // 5 s step at 16 plus 29 steps of 20 s — far above the fixed 150 s.
        assert!(
            outcomes[0].execution_s() > 450.0,
            "exec = {}",
            outcomes[0].execution_s()
        );
    }

    #[test]
    fn driver_never_schedules_in_the_past() {
        for cfg in [cfg(), cfg().asynchronous(), cfg().as_fixed()] {
            let jobs: Vec<JobSpec> = (0..15)
                .map(|i| fs_job(i, i as f64 * 4.0, 1 + i % 8, 4, 18.0))
                .collect();
            let r = run(&cfg, &jobs);
            assert_eq!(r.past_schedules, 0, "past-scheduled events in {cfg:?}");
        }
    }

    #[test]
    fn policy_selection_reaches_the_scheduler() {
        use dmr_slurm::PolicyKind;
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| fs_job(i, i as f64 * 6.0, 2 + i % 6, 6, 20.0))
            .collect();
        let alg1 = run(&cfg(), &jobs);
        let fair = run(&cfg().with_policy(PolicyKind::fair_share()), &jobs);
        let util = run(
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
        job.flexible = false;
        let r = run(&cfg, &[job]);
        let expected = SimTime::from_secs_f64(1000.25) + Span(3 * 472_913);
        assert_eq!(r.end_time, expected, "end_time must be the engine clock");
        assert!((r.summary.makespan_s - 1.418739).abs() < 1e-9);
    }

    #[test]
    fn offset_arrivals_do_not_deflate_makespan_or_utilization() {
        // The same workload shifted to start at t = 2000 s must report
        // identical makespan and utilization ("first submission to last
        // completion"), not quantities diluted by the idle prefix.
        let base: Vec<JobSpec> = (0..6)
            .map(|i| fs_job(i, i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let shifted: Vec<JobSpec> = (0..6)
            .map(|i| fs_job(i, 2000.0 + i as f64 * 5.0, 4, 2, 30.0))
            .collect();
        let a = run(&cfg(), &base);
        let b = run(&cfg(), &shifted);
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
    fn an_attached_recorder_leaves_the_result_bit_identical() {
        use dmr_workload::WorkloadKind;
        for base in [cfg(), cfg().asynchronous()] {
            let mut src = WorkloadKind::burst().build(40, 11);
            let alone = Simulation::new(&base).source(src.as_mut()).run().unwrap();
            let mut src = WorkloadKind::burst().build(40, 11);
            let mut rec = SeriesRecorder::new();
            let observed = Simulation::new(&base)
                .source(src.as_mut())
                .sink(&mut rec)
                .run()
                .unwrap();
            // `{:?}` prints every f64 in its shortest round-trip form, so
            // equal renderings are equal bits.
            assert_eq!(
                format!("{:?}", alone.summary),
                format!("{:?}", observed.summary)
            );
            assert_eq!(alone.events, observed.events);
            assert_eq!(alone.end_time, observed.end_time);
            let (allocation, _, _, outcomes) = rec.into_parts();
            assert_eq!(outcomes.len(), 40, "the observer saw every job");
            assert!(!allocation.is_empty(), "and every sample");
        }
    }

    #[test]
    fn adversarial_sources_run_to_completion() {
        use dmr_workload::WorkloadKind;
        for kind in [WorkloadKind::burst(), WorkloadKind::diurnal()] {
            let mut src = kind.build(20, 5);
            let r = Simulation::new(&cfg()).source(src.as_mut()).run().unwrap();
            assert_eq!(r.summary.jobs, 20, "{kind:?}");
            assert_eq!(r.past_schedules, 0, "{kind:?}");
        }
    }

    #[test]
    fn scripted_node_failure_requeues_and_completes() {
        // One rigid 4-node job, 2 steps of 30 s. Failing one of its nodes
        // at t = 25 s kills the incarnation; the requeued job restarts
        // from scratch and still completes.
        let mut job = fs_job(0, 0.0, 4, 2, 30.0);
        job.flexible = false;
        let jobs = [job];
        let trace = FaultTrace::parse("25 fail 0\n200 repair 0\n").unwrap();
        let clean = run(&cfg().as_fixed(), &jobs);
        let mut rec = SeriesRecorder::new();
        let faulty = Simulation::new(&cfg().as_fixed())
            .source(&mut jobs.iter())
            .faults(trace)
            .sink(&mut rec)
            .run()
            .unwrap();
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
        assert!(rec.into_parts().3[0].waiting_s() >= 25.0);
    }

    #[test]
    fn a_scripted_fault_on_a_node_the_machine_lacks_stops_the_run_before_it_starts() {
        // Scheduled at t = 1e9 s, long after the job is done: the check
        // is made up front, not when (or whether) the event fires.
        let script = |node| FaultTrace::parse(&format!("1000000000 fail {node}\n")).unwrap();
        assert_eq!(cfg().nodes, 20);
        let jobs = [fs_job(0, 0.0, 4, 2, 30.0)];
        let with_fault_on = |node| {
            Simulation::new(&cfg())
                .source(&mut jobs.iter())
                .faults(script(node))
                .run()
        };
        let err = with_fault_on(20).unwrap_err();
        assert!(matches!(err, DmrError::FaultScript(_)), "{err:?}");
        let said = err.to_string();
        assert!(
            said.contains("names a node the 20-node machine does not have"),
            "{said}"
        );
        // Node 19 is the machine's last: the same script on it runs.
        assert!(with_fault_on(19).is_ok());
    }

    #[test]
    fn checkpoint_interval_bounds_lost_work() {
        // 12 steps of 10 s; the failure lands at t = 115 s. From scratch
        // the whole 115 s is lost; with a 30 s checkpoint interval the
        // last image is at most ~40 s old.
        let mut job = fs_job(0, 0.0, 4, 12, 10.0);
        job.flexible = false;
        let jobs = [job];
        let run_faulty = |cfg: &ExperimentConfig| {
            let trace = FaultTrace::parse("115 fail 1\n400 repair 1\n").unwrap();
            Simulation::new(cfg)
                .source(&mut jobs.iter())
                .faults(trace)
                .run()
                .unwrap()
        };
        let base = cfg().as_fixed();
        let scratch = run_faulty(&base);
        let ckpt = run_faulty(&base.with_ckpt_interval(30.0));
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
        // Under FaultLoad::None the seed and checkpoint interval must not
        // perturb a run in any way — the fault machinery does zero work.
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| fs_job(i, i as f64 * 5.0, 2 + i % 5, 4, 15.0))
            .collect();
        let a = run(&cfg(), &jobs);
        let b = run(&cfg().with_fault_seed(0xDEAD_BEEF), &jobs);
        let c = run(&cfg().with_ckpt_interval(60.0), &jobs);
        // The rigid path is the one the interval knob could perturb (it
        // cuts monolithic segments at image boundaries when armed): the
        // cut must not happen — `events` included — with no fault source.
        let fa = run(&cfg().as_fixed(), &jobs);
        let fc = run(&cfg().as_fixed().with_ckpt_interval(60.0), &jobs);
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
    }

    #[test]
    fn harsh_faultload_is_deterministic_and_completes() {
        use dmr_cluster::FaultLoad;
        let jobs: Vec<JobSpec> = (0..20)
            .map(|i| fs_job(i, i as f64 * 40.0, 2 + i % 6, 20, 30.0))
            .collect();
        let fcfg = cfg().with_faults(FaultLoad::Harsh);
        let a = run(&fcfg, &jobs);
        let b = run(&fcfg, &jobs);
        assert_eq!(a.summary.jobs, 20, "every job survives recovery");
        assert_eq!(a.summary.makespan_s, b.summary.makespan_s);
        assert_eq!(a.summary.failures, b.summary.failures);
        assert_eq!(a.summary.requeues, b.summary.requeues);
        assert_eq!(a.summary.lost_work_s, b.summary.lost_work_s);
        assert_eq!(a.events, b.events);
        assert!(a.summary.failures > 0, "harsh load injects failures");
        // A different seed moves the failures.
        let c = run(&fcfg.with_fault_seed(99), &jobs);
        assert_eq!(c.summary.jobs, 20);
    }

    #[test]
    fn estimates_do_not_break_backfill() {
        // Mixed sizes under heavy load: just assert global sanity — all
        // complete, waits non-negative, makespan finite.
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| fs_job(i, i as f64 * 2.0, 1 + (i * 7) % 16, 3, 25.0))
            .collect();
        let (r, outcomes) = run_recorded(&cfg(), &jobs);
        assert_eq!(r.summary.jobs, 30);
        assert!(outcomes.iter().all(|o| o.waiting_s() >= 0.0));
        assert!(r.summary.utilization > 0.0 && r.summary.utilization <= 1.0);
    }
    #[test]
    fn a_retry_never_queues_a_second_resizer() {
        // Injected resize failures schedule retries; asynchronous jobs
        // also wait on queued resizers. A retry may fall due in any phase:
        // while a resizer is awaited, while the job reconfigures, or after
        // the job already reached its target; a later retry may overwrite
        // a pending one. Every phase change goes through
        // `RunState::enter`, whose assertions hold across these runs.
        use dmr_cluster::FaultLoad;
        use dmr_workload::WorkloadKind;
        for base in [
            ExperimentConfig::preliminary(),
            ExperimentConfig::production(),
        ] {
            for mode in [base, base.asynchronous()] {
                for kind in [
                    WorkloadKind::FsPreliminary,
                    WorkloadKind::RealMix,
                    WorkloadKind::burst(),
                ] {
                    for seed in 0..20 {
                        let cfg = mode
                            .with_faults(FaultLoad::Harsh)
                            .with_fault_seed(seed)
                            .with_ckpt_interval(600.0);
                        let mut src = kind.build(200, seed);
                        let r = Simulation::new(&cfg).source(src.as_mut()).run().unwrap();
                        assert_eq!(r.summary.jobs, 200, "{:?} {kind:?} seed {seed}", cfg.mode);
                    }
                }
            }
        }
    }

    /// A resize policy that answers `.0` at every consultation and
    /// promises no hold, so every check point reaches its handler.
    struct Answer(ResizeAction);

    impl dmr_slurm::ResizePolicy for Answer {
        fn name(&self) -> &'static str {
            "answer"
        }

        fn decide(&self, _: &Slurm, _: JobId, _: SimTime) -> ResizeAction {
            self.0
        }
    }

    /// The three jobs of [`rig`]: `a` flexible on 4 of the 20 nodes, `b`
    /// and `c` rigid on the other 12 and 4, each one long segment.
    #[derive(Clone, Copy)]
    struct Jobs {
        a: JobId,
        b: JobId,
        c: JobId,
    }

    /// Runs `test` on a driver whose three [`Jobs`] started at t = 0 and
    /// fill the machine, under a policy that answers "no action".
    fn rig(cfg: ExperimentConfig, test: impl FnOnce(&mut Driver, Jobs)) {
        let rigid = |index, procs| JobSpec {
            flexible: false,
            ..fs_job(index, 0.0, procs, 1, 1e5)
        };
        let specs = [fs_job(0, 0.0, 4, 10, 10.0), rigid(1, 12), rigid(2, 4)];
        let mut source = specs.iter();
        let mut sink = OnlineAccumulator::new();
        let mut d = Driver::new(
            ExperimentConfig {
                backfill: false,
                ..cfg
            },
            &mut source,
            &mut sink,
            None,
        );
        answer(&mut d, ResizeAction::NoAction);
        d.schedule_next_arrival();
        while d.running.len() < 3 {
            let Some(Step::Fired(now, ev)) = d.engine.step() else {
                panic!("the three arrivals fire first");
            };
            d.handle(now, ev);
            flush(&mut d);
        }
        let mut ids: Vec<_> = d.slurm.jobs().map(|j| (j.seq, j.id)).collect();
        ids.sort();
        let jobs = Jobs {
            a: ids[0].1,
            b: ids[1].1,
            c: ids[2].1,
        };
        assert_eq!(d.slurm.cluster().free_nodes(), 0);
        test(&mut d, jobs)
    }

    fn answer(d: &mut Driver, action: ResizeAction) {
        d.slurm.set_policy(Box::new(Answer(action)));
    }

    /// Runs the scheduling pass an event asked for.
    fn flush(d: &mut Driver) {
        if std::mem::take(&mut d.pass_due) {
            d.do_schedule(d.engine.now());
        }
    }

    /// Handles `ev` now, as if it had just fired.
    fn fire(d: &mut Driver, ev: Ev) {
        d.handle(d.engine.now(), ev);
        flush(d);
    }

    /// Fires the pending event `id` now, ahead of its instant.
    fn fire_pending(d: &mut Driver, id: EventId) {
        let ev = d.engine.cancel(id).expect("the event is pending");
        fire(d, ev);
    }

    /// `job`'s segment ends now: its pending `SegmentDone` fires, or one
    /// is made up when it has none in flight.
    fn end_segment(d: &mut Driver, job: JobId) {
        match d.running[job].phase {
            Phase::Resuming | Phase::Reconfiguring { .. } => {
                fire(d, Ev::SegmentDone { job, steps: 1 })
            }
            phase => fire_pending(d, phase.event().expect("a segment is in flight")),
        }
    }

    /// The phases a test drives job `a` of [`rig`] to.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum At {
        Computing,
        Planned,
        Awaiting,
        Granted,
        Reconfiguring,
    }

    /// The events of the protocol, applied to job `a`.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum On {
        /// Its segment ends with steps left.
        Check,
        ReconfigDone,
        /// A resizer for it starts: the one it awaits, or one made up.
        ResizerStarted,
        RjTimeout,
        ResizeRetry,
        /// One of its nodes fails.
        NodeFail,
        /// Its last segment ends.
        Completion,
    }

    /// What a test expects of job `a` after an event.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Next {
        /// The phase the job enters (compared by variant, and field by
        /// field where the protocol keeps a field).
        Enters(At),
        /// The phase stays; the retry waits in the mailbox.
        Mailbox,
        /// The incarnation is gone, its events and its resizer with it.
        Gone,
        /// A debug assertion trips.
        Illegal,
    }

    fn at(phase: Phase) -> At {
        match phase {
            Phase::Computing { .. } => At::Computing,
            Phase::Planned { .. } => At::Planned,
            Phase::Awaiting { .. } => At::Awaiting,
            Phase::Granted { .. } => At::Granted,
            Phase::Reconfiguring { .. } => At::Reconfiguring,
            Phase::Resuming => unreachable!("no handler leaves a job resuming"),
        }
    }

    /// A policy answer that grows job `a` of [`rig`] to 8 nodes.
    const GROW: ResizeAction = ResizeAction::Expand { to: 8 };
    /// A policy answer that shrinks job `a` of [`rig`] to 2 nodes.
    const SHRINK: ResizeAction = ResizeAction::Shrink {
        to: 2,
        beneficiary: None,
    };

    /// Drives job `a` to `to` through the protocol's own handlers. In
    /// asynchronous mode: a plan to grow to 8, the resizer it queues, that
    /// resizer started on `c`'s nodes, and the growth. In synchronous
    /// mode: a shrink to 2.
    fn drive(d: &mut Driver, jobs: Jobs, to: At) {
        let Jobs { a, c, .. } = jobs;
        if to == At::Computing {
            return;
        }
        let sync = d.cfg.mode == crate::ScheduleMode::Synchronous;
        answer(d, if sync { SHRINK } else { GROW });
        end_segment(d, a);
        answer(d, ResizeAction::NoAction);
        for step in [At::Awaiting, At::Granted, At::Reconfiguring] {
            if sync || at(d.running[a].phase) == to {
                break;
            }
            match step {
                At::Granted => end_segment(d, c),
                _ => end_segment(d, a),
            }
        }
        assert_eq!(at(d.running[a].phase), to);
    }

    /// Applies `on` to job `a` of [`rig`].
    fn apply(d: &mut Driver, jobs: Jobs, on: On) {
        let Jobs { a, b, .. } = jobs;
        let phase = d.running[a].phase;
        let now = d.engine.now();
        match on {
            On::Check => end_segment(d, a),
            On::Completion => {
                let rs = d.running.get_mut(a).unwrap();
                rs.steps_done = d.specs[a].1.spec.steps - 1;
                end_segment(d, a);
            }
            On::ReconfigDone => match phase {
                Phase::Reconfiguring { done } => fire_pending(d, done),
                _ => fire(d, Ev::ReconfigDone { job: a, to: 8 }),
            },
            On::ResizerStarted => {
                if !matches!(phase, Phase::Awaiting { .. }) {
                    let to = d.slurm.nodes_of(a) + 4;
                    let queued = d.slurm.expand_protocol(a, to, now);
                    assert!(matches!(queued, Err(dmr_slurm::ExpandError::Queued { .. })));
                }
                // `b` completes and a pass starts the resizer on its nodes.
                end_segment(d, b);
            }
            On::RjTimeout => match phase {
                Phase::Awaiting { timeout, .. } => fire_pending(d, timeout),
                _ => fire(d, Ev::RjTimeout { job: a }),
            },
            On::ResizeRetry => fire(d, Ev::ResizeRetry { job: a, to: 12 }),
            On::NodeFail => {
                let node = (0..20)
                    .map(dmr_cluster::NodeId)
                    .find(|&n| d.slurm.cluster().owner_of(n) == Some(a.owner_tag()))
                    .unwrap();
                fire(d, Ev::NodeFail { node });
            }
        }
    }

    /// Whether resizer `rj` no longer waits to start.
    fn not_queued(d: &Driver, rj: JobId) -> bool {
        d.slurm
            .job(rj)
            .is_none_or(|j| j.state != dmr_slurm::JobState::Pending)
    }

    /// Checks job `a` against `next`, given its phase `before` the event.
    fn expect(d: &mut Driver, a: JobId, before: Phase, on: On, next: Next) {
        let Some(rs) = d.running.get(a) else {
            assert_eq!(next, Next::Gone);
            // Nothing of the dead incarnation may still fire or start.
            let timeout = match before {
                Phase::Awaiting { rj, timeout, .. } => {
                    assert!(not_queued(d, rj), "resizer left queued");
                    Some(timeout)
                }
                _ => None,
            };
            for ev in before.event().into_iter().chain(timeout) {
                assert!(d.engine.cancel(ev).is_none(), "{ev:?} still pending");
            }
            return;
        };
        let after = rs.phase;
        if next == Next::Mailbox {
            assert_eq!((after, rs.retry_expand), (before, Some(12)));
            return;
        }
        assert_eq!(Next::Enters(at(after)), next, "{before:?} -> {after:?}");
        if on == On::Check {
            assert_eq!(rs.retry_expand, None, "a check point empties the mailbox");
        }
        match (before, after) {
            // The same resizer and timeout, the next segment.
            (Phase::Awaiting { rj, timeout, .. }, Phase::Awaiting { seg, .. }) => {
                assert!(after != before && after == Phase::Awaiting { seg, rj, timeout });
            }
            (Phase::Awaiting { seg, .. }, Phase::Granted { seg: s, to }) => {
                assert_eq!((s, to), (seg, 8));
            }
            (Phase::Awaiting { seg, rj, .. }, Phase::Computing { seg: s }) => {
                assert_eq!(s, seg, "the timeout leaves the segment alone");
                assert!(not_queued(d, rj), "the timeout aborts the resizer");
            }
            _ => {}
        }
    }

    /// Runs one `(phase, event)` pair on a fresh [`rig`], with `retry`
    /// in `a`'s mailbox and `action` the policy's answer at the event.
    fn case(
        cfg: ExperimentConfig,
        from: At,
        retry: Option<u32>,
        action: ResizeAction,
        on: On,
        next: Next,
    ) {
        if next == Next::Illegal && !cfg!(debug_assertions) {
            return;
        }
        rig(cfg, |d, jobs| {
            drive(d, jobs, from);
            d.running.get_mut(jobs.a).unwrap().retry_expand = retry;
            answer(d, action);
            let before = d.running[jobs.a].phase;
            let applied =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| apply(d, jobs, on)));
            let what = format!("{:?} {from:?} retry {retry:?} {action:?} {on:?}", cfg.mode);
            match applied {
                Err(_) => assert_eq!(next, Next::Illegal, "{what} tripped an assertion"),
                Ok(()) if next == Next::Illegal => panic!("{what} was accepted"),
                Ok(()) => expect(d, jobs.a, before, on, next),
            }
        });
    }

    #[test]
    fn every_phase_meets_every_event_as_the_protocol_says() {
        use At::*;
        use Next::{Enters as E, Gone as G, Illegal as X, Mailbox as M};
        use On::*;
        let events = [
            Check,
            ReconfigDone,
            ResizerStarted,
            RjTimeout,
            ResizeRetry,
            NodeFail,
            Completion,
        ];
        let (asynchronous, sync, no) = (cfg().asynchronous(), cfg(), ResizeAction::NoAction);
        // One row per phase, one column per event; the policy answers "no
        // action". Synchronous mode plans, awaits and holds nothing.
        #[rustfmt::skip]
        let table = [
            //                             Check             ReconfigDone  ResizerStarted  RjTimeout     ResizeRetry  NodeFail  Completion
            (asynchronous, Computing,     [E(Computing),     X,            X,              X,            M,           G,        G]),
            (asynchronous, Planned,       [E(Awaiting),      X,            X,              X,            M,           G,        G]),
            (asynchronous, Awaiting,      [E(Awaiting),      X,            E(Granted),     E(Computing), M,           G,        G]),
            (asynchronous, Granted,       [E(Reconfiguring), X,            X,              X,            M,           G,        G]),
            (asynchronous, Reconfiguring, [X,                E(Computing), X,              X,            M,           G,        X]),
            (sync,         Computing,     [E(Computing),     X,            X,              X,            M,           G,        G]),
            (sync,         Reconfiguring, [X,                E(Computing), X,              X,            M,           G,        X]),
        ];
        for (cfg, from, row) in table {
            for (on, next) in events.into_iter().zip(row) {
                case(cfg, from, None, no, on, next);
            }
        }
        // Check points by what the policy answers and what the mailbox
        // holds: a grant goes first, then a plan, then a retry, and a
        // retry is dropped while a resizer is awaited. No node is free,
        // so an expansion queues a resizer.
        #[rustfmt::skip]
        let checks = [
            (asynchronous, Computing, None,     GROW,   Planned),
            (asynchronous, Computing, None,     SHRINK, Planned),
            (asynchronous, Computing, Some(8),  no,     Awaiting),
            (asynchronous, Planned,   Some(12), no,     Awaiting),
            (asynchronous, Awaiting,  Some(12), no,     Awaiting),
            (asynchronous, Awaiting,  None,     GROW,   Awaiting),
            (asynchronous, Granted,   Some(12), no,     Reconfiguring),
            (sync,         Computing, None,     GROW,   Computing),
            (sync,         Computing, None,     SHRINK, Reconfiguring),
            (sync,         Computing, Some(8),  no,     Computing),
        ];
        for (cfg, from, retry, action, next) in checks {
            case(cfg, from, retry, action, Check, E(next));
        }
    }
}
