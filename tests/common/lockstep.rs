//! The lockstep harness: the production `Slurm` and the model of
//! `model.rs` take the same operations, one at a time, and are compared
//! after every one — each pass's starts (job, nodes held, resizer parent,
//! node list), the pending queue, every running job's node list, every
//! job's state, start, end and request, and the free count — while
//! production checks its own invariants. Every pass production makes is
//! also classified from its `incremental_stats()`: elided, or executed and
//! examining fewer jobs than the model's walk (indexed) or as many
//! (walked). A divergence replays the operation log on fresh pairs to
//! shrink it before reporting.
//!
//! Jobs are named by submission ordinal. An operation naming a job in a
//! state it does not apply to is a no-op on both sides, so any subsequence
//! of a log is a log — which is what shrinking needs.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dmr::cluster::{ClassTable, Cluster, FailOutcome, NodeId};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{ExpandError, Job, JobId, JobRequest, JobState, ResizeAction, Slurm, SlurmConfig};

use super::model::{Grow, Model, Start};

/// One operation on the scheduler.
#[derive(Clone, Debug)]
pub enum Op {
    /// The clock moves on to this instant (never back: the scheduler
    /// relies on it).
    At(SimTime),
    Submit(JobRequest),
    Schedule,
    Backfill,
    /// A running job completes.
    Complete(usize),
    /// A pending or running job is cancelled.
    Cancel(usize),
    /// A pending job gets maximum priority.
    Boost(usize),
    /// A live job's runtime estimate is refreshed.
    Estimate(usize, Span),
    /// A running job is killed and resubmitted.
    Requeue(usize),
    /// A running job asks to grow to this many nodes.
    Expand(usize, u32),
    /// A queued resizer is withdrawn.
    Abort(usize),
    /// A running job shrinks to this many nodes.
    Shrink(usize, u32),
    /// The installed policy is consulted about a running job.
    Decide(usize),
    /// A node fails; a job it served is killed and requeued.
    Fail(NodeId),
    Repair(NodeId),
    PowerDown(u32),
    WakeAll,
    SetBackfill(bool),
}

/// What an operation returned.
#[derive(Clone, Debug)]
pub enum Outcome {
    Done,
    /// The job a submission or requeue opened.
    Job(usize),
    /// What a pass started: each job and, for a resizer, the job it
    /// expanded (the harness finishes every such expansion).
    Started(Vec<(usize, Option<usize>)>),
    Grow(Grow),
    Verdict(ResizeAction),
}

impl Outcome {
    pub fn job(&self) -> Option<usize> {
        match *self {
            Outcome::Job(j) => Some(j),
            _ => None,
        }
    }

    pub fn grow(&self) -> Grow {
        match *self {
            Outcome::Grow(g) => g,
            _ => Grow::Refused,
        }
    }

    pub fn started(self) -> Vec<(usize, Option<usize>)> {
        match self {
            Outcome::Started(s) => s,
            _ => Vec::new(),
        }
    }
}

/// What a drive exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coverage {
    /// Passes production elided; the model ran each and started nothing.
    pub elided: u64,
    /// Executed backfill passes that examined fewer jobs than the model.
    pub indexed: u64,
    /// Executed backfill passes that examined as many.
    pub walked: u64,
    /// Conservative passes `bf_max_job_test` cut off.
    pub window_cutoffs: u64,
    /// Holes asked for on behalf of class-constrained jobs.
    pub constrained_holes: u64,
    /// Queued resizers a pass started.
    pub resizers_started: u64,
    pub requeues: u64,
    /// Jobs production's executed backfill passes examined, and the jobs
    /// the model's walks examined over every backfill pass.
    pub examined: u64,
    pub walk_examined: u64,
}

/// Everything a pair is built from.
#[derive(Clone)]
pub struct Setup {
    pub table: ClassTable,
    pub config: SlurmConfig,
    /// `Slurm::check_invariants` runs after every this many operations
    /// (it is O(nodes × allocation width)).
    pub invariants_every: usize,
}

impl Setup {
    pub fn new(table: ClassTable, config: SlurmConfig) -> Self {
        Setup {
            table,
            config,
            invariants_every: 1,
        }
    }
}

pub struct Lockstep {
    setup: Setup,
    slurm: Slurm,
    model: Model,
    /// Production's id of each ordinal; `None` for a resizer granted on
    /// the spot, which production never names.
    ids: Vec<Option<JobId>>,
    now: SimTime,
    /// Operations applied, and their log (the replays that shrink a
    /// divergence run ops without logging them).
    steps: usize,
    log: Vec<Op>,
    coverage: Coverage,
}

impl Lockstep {
    pub fn new(setup: Setup) -> Self {
        let cluster = || Cluster::with_classes(setup.table.clone());
        Lockstep {
            slurm: Slurm::new(cluster(), setup.config),
            model: Model::new(cluster(), setup.config),
            ids: Vec::new(),
            now: SimTime::ZERO,
            steps: 0,
            log: Vec::new(),
            coverage: Coverage::default(),
            setup,
        }
    }

    pub fn slurm(&self) -> &Slurm {
        &self.slurm
    }

    pub fn model(&self) -> &Model {
        &self.model
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Production's id of job `j`.
    pub fn id(&self, j: usize) -> JobId {
        self.ids[j].expect("a job production named")
    }

    /// The ordinal of a job production names.
    pub fn ordinal(&self, id: JobId) -> Result<usize, String> {
        let job = self
            .slurm
            .job(id)
            .ok_or(format!("production has no {id:?}"))?;
        Ok(job.seq as usize)
    }

    pub fn coverage(&self) -> Coverage {
        Coverage {
            window_cutoffs: self.model.window_cutoffs,
            constrained_holes: self.model.constrained_holes,
            walk_examined: self.model.examined,
            ..self.coverage
        }
    }

    /// Applies `op` to both and compares them; on a divergence, the log
    /// shrunk to the shortest failing one found.
    pub fn apply(&mut self, op: Op) -> Result<Outcome, String> {
        self.log.push(op.clone());
        self.run(&op).map_err(|error| self.report(error))
    }

    pub fn at(&mut self, now: SimTime) -> Result<(), String> {
        self.apply(Op::At(now)).map(drop)
    }

    pub fn submit(&mut self, req: JobRequest) -> Result<usize, String> {
        Ok(self.apply(Op::Submit(req))?.job().expect("a submission"))
    }

    pub fn schedule(&mut self) -> Result<Vec<(usize, Option<usize>)>, String> {
        Ok(self.apply(Op::Schedule)?.started())
    }

    pub fn backfill(&mut self) -> Result<Vec<(usize, Option<usize>)>, String> {
        Ok(self.apply(Op::Backfill)?.started())
    }

    /// `step`, then `compare`, with a panic on either side an error.
    fn run(&mut self, op: &Op) -> Result<Outcome, String> {
        self.steps += 1;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let outcome = self.step(op)?;
            self.compare()?;
            // Moving the clock changes nothing production keeps.
            let check =
                !matches!(op, Op::At(_)) && self.steps.is_multiple_of(self.setup.invariants_every);
            if check {
                self.slurm.check_invariants()?;
            }
            Ok(outcome)
        }));
        result.unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<String>().cloned();
            let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(format!("panicked: {}", text.unwrap_or_default()))
        })
    }

    /// Whether `op` names jobs in a state it applies to.
    fn applies(&self, op: &Op) -> bool {
        let m = &self.model;
        let exists = |j: usize| j < m.jobs.len();
        let running = |j: usize| exists(j) && m.state(j) == JobState::Running && !m.is_resizer(j);
        let pending = |j: usize| exists(j) && m.state(j) == JobState::Pending;
        match *op {
            Op::Complete(j) | Op::Requeue(j) | Op::Expand(j, _) | Op::Shrink(j, _) => running(j),
            Op::Decide(j) => running(j),
            Op::Cancel(j) => running(j) || pending(j) && !m.is_resizer(j),
            Op::Boost(j) => pending(j),
            Op::Estimate(j, _) => running(j) || pending(j),
            Op::Abort(j) => pending(j) && m.is_resizer(j),
            Op::Fail(node) | Op::Repair(node) => node.0 < m.cluster.total_nodes(),
            Op::At(t) => t >= self.now,
            _ => true,
        }
    }

    fn step(&mut self, op: &Op) -> Result<Outcome, String> {
        if !self.applies(op) {
            return Ok(Outcome::Done);
        }
        let now = self.now;
        let (slurm, model) = (&mut self.slurm, &mut self.model);
        let id = |j: usize| self.ids[j].expect("a job production named");
        match *op {
            Op::At(t) => self.now = t,
            Op::Submit(ref req) => {
                let id = slurm.submit(req.clone(), now);
                let runtime = slurm.config.default_expected_runtime;
                let job = model.submit(Job::submitted(id, 0, req.clone(), runtime, now));
                self.ids.push(Some(id));
                return Ok(Outcome::Job(job));
            }
            Op::Schedule => return self.pass(false),
            Op::Backfill => return self.pass(true),
            Op::Complete(j) => {
                slurm.complete(id(j), now);
                model.complete(j, now);
            }
            Op::Cancel(j) => {
                slurm.cancel(id(j), now);
                model.cancel(j, now);
            }
            Op::Boost(j) => {
                slurm.boost(id(j));
                model.boost(j);
            }
            Op::Estimate(j, estimate) => {
                slurm.set_expected_runtime(id(j), estimate);
                model.set_expected_runtime(j, estimate);
            }
            Op::Requeue(j) => return self.requeue(j),
            Op::Expand(j, to) => {
                let grown = slurm.expand_protocol(id(j), to, now);
                let grow = model.expand(j, to, now);
                match (grown, grow) {
                    (Ok(n), Grow::Now(m)) if n == m => self.ids.push(None),
                    (Err(ExpandError::Queued { resizer }), Grow::Queued(_)) => {
                        self.ids.push(Some(resizer))
                    }
                    (Err(e), Grow::Refused) if !matches!(e, ExpandError::Queued { .. }) => {}
                    (p, m) => return Err(format!("expand: production {p:?}, the model {m:?}")),
                }
                return Ok(Outcome::Grow(grow));
            }
            Op::Abort(j) => {
                slurm.abort_expand(id(j), now);
                model.abort_expand(j, now);
            }
            Op::Shrink(j, to) => {
                let released = slurm.shrink_protocol(id(j), to, now).ok();
                same("shrink", released, model.shrink(j, to))?
            }
            Op::Decide(j) => {
                let verdict = slurm.decide_resize(id(j), now);
                if let ResizeAction::Shrink {
                    beneficiary: Some(b),
                    ..
                } = verdict
                {
                    if slurm.config.shrink_boost {
                        let b = self.ordinal(b)?;
                        self.model.boost(b);
                    }
                }
                return Ok(Outcome::Verdict(verdict));
            }
            Op::Fail(node) => {
                let victim = match (slurm.fail_node(node), model.cluster.fail_node(node)) {
                    (FailOutcome::Busy(p), FailOutcome::Busy(m)) => {
                        let j = self.ordinal(JobId(p))?;
                        if j != m as usize {
                            return Err(format!(
                                "{node:?} failed under {j} in production, {m} in the model"
                            ));
                        }
                        Some(j)
                    }
                    (p, m) if p == m => None,
                    (p, m) => {
                        return Err(format!("fail {node:?}: production {p:?}, the model {m:?}"))
                    }
                };
                if let Some(j) = victim {
                    return self.requeue(j);
                }
            }
            Op::Repair(node) => same(
                "repair",
                slurm.repair_node(node),
                model.cluster.repair_node(node),
            )?,
            Op::PowerDown(n) => {
                let off = if n == 0 {
                    0
                } else {
                    model.cluster.power_down(n).len() as u32
                };
                same("power down", slurm.power_down_idle(n), off)?
            }
            Op::WakeAll => same("wake", slurm.wake_all(), model.cluster.wake_all())?,
            Op::SetBackfill(on) => {
                slurm.config.backfill = on;
                model.config.backfill = on;
            }
        }
        Ok(Outcome::Done)
    }

    fn requeue(&mut self, j: usize) -> Result<Outcome, String> {
        let again = self.slurm.requeue_failed(self.id(j), self.now);
        match (again, self.model.requeue(j, self.now)) {
            (Some(id), Some(job)) => {
                self.ids.push(Some(id));
                self.coverage.requeues += 1;
                Ok(Outcome::Job(job))
            }
            (p, m) => Err(format!("requeue of {j}: production {p:?}, the model {m:?}")),
        }
    }

    /// A scheduling or backfill pass on both; production's counters say
    /// whether it was elided, indexed or walked. Every expansion whose
    /// resizer the pass started is finished on both.
    fn pass(&mut self, backfill: bool) -> Result<Outcome, String> {
        let now = self.now;
        let (before, walked_before) = (self.slurm.incremental_stats(), self.model.examined);
        let started = if backfill {
            self.slurm.backfill_pass(now)
        } else {
            self.slurm.schedule(now)
        };
        let after = self.slurm.incremental_stats();
        let mut production = Vec::new();
        for s in started {
            production.push(Start {
                job: self.ordinal(s.id)?,
                held: s.held,
                resizer_for: s.resizer_for.map(|p| self.ordinal(p)).transpose()?,
                nodes: self.slurm.cluster().nodes_of(s.id.owner_tag()).to_vec(),
            });
        }
        let by_model = if backfill {
            self.model.backfill_pass(now)
        } else {
            self.model.schedule(now)
        };
        if production != by_model {
            return Err(format!(
                "pass at {now:?} (backfill {backfill}): production started {production:?}, the model {by_model:?}"
            ));
        }
        let elided = if backfill {
            after.backfill_passes_elided > before.backfill_passes_elided
        } else {
            after.sched_passes_elided > before.sched_passes_elided
        };
        if elided {
            self.coverage.elided += 1;
        } else if backfill {
            let seen = after.backfill_jobs_examined - before.backfill_jobs_examined;
            let walk = self.model.examined - walked_before;
            if seen > walk {
                return Err(format!(
                    "a pass examined {seen} jobs, the model's walk {walk}"
                ));
            }
            if seen < walk {
                self.coverage.indexed += 1;
            } else {
                self.coverage.walked += 1;
            }
            self.coverage.examined += seen;
        }
        for s in by_model.iter().filter(|s| s.resizer_for.is_some()) {
            self.coverage.resizers_started += 1;
            let finished = self.slurm.finish_expand(self.id(s.job), now);
            let finished = finished.map_err(|e| e.to_string())?;
            let by_model = self.model.finish_expand(s.job, now);
            if (self.ordinal(finished.0)?, finished.1) != by_model {
                return Err(format!(
                    "finish expand: production {finished:?}, the model {by_model:?}"
                ));
            }
        }
        Ok(Outcome::Started(
            by_model.iter().map(|s| (s.job, s.resizer_for)).collect(),
        ))
    }

    /// Everything both sides show after an operation, production's own
    /// invariants aside.
    fn compare(&self) -> Result<(), String> {
        let (slurm, model, now) = (&self.slurm, &self.model, self.now);
        same("jobs submitted", self.ids.len(), model.jobs.len())?;
        let free = model.cluster.free_nodes();
        same("free nodes", slurm.cluster().free_nodes(), free)?;
        let (queue, by_model) = (slurm.pending_queue(now), model.pending_queue());
        if !queue
            .iter()
            .copied()
            .eq(by_model.iter().map(|&j| self.id(j)))
        {
            let queue: Vec<_> = queue
                .iter()
                .filter_map(|&id| self.ordinal(id).ok())
                .collect();
            return Err(format!(
                "pending queue: production {queue:?}, the model {by_model:?}"
            ));
        }
        let mut running = 0;
        for (j, m) in model.jobs.iter().enumerate() {
            let Some(p) = self.ids[j].and_then(|id| slurm.job(id)) else {
                if !m.state.is_terminal() {
                    return Err(format!("production has no record of live job {j}"));
                }
                continue;
            };
            let seen = |j: &Job| (j.state, j.start_time, j.end_time, j.requested_nodes);
            if p.seq != j as u64 || seen(p) != seen(m) {
                return Err(format!("job {j}: production {p:?}, the model {m:?}"));
            }
            if m.state == JobState::Running {
                running += 1;
                let nodes = slurm.cluster().nodes_of(p.id.owner_tag());
                if nodes != model.nodes(j) {
                    return Err(format!(
                        "nodes of {j}: production {nodes:?}, the model {:?}",
                        model.nodes(j)
                    ));
                }
            }
        }
        same("running jobs", slurm.running_count(), running)
    }

    /// The divergence, with the log shrunk to the shortest failing one
    /// found in a minute of replays.
    fn report(&self, error: String) -> String {
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let shrunk = shrink(&self.setup, &self.log);
        panic::set_hook(hook);
        let mut report = format!(
            "production and the model diverge at op {} ({:?}): {error}\nshrunk to {} ops",
            self.log.len(),
            self.log.last().expect("the op that diverged"),
            shrunk.len()
        );
        if shrunk.len() <= 60 {
            for op in &shrunk {
                report += &format!("\n  {op:?}");
            }
        }
        report
    }
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, production: T, model: T) -> Result<(), String> {
    if production == model {
        return Ok(());
    }
    Err(format!(
        "{what}: production {production:?}, the model {model:?}"
    ))
}

/// How many ops of `ops`, replayed on a fresh pair, it takes to diverge.
fn diverges_after(setup: &Setup, ops: &[Op]) -> Option<usize> {
    let mut pair = Lockstep::new(setup.clone());
    ops.iter()
        .position(|op| pair.run(op).is_err())
        .map(|i| i + 1)
}

/// Drops chunks of the log, halving the chunk size, while the rest still
/// diverges; cut short after a minute.
fn shrink(setup: &Setup, log: &[Op]) -> Vec<Op> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut ops = log.to_vec();
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 && Instant::now() < deadline {
        let mut at = 0;
        while at < ops.len() && Instant::now() < deadline {
            let rest = &ops[(at + chunk).min(ops.len())..];
            let candidate: Vec<Op> = ops[..at].iter().chain(rest).cloned().collect();
            match diverges_after(setup, &candidate) {
                Some(n) => ops = candidate[..n].to_vec(),
                None => at += chunk,
            }
        }
        chunk /= 2;
    }
    ops
}
