//! A naive model of the scheduler: Slurm's `sched/builtin` priority-FIFO
//! pass, `sched/backfill` (EASY-k and conservative, class constraints
//! included) and the §III expand / shrink protocol, written the obvious
//! way. Every pass sorts the pending jobs — boosted first, then by submit
//! time and submission order, Slurm's `priority/multifactor` order at the
//! default weights the paper runs (§VII-A) — every reservation is read
//! off a step function rebuilt from the running jobs, and a job that
//! ends finds its queued resizers by looking at every pending one.
//! Nothing is indexed, cached, memoised or carried from one pass to the
//! next. `tests/common/lockstep.rs` drives the production `Slurm` and this
//! model through the same operations and compares them after each one.
//!
//! Jobs live in a `Vec` in submission order and are addressed by their
//! submission ordinal, which is also their `Job::seq` and their owner tag
//! in the model's own `Cluster` (the allocator is held against a
//! brute-force model in `tests/class_equivalence.rs`). The records are
//! `dmr_slurm::Job`s, opened by `Job::submitted` as production's are.

use std::cmp::Reverse;

use dmr::cluster::{ClassConstraint, Cluster, NodeId};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{BackfillFamily, Job, JobState, SlurmConfig};

/// A reservation or hole nothing can honour.
const NEVER: (SimTime, u32) = (SimTime(u64::MAX), 0);

/// A job a pass started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Start {
    pub job: usize,
    pub held: u32,
    /// The job it expands, for a resizer.
    pub resizer_for: Option<usize>,
    pub nodes: Vec<NodeId>,
}

/// What an expansion request came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grow {
    /// The resizer started on the spot; the job now holds this many nodes.
    Now(u32),
    /// The resizer is queued, boosted, as this job.
    Queued(usize),
    /// Not a running job, or not a larger target.
    Refused,
}

/// Nodes planned over `[from, until)` by the pass in flight, on one
/// class's timeline as well as the aggregate when `class` is set.
struct Plan {
    from: SimTime,
    until: SimTime,
    nodes: u32,
    class: Option<usize>,
}

pub struct Model {
    pub cluster: Cluster,
    pub config: SlurmConfig,
    /// Every job ever submitted, by ordinal.
    pub jobs: Vec<Job>,
    /// For a resizer job, the ordinal of the job it expands.
    pub parent: Vec<Option<usize>>,
    /// Jobs the backfill passes evaluated: every pending job the walk
    /// reached.
    pub examined: u64,
    /// Conservative passes cut off by `bf_max_job_test`.
    pub window_cutoffs: u64,
    /// Holes asked for on behalf of a class-constrained job.
    pub constrained_holes: u64,
}

impl Model {
    pub fn new(cluster: Cluster, config: SlurmConfig) -> Self {
        Model {
            cluster,
            config,
            jobs: Vec::new(),
            parent: Vec::new(),
            examined: 0,
            window_cutoffs: 0,
            constrained_holes: 0,
        }
    }

    /// Queues `job`, a record as `Job::submitted` opens it, under the next
    /// ordinal.
    pub fn submit(&mut self, job: Job) -> usize {
        let ord = self.jobs.len();
        self.jobs.push(Job {
            seq: ord as u64,
            ..job
        });
        self.parent.push(None);
        ord
    }

    /// Submits a copy of `job`'s record at `now` as a fresh submission
    /// (pending, not boosted, never started), changed by `edit`.
    fn resubmit(&mut self, job: usize, now: SimTime, edit: impl FnOnce(&mut Job)) -> usize {
        let mut copy = Job {
            state: JobState::Pending,
            boosted: false,
            submit_time: now,
            start_time: None,
            end_time: None,
            reconfigurations: 0,
            ..self.jobs[job].clone()
        };
        edit(&mut copy);
        self.submit(copy)
    }

    fn tag(job: usize) -> u64 {
        job as u64
    }

    pub fn state(&self, job: usize) -> JobState {
        self.jobs[job].state
    }

    pub fn is_resizer(&self, job: usize) -> bool {
        self.parent[job].is_some()
    }

    pub fn held(&self, job: usize) -> u32 {
        self.cluster.held_by(Self::tag(job))
    }

    pub fn nodes(&self, job: usize) -> &[NodeId] {
        self.cluster.nodes_of(Self::tag(job))
    }

    /// Ordinals of the jobs in `state`, ascending.
    pub fn in_state(&self, state: JobState) -> impl Iterator<Item = usize> + '_ {
        (0..self.jobs.len()).filter(move |&j| self.jobs[j].state == state)
    }

    /// Every pending job, boosted ones first, then by submit time and
    /// submission order.
    fn pending_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = self.in_state(JobState::Pending).collect();
        order.sort_by_key(|&j| (Reverse(self.jobs[j].boosted), self.jobs[j].submit_time, j));
        order
    }

    /// The pending order without resizers: what a policy sees.
    pub fn pending_queue(&self) -> Vec<usize> {
        let mut order = self.pending_order();
        order.retain(|&j| !self.is_resizer(j));
        order
    }

    /// A resizer may run only while the job it expands runs, so the
    /// job's end cancels it and no pass ever meets one whose job ended.
    fn assert_resizers_have_running_parents(&self) {
        for j in self.in_state(JobState::Pending) {
            if let Some(p) = self.parent[j] {
                assert_eq!(
                    self.state(p),
                    JobState::Running,
                    "resizer {j} outlived job {p}"
                );
            }
        }
    }

    /// Cancels the queued resizers of `job`, which just ended.
    fn cancel_resizers_of(&mut self, job: usize, now: SimTime) {
        for j in 0..self.jobs.len() {
            if self.parent[j] == Some(job) && self.state(j) == JobState::Pending {
                self.cancel(j, now);
            }
        }
    }

    fn start(&mut self, job: usize, now: SimTime) -> Start {
        let (need, constraint) = (self.jobs[job].requested_nodes, self.jobs[job].constraint);
        let held = self
            .cluster
            .allocate_in(need, Self::tag(job), constraint)
            .expect("the pass checked the free nodes");
        self.jobs[job].state = JobState::Running;
        self.jobs[job].start_time = Some(now);
        Start {
            job,
            held,
            resizer_for: self.parent[job],
            nodes: self.nodes(job).to_vec(),
        }
    }

    /// `sched/builtin`: start pending jobs in priority order until the
    /// first one whose nodes are not free.
    pub fn schedule(&mut self, now: SimTime) -> Vec<Start> {
        self.assert_resizers_have_running_parents();
        let mut started = Vec::new();
        for j in self.pending_order() {
            let job = &self.jobs[j];
            if !self
                .cluster
                .can_allocate_in(job.requested_nodes, job.constraint)
            {
                break;
            }
            started.push(self.start(j, now));
        }
        started
    }

    /// `sched/backfill`, in the configured family.
    pub fn backfill_pass(&mut self, now: SimTime) -> Vec<Start> {
        self.assert_resizers_have_running_parents();
        match self.config.backfill_family {
            BackfillFamily::Easy { reservations } => self.easy(now, reservations.max(1) as usize),
            BackfillFamily::Conservative => self.conservative(now),
        }
    }

    /// EASY-k: walk the pending order. A job whose nodes are free starts
    /// if it delays none of the reservations held so far — it ends by the
    /// reservation's shadow time, or fits in (and takes from) its spare
    /// nodes. Each of the first `k` jobs that cannot start gets a
    /// reservation. With backfill off, the first blocked job ends the
    /// pass.
    fn easy(&mut self, now: SimTime, k: usize) -> Vec<Start> {
        let mut started = Vec::new();
        let mut reservations: Vec<(SimTime, u32)> = Vec::new();
        let mut plans = Vec::new();
        for j in self.pending_order() {
            self.examined += 1;
            let job = &self.jobs[j];
            let (need, dur, constraint) =
                (job.requested_nodes, job.expected_runtime, job.constraint);
            if self.cluster.can_allocate_in(need, constraint) {
                let end = now + dur;
                let harmless = reservations
                    .iter()
                    .all(|&(shadow, spare)| end <= shadow || need <= spare);
                if harmless {
                    for r in reservations.iter_mut().filter(|r| end > r.0) {
                        r.1 -= need;
                    }
                    started.push(self.start(j, now));
                }
                continue;
            }
            if reservations.is_empty() && !self.config.backfill {
                break;
            }
            if reservations.len() < k {
                let class = self.sole_class(constraint);
                let reservation = if constraint != ClassConstraint::Any {
                    self.constrained_holes += 1;
                    self.earliest_hole(class, need, dur, now, &plans)
                } else if reservations.is_empty() {
                    Some(self.first_reservation(need, now))
                } else {
                    self.earliest_hole(None, need, dur, now, &plans)
                };
                let reservation = reservation.unwrap_or(NEVER);
                if reservation != NEVER {
                    let (from, until) = (reservation.0, reservation.0 + dur);
                    plans.push(Plan {
                        from,
                        until,
                        nodes: need,
                        class,
                    });
                }
                reservations.push(reservation);
            }
        }
        started
    }

    /// The first EASY reservation: add up the nodes the running jobs
    /// release, in order of expected end, until the free ones cover
    /// `need`; the shadow time is that job's end (not before `now`) and
    /// the spare is what the sum exceeds `need` by.
    ///
    /// That follows production, not the rule. The rule counts every node
    /// free *at* the shadow instant, so jobs ending at the same instant
    /// as the one that crosses `need`, and every job already past its
    /// estimate, add to the spare; production stops adding at the first
    /// job that crosses (ROADMAP item 10). On 10 nodes with two 4-node
    /// jobs expected to end at t = 100, a blocked 5-node head gets spare
    /// 1 here and 5 by the rule, so a 2-node job running past t = 100 is
    /// refused here and backfilled by the rule.
    fn first_reservation(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        let mut ends: Vec<(SimTime, u32)> = self
            .in_state(JobState::Running)
            .map(|j| (self.expected_end(j), self.held(j)))
            .collect();
        ends.sort();
        let mut free = self.cluster.free_nodes();
        for (end, held) in ends {
            free += held;
            if free >= need {
                return (end.max(now), free - need);
            }
        }
        NEVER
    }

    /// Conservative backfill: walk the pending order; every job gets the
    /// earliest hole its whole estimate fits in, under the running jobs
    /// and the holes planned before it. A job whose hole opens now and
    /// whose nodes are free starts; any other has its hole planned. The
    /// walk stops after `bf_max_job_test` jobs; with backfill off, at the
    /// first job that cannot start while nothing is planned.
    fn conservative(&mut self, now: SimTime) -> Vec<Start> {
        let window = self.config.bf_max_job_test.max(1);
        let (mut started, mut plans) = (Vec::new(), Vec::new());
        let mut tested = 0;
        for j in self.pending_order() {
            self.examined += 1;
            let job = &self.jobs[j];
            let (need, dur, constraint) =
                (job.requested_nodes, job.expected_runtime, job.constraint);
            let fits = self.cluster.can_allocate_in(need, constraint);
            if !fits && plans.is_empty() && !self.config.backfill {
                break;
            }
            tested += 1;
            if tested > window {
                self.window_cutoffs += 1;
                break;
            }
            if constraint != ClassConstraint::Any {
                self.constrained_holes += 1;
            }
            let class = self.sole_class(constraint);
            let Some((from, _)) = self.earliest_hole(class, need, dur, now, &plans) else {
                continue;
            };
            if from == now && fits {
                started.push(self.start(j, now));
            } else {
                let until = from + dur;
                plans.push(Plan {
                    from,
                    until,
                    nodes: need,
                    class,
                });
            }
        }
        started
    }

    /// The one machine class a constrained job may run on, when there is
    /// exactly one; `None` for an unconstrained job, a uniform machine or
    /// a constraint several classes satisfy (the aggregate answers).
    fn sole_class(&self, constraint: ClassConstraint) -> Option<usize> {
        let table = self.cluster.table();
        if constraint == ClassConstraint::Any || table.num_classes() < 2 {
            return None;
        }
        let mut eligible =
            (0..table.num_classes()).filter(|&c| constraint.allows(c, table.class(c)));
        let first = eligible.next()?;
        eligible.next().is_none().then_some(first)
    }

    fn expected_end(&self, job: usize) -> SimTime {
        let j = &self.jobs[job];
        j.start_time.expect("running") + j.expected_runtime
    }

    /// Nodes `job` holds in `class` (all of them for `None`).
    fn held_in(&self, job: usize, class: Option<usize>) -> u32 {
        let Some(c) = class else {
            return self.held(job);
        };
        let in_class = self
            .nodes(job)
            .iter()
            .filter(|&&n| self.cluster.class_of(n) == c);
        in_class.count() as u32
    }

    /// The timeline of `class` (the aggregate for `None`) at `now`: the
    /// planned occupancy as `(instant, nodes)` steps, one at `now` and one
    /// at every start and end of a commitment. Each running job commits
    /// its nodes from `now` to its expected end (nothing once that is
    /// past), each plan its nodes over its window.
    fn timeline(&self, class: Option<usize>, now: SimTime, plans: &[Plan]) -> Vec<(SimTime, i64)> {
        let running = self.in_state(JobState::Running);
        let mut spans: Vec<(SimTime, SimTime, u32)> = running
            .map(|j| (now, self.expected_end(j), self.held_in(j, class)))
            .collect();
        let planned = plans.iter().filter(|p| class.is_none() || p.class == class);
        spans.extend(planned.map(|p| (p.from.max(now), p.until, p.nodes)));
        let mut instants: Vec<SimTime> = spans.iter().flat_map(|s| [s.0, s.1]).collect();
        instants.push(now);
        instants.retain(|&t| t >= now);
        instants.sort();
        instants.dedup();
        let occupied = |t: SimTime| -> i64 {
            let covering = spans.iter().filter(|s| s.0 <= t && t < s.1);
            covering.map(|s| i64::from(s.2)).sum()
        };
        instants.into_iter().map(|t| (t, occupied(t))).collect()
    }

    /// The earliest instant from `now` on at which `need` nodes of `class`
    /// stay free for `dur` — try `now`, then every step of the timeline —
    /// and the nodes spare beside `need` at the peak of that window.
    /// `None` when the class can never hold `need` nodes or the occupancy
    /// never falls far enough.
    fn earliest_hole(
        &self,
        class: Option<usize>,
        need: u32,
        dur: Span,
        now: SimTime,
        plans: &[Plan],
    ) -> Option<(SimTime, u32)> {
        let cap = i64::from(self.capacity(class)) - i64::from(need);
        let steps = self.timeline(class, now, plans);
        (0..steps.len()).find_map(|i| {
            let (from, until) = (steps[i].0, steps[i].0 + dur);
            let window = steps[i..].iter().enumerate();
            let inside = window.take_while(|&(n, s)| n == 0 || s.0 < until);
            let peak = inside.map(|(_, s)| s.1).max().expect("the first step");
            (peak <= cap).then(|| (from, (cap - peak) as u32))
        })
    }

    /// Nodes of `class` that are free or held by a running job.
    fn capacity(&self, class: Option<usize>) -> u32 {
        let free = match class {
            Some(c) => self.cluster.free_nodes_in(ClassConstraint::Class(c)),
            None => self.cluster.free_nodes(),
        };
        let held: u32 = self
            .in_state(JobState::Running)
            .map(|j| self.held_in(j, class))
            .sum();
        free + held
    }

    /// Marks a running job complete and frees its nodes; its queued
    /// resizers are cancelled.
    pub fn complete(&mut self, job: usize, now: SimTime) {
        self.jobs[job].state = JobState::Completed;
        self.jobs[job].end_time = Some(now);
        let _ = self.cluster.release_all(Self::tag(job));
        self.cancel_resizers_of(job, now);
    }

    /// Cancels a pending or running job; a running one frees its nodes,
    /// and its queued resizers are cancelled.
    pub fn cancel(&mut self, job: usize, now: SimTime) {
        let j = &mut self.jobs[job];
        if j.state.is_terminal() {
            return;
        }
        let was_running = j.state == JobState::Running;
        j.state = JobState::Cancelled;
        j.end_time = Some(now);
        if was_running {
            let _ = self.cluster.release_all(Self::tag(job));
        }
        self.cancel_resizers_of(job, now);
    }

    /// Grants a job maximum priority.
    pub fn boost(&mut self, job: usize) {
        self.jobs[job].boosted = true;
    }

    pub fn set_expected_runtime(&mut self, job: usize, estimate: Span) {
        self.jobs[job].expected_runtime = estimate;
    }

    /// Kill-and-requeue: cancel the running job and resubmit it at its
    /// current size, boosted. `None` unless `job` is a running job that is
    /// not a resizer.
    pub fn requeue(&mut self, job: usize, now: SimTime) -> Option<usize> {
        if self.state(job) != JobState::Running || self.is_resizer(job) {
            return None;
        }
        self.cancel(job, now);
        let again = self.resubmit(job, now, |_| {});
        self.boost(again);
        Some(again)
    }

    /// Expands `job` to `to` nodes by the §III protocol. Step 1: submit a
    /// resizer B for the extra nodes, depending on the job and boosted.
    /// When B's nodes are free, B starts now and steps 2–4 follow;
    /// otherwise B waits in the queue for a pass to start it. B asks for
    /// the job's class constraint, an estimate of zero and nothing else.
    /// This is the one place a resizer is submitted, and only for a
    /// running job: production cancels a resizer submitted for any other
    /// job at once, which no operation here can ask for.
    ///
    /// Starting B at once follows production, which assumes B is what
    /// the next pass would start first and grants the nodes on the spot.
    /// By the rule an older boosted job that fits comes first: boosted
    /// jobs tie on priority and go by submit time (ROADMAP item 11).
    pub fn expand(&mut self, job: usize, to: u32, now: SimTime) -> Grow {
        let current = self.held(job);
        if self.state(job) != JobState::Running || to <= current {
            return Grow::Refused;
        }
        let delta = to - current;
        let b = self.resubmit(job, now, |b| {
            b.requested_nodes = delta;
            b.expected_runtime = Span::ZERO;
            b.resize = None;
        });
        self.parent[b] = Some(job);
        self.boost(b);
        if !self.cluster.can_allocate_in(delta, self.jobs[b].constraint) {
            return Grow::Queued(b);
        }
        self.start(b, now);
        Grow::Now(self.finish_expand(b, now).1)
    }

    /// Protocol steps 2–4 for a resizer a pass started. Step 2: update B
    /// to zero nodes, detaching its allocation. Step 3: cancel B — the
    /// detached nodes stay where they are. Step 4: update the job to its
    /// nodes plus B's. Returns the job and its new size.
    pub fn finish_expand(&mut self, b: usize, now: SimTime) -> (usize, u32) {
        let job = self.parent[b].expect("a resizer");
        self.jobs[b].requested_nodes = 0;
        self.jobs[b].state = JobState::Cancelled;
        self.jobs[b].end_time = Some(now);
        self.cluster
            .transfer_all(Self::tag(b), Self::tag(job))
            .expect("the resizer holds its nodes");
        (job, self.resized(job))
    }

    /// Cancels a resizer that is still queued (the timeout of §V-B1).
    pub fn abort_expand(&mut self, b: usize, now: SimTime) {
        if self.state(b) == JobState::Pending {
            self.cancel(b, now);
        }
    }

    /// Shrinks a running job to `to` nodes, releasing its highest ones;
    /// the count released, or `None` when `to` is not a smaller size.
    pub fn shrink(&mut self, job: usize, to: u32) -> Option<u32> {
        let current = self.held(job);
        if self.state(job) != JobState::Running || to >= current || to == 0 {
            return None;
        }
        let released = self.cluster.release_tail(Self::tag(job), current - to);
        self.resized(job);
        Some(released.expect("a running job holds its nodes"))
    }

    /// The job's request follows its allocation after a resize.
    fn resized(&mut self, job: usize) -> u32 {
        let held = self.held(job);
        self.jobs[job].requested_nodes = held;
        self.jobs[job].reconfigurations += 1;
        held
    }
}
