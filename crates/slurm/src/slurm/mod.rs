//! The scheduler core: queue, EASY backfill, and the malleability
//! protocol of §III. This file holds the types, the job table and the
//! submit / complete / cancel mutations; the rest is split by concern:
//! `order` (the pending order), `pass` (the scheduling pass and the
//! pass memos), `backfill`, `classes` (class splits and timelines),
//! `resize` (§III), `failure` and `invariants`.

mod backfill;
mod classes;
mod failure;
mod invariants;
mod order;
mod pass;
mod resize;

use std::cell::RefCell;

use dmr_cluster::Cluster;
use dmr_sim::{SimTime, Span};

use crate::arena::{JobArena, JobMap};
use crate::index::{PendingIndex, ResizerIndex, RunningIndex};
use crate::job::{Dependency, Job, JobId, JobRequest, JobState};
use crate::policy::{PolicyKind, ResizePolicy};
use crate::slotset::{BackfillFamily, SlotSet};

use backfill::EasyPass;
use classes::{ClassSplit, ClassTimelines};
use pass::IncrState;
pub use pass::IncrementalStats;

/// Scheduler-wide configuration: what the experiments and ablations
/// vary. A job submitted without a runtime estimate gets
/// [`crate::job::DEFAULT_EXPECTED_RUNTIME`]; how long a queued resizer
/// may wait is the caller's timeout, not the scheduler's (§V-B1).
#[derive(Clone, Copy, Debug)]
pub struct SlurmConfig {
    /// Enable EASY backfill (the paper's `sched/backfill`); disabling it
    /// degrades to strict priority-FIFO — kept as an ablation knob.
    pub backfill: bool,
    /// Which backfill algorithm [`Slurm::backfill_pass`] runs (EASY-k or
    /// conservative). Only consulted while [`SlurmConfig::backfill`] is
    /// on.
    pub backfill_family: BackfillFamily,
    /// Cap on blocked jobs the conservative pass examines (and therefore
    /// plans) per invocation — Slurm's `bf_max_job_test`, which defaults
    /// to 500 on real installations precisely because planning an
    /// unbounded queue is quadratic in queue depth no matter how cheap
    /// each hole query is. Jobs past the window stay pending for a later
    /// pass. The EASY families ignore it: their planning depth is already
    /// bounded by `reservations`.
    pub bf_max_job_test: u32,
    /// Grant maximum priority to the queued job a shrink benefits
    /// (Algorithm 1 line 18). Ablation knob; the paper always boosts.
    pub shrink_boost: bool,
    /// Which reconfiguration decision procedure to install (§IV plug-in).
    pub policy: PolicyKind,
    /// Keep terminal (completed / cancelled) job records in the jobs
    /// table. `true` (the default) preserves the accounting API
    /// ([`Slurm::job`] on finished jobs); `false` drops each record the
    /// moment it turns terminal, so arbitrarily long workloads hold only
    /// the *active* job set — the setting the streaming driver uses.
    /// Scheduling decisions never read terminal records (pending-queue
    /// priority, backfill reservations and resize policies all filter on
    /// live states), so the two settings schedule identically.
    pub retain_completed: bool,
}

impl SlurmConfig {
    /// The testbed's configuration (§VII-A). The defaults are the same
    /// for every machine: `_total_nodes` no longer sizes anything (the
    /// pending order has no job-size factor to normalise) and stays only
    /// for the callers that pass it.
    pub fn for_cluster(_total_nodes: u32) -> Self {
        SlurmConfig {
            backfill: true,
            backfill_family: BackfillFamily::default(),
            bf_max_job_test: 512,
            shrink_boost: true,
            policy: PolicyKind::Algorithm1,
            retain_completed: true,
        }
    }
}

/// A job the scheduler just started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobStart {
    pub id: JobId,
    /// How many nodes it started on (the ids are
    /// [`Cluster::nodes_of`] its owner tag).
    pub held: u32,
    /// `Some(original)` when the started job is a resizer for `original`;
    /// the driver must then complete the expansion with
    /// [`Slurm::finish_expand`].
    pub resizer_for: Option<JobId>,
}

/// Failures of the expansion protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpandError {
    UnknownJob(JobId),
    NotRunning(JobId),
    /// `to` is not strictly larger than the current allocation.
    InvalidTarget {
        current: u32,
        to: u32,
    },
    /// The resizer job could not start immediately; it stays pending with
    /// maximum priority. The caller should either wait for it to start (it
    /// will appear in a later [`Slurm::schedule`] result) or abort with
    /// [`Slurm::abort_expand`] after a timeout of its own (§V-B1).
    Queued {
        resizer: JobId,
    },
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::UnknownJob(j) => write!(f, "{j:?} does not exist"),
            ExpandError::NotRunning(j) => write!(f, "{j:?} is not running"),
            ExpandError::InvalidTarget { current, to } => {
                write!(f, "expand target {to} <= current {current}")
            }
            ExpandError::Queued { resizer } => {
                write!(f, "resizer {resizer:?} queued, expansion deferred")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// The workload manager.
pub struct Slurm {
    cluster: Cluster,
    /// Job records in a generation-checked slab ([`JobArena`]): O(1)
    /// lookups on the submit/start/complete path, slots recycled once a
    /// record is pruned. (The detach mark of expand-protocol step 2
    /// lives on the record itself, [`Job::detached_nodes`].)
    jobs: JobArena,
    /// Next submission sequence number ([`Job::seq`]).
    next_seq: u64,
    pub config: SlurmConfig,
    /// The installed reconfiguration decision procedure (§IV plug-in),
    /// consulted through `&self` ([`crate::policy`]).
    pub(crate) policy: Box<dyn ResizePolicy>,
    /// Ordered pending index (see [`crate::index`]): the pending order,
    /// which every pass walks by cursor.
    pending_index: PendingIndex,
    /// Running jobs ordered by `(expected_end, nodes, id)` for backfill.
    running_index: RunningIndex,
    /// Parent → resizer map: a job's retirement cancels its queued
    /// resizers in O(affected).
    resizer_index: ResizerIndex,
    /// Scratch of the pass in flight: the slot-set free-resource
    /// timeline (see [`crate::slotset`]) that the deeper EASY-k
    /// reservations, the conservative family and class-constrained jobs
    /// query. A pass that will ask it rebuilds it from `running_index`
    /// first ([`Slurm::build_timelines`]) and nothing reads it once the
    /// pass returns, so between passes it is kept only for its buffers.
    /// `RefCell`: the hole guard builds it behind `&self`.
    timeline: RefCell<SlotSet>,
    /// The per-class scratch timelines (none on uniform inventories). A
    /// job confined to one class finds its backfill hole there instead
    /// of in the over-optimistic aggregate; each is built only when a
    /// pass first asks it ([`Slurm::class_timeline`]).
    class_timelines: RefCell<ClassTimelines>,
    /// How each running job's nodes split over the machine classes and
    /// the slowest-class factor that implies, recorded wherever its
    /// allocation changes ([`Slurm::record_class_split`]) — on a
    /// machine of several classes, or of one that does not run at
    /// neutral speed: what a per-class timeline is built from and what
    /// [`Slurm::slowdown`] answers.
    class_splits: JobMap<ClassSplit>,
    /// Every class of the machine runs at the neutral `1/1` factor:
    /// [`Slurm::slowdown`] answers without a lookup.
    neutral_speed: bool,
    /// The EASY pass state, kept between passes for its buffers (see
    /// [`EasyPass`]); taken out for the pass in flight.
    easy: EasyPass,
    /// Cross-pass incremental state.
    incr: IncrState,
}

impl Slurm {
    /// A scheduler over `cluster`, which must hold no allocation: every
    /// later change to it goes through this `Slurm` (it lends the cluster
    /// out only as `&Cluster`), so the cluster's counts are its counts.
    pub fn new(cluster: Cluster, config: SlurmConfig) -> Self {
        debug_assert_eq!(cluster.allocated_nodes(), 0, "cluster handed over busy");
        let table = cluster.table();
        let nclasses = table.num_classes();
        let per_class = if nclasses > 1 { nclasses } else { 0 };
        let neutral_speed = table.classes().iter().all(|c| c.is_neutral_speed());
        let pending_index = PendingIndex::new(cluster.total_nodes());
        Slurm {
            cluster,
            jobs: JobArena::new(),
            next_seq: 0,
            policy: config.policy.build(),
            config,
            pending_index,
            running_index: RunningIndex::default(),
            resizer_index: ResizerIndex::default(),
            timeline: RefCell::new(SlotSet::new(SimTime::ZERO)),
            class_timelines: RefCell::new(ClassTimelines {
                sets: vec![SlotSet::new(SimTime::ZERO); per_class],
                built: 0,
            }),
            class_splits: JobMap::default(),
            neutral_speed,
            easy: EasyPass::default(),
            incr: IncrState::default(),
        }
    }

    /// Convenience constructor with the defaults of [`SlurmConfig::for_cluster`].
    pub fn with_cluster(cluster: Cluster) -> Self {
        let cfg = SlurmConfig::for_cluster(cluster.total_nodes());
        Slurm::new(cluster, cfg)
    }

    /// Replaces the installed reconfiguration policy.
    ///
    /// `config.policy` is a construction-time selector only and is *not*
    /// updated here (a custom trait object need not correspond to any
    /// [`PolicyKind`]); after this call, [`Slurm::policy_name`] is the
    /// source of truth for what is installed.
    pub fn set_policy(&mut self, policy: Box<dyn ResizePolicy>) {
        self.policy = policy;
    }

    /// Name of the installed policy (sweep CSV labelling).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// All job records, in arena storage order (equal to submission
    /// order while no record has been pruned — in particular always
    /// under [`SlurmConfig::retain_completed`]). Order-sensitive callers
    /// should sort by [`Job::seq`].
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Number of running jobs. O(1): served from the running index,
    /// which tracks the `Running` state exactly.
    pub fn running_count(&self) -> usize {
        self.running_index.len()
    }

    /// Number of pending jobs. O(1): served from the pending index.
    pub fn pending_count(&self) -> usize {
        self.pending_index.len()
    }

    /// Number of queued jobs: pending, resizers excluded — the length of
    /// [`Slurm::pending_queue`] without building it. O(1).
    pub fn queued_count(&self) -> usize {
        self.pending_index.queued()
    }

    /// Nodes currently attached to any job (including detached resizer
    /// nodes mid-protocol).
    pub fn allocated_nodes(&self) -> u32 {
        self.cluster.allocated_nodes()
    }

    /// Current node count of a job: the size a running job is keyed
    /// under in the running index (re-keyed at every start, expand and
    /// shrink, so it equals the job's cluster allocation — see
    /// [`Slurm::check_invariants`]), 0 for a job that is not running.
    pub fn nodes_of(&self, id: JobId) -> u32 {
        let nodes = self.running_index.nodes_of(id).unwrap_or(0);
        debug_assert_eq!(
            nodes,
            self.cluster.held_by(id.owner_tag()),
            "running key of {id:?} drifted from its allocation"
        );
        nodes
    }

    fn is_running(&self, id: JobId) -> bool {
        self.jobs
            .get(id)
            .is_some_and(|j| j.state == JobState::Running)
    }

    /// Submits a job; it becomes eligible at the next [`Slurm::schedule`].
    pub fn submit(&mut self, req: JobRequest, now: SimTime) -> JobId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self
            .jobs
            .insert_with(|id| Job::submitted(id, seq, req, now));
        let job = &self.jobs[id];
        self.pending_index.insert(job);
        if let Some(Dependency::ExpandOf(parent)) = job.dependency {
            // A resizer exists only to grow its running parent (§III):
            // one submitted for any other job is cancelled on the spot,
            // so every pending resizer's parent is running.
            if !self.is_running(parent) {
                self.cancel(id, now);
                return id;
            }
            self.resizer_index.register(parent, id);
        }
        // The fresh non-boosted job sorts strictly last, so the sched
        // memo survives (the blocked head still blocks first, and the
        // priority-FIFO walk never looks past it). The backfill memo
        // survives only if the new job itself cannot start — and the
        // job's request must then join the watermark, so a later
        // capacity event that could fit *it* (even below the old
        // watermark) invalidates the memo.
        if let Some(m) = self.incr.bf_memo.as_mut() {
            let need = self.jobs[id].requested_nodes;
            let constraint = self.jobs[id].constraint;
            if need <= self.cluster.free_nodes_in(constraint) {
                self.incr.bf_memo = None;
            } else {
                m.watermark = m.watermark.min(need);
            }
        }
        id
    }

    /// Grants a pending job maximum priority (§IV-3: the queued job a
    /// shrink benefits "will be assigned the maximum priority in order to
    /// foster its execution").
    pub fn boost(&mut self, id: JobId) {
        if let Some(j) = self.jobs.get_mut(id) {
            let reindex = j.state == JobState::Pending && !j.boosted;
            j.boosted = true;
            if reindex {
                self.pending_index.reboost(j);
            }
            // A reorder invalidates both watermark memos (the blocked
            // head may change).
            self.incr_clear();
        }
    }

    /// Updates the backfill runtime estimate of a job (the simulation
    /// driver refreshes it after reconfigurations).
    pub fn set_expected_runtime(&mut self, id: JobId, estimate: Span) {
        let Some(j) = self.jobs.get_mut(id) else {
            return;
        };
        let old = std::mem::replace(&mut j.expected_runtime, estimate);
        if j.state == JobState::Pending {
            self.pending_index.reestimate(j, old);
        }
        // Runtime estimates feed every backfill decision (shadow times,
        // hole durations) but never the priority-FIFO walk: drop the
        // backfill memo, keep the schedule memo.
        self.incr.bf_memo = None;
        // Re-keys a running job; any other is not in the index.
        if let Some(start) = j.start_time {
            self.running_index.set_end(id, start + estimate);
        }
    }

    /// Marks a running job complete and frees its nodes.
    pub fn complete(&mut self, id: JobId, now: SimTime) {
        debug_assert!(
            self.jobs
                .get(id)
                .is_none_or(|j| j.state == JobState::Running),
            "completing a non-running job"
        );
        self.retire(id, JobState::Completed, now);
    }

    /// Cancels a pending or running job. Detached resizer nodes are *not*
    /// freed — that is the point of protocol step 3: cancelling the hollow
    /// resizer job keeps its allocation parked for reattachment.
    pub fn cancel(&mut self, id: JobId, now: SimTime) {
        self.retire(id, JobState::Cancelled, now);
    }

    /// The one way a job ends: `id` turns `end` (completed or cancelled)
    /// at `now` and leaves every index; a running job's nodes are
    /// released unless they are detached, and the pass memos follow
    /// (the watermark rule for freed capacity, the catch-all otherwise).
    /// Its queued resizers die with it at the same instant, which keeps
    /// every pending resizer's parent running. A terminal or unknown job
    /// is left as it is.
    fn retire(&mut self, id: JobId, end: JobState, now: SimTime) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        let was_running = job.state == JobState::Running;
        if job.state == JobState::Pending {
            self.pending_index.remove(job);
        }
        job.state = end;
        job.end_time = Some(now);
        let frees = was_running && job.detached_nodes == 0;
        if let Some(Dependency::ExpandOf(parent)) = job.dependency {
            self.resizer_index.deregister(parent, id);
        }
        if was_running {
            self.running_index.remove(id);
            self.class_splits.remove(id);
        }
        if frees {
            let _ = self.cluster.release_all(id.owner_tag());
            self.incr_capacity_freed();
        } else {
            self.incr_clear();
        }
        // Terminal records are never consulted again (node ownership
        // lives in the cluster tables): the retention rule decides.
        if !self.config.retain_completed {
            self.jobs.remove(id);
        }
        for resizer in self.resizer_index.take(id) {
            if self.jobs[resizer].state == JobState::Pending {
                self.cancel(resizer, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_cluster::Cluster;

    pub(super) fn slurm(nodes: u32) -> Slurm {
        Slurm::with_cluster(Cluster::new(nodes, 16))
    }

    pub(super) fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn retention_off_drops_terminal_records_without_changing_scheduling() {
        let mut keep = slurm(8);
        let mut drop = slurm(8);
        drop.config.retain_completed = false;
        for s in [&mut keep, &mut drop] {
            let a = s.submit(JobRequest::rigid("a", 4), t(0));
            let b = s.submit(JobRequest::rigid("b", 8), t(0));
            let started = s.schedule(t(0));
            assert_eq!(started.len(), 1, "a starts, b blocked");
            s.complete(a, t(100));
            let started = s.schedule(t(100));
            assert_eq!(started.len(), 1, "b starts once a's nodes free");
            s.complete(b, t(200));
            // Either way the live views agree.
            assert_eq!(s.running_count(), 0);
            assert_eq!(s.pending_count(), 0);
            let retained = s.config.retain_completed;
            assert_eq!(s.job(a).is_some(), retained);
            assert_eq!(s.job(b).is_some(), retained);
        }
        assert_eq!(keep.jobs().count(), 2);
        assert_eq!(drop.jobs().count(), 0, "terminal records pruned");
    }

    #[test]
    fn completion_frees_nodes_and_records_times() {
        let mut s = slurm(4);
        let a = s.submit(JobRequest::rigid("a", 4), t(5));
        s.schedule(t(10));
        s.complete(a, t(110));
        let job = s.job(a).unwrap();
        assert_eq!(job.state, JobState::Completed);
        assert_eq!(job.waiting_time(), Some(Span::from_secs(5)));
        assert_eq!(job.execution_time(), Some(Span::from_secs(100)));
        assert_eq!(job.completion_time(), Some(Span::from_secs(105)));
        assert_eq!(s.cluster().free_nodes(), 4);
    }

    #[test]
    fn estimate_refresh_of_a_pending_job_rekeys_its_need_bucket() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        let _blocked = s.submit(JobRequest::rigid("blocked", 10), t(1));
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(5000)),
            t(2),
        );
        // Too long to end by the shadow time, no spare to run beside it.
        assert!(s.backfill_pass(t(3)).is_empty());
        // The refreshed estimate must re-file the job in its bucket's
        // estimate order (the invariant check re-derives the view), and
        // the pass must find it there.
        s.set_expected_runtime(small, Span::from_secs(10));
        s.check_invariants().unwrap();
        let started = s.backfill_pass(t(4));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, small);
        s.check_invariants().unwrap();
    }
}
