//! The scheduler core: queue, EASY backfill, and the malleability
//! protocol of §III.

use std::cell::{RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use dmr_cluster::{ClassConstraint, ClassTable, Cluster, FailOutcome, NodeId};
use dmr_sim::{SimTime, Span};

use crate::arena::{JobArena, JobMap};
use crate::index::{NeedBucket, PendingIndex, PendingKey, ResizerIndex, RunningIndex};
use crate::job::{Dependency, Job, JobId, JobName, JobRequest, JobState};
use crate::policy::{PolicyKind, ResizePolicy};
use crate::priority::MultifactorConfig;
use crate::slotset::{BackfillFamily, SlotSet};

/// Scheduler-wide configuration.
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
    pub multifactor: MultifactorConfig,
    /// Backfill estimate for jobs that did not provide one.
    pub default_expected_runtime: Span,
    /// How long the runtime waits for a queued resizer job before aborting
    /// the expansion (§V-B1).
    pub resizer_timeout: Span,
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
    pub fn for_cluster(total_nodes: u32) -> Self {
        SlurmConfig {
            backfill: true,
            backfill_family: BackfillFamily::default(),
            bf_max_job_test: 512,
            multifactor: MultifactorConfig::with_total_nodes(total_nodes),
            default_expected_runtime: Span::from_secs(600),
            resizer_timeout: Span::from_secs(30),
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
    /// [`Slurm::abort_expand`] after [`SlurmConfig::resizer_timeout`].
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
    /// The installed reconfiguration decision procedure (§IV plug-in).
    /// `None` only transiently, while the policy is consulted.
    policy: Option<Box<dyn ResizePolicy>>,
    /// Memoized pending-queue priority order.
    ///
    /// A scheduling cycle needs the pending order — and then every policy
    /// consultation in the same cycle needs it again through
    /// [`Slurm::pending_queue`]. The order is a pure function of
    /// `(pending set, job attributes, now)`, so it is cached and
    /// invalidated on any mutation that can change it (submit, start,
    /// completion, cancellation, boost). Orders served straight from the
    /// [`PendingIndex`] are additionally time-invariant between
    /// mutations, so those cache entries survive across instants.
    /// `RefCell`: the recompute happens behind `&self` accessors. The
    /// orders are `Arc<[JobId]>` so cache hits are allocation-free.
    queue_cache: RefCell<Option<QueueCache>>,
    /// Ordered pending index (see [`crate::index`]).
    pending_index: PendingIndex,
    /// Running jobs ordered by `(expected_end, nodes, id)` for backfill.
    running_index: RunningIndex,
    /// Parent → resizer reverse-dependency map for O(affected) reaping.
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
    /// Per-class totals of held nodes across running jobs (multi-class
    /// only) — the per-class analogue of `RunningIndex::total_held`.
    class_held: Vec<u32>,
    /// Every class of the machine runs at the neutral `1/1` factor:
    /// [`Slurm::slowdown`] answers without a lookup.
    neutral_speed: bool,
    /// The EASY pass state, kept between passes for its buffers (see
    /// [`EasyPass`]); taken out for the pass in flight.
    easy: EasyPass,
    /// Cross-pass incremental state (production path only).
    incr: IncrState,
}

/// The per-class timelines of the pass in flight.
struct ClassTimelines {
    /// One per machine class on a multi-class machine.
    sets: Vec<SlotSet>,
    /// Bit `c` is set once `sets[c]` is built for the pass in flight
    /// (see [`Slurm::class_timeline`]); cleared by every pass prologue
    /// ([`Slurm::build_timelines`]).
    built: u32,
}

/// How a running job's nodes split over the machine classes.
#[derive(Default)]
struct ClassSplit {
    /// Nodes held in each class, one entry per class.
    counts: Vec<u32>,
    /// The largest execution-time multiplier `(num, den)` among the
    /// classes the job holds nodes in (see [`slowest_class`]).
    slowdown: (u32, u32),
}

/// One memoized pending order (see [`Slurm::pending_queue`]).
struct QueueCache {
    /// Instant the order was computed at.
    at: SimTime,
    /// Whether it came from the index (then it is valid at *any* instant
    /// while the index stays exact, not just at `at`).
    from_index: bool,
    /// Pending ids in scheduling order. An index-served order persists
    /// across mutations: entries may be *tombstones* — ids whose job has
    /// since started, been cancelled or been pruned. Readers filter them
    /// against the generation-checked arena, so the order survives
    /// starts/cancellations (a removal never reorders the survivors) and
    /// submissions append in O(1) (a fresh non-boosted job sorts
    /// strictly last under the exact index key). A sort-served order is
    /// dropped by the first mutation instead.
    order: Arc<Vec<JobId>>,
    /// Number of tombstones currently in `order`.
    stale: usize,
    /// Memoized tombstone-free materialisation, built lazily for the
    /// public accessors ([`Slurm::pending_queue`] and friends).
    shared: Option<Arc<[JobId]>>,
    /// The resizer-free view, built lazily on the first
    /// [`Slurm::pending_queue`] call of the cycle.
    no_resizers: Option<Arc<[JobId]>>,
}

/// Running state of one EASY backfill pass. [`Slurm`] keeps it between
/// passes so that `reservations`, `stairs` and `candidates` are filled
/// into the buffers the last pass left: a pass allocates nothing but the
/// starts it returns (`started` leaves with the caller).
#[derive(Default)]
struct EasyPass {
    /// Reservations the family grants (`k >= 1`).
    k: u32,
    /// The pass built the aggregate timeline ([`Slurm::build_timelines`]).
    aggregate: bool,
    started: Vec<JobStart>,
    /// `(shadow, spare)` of the blocked jobs holding a reservation.
    reservations: Vec<(SimTime, u32)>,
    /// The harmless check of the indexed pass, solved for the estimate.
    stairs: ShadowStairs,
    /// What the indexed pass still has to look at: `(key, need, whether
    /// the job stands for the rest of its need bucket)`, smallest key
    /// first (see [`ShadowStairs::candidates`]).
    candidates: BinaryHeap<Reverse<(PendingKey, u32, bool)>>,
    /// Refusal records for the elision memo (see [`BfMemo`]).
    watermark: u32,
    fitting_refused: bool,
}

impl EasyPass {
    /// Readies the state for a pass granting `k` reservations.
    fn begin(&mut self, k: u32, aggregate: bool) {
        debug_assert!(self.started.is_empty(), "the last pass kept its starts");
        self.k = k;
        self.aggregate = aggregate;
        self.reservations.clear();
        self.candidates.clear();
        self.watermark = u32::MAX;
        self.fitting_refused = false;
    }
}

/// What [`Slurm::easy_visit`] did with one pending job.
enum EasyVisit {
    Started,
    Refused,
    /// Backfill is off and the job is the blocked head: strict
    /// priority-FIFO ends the pass here.
    Stop,
}

/// The harmless check of an EASY pass, solved for the runtime estimate:
/// a job requesting `n` nodes delays no reservation holder iff it ends by
/// the earliest shadow time among the reservations it does not fit
/// beside, `min { shadow_r : spare_r < n }`. Sorted by spare with a
/// running minimum of the shadows, that is one binary search per `n`.
#[derive(Default)]
struct ShadowStairs {
    /// `(spare, earliest shadow among reservations with at most that
    /// spare)`, ascending by spare.
    steps: Vec<(u32, SimTime)>,
    now: SimTime,
}

impl ShadowStairs {
    /// Solves the check for `reservations` as they stand at `now`.
    fn rebuild(&mut self, reservations: &[(SimTime, u32)], now: SimTime) {
        self.now = now;
        self.steps.clear();
        let by_spare = reservations.iter().map(|&(shadow, spare)| (spare, shadow));
        self.steps.extend(by_spare);
        self.steps.sort_unstable();
        let mut earliest = SimTime(u64::MAX);
        for step in &mut self.steps {
            earliest = earliest.min(step.1);
            step.1 = earliest;
        }
    }

    /// The longest runtime estimate a job requesting `need` nodes can
    /// have and still be harmless; `None` when any estimate is. (A
    /// shadow of `u64::MAX` — a reservation nothing can honour — admits
    /// every estimate too: `now + d` saturates there.)
    fn longest_harmless(&self, need: u32) -> Option<Span> {
        let beside = self.steps.partition_point(|&(spare, _)| spare < need);
        let (_, latest_end) = *self.steps.get(beside.checked_sub(1)?)?;
        (latest_end != SimTime(u64::MAX)).then(|| Span(latest_end.0.saturating_sub(self.now.0)))
    }

    /// What the pass has to look at among the jobs of `bucket` (all
    /// requesting `need` nodes) behind `after`, as entries of its
    /// candidate heap: `(key, need, whether the job stands for the rest
    /// of its bucket)`, reversed so the smallest key pops first.
    fn candidates<'a>(
        &self,
        need: u32,
        bucket: &'a NeedBucket,
        after: PendingKey,
        jobs: &'a JobArena,
    ) -> impl Iterator<Item = Reverse<(PendingKey, u32, bool)>> + 'a {
        bucket
            .candidates(after, self.longest_harmless(need), jobs)
            .map(move |(key, head)| Reverse((key, need, head)))
    }
}

/// Memo of a backfill pass that started nothing, snapshotting everything
/// its decisions depended on. While it stays valid (see the invalidation
/// wiring in [`Slurm`]'s mutators) a repeat pass is provably identical —
/// it would again start nothing and leave no observable state — and is
/// elided in O(1).
#[derive(Debug)]
struct BfMemo {
    /// Instant of the memoized pass. Capacity refusals are monotone in
    /// time (a start needs `free >= requested`, and the free count moves
    /// only at a mutation), so a memo holding nothing else is good at
    /// every `now >= at` until a mutation clears it.
    at: SimTime,
    /// Smallest `requested_nodes` among the jobs the pass refused for
    /// lack of free nodes (`u32::MAX` when nothing was). A
    /// capacity-increasing event invalidates the memo only when the new
    /// free count reaches this watermark: below it, every refusal
    /// provably repeats (a start requires `free >= requested`).
    watermark: u32,
    /// Whether the pass refused a *fitting* job (EASY harmless check /
    /// conservative hole not at `now`). Those refusals are **not**
    /// monotone in time — planned occupancy decays as running jobs
    /// overrun their estimates, so a hole can open with no mutation at
    /// all — and they depend on the running set. A memo carrying one is
    /// only reused at the exact memoized instant (unless `easy1` below)
    /// and dies at any capacity-increasing event.
    fitting_refused: bool,
    /// The pass was an indexed EASY-1 pass, whose fitting refusals *are*
    /// monotone in time. Its one reservation never comes from a timeline:
    /// it is [`Slurm::reservation_for`]'s `(max(E, now), spare)`, with
    /// `E` and `spare` functions of the running index and the free count
    /// alone — no mutation, no change. Every fitting job it refused has
    /// `need > spare` (else it had started), which stays true, and an
    /// estimate `d` with `now + d > max(E, now)`; since `max(E, now') −
    /// now' <= max(E, now) − now` for `now' >= now`, `now' + d >
    /// max(E, now')` too. So each refusal repeats at every later instant
    /// until a mutation the invalidation wiring catches — a capacity
    /// event still drops the memo, as for any fitting refusal — and the
    /// memo is good at every `now >= at`. Not so for EASY-k >= 2, the
    /// conservative pass or a class-constrained reservation, which ask a
    /// timeline for holes.
    easy1: bool,
    /// Config snapshot: the memo holds only while the pass would run the
    /// same algorithm with the same knobs.
    family: BackfillFamily,
    backfill_on: bool,
    window: u32,
}

/// Cross-pass incremental-scheduling state (all of it soundness-gated:
/// every mutator either keeps a memo provably valid or clears it).
#[derive(Debug, Default)]
struct IncrState {
    /// `Some(need)` after a [`Slurm::schedule`] pass that started nothing
    /// and broke at a dependency-satisfied head requesting `need` nodes.
    /// While free nodes stay below `need` (and the pending order static),
    /// a repeat pass is provably identical and is elided.
    sched_block: Option<u32>,
    /// Memo of the last fruitless backfill pass (see [`BfMemo`]).
    bf_memo: Option<BfMemo>,
    /// Instant [`Slurm::reap_dead_resizers`] last ran to completion with
    /// no dependency-relevant mutation since — dedupes the
    /// schedule-then-backfill double reap at one instant.
    reaped_at: Option<SimTime>,
    sched_runs: u64,
    sched_elided: u64,
    bf_runs: u64,
    bf_elided: u64,
    bf_examined: u64,
}

/// Pass counters of the incremental layer (see
/// [`Slurm::incremental_stats`]): how many scheduling / backfill passes
/// executed versus how many were elided as provable no-ops. Elision never
/// changes decisions, so these make the incremental win attributable —
/// benchmarks report them per cell instead of inferring the effect from
/// throughput alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// [`Slurm::schedule`] passes that ran the walk.
    pub sched_passes_run: u64,
    /// [`Slurm::schedule`] passes elided via the blocked-head watermark.
    pub sched_passes_elided: u64,
    /// [`Slurm::backfill_pass`] invocations that executed.
    pub backfill_passes_run: u64,
    /// [`Slurm::backfill_pass`] invocations elided via the pass memo.
    pub backfill_passes_elided: u64,
    /// Pending jobs the executed backfill passes evaluated (fit test,
    /// harmless check or plan) — the work a pass does, as opposed to how
    /// long the host took over it. The indexed EASY pass evaluates only
    /// jobs that can pass the harmless check; the walking passes (the
    /// conservative one, the EASY fallback) evaluate every pending job up
    /// to the end of their walk, as the model scheduler of
    /// `tests/common/model.rs` does on every pass — which is how the
    /// lockstep harness tells an indexed pass from a walked one.
    pub backfill_jobs_examined: u64,
}

impl Slurm {
    pub fn new(cluster: Cluster, config: SlurmConfig) -> Self {
        let table = cluster.table();
        let nclasses = table.num_classes();
        let per_class = if nclasses > 1 { nclasses } else { 0 };
        let neutral_speed = table.classes().iter().all(|c| c.is_neutral_speed());
        Slurm {
            cluster,
            jobs: JobArena::new(),
            next_seq: 0,
            policy: Some(config.policy.build()),
            config,
            queue_cache: RefCell::new(None),
            pending_index: PendingIndex::default(),
            running_index: RunningIndex::default(),
            resizer_index: ResizerIndex::default(),
            timeline: RefCell::new(SlotSet::new(SimTime::ZERO)),
            class_timelines: RefCell::new(ClassTimelines {
                sets: vec![SlotSet::new(SimTime::ZERO); per_class],
                built: 0,
            }),
            class_splits: JobMap::default(),
            class_held: vec![0; per_class],
            neutral_speed,
            easy: EasyPass::default(),
            incr: IncrState::default(),
        }
    }

    /// Convenience constructor with defaults sized to the cluster.
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
        self.policy = Some(policy);
    }

    /// Name of the installed policy (sweep CSV labelling).
    pub fn policy_name(&self) -> &'static str {
        self.policy
            .as_deref()
            .map_or("<consulting>", ResizePolicy::name)
    }

    /// Detaches the policy so [`crate::policy`] can pass `&Slurm` to it.
    pub(crate) fn take_policy(&mut self) -> Box<dyn ResizePolicy> {
        self.policy.take().expect("resize policy installed")
    }

    pub(crate) fn restore_policy(&mut self, policy: Box<dyn ResizePolicy>) {
        self.policy = Some(policy);
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Powers down up to `n` free nodes (S5 suspend) through the cluster
    /// (see [`Cluster::power_down`]), returning how many were actually
    /// suspended. Free capacity shrank, so every cross-pass memo is
    /// invalidated — the catch-all rule, as for any capacity mutation the
    /// elision proofs don't cover.
    pub fn power_down_idle(&mut self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        let off = self.cluster.power_down(n).len() as u32;
        if off > 0 {
            self.incr_clear();
        }
        off
    }

    /// Wakes every powered-down node (the caller models the wake-up
    /// latency by delaying this call), returning how many woke. Capacity
    /// grew, so this runs the same invalidation as a completion.
    pub fn wake_all(&mut self) -> u32 {
        let woke = self.cluster.wake_all();
        if woke > 0 {
            self.incr_capacity_freed();
        }
        woke
    }

    /// An injected failure takes `node` down (see
    /// [`Cluster::fail_node`]). Any non-skipped failure is a capacity
    /// mutation no elision proof covers — an elided pass must never mask
    /// a failure — so every cross-pass memo drops, exactly as for
    /// [`Slurm::power_down_idle`]. The caller inspects the outcome: a
    /// [`FailOutcome::Busy`] victim owner needs [`Slurm::requeue_failed`].
    pub fn fail_node(&mut self, node: NodeId) -> FailOutcome {
        let outcome = self.cluster.fail_node(node);
        if outcome != FailOutcome::Skipped {
            self.incr_clear();
        }
        outcome
    }

    /// A failed node comes back up (see [`Cluster::repair_node`]),
    /// returning whether capacity actually grew. A repair that restores
    /// placeable capacity runs the same watermark invalidation as a
    /// completion.
    pub fn repair_node(&mut self, node: NodeId) -> bool {
        let placeable = self.cluster.repair_node(node);
        if placeable {
            self.incr_capacity_freed();
        }
        placeable
    }

    /// Kill-and-requeue after a node failure: the running victim is
    /// cancelled — its nodes release through the drained-while-allocated
    /// path, parking the failed node in the unavailable pool — and an
    /// equivalent request is resubmitted at the victim's current size
    /// with a fresh `seq` and maximum priority. The boosted resubmission
    /// preserves `seq`-based ordering determinism while putting the
    /// victim first in line for the next free slot. Returns the new job
    /// id, or `None` if `id` is not a running non-resizer job.
    pub fn requeue_failed(&mut self, id: JobId, now: SimTime) -> Option<JobId> {
        let job = self.jobs.get(id)?;
        if job.state != JobState::Running || job.is_resizer() {
            return None;
        }
        let req = JobRequest {
            name: job.name.clone(),
            nodes: job.requested_nodes,
            time_limit: job.time_limit,
            expected_runtime: Some(job.expected_runtime),
            dependency: None,
            base_priority: job.base_priority,
            resize: job.resize,
            constraint: job.constraint,
        };
        // The kill shares the cancellation path: stale completion events
        // are tombstoned by the caller, pending resizers of the victim
        // are orphaned (and reaped as dead candidates), and the queue
        // cache / incremental memos invalidate.
        self.cancel(id, now);
        let new = self.submit(req, now);
        self.boost(new);
        Some(new)
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

    /// The first queued job, in scheduling order, that requests more than
    /// `free` nodes and at most `free + reach` — whom releasing up to
    /// `reach` nodes would admit — with its request. Answered by the
    /// need view of the pending index; exact only while
    /// [`Slurm::pending_order_is_static`] holds (the caller checks, and
    /// walks [`Slurm::pending_queue`] otherwise).
    pub(crate) fn first_queued_needing(&self, free: u32, reach: u32) -> Option<(JobId, u32)> {
        debug_assert!(self.index_is_exact(), "need view asked under a live sort");
        self.pending_index
            .first_needing(free, free.saturating_add(reach))
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

    /// Submits a job; it becomes eligible at the next [`Slurm::schedule`].
    pub fn submit(&mut self, req: JobRequest, now: SimTime) -> JobId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let default_runtime = self.config.default_expected_runtime;
        let parent_running = match req.dependency {
            Some(Dependency::ExpandOf(parent)) => self
                .jobs
                .get(parent)
                .is_some_and(|p| p.state == JobState::Running),
            None => false,
        };
        let dependency = req.dependency;
        let id = self
            .jobs
            .insert_with(|id| Job::submitted(id, seq, req, default_runtime, now));
        self.pending_index.insert(&self.jobs[id]);
        if let Some(Dependency::ExpandOf(parent)) = dependency {
            self.resizer_index.register(parent, id, parent_running);
        }
        // A new registration may be a dead-resizer candidate.
        self.incr.reaped_at = None;
        if self.index_is_exact() {
            // The fresh non-boosted job sorts strictly last: append to
            // the persistent order instead of dropping it. The sched
            // memo survives (the blocked head still blocks first, and
            // the priority-FIFO walk never looks past it). The backfill
            // memo survives only if the new job itself cannot start —
            // and the job's request must then join the watermark, so a
            // later capacity event that could fit *it* (even below the
            // old watermark) invalidates the memo.
            self.queue_cache_append(id);
            if let Some(m) = self.incr.bf_memo.as_mut() {
                let need = self.jobs[id].requested_nodes;
                let constraint = self.jobs[id].constraint;
                if need <= self.cluster.free_nodes_in(constraint) {
                    self.incr.bf_memo = None;
                } else {
                    m.watermark = m.watermark.min(need);
                }
            }
        } else {
            self.invalidate_queue_cache();
            self.incr_clear();
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
            self.invalidate_queue_cache();
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

    /// Whether the inventory spans more than one machine class (and the
    /// per-class timelines and held totals are therefore kept).
    fn multi_class(&self) -> bool {
        !self.class_held.is_empty()
    }

    /// Records how running job `id`'s nodes split over the machine
    /// classes, and the slowest-class factor that implies, in place of
    /// any earlier record: called wherever an allocation changes (start,
    /// expand, shrink). It describes the allocation, not a timeline — the
    /// per-class timelines are built from it — and asking the cluster for
    /// it per running job per pass, or for the factor per compute
    /// segment, instead was measured and lost. No-op on a uniform
    /// machine of neutral speed.
    fn record_class_split(&mut self, id: JobId) {
        if !self.multi_class() && self.neutral_speed {
            return;
        }
        if self.class_splits.get(id).is_none() {
            self.class_splits.insert(id, ClassSplit::default());
        }
        // Recounted into the job's own slot: a resize allocates nothing.
        let split = self.class_splits.get_mut(id).expect("mapped above");
        for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
            *held -= n;
        }
        self.cluster
            .held_class_counts(id.owner_tag(), &mut split.counts);
        for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
            *held += n;
        }
        split.slowdown = slowest_class(self.cluster.table(), &split.counts);
    }

    /// Forgets the class split of a job that stopped running (tolerates
    /// a job that has none, mirroring the scheduler's release-mode
    /// leniency).
    fn drop_class_split(&mut self, id: JobId) {
        if let Some(split) = self.class_splits.remove(id) {
            for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
                *held -= n;
            }
        }
    }

    /// The execution-time multiplier of running job `id` as a `(num,
    /// den)` fraction: that of the slowest machine class its nodes span,
    /// since a job runs at the speed of its slowest node. Stored with the
    /// job's class split when its allocation last changed, so this is a
    /// lookup — `(1, 1)` without one on a machine whose classes all run
    /// at neutral speed, and for a job that holds nothing. Equal to
    /// [`Cluster::worst_slowdown`] of the job's owner tag (checked by
    /// [`Slurm::check_invariants`]).
    pub fn slowdown(&self, id: JobId) -> (u32, u32) {
        if self.neutral_speed {
            return (1, 1);
        }
        self.class_splits
            .get(id)
            .map_or((1, 1), |split| split.slowdown)
    }

    /// Every running job's `(expected end, nodes held in class c)`, in
    /// running-index order.
    fn class_commitments(&self, c: usize) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        let ends = self.running_index.jobs();
        ends.filter_map(move |(end, id)| Some((end, self.class_splits.get(id)?.counts[c])))
    }

    /// The prologue of a pass (or a hole-guard call): rebuilds the
    /// aggregate timeline from the running index at `now` when the pass
    /// may query it, and reports whether it did, and marks every class
    /// timeline unbuilt ([`Slurm::class_timeline`] builds one when it is
    /// first asked). The aggregate is needed by a `deep` pass —
    /// conservative, or EASY granting two or more reservations: the
    /// first comes from the running index itself — and by any pass while
    /// a class-constrained job is pending, whose reservation
    /// [`Slurm::constrained_hole`] takes from its class's timeline or,
    /// when several classes are eligible, from the aggregate. Nothing is
    /// submitted during a pass, so the test made here holds to its end.
    fn build_timelines(&self, now: SimTime, deep: bool) -> bool {
        let aggregate = deep || self.pending_index.constrained() > 0;
        if aggregate {
            let mut tl = self.timeline.borrow_mut();
            tl.rebuild(now, self.running_index.iter());
        }
        self.class_timelines.borrow_mut().built = 0;
        aggregate
    }

    /// Class `c`'s timeline for the pass in flight at `now`, rebuilt from
    /// the running index the first time the pass asks for it. That is
    /// exact: until then the pass has handed it nothing but its own
    /// starts ([`Slurm::plan_start`] skips a class not yet built), and
    /// the running index already holds each of those with the same end,
    /// `now` plus its estimate, and the split recorded at the start. A
    /// plan the pass makes follows the query that placed it, so it lands
    /// in a built timeline. On the three-class machine a queue of
    /// GPU-only jobs therefore builds one timeline per pass, not three.
    fn class_timeline(&self, c: usize, now: SimTime) -> RefMut<'_, SlotSet> {
        let mut tls = self.class_timelines.borrow_mut();
        if tls.built & (1 << c) == 0 {
            tls.built |= 1 << c;
            tls.sets[c].rebuild(now, self.class_commitments(c));
        }
        RefMut::map(tls, |tls| &mut tls.sets[c])
    }

    /// A pass just started `id` on `nodes` nodes until `end`: the
    /// timelines it built must show that to the plans that follow (the
    /// aggregate if `aggregate`, and each class timeline built so far).
    fn plan_start(&mut self, id: JobId, now: SimTime, end: SimTime, nodes: u32, aggregate: bool) {
        if aggregate {
            self.timeline.get_mut().plan(now, end, nodes);
        }
        let tls = self.class_timelines.get_mut();
        if tls.built != 0 {
            let split = self.class_splits.get(id).map_or(&[][..], |s| &s.counts);
            for (c, &n) in split.iter().enumerate() {
                if tls.built & (1 << c) != 0 {
                    tls.sets[c].plan(now, end, n);
                }
            }
        }
    }

    /// The single class eligible under `constraint`: `None` for `Any`,
    /// on uniform inventories, or when the constraint spans several
    /// classes (then only the aggregate timeline can answer for it).
    fn sole_eligible_class(&self, constraint: ClassConstraint) -> Option<usize> {
        if !self.multi_class() || constraint == ClassConstraint::Any {
            return None;
        }
        let table = self.cluster.table();
        let mut found = None;
        for c in 0..table.num_classes() {
            if constraint.allows(c, table.class(c)) {
                if found.is_some() {
                    return None;
                }
                found = Some(c);
            }
        }
        found
    }

    /// Backfill reservation for a class-constrained blocked job: the
    /// earliest hole on its class timeline when exactly one class is
    /// eligible, otherwise the aggregate hole (over-optimistic for a
    /// multi-class constraint, but a reservation is a throttle on
    /// lower-priority starts, not a start-time promise).
    fn constrained_hole(
        &self,
        constraint: ClassConstraint,
        need: u32,
        dur: Span,
        now: SimTime,
    ) -> (SimTime, u32) {
        let Some(c) = self.sole_eligible_class(constraint) else {
            return self.hole_reservation(need, dur, now);
        };
        let avail = self.cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c];
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.class_timeline(c, now);
        match tl.earliest_hole(now, cap, dur) {
            Some(s) => {
                let peak = tl.max_in(s, s + dur);
                (s, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }

    /// Drops the memoized pending order. Must be called by every mutation
    /// that can change the pending set or any priority input.
    fn invalidate_queue_cache(&self) {
        *self.queue_cache.borrow_mut() = None;
    }

    /// Clears every cross-pass decision memo. The catch-all for mutations
    /// whose effect on pass outcomes is not worth proving finer rules
    /// about.
    fn incr_clear(&mut self) {
        self.incr.sched_block = None;
        self.incr.bf_memo = None;
    }

    /// A capacity-increasing event happened (completion, running-job
    /// cancellation, shrink): keep the watermark memos only while the new
    /// free count still cannot satisfy the smallest refused request —
    /// then every refusal in the memoized pass provably repeats. A
    /// backfill memo that refused a fitting job is always dropped: the
    /// changed running set may flip that refusal either way.
    fn incr_capacity_freed(&mut self) {
        // The watermark rule compares *global* free capacity against the
        // blocked request — unsound for a class-constrained pending job,
        // whose class can gain nodes without the global count reaching
        // the watermark. Fall back to a full invalidation while any such
        // job is pending (never the case on uniform inventories).
        if self.pending_index.constrained() > 0 {
            self.incr_clear();
            return;
        }
        let free = self.cluster.free_nodes();
        if self.incr.sched_block.is_some_and(|need| free >= need) {
            self.incr.sched_block = None;
        }
        if self
            .incr
            .bf_memo
            .as_ref()
            .is_some_and(|m| m.fitting_refused || free >= m.watermark)
        {
            self.incr.bf_memo = None;
        }
    }

    /// A pending job left the pending set without changing the relative
    /// order of the rest (start / cancellation): in an index-served
    /// order its entry becomes a tombstone; a sort-served one drops.
    fn queue_cache_tombstone(&mut self) {
        let mut cache = self.queue_cache.borrow_mut();
        if let Some(c) = cache.as_mut() {
            if !c.from_index {
                *cache = None;
                return;
            }
            c.stale += 1;
            c.shared = None;
            c.no_resizers = None;
            // Compact (by rebuild on next use) once tombstones dominate,
            // keeping walks O(live + live) rather than O(history).
            if c.stale * 2 > c.order.len() {
                *cache = None;
            }
        }
    }

    /// Appends a just-submitted job to the persistent order. Sound only
    /// when the caller verified the index is exact (a fresh non-boosted
    /// submission then sorts strictly after every retained entry).
    fn queue_cache_append(&mut self, id: JobId) {
        let mut cache = self.queue_cache.borrow_mut();
        if let Some(c) = cache.as_mut() {
            if c.from_index {
                Arc::make_mut(&mut c.order).push(id);
                c.shared = None;
                c.no_resizers = None;
            } else {
                *cache = None;
            }
        }
    }

    /// The memoized pending order, recomputed first unless it is valid
    /// at `now`: an index-served order is time-invariant until the next
    /// mutation (which drops, appends to or tombstones the cache), so it
    /// survives across instants; a sort-served one holds at `at` only.
    fn cached_order(&self, now: SimTime) -> RefMut<'_, QueueCache> {
        let indexed = self.index_is_exact();
        let mut cache = self.queue_cache.borrow_mut();
        if !cache
            .as_ref()
            .is_some_and(|c| c.at == now || (c.from_index && indexed))
        {
            let order = if indexed {
                self.pending_index.ids_vec()
            } else {
                self.pending_order_sorted(now)
            };
            *cache = Some(QueueCache {
                at: now,
                from_index: indexed,
                order: Arc::new(order),
                stale: 0,
                shared: None,
                no_resizers: None,
            });
        }
        RefMut::map(cache, |c| c.as_mut().expect("filled above"))
    }

    /// The order a backfill pass walks: possibly tombstoned, so passes
    /// filter on the job's state instead of materialising a clean order.
    fn pass_order(&self, now: SimTime) -> Arc<Vec<JobId>> {
        Arc::clone(&self.cached_order(now).order)
    }

    /// Whether the [`PendingIndex`] key order provably equals the
    /// multifactor sort at every instant: the age factor is the only
    /// live weight and no pending job carries a non-zero base priority.
    /// Age grows at the same rate for every pending job, and the
    /// priority rounding is monotone in age, so `(priority desc, submit
    /// asc, seq asc)` collapses to the static `(boosted, submit, seq)`
    /// key — order can then only change at mutation points, never with
    /// time. Otherwise the order is sorted at every instant it is asked
    /// for, and — every cross-pass memo being gated on this — nothing is
    /// memoised or elided.
    fn index_is_exact(&self) -> bool {
        self.config.multifactor.weight_size == 0 && self.pending_index.nonzero_base() == 0
    }

    /// Whether the pending order is *static between mutations* — i.e.
    /// the index key order is provably the multifactor order at every
    /// instant (the private `index_is_exact` check). Public so drivers can
    /// tell when ordering-sensitive optimisations (e.g. batching all
    /// same-instant arrivals into one scheduling pass, which relies on
    /// fresh non-boosted submissions sorting strictly last) are sound.
    pub fn pending_order_is_static(&self) -> bool {
        self.index_is_exact()
    }

    /// The tombstone-free pending order, materialised once per cache
    /// state.
    fn pending_ids_by_priority(&self, now: SimTime) -> Arc<[JobId]> {
        let mut c = self.cached_order(now);
        if let Some(s) = &c.shared {
            return Arc::clone(s);
        }
        let s: Arc<[JobId]> = if c.stale == 0 {
            c.order.iter().copied().collect()
        } else {
            let pending = |id: &JobId| {
                self.jobs
                    .get(*id)
                    .is_some_and(|j| j.state == JobState::Pending)
            };
            c.order.iter().copied().filter(pending).collect()
        };
        c.shared = Some(Arc::clone(&s));
        s
    }

    /// The multifactor sort: recompute every pending job's priority at
    /// `now` and sort. The order whenever the static index key cannot
    /// represent it (a size weight or per-job base priorities in play).
    fn pending_order_sorted(&self, now: SimTime) -> Vec<JobId> {
        let mut pend: Vec<(&Job, u64)> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| (j, self.config.multifactor.priority(j, now)))
            .collect();
        pend.sort_by(|(a, pa), (b, pb)| {
            pb.cmp(pa)
                .then(a.submit_time.cmp(&b.submit_time))
                .then(a.seq.cmp(&b.seq))
        });
        pend.into_iter().map(|(j, _)| j.id).collect()
    }

    /// Pending jobs in scheduling order, excluding resizer jobs (exposed
    /// for the reconfiguration policy). Returns a shared slice: repeated
    /// consultations within one scheduling cycle are allocation-free, and
    /// with no resizers pending the full order itself is shared.
    pub fn pending_queue(&self, now: SimTime) -> Arc<[JobId]> {
        let order = self.pending_ids_by_priority(now);
        if let Some(nr) = self
            .queue_cache
            .borrow()
            .as_ref()
            .and_then(|c| c.no_resizers.clone())
        {
            return nr;
        }
        let nr: Arc<[JobId]> = if self.pending_index.pending_resizers() == 0 {
            Arc::clone(&order)
        } else {
            order
                .iter()
                .copied()
                .filter(|&id| !self.jobs[id].is_resizer())
                .collect::<Vec<JobId>>()
                .into()
        };
        if let Some(c) = self.queue_cache.borrow_mut().as_mut() {
            c.no_resizers = Some(Arc::clone(&nr));
        }
        nr
    }

    fn dependency_satisfied(&self, job: &Job) -> bool {
        match job.dependency {
            None => true,
            Some(Dependency::ExpandOf(parent)) => self
                .jobs
                .get(parent)
                .is_some_and(|p| p.state == JobState::Running),
        }
    }

    /// Earliest instant at which `need` nodes will be free, judging by
    /// running jobs' expected ends, plus the spare ("extra") nodes at that
    /// instant. This is the EASY backfill reservation for the top blocked
    /// job.
    fn reservation_for(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        let mut free = self.cluster.free_nodes();
        for (end, nodes) in self.running_index.iter() {
            free += nodes;
            if free >= need {
                return (end.max(now), free - need);
            }
        }
        // Estimates never free enough nodes (can happen transiently while
        // resizer nodes are detached): no backfill headroom.
        (SimTime(u64::MAX), 0)
    }

    fn start_job(&mut self, id: JobId, now: SimTime) -> JobStart {
        let need = self.jobs[id].requested_nodes;
        let constraint = self.jobs[id].constraint;
        let held = self
            .cluster
            .allocate_in(need, id.owner_tag(), constraint)
            .expect("caller verified free nodes");
        let job = self.jobs.get_mut(id).expect("job exists");
        self.pending_index.remove(job);
        job.state = JobState::Running;
        job.start_time = Some(now);
        let end = now + job.expected_runtime;
        let resizer_for = job.dependency.map(|Dependency::ExpandOf(parent)| parent);
        self.running_index.insert(id, end, held);
        self.record_class_split(id);
        // A start changes the free count, the running set and (for
        // resizer parents) dependency satisfiability: every memo dies;
        // the persistent order keeps the started id as a tombstone.
        self.queue_cache_tombstone();
        self.incr_clear();
        self.incr.reaped_at = None;
        JobStart {
            id,
            held,
            resizer_for,
        }
    }

    fn reap_dead_resizers(&mut self, now: SimTime) {
        // Per-instant memo: a schedule() immediately followed by a
        // backfill_pass() at the same instant reaps once. Any mutation
        // that can create candidates or change dependency state (submit,
        // start, complete, cancel) re-arms it.
        if self.incr.reaped_at == Some(now) {
            return;
        }
        // O(1) in the common case: completions push orphaned resizers
        // onto the candidate list; nothing queued means nothing to do.
        if !self.resizer_index.has_dead_candidates() {
            self.incr.reaped_at = Some(now);
            return;
        }
        for id in self.resizer_index.take_dead() {
            let Some(j) = self.jobs.get(id) else {
                continue;
            };
            if j.state != JobState::Pending || !j.is_resizer() {
                continue;
            }
            if self.dependency_satisfied(j) {
                // The parent was not running at registration but is now:
                // re-register so a later parent termination re-queues it.
                if let Some(Dependency::ExpandOf(parent)) = j.dependency {
                    self.resizer_index.register(parent, id, true);
                }
                continue;
            }
            self.cancel(id, now);
        }
        // Arm the memo last: the cancels above cleared it.
        self.incr.reaped_at = Some(now);
    }

    /// The event-driven scheduling pass (Slurm's `sched/builtin` reacting
    /// to submissions and completions): starts pending jobs in priority
    /// order and stops at the first that does not fit. Backfill around
    /// blocked jobs happens only in the periodic [`Slurm::backfill_pass`],
    /// mirroring Slurm's `bf_interval` architecture. Also reaps resizer
    /// jobs whose original job ended.
    pub fn schedule(&mut self, now: SimTime) -> Vec<JobStart> {
        // Watermark elision: a prior pass started nothing and broke at a
        // blocked head, and no mutation since could change any decision
        // (the memo is cleared by every mutation that can — see
        // `incr_clear` / `incr_capacity_freed` call sites). Requires the
        // static order (new submissions sort last, so the head still
        // blocks first) and a provably no-op reap.
        if self.index_is_exact()
            && !self.resizer_index.has_dead_candidates()
            && self.incr.sched_block.is_some()
        {
            self.incr.sched_elided += 1;
            return Vec::new();
        }
        self.incr.sched_runs += 1;
        self.reap_dead_resizers(now);
        let (started, blocked) = if self.index_is_exact() {
            self.schedule_walk(now)
        } else {
            let order = self.pending_ids_by_priority(now);
            let mut started = Vec::new();
            let mut blocked = None;
            for &id in order.iter() {
                let job = &self.jobs[id];
                if !self.dependency_satisfied(job) {
                    // Cannot run regardless of resources; does not block
                    // the queue.
                    continue;
                }
                if self
                    .cluster
                    .can_allocate_in(job.requested_nodes, job.constraint)
                {
                    started.push(self.start_job(id, now));
                } else {
                    blocked = Some(job.requested_nodes);
                    break;
                }
            }
            (started, blocked)
        };
        // Memoize only a fully fruitless pass: a pass that started jobs
        // may have flipped a skipped resizer's dependency mid-walk, and
        // `start_job` cleared the memos anyway.
        if self.index_is_exact() && started.is_empty() {
            self.incr.sched_block = blocked;
        }
        started
    }

    /// The index-served scheduling pass: walks the [`PendingIndex`]
    /// through a resumable cursor instead of materialising the whole
    /// order, so a pass that starts `k` of `n` pending jobs costs
    /// O(k log n). Visit order is the exact index key order — identical
    /// to the slice the materialising path would have walked (the only
    /// mid-walk mutation, [`Slurm::start_job`], removes keys the cursor
    /// has already passed). Also returns the blocked head's request size
    /// for the elision watermark.
    fn schedule_walk(&mut self, now: SimTime) -> (Vec<JobStart>, Option<u32>) {
        let mut started = Vec::new();
        let mut blocked = None;
        let mut cursor: Option<PendingKey> = None;
        while let Some(key) = self.pending_index.next_after(cursor) {
            cursor = Some(key);
            let id = key.id;
            let job = &self.jobs[id];
            if !self.dependency_satisfied(job) {
                continue;
            }
            if self
                .cluster
                .can_allocate_in(job.requested_nodes, job.constraint)
            {
                started.push(self.start_job(id, now));
            } else {
                blocked = Some(job.requested_nodes);
                break;
            }
        }
        (started, blocked)
    }

    /// The periodic backfill pass (Slurm's backfill thread), dispatched
    /// on [`SlurmConfig::backfill_family`]:
    ///
    /// * [`BackfillFamily::Easy`] — the first `k` blocked jobs get
    ///   shadow-time reservations (the first from the running index, the
    ///   deeper ones from the slot-set timeline); lower-priority jobs
    ///   jump ahead only if they delay none of them.
    ///   `k = 1` is classic EASY. On the production
    ///   path the pass does not walk the queue: once the reservations
    ///   are held it visits, per requested node count that still fits,
    ///   only the jobs short enough to delay none of them — the walk's
    ///   decisions exactly, at a cost independent of the queue depth.
    ///   The walk remains the fallback whenever the pending order is not
    ///   static or a resizer or class-constrained job is pending.
    /// * [`BackfillFamily::Conservative`] — every blocked job gets a slot
    ///   planned in the timeline; a job starts now only if its whole
    ///   expected runtime fits under every plan.
    ///
    /// On the production path a pass whose memo is still valid — same
    /// family and knobs, a later-or-equal instant (the *same* instant if
    /// the pass refused a fitting job on a timeline's say-so; an indexed
    /// EASY-1 pass asks no timeline, so its refusals repeat at any later
    /// one), no invalidating mutation since, and a provably no-op
    /// reap — is elided in O(1): it would start nothing and leave no
    /// observable state, bit-for-bit like running it.
    pub fn backfill_pass(&mut self, now: SimTime) -> Vec<JobStart> {
        if self.index_is_exact()
            && !self.resizer_index.has_dead_candidates()
            && self.incr.bf_memo.as_ref().is_some_and(|m| {
                (if m.fitting_refused && !m.easy1 {
                    m.at == now
                } else {
                    m.at <= now
                }) && m.family == self.config.backfill_family
                    && m.backfill_on == self.config.backfill
                    && m.window == self.config.bf_max_job_test
            })
        {
            self.incr.bf_elided += 1;
            return Vec::new();
        }
        self.incr.bf_runs += 1;
        match self.config.backfill_family {
            BackfillFamily::Easy { reservations } => {
                self.backfill_pass_easy(now, reservations.max(1))
            }
            BackfillFamily::Conservative => self.backfill_pass_conservative(now),
        }
    }

    /// EASY-k: up to `k` blocked jobs hold `(shadow, spare)`
    /// reservations; a fitting lower-priority job starts only if, for
    /// every reservation, it either ends by the shadow time or fits in
    /// the spare nodes (which it then consumes). The first reservation
    /// is a prefix walk of the running index
    /// ([`Slurm::reservation_for`]); deeper ones are
    /// hole queries (one scan) on the slot-set timeline, which only a
    /// pass with `k >= 2` therefore builds. A reservation is planned into
    /// the timeline only while a later one of the same pass can still
    /// see it.
    ///
    /// Every pending job goes through the same [`Slurm::easy_visit`]
    /// step; what differs is which jobs are offered to it. The indexed
    /// pass ([`Slurm::easy_indexed`]) offers only those that can pass
    /// the harmless check and runs whenever its preconditions hold; the
    /// walk ([`Slurm::easy_walk`]) offers all of them and is the
    /// fallback.
    fn backfill_pass_easy(&mut self, now: SimTime, k: u32) -> Vec<JobStart> {
        // The need view holds the whole pending set, and "fits" is
        // "requests at most the free count", only while no resizer and no
        // class-constrained job is pending; it is in scheduling order
        // only while that order is static.
        let indexed = self.index_is_exact()
            && self.pending_index.pending_resizers() == 0
            && self.pending_index.constrained() == 0;
        let mut pass = self.easy_pass(now, k, indexed);
        if pass.started.is_empty() {
            let easy1 = indexed && k == 1;
            self.bf_memoize(now, pass.watermark, pass.fitting_refused, easy1);
        }
        let started = std::mem::take(&mut pass.started);
        self.easy = pass;
        started
    }

    /// One EASY pass with the chosen body behind the shared prologue
    /// (reap, then the timelines the pass will query built at `now`),
    /// run in the state [`Slurm`] keeps — the caller puts it back.
    fn easy_pass(&mut self, now: SimTime, k: u32, indexed: bool) -> EasyPass {
        self.reap_dead_resizers(now);
        let mut pass = std::mem::take(&mut self.easy);
        pass.begin(k, self.build_timelines(now, k >= 2));
        if indexed {
            self.easy_indexed(now, &mut pass);
        } else {
            self.easy_walk(now, &mut pass);
        }
        pass
    }

    /// One pending job's turn in an EASY pass: start it if it fits and
    /// delays no reservation holder, give it a reservation if it is
    /// blocked and fewer than `k` are held, otherwise record the refusal.
    ///
    /// `id` may be a tombstone of the walk's persistent order — a job
    /// that has since started, been cancelled or had its slot recycled —
    /// which the generation-checked arena rejects; the indexed pass and a
    /// clean order only ever offer pending jobs.
    fn easy_visit(&mut self, id: JobId, now: SimTime, pass: &mut EasyPass) -> EasyVisit {
        let Some(job) = self.jobs.get(id) else {
            return EasyVisit::Refused;
        };
        if job.state != JobState::Pending || !self.dependency_satisfied(job) {
            return EasyVisit::Refused;
        }
        self.incr.bf_examined += 1;
        let need = job.requested_nodes;
        let constraint = job.constraint;
        let dur = job.expected_runtime;
        if self.cluster.can_allocate_in(need, constraint) {
            // With no reservation held yet this is vacuously harmless.
            let est_end = now + dur;
            let harmless = pass
                .reservations
                .iter()
                .all(|&(shadow, spare)| est_end <= shadow || need <= spare);
            if !harmless {
                // A fitting job refused by the harmless check: not a
                // time-invariant refusal (see [`BfMemo`]).
                pass.fitting_refused = true;
                return EasyVisit::Refused;
            }
            for r in pass.reservations.iter_mut() {
                if est_end > r.0 {
                    r.1 -= need;
                }
            }
            pass.started.push(self.start_job(id, now));
            self.plan_start(id, now, est_end, need, pass.aggregate);
            return EasyVisit::Started;
        }
        pass.watermark = pass.watermark.min(need);
        if pass.reservations.is_empty() && !self.config.backfill {
            return EasyVisit::Stop;
        }
        if (pass.reservations.len() as u32) < pass.k {
            let (shadow, spare) = if constraint != ClassConstraint::Any {
                self.constrained_hole(constraint, need, dur, now)
            } else if pass.reservations.is_empty() {
                self.reservation_for(need, now)
            } else {
                self.hole_reservation(need, dur, now)
            };
            let seen_later = (pass.reservations.len() as u32) + 1 < pass.k;
            if seen_later && shadow != SimTime(u64::MAX) {
                let until = shadow + dur;
                self.timeline.get_mut().plan(shadow, until, need);
                if let Some(c) = self.sole_eligible_class(constraint) {
                    self.class_timelines.get_mut().sets[c].plan(shadow, until, need);
                }
            }
            pass.reservations.push((shadow, spare));
        }
        EasyVisit::Refused
    }

    /// The EASY walk: every pending job, in scheduling order.
    fn easy_walk(&mut self, now: SimTime, pass: &mut EasyPass) {
        let order = self.pass_order(now);
        for &id in order.iter() {
            if let EasyVisit::Stop = self.easy_visit(id, now, pass) {
                break;
            }
        }
    }

    /// The indexed EASY pass: the walk's decisions without the walk.
    ///
    /// **Phase 1** is the walk itself, driven by the pending-index
    /// cursor, until `k` reservations are held (or the queue ends):
    /// O(starts + k), no materialised order, no tombstones.
    ///
    /// **Phase 2** covers the rest of the queue, where no reservation
    /// can be added any more: a job `(need n, estimate d)` starts iff
    /// `n <= free` and it is harmless, and it is harmless iff it ends by
    /// `latest_end(n) = min { shadow_r : spare_r < n }` ([`ShadowStairs`]
    /// — unbounded when `n` fits beside every reservation). So per need
    /// bucket `<= free` only the estimate prefix `now + d <=
    /// latest_end(n)` is enumerated, or, for an unbounded need, only its
    /// first job, replaced by the next after each start. The candidates
    /// are merged in scheduling order and each one takes the walk's own
    /// [`Slurm::easy_visit`] step against the *current* free count and
    /// spares. Both only shrink during a pass, so the candidates found
    /// with the initial values are a superset of the jobs the walk
    /// would start and every decision is the walk's — with one catch: a
    /// start can consume the spare that kept a need unbounded, and then
    /// the need's short jobs behind its first must join the candidates.
    ///
    /// A fruitless pass saw a constant free count, so its memo inputs
    /// are two seeks: every queued need above it was a capacity refusal,
    /// every need at or below it a harmless-check refusal.
    fn easy_indexed(&mut self, now: SimTime, pass: &mut EasyPass) {
        let mut cursor = None;
        while (pass.reservations.len() as u32) < pass.k {
            let Some(key) = self.pending_index.next_after(cursor) else {
                return;
            };
            cursor = Some(key);
            if let EasyVisit::Stop = self.easy_visit(key.id, now, pass) {
                return;
            }
        }
        let Some(cursor) = cursor else {
            return;
        };
        let free = self.cluster.free_nodes();
        pass.stairs.rebuild(&pass.reservations, now);
        for (need, bucket) in self.pending_index.needs_upto(free) {
            let found = pass.stairs.candidates(need, bucket, cursor, &self.jobs);
            pass.candidates.extend(found);
        }
        // Nothing queued requests fewer nodes than this for the rest of
        // the pass (nothing is submitted during one).
        let smallest = self
            .pending_index
            .needs_upto(free)
            .next()
            .map(|(need, _)| need);
        while let Some(Reverse((key, need, bucket_head))) = pass.candidates.pop() {
            // A start took the nodes this candidate needed: the walk
            // would record a capacity refusal, which only a fruitless
            // pass keeps — and in a fruitless pass nothing took any.
            if need > self.cluster.free_nodes() {
                continue;
            }
            let started = matches!(self.easy_visit(key.id, now, pass), EasyVisit::Started);
            let free = self.cluster.free_nodes();
            if started {
                if smallest.is_some_and(|need| need > free) {
                    break;
                }
                pass.stairs.rebuild(&pass.reservations, now);
            }
            // The bucket's first job is dealt with: the next one takes
            // its place — or, if a start has meanwhile consumed the spare
            // that let this need run beside every reservation, the short
            // jobs behind it do.
            if bucket_head && need <= free {
                if let Some(bucket) = self.pending_index.need_bucket(need) {
                    let found = pass.stairs.candidates(need, bucket, key, &self.jobs);
                    pass.candidates.extend(found);
                }
            }
        }
        if pass.started.is_empty() {
            pass.watermark = self.pending_index.min_need_above(free).unwrap_or(u32::MAX);
            pass.fitting_refused = smallest.is_some();
        }
    }

    /// Conservative backfill: walk the queue in priority order; a job
    /// whose whole expected runtime fits under the planned occupancy
    /// starts now, every other job gets the earliest hole planned into
    /// the timeline — so no start can delay any blocked job's plan. The
    /// timeline is built for the pass and dropped with its plans.
    ///
    /// The walk stops after [`SlurmConfig::bf_max_job_test`] blocked jobs
    /// (Slurm's own conservative-depth cap): a job deeper than the window
    /// may not start anyway — the untested blocked jobs between it and
    /// the window would have no plans protecting them.
    fn backfill_pass_conservative(&mut self, now: SimTime) -> Vec<JobStart> {
        self.reap_dead_resizers(now);
        let aggregate = self.build_timelines(now, true);
        let window = self.config.bf_max_job_test.max(1);
        let order = self.pass_order(now);
        let mut started = Vec::new();
        let mut planned = false;
        let mut tested: u32 = 0;
        // Refusal records for the elision memo (see [`BfMemo`]).
        let mut watermark = u32::MAX;
        let mut fitting_refused = false;
        for &id in order.iter() {
            // Tombstone / state filter (see `backfill_pass_easy`). Under
            // the persistent order this is what makes the pass a *window
            // over the retained order* — O(window + skips) instead of a
            // full O(pending) materialisation per pass.
            let Some(job) = self.jobs.get(id) else {
                continue;
            };
            if job.state != JobState::Pending {
                continue;
            }
            if !self.dependency_satisfied(job) {
                continue;
            }
            self.incr.bf_examined += 1;
            let need = job.requested_nodes;
            let dur = job.expected_runtime;
            let fits = self.cluster.can_allocate_in(need, job.constraint);
            if !fits && !planned && !self.config.backfill {
                watermark = watermark.min(need);
                break;
            }
            tested += 1;
            if tested > window {
                break;
            }
            // A class-constrained job with a single eligible class plans
            // against that class's timeline (the aggregate would lend it
            // capacity its class never has); the plan still goes into
            // the aggregate too so unconstrained jobs cannot double-book
            // the same global window.
            let sole = self.sole_eligible_class(job.constraint);
            let avail = match sole {
                Some(c) => {
                    self.cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c]
                }
                None => self.cluster.free_nodes() + self.running_index.total_held(),
            };
            if avail < need {
                // Can never run on current estimates; nothing to plan.
                // (A start needs `fits`, i.e. free >= need > avail >=
                // free — so the watermark rule covers this refusal too.)
                watermark = watermark.min(need);
                continue;
            }
            let cap = i64::from(avail - need);
            let hole = match sole {
                Some(c) => self.class_timeline(c, now).earliest_hole(now, cap, dur),
                None => self.timeline.borrow().earliest_hole(now, cap, dur),
            };
            match hole {
                Some(s) if s == now && fits => {
                    started.push(self.start_job(id, now));
                    self.plan_start(id, now, now + dur, need, aggregate);
                }
                Some(s) => {
                    // A fitting job whose hole is not at `now` is a
                    // time-sensitive refusal: occupancy decay alone can
                    // open its hole. A non-fitting one cannot start
                    // while `free < need`, whatever its hole does.
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                    let until = s + dur;
                    self.timeline.get_mut().plan(s, until, need);
                    if let Some(c) = sole {
                        self.class_timelines.get_mut().sets[c].plan(s, until, need);
                    }
                    planned = true;
                }
                None => {
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                }
            }
        }
        if started.is_empty() {
            self.bf_memoize(now, watermark, fitting_refused, false);
        }
        started
    }

    /// Records the memo of a fruitless backfill pass (see [`BfMemo`]).
    /// Not called after a pass that started jobs: `start_job` already
    /// cleared any previous memo.
    fn bf_memoize(&mut self, now: SimTime, watermark: u32, fitting_refused: bool, easy1: bool) {
        if self.index_is_exact() {
            self.incr.bf_memo = Some(BfMemo {
                at: now,
                watermark,
                fitting_refused,
                easy1,
                family: self.config.backfill_family,
                backfill_on: self.config.backfill,
                window: self.config.bf_max_job_test,
            });
        }
    }

    /// Pass counters of the incremental layer: executed versus elided
    /// scheduling and backfill passes (see [`IncrementalStats`]).
    pub fn incremental_stats(&self) -> IncrementalStats {
        IncrementalStats {
            sched_passes_run: self.incr.sched_runs,
            sched_passes_elided: self.incr.sched_elided,
            backfill_passes_run: self.incr.bf_runs,
            backfill_passes_elided: self.incr.bf_elided,
            backfill_jobs_examined: self.incr.bf_examined,
        }
    }

    /// Whether growing running job `id` to `to` nodes would steal the
    /// backfill hole of the first blocked pending job. Grow-happy
    /// policies ([`PolicyKind::UtilizationTarget`],
    /// [`PolicyKind::EnergyAware`]) consult this before returning an
    /// expand verdict; with [`SlurmConfig::backfill`] off there is no
    /// hole to steal.
    ///
    /// The check recomputes the blocked head's reservation — a pass
    /// keeps none behind — so the verdict is the same whatever passes
    /// ran or were elided. A
    /// grow steals the hole when its extra nodes exceed the
    /// reservation's spare count while the grown job is still expected
    /// to run at the shadow time.
    pub fn grow_steals_backfill_hole(&self, id: JobId, to: u32, now: SimTime) -> bool {
        if !self.config.backfill {
            return false;
        }
        let current = self.nodes_of(id);
        if to <= current {
            return false;
        }
        let delta = to - current;
        // The first blocked queued job. With no class constraint pending,
        // "blocked" is "requests more than the free count": one need-view
        // query. Otherwise (or under a live sort) walk the order.
        let blocked = if self.index_is_exact() && self.pending_index.constrained() == 0 {
            self.first_queued_needing(self.cluster.free_nodes(), u32::MAX)
                .map(|(pid, _)| pid)
        } else {
            self.pending_queue(now).iter().copied().find(|&pid| {
                self.jobs.get(pid).is_some_and(|j| {
                    !self
                        .cluster
                        .can_allocate_in(j.requested_nodes, j.constraint)
                })
            })
        };
        let Some(j) = blocked.and_then(|pid| self.jobs.get(pid)) else {
            return false;
        };
        let (need, constraint, dur) = (j.requested_nodes, j.constraint, j.expected_runtime);
        let (shadow, spare) = if constraint != ClassConstraint::Any {
            self.build_timelines(now, false);
            self.constrained_hole(constraint, need, dur, now)
        } else {
            self.reservation_for(need, now)
        };
        if shadow == SimTime(u64::MAX) {
            return false;
        }
        let grown_end = self.jobs.get(id).and_then(Job::expected_end).unwrap_or(now);
        delta > spare && grown_end > shadow
    }

    /// A deeper EASY-k reservation: the earliest timeline hole fitting
    /// `need` nodes for `dur`, with the spare count taken against the
    /// occupancy peak inside the window (so backfilling against this
    /// reservation can never overdraw it).
    fn hole_reservation(&self, need: u32, dur: Span, now: SimTime) -> (SimTime, u32) {
        let avail = self.cluster.free_nodes() + self.running_index.total_held();
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.timeline.borrow();
        match tl.earliest_hole(now, cap, dur) {
            Some(s) => {
                let peak = tl.max_in(s, s + dur);
                (s, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }

    /// Marks a running job complete and frees its nodes.
    pub fn complete(&mut self, id: JobId, now: SimTime) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        debug_assert_eq!(job.state, JobState::Running, "completing a non-running job");
        let was_pending = job.state == JobState::Pending;
        job.state = JobState::Completed;
        job.end_time = Some(now);
        let dep = job.dependency;
        if was_pending {
            // Tolerated in release builds only (the debug assert above
            // fires first): keep the index consistent with the scan.
            self.pending_index.remove(&self.jobs[id]);
        }
        self.running_index.remove(id);
        self.drop_class_split(id);
        if let Some(Dependency::ExpandOf(parent)) = dep {
            self.resizer_index.resizer_terminal(parent, id);
        }
        self.resizer_index.parent_terminal(id);
        // Precise invalidation: completing a *running* job removes
        // nothing from the pending set and touches no priority input, so
        // the memoized pending order stays valid. (Orphaned resizers are
        // reaped via `cancel`, which does invalidate.)
        if was_pending {
            self.invalidate_queue_cache();
        }
        // A job that shrank to zero nodes cannot exist (envelope min >= 1),
        // but release defensively.
        let _ = self.cluster.release_all(id.owner_tag());
        // `parent_terminal` may have queued dead-resizer candidates.
        self.incr.reaped_at = None;
        if was_pending {
            self.incr_clear();
        } else {
            // Capacity-increasing event: watermark rule decides whether
            // the memos survive.
            self.incr_capacity_freed();
        }
        if !self.config.retain_completed {
            self.jobs.remove(id);
        }
    }

    /// Cancels a pending or running job. Detached resizer nodes are *not*
    /// freed — that is the point of protocol step 3: cancelling the hollow
    /// resizer job keeps its allocation parked for reattachment.
    pub fn cancel(&mut self, id: JobId, now: SimTime) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if job.state.is_terminal() {
            return;
        }
        let was_running = job.state == JobState::Running;
        let was_pending = job.state == JobState::Pending;
        let detached = job.detached_nodes != 0;
        job.state = JobState::Cancelled;
        job.end_time = Some(now);
        let dep = job.dependency;
        if was_pending {
            self.pending_index.remove(&self.jobs[id]);
        }
        if was_running {
            self.running_index.remove(id);
            self.drop_class_split(id);
        }
        if let Some(Dependency::ExpandOf(parent)) = dep {
            self.resizer_index.resizer_terminal(parent, id);
        }
        self.resizer_index.parent_terminal(id);
        if was_pending {
            // Removal without reorder: a tombstone in an index-served
            // order, a full drop of a sort-served one.
            self.queue_cache_tombstone();
        } else {
            self.invalidate_queue_cache();
        }
        if was_running && !detached {
            let _ = self.cluster.release_all(id.owner_tag());
        }
        self.incr.reaped_at = None;
        if was_running && !detached {
            // Capacity-increasing: the watermark rule decides.
            self.incr_capacity_freed();
        } else {
            self.incr_clear();
        }
        // The record itself is never consulted after cancellation (node
        // ownership lives in the cluster tables), so it can be dropped
        // with the same retention rule as completions.
        if !self.config.retain_completed {
            self.jobs.remove(id);
        }
    }

    // ------------------------------------------------------------------
    // The §III malleability protocol.
    // ------------------------------------------------------------------

    /// Expands `id` to `to` nodes via the four-step resizer-job protocol.
    ///
    /// On success returns the job's new node count. If the resizer
    /// cannot start immediately, it is left pending with maximum priority
    /// and [`ExpandError::Queued`] is returned; the caller decides whether
    /// to wait (async mode) or abort.
    pub fn expand_protocol(
        &mut self,
        id: JobId,
        to: u32,
        now: SimTime,
    ) -> Result<u32, ExpandError> {
        let job = self.jobs.get(id).ok_or(ExpandError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(ExpandError::NotRunning(id));
        }
        let current = self.nodes_of(id);
        if to <= current {
            return Err(ExpandError::InvalidTarget { current, to });
        }
        let delta = to - current;
        // The resizer inherits A's class constraint: the new nodes join
        // A's allocation, so they must satisfy the same placement rules.
        let constraint = job.constraint;
        if self.cluster.can_allocate_in(delta, constraint) {
            return Ok(self.expand_now(id, delta, constraint, now));
        }
        // Step 1: submit the resizer job B with a dependency on A and
        // maximum priority ("facilitating its execution", §V-B1). Steps
        // 2-4 follow once a pass starts it ([`Slurm::finish_expand`]).
        let rj = self.submit(resizer_request(id, delta, constraint), now);
        self.boost(rj);
        Err(ExpandError::Queued { resizer: rj })
    }

    /// The four steps for a resizer that would start the moment it is
    /// submitted — it outranks everything pending and its nodes are free
    /// — collapsed to what they leave behind: `delta` more nodes on
    /// `id`. Submitting B, boosting it, starting it on `delta` nodes,
    /// cancelling it detached and transferring its nodes to A nets out to
    /// granting the same lowest-first nodes to A directly
    /// ([`Cluster::allocate_in`] accumulates grants in ascending order),
    /// so B is never materialised. What B's passage does leave is
    /// reproduced: one submission sequence number and one job id are
    /// consumed (later submissions must draw the ids and tie-break ranks
    /// they always drew), the cancelled record is written when records
    /// are retained, and every memo the steps dropped is dropped.
    /// Returns the new node count.
    fn expand_now(
        &mut self,
        id: JobId,
        delta: u32,
        constraint: ClassConstraint,
        now: SimTime,
    ) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.config.retain_completed {
            // The record `submit` would have opened, as boost, the
            // start, the update to zero nodes and the cancel left it.
            let default_runtime = self.config.default_expected_runtime;
            let req = resizer_request(id, delta, constraint);
            self.jobs.insert_with(|rj| Job {
                state: JobState::Cancelled,
                requested_nodes: 0,
                boosted: true,
                start_time: Some(now),
                end_time: Some(now),
                ..Job::submitted(rj, seq, req, default_runtime, now)
            });
        } else {
            self.jobs.retire_next_id();
        }
        self.cluster
            .allocate_in(delta, id.owner_tag(), constraint)
            .expect("caller verified free nodes");
        self.invalidate_queue_cache();
        self.incr.reaped_at = None;
        self.grown(id)
    }

    /// Completes protocol steps 2–4 for a resizer job that has started:
    /// detach its nodes, cancel it, reattach the nodes to the original job.
    /// Returns the original job id and its new node count.
    pub fn finish_expand(&mut self, rj: JobId, now: SimTime) -> Result<(JobId, u32), ExpandError> {
        let rjob = self.jobs.get(rj).ok_or(ExpandError::UnknownJob(rj))?;
        if rjob.state != JobState::Running {
            return Err(ExpandError::NotRunning(rj));
        }
        let Some(Dependency::ExpandOf(original)) = rjob.dependency else {
            return Err(ExpandError::UnknownJob(rj));
        };
        let delta = self.nodes_of(rj);
        // Step 2: update B to zero nodes — the allocation detaches from B.
        if let Some(j) = self.jobs.get_mut(rj) {
            j.requested_nodes = 0;
            j.detached_nodes = delta;
        }
        // Step 3: cancel B (nodes stay parked because of the detach mark).
        self.cancel(rj, now);
        if let Some(j) = self.jobs.get_mut(rj) {
            // Record may already be pruned (retention off); clear the
            // mark when it survives.
            j.detached_nodes = 0;
        }
        // Step 4: update A to N_A + N_B — reattach.
        let moved = self
            .cluster
            .transfer_all(rj.owner_tag(), original.owner_tag())
            .expect("detached nodes are still owned by the resizer tag");
        debug_assert_eq!(moved, delta);
        Ok((original, self.grown(original)))
    }

    /// The cluster just attached more nodes to running job `id`: re-keys
    /// it under its new size and counts the reconfiguration. Returns the
    /// new node count.
    fn grown(&mut self, id: JobId) -> u32 {
        let held = self.cluster.held_by(id.owner_tag());
        if self.running_index.set_nodes(id, held) {
            self.record_class_split(id);
        }
        if let Some(j) = self.jobs.get_mut(id) {
            j.requested_nodes = held;
            j.reconfigurations += 1;
        }
        // The re-keyed running set changes `avail` (held grows by the
        // attached nodes): rather than prove the finer rule, drop the
        // pass memos — expansions are rare next to passes.
        self.incr_clear();
        held
    }

    /// Aborts a queued expansion: cancels the pending resizer job (the
    /// timeout path of §V-B1).
    pub fn abort_expand(&mut self, rj: JobId, now: SimTime) {
        if let Some(j) = self.jobs.get(rj) {
            if j.state == JobState::Pending {
                self.cancel(rj, now);
            }
        }
    }

    /// Shrinks `id` to `to` nodes (a single "update job" call in Slurm,
    /// §III). Returns how many nodes it released. The ACK workflow that lets
    /// processes drain before the nodes die lives in the runtime layer;
    /// by the time this is called the nodes are clean.
    pub fn shrink_protocol(
        &mut self,
        id: JobId,
        to: u32,
        now: SimTime,
    ) -> Result<u32, ExpandError> {
        let job = self.jobs.get(id).ok_or(ExpandError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(ExpandError::NotRunning(id));
        }
        let current = self.nodes_of(id);
        if to >= current || to == 0 {
            return Err(ExpandError::InvalidTarget { current, to });
        }
        let released = self
            .cluster
            .release_tail(id.owner_tag(), current - to)
            .expect("running job owns its nodes");
        let _ = now;
        if self.running_index.set_nodes(id, to) {
            self.record_class_split(id);
        }
        if let Some(j) = self.jobs.get_mut(id) {
            j.requested_nodes = to;
            j.reconfigurations += 1;
        }
        // Capacity-increasing event: the watermark rule decides whether
        // the pass memos survive.
        self.incr_capacity_freed();
        Ok(released)
    }

    /// Internal-consistency check used by tests: re-derives every index
    /// from a scan of the job table and compares. This is where the
    /// O(jobs) scans live on.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cluster.check_invariants()?;
        let pending: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| j.id)
            .collect();
        let mut indexed: Vec<JobId> = self.pending_index.ids().collect();
        indexed.sort();
        let mut expected = pending.clone();
        expected.sort();
        if indexed != expected {
            return Err(format!(
                "pending index {indexed:?} != pending set {expected:?}"
            ));
        }
        let nonzero = pending
            .iter()
            .filter(|&&id| self.jobs[id].base_priority != 0)
            .count();
        if nonzero != self.pending_index.nonzero_base() {
            return Err(format!(
                "nonzero-base count {} != scanned {nonzero}",
                self.pending_index.nonzero_base()
            ));
        }
        let resizers = pending
            .iter()
            .filter(|&&id| self.jobs[id].is_resizer())
            .count();
        if resizers != self.pending_index.pending_resizers() {
            return Err(format!(
                "pending-resizer count {} != scanned {resizers}",
                self.pending_index.pending_resizers()
            ));
        }
        let constrained = pending
            .iter()
            .filter(|&&id| self.jobs[id].constraint != ClassConstraint::Any)
            .count();
        if constrained != self.pending_index.constrained() {
            return Err(format!(
                "constrained-pending count {} != scanned {constrained}",
                self.pending_index.constrained()
            ));
        }
        let queued = pending.iter().map(|&id| &self.jobs[id]);
        self.pending_index
            .check_need_view(queued.filter(|j| !j.is_resizer()))?;
        // Failed-node accounting: a node that stopped accepting work
        // while allocated (injected failure or administrative drain) may
        // only be owned by a job the scheduler still considers running —
        // a kill that released the rest of an allocation but leaked the
        // down node would show up here.
        for c in 0..self.cluster.table().num_classes() {
            let (start, end) = self.cluster.table().range(c);
            for n in start..end {
                let node = NodeId(n);
                if self.cluster.node_state(node).accepts_new_work() {
                    continue;
                }
                let Some(owner) = self.cluster.owner_of(node) else {
                    continue;
                };
                let owner = JobId(owner);
                let state_ok = self
                    .jobs
                    .get(owner)
                    .is_some_and(|j| j.state == JobState::Running);
                if !state_ok {
                    return Err(format!(
                        "node n{n} owned by {owner:?}, which is not a running job"
                    ));
                }
            }
        }
        let running: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .collect();
        if running.len() != self.running_index.len() {
            return Err(format!(
                "running index len {} != running jobs {}",
                self.running_index.len(),
                running.len()
            ));
        }
        // The key table holds exactly the running set, and each key's
        // node count is the job's cluster allocation — what
        // [`Slurm::nodes_of`] answers from.
        if self.running_index.keyed() != running.len() {
            return Err(format!(
                "running key table holds {} ids, {} jobs are running",
                self.running_index.keyed(),
                running.len()
            ));
        }
        for j in running.iter() {
            let keyed = self.running_index.nodes_of(j.id);
            let held = self.cluster.held_by(j.id.owner_tag());
            if keyed != Some(held) {
                return Err(format!(
                    "running key of {:?} says {keyed:?} nodes, the cluster {held}",
                    j.id
                ));
            }
            // The factor a compute segment is scaled by, against the
            // cluster's probe of the job's held list.
            let (stored, probed) = (
                self.slowdown(j.id),
                self.cluster.worst_slowdown(j.id.owner_tag()),
            );
            if stored != probed {
                return Err(format!(
                    "slowdown of {:?}: stored {stored:?} != held classes' {probed:?}",
                    j.id
                ));
            }
        }
        let mut scan: Vec<(SimTime, u32)> = running
            .iter()
            .map(|j| {
                (
                    j.expected_end().expect("running job has a start time"),
                    self.cluster.held_by(j.id.owner_tag()),
                )
            })
            .collect();
        scan.sort();
        let walked: Vec<(SimTime, u32)> = self.running_index.iter().collect();
        if scan != walked {
            return Err(format!("running index {walked:?} != scan {scan:?}"));
        }
        let held: u32 = scan.iter().map(|&(_, n)| n).sum();
        if held != self.running_index.total_held() {
            return Err(format!(
                "held-total {} != scanned {held}",
                self.running_index.total_held()
            ));
        }
        // The timeline a pass would build from the running index must
        // equal the job table's occupancy profile. Probed at the latest
        // start among the running jobs: the clock has reached it, so the
        // jobs whose estimate ended before it are overrunning and hold
        // nothing, as in a pass.
        let starts = running.iter().filter_map(|j| j.start_time);
        let probe = starts.max().unwrap_or(SimTime::ZERO);
        check_rebuilt("timeline", probe, self.running_index.iter(), &scan)?;
        if self.multi_class() {
            // Per-class bookkeeping: the side map must mirror the actual
            // per-class split of every running job's nodes, the held
            // totals must sum the map, and each class timeline must
            // equal its class's occupancy profile.
            let nclasses = self.cluster.table().num_classes();
            let mut want_held = vec![0u32; nclasses];
            let zeros = vec![0; nclasses];
            let mut counts = Vec::new();
            for j in running.iter() {
                self.cluster
                    .held_class_counts(j.id.owner_tag(), &mut counts);
                let recorded = self.class_splits.get(j.id).map_or(&zeros, |s| &s.counts);
                if counts != *recorded {
                    return Err(format!(
                        "class counts of {:?}: recorded {recorded:?} != held {counts:?}",
                        j.id
                    ));
                }
                for (c, &n) in counts.iter().enumerate() {
                    want_held[c] += n;
                }
            }
            if self.class_splits.len() != running.len() {
                return Err(format!(
                    "class-split map holds {} jobs != {} running",
                    self.class_splits.len(),
                    running.len()
                ));
            }
            if want_held != self.class_held {
                return Err(format!(
                    "class held {:?} != scanned {want_held:?}",
                    self.class_held
                ));
            }
            for c in 0..nclasses {
                let class_scan: Vec<(SimTime, u32)> = running
                    .iter()
                    .map(|j| {
                        (
                            j.expected_end().expect("running job has a start time"),
                            self.class_splits.get(j.id).map_or(0, |s| s.counts[c]),
                        )
                    })
                    .collect();
                let what = format!("class {c} timeline");
                check_rebuilt(&what, probe, self.class_commitments(c), &class_scan)?;
            }
        }
        Ok(())
    }
}

/// The submission of the resizer job that expands `original` by `delta`
/// nodes (protocol step 1). Built only where a record is kept: an
/// expansion granted on the spot without retention never names it.
fn resizer_request(original: JobId, delta: u32, constraint: ClassConstraint) -> JobRequest {
    JobRequest {
        name: JobName::Indexed("resizer-of", original.0),
        nodes: delta,
        time_limit: None,
        expected_runtime: Some(Span::ZERO),
        dependency: Some(Dependency::ExpandOf(original)),
        base_priority: 0,
        resize: None,
        constraint,
    }
}

/// The largest execution-time multiplier `(num, den)` among the classes
/// of `table` in which `counts` (one entry per class) holds nodes — a job
/// runs at the speed of its slowest node — or `(1, 1)` for none. Of two
/// equal factors the lower class's stands, as in
/// [`Cluster::worst_slowdown`].
fn slowest_class(table: &ClassTable, counts: &[u32]) -> (u32, u32) {
    let held = (0..counts.len()).filter(|&c| counts[c] > 0);
    let factors = held.map(|c| (table.class(c).slow_num, table.class(c).slow_den));
    // a/b > w/v  ⇔  a·v > w·b (all positive).
    let slower = |(a, b): (u32, u32), (w, v): (u32, u32)| {
        u64::from(a) * u64::from(v) > u64::from(w) * u64::from(b)
    };
    factors
        .reduce(|worst, f| if slower(f, worst) { f } else { worst })
        .unwrap_or((1, 1))
}

/// Invariant check of the timeline build: the timeline rebuilt at `probe`
/// from `commitments` (running-index order) must equal the occupancy
/// profile of `scan` — each running job's `(expected end, held nodes)`
/// read from the job table — at every breakpoint of either step function.
fn check_rebuilt(
    what: &str,
    probe: SimTime,
    commitments: impl Iterator<Item = (SimTime, u32)>,
    scan: &[(SimTime, u32)],
) -> Result<(), String> {
    let mut slots = SlotSet::new(probe);
    slots.rebuild(probe, commitments);
    slots.validate()?;
    let expected_at = |t: SimTime| -> i64 {
        scan.iter()
            .filter(|&&(end, _)| end > t)
            .map(|&(_, n)| i64::from(n))
            .sum()
    };
    let mut probes: Vec<SimTime> = slots.slots().iter().map(|&(b, _)| b).collect();
    probes.extend(scan.iter().map(|&(end, _)| end.max(probe)));
    for p in probes {
        let got = slots.occupied_at(p);
        let want = expected_at(p);
        if got != want {
            return Err(format!(
                "{what} occupancy {got} at {p:?} != running profile {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_cluster::Cluster;

    fn slurm(nodes: u32) -> Slurm {
        Slurm::with_cluster(Cluster::new(nodes, 16))
    }

    fn t(s: u64) -> SimTime {
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
    fn fifo_start_in_submission_order() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        let started = s.schedule(t(0));
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].id, a);
        assert_eq!(started[1].id, b);
        assert_eq!(s.cluster().free_nodes(), 2);
    }

    #[test]
    fn blocked_top_job_reserves_and_small_jobs_backfill() {
        let mut s = slurm(10);
        // One long-running hog of 8 nodes.
        let hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        assert_eq!(s.job(hog).unwrap().state, JobState::Running);
        // Big job can't start (needs 6, 2 free); short job behind it can
        // backfill because it ends before the hog releases nodes.
        let big = s.submit(
            JobRequest::rigid("big", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        assert!(s.schedule(t(3)).is_empty(), "FIFO pass must not backfill");
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, small);
        assert_eq!(s.job(big).unwrap().state, JobState::Pending);
    }

    #[test]
    fn backfill_refuses_jobs_that_would_delay_reservation() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(100)),
            t(0),
        );
        s.schedule(t(0));
        let _big = s.submit(
            JobRequest::rigid("big", 10).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        // 2 free; this job fits but runs for 1000 s, past the shadow time
        // (t=100) and the reservation needs all 10 nodes (extra = 0).
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(1000)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert!(started.is_empty(), "{started:?}");
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
    }

    #[test]
    fn no_backfill_means_strict_fifo() {
        let mut s = slurm(10);
        s.config.backfill = false;
        let _hog = s.submit(JobRequest::rigid("hog", 8), t(0));
        s.schedule(t(0));
        let _big = s.submit(JobRequest::rigid("big", 6), t(1));
        let _small = s.submit(JobRequest::rigid("small", 2), t(2));
        assert!(s.schedule(t(3)).is_empty());
        assert!(s.backfill_pass(t(3)).is_empty(), "backfill disabled");
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
    fn expand_protocol_walks_all_four_steps() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        s.schedule(t(0));
        assert_eq!(s.expand_protocol(a, 8, t(50)), Ok(8));
        assert_eq!(s.nodes_of(a), 8);
        assert_eq!(s.job(a).unwrap().requested_nodes, 8);
        assert_eq!(s.job(a).unwrap().reconfigurations, 1);
        // The resizer exists, is cancelled, and holds nothing.
        let rj = s.jobs().find(|j| j.is_resizer()).unwrap();
        assert_eq!(rj.state, JobState::Cancelled);
        assert_eq!(s.nodes_of(rj.id), 0);
        // No node leaked.
        assert_eq!(s.cluster().free_nodes(), 2);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn expand_queues_when_no_free_nodes() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let err = s.expand_protocol(a, 8, t(10)).unwrap_err();
        let ExpandError::Queued { resizer } = err else {
            panic!("expected Queued, got {err:?}");
        };
        assert_eq!(s.job(resizer).unwrap().state, JobState::Pending);
        // When B completes, the resizer starts and the driver can finish.
        s.complete(b, t(20));
        let started = s.schedule(t(20));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, resizer);
        assert_eq!(started[0].resizer_for, Some(a));
        assert_eq!(s.finish_expand(resizer, t(20)), Ok((a, 8)));
        assert_eq!(s.nodes_of(a), 8);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn queued_resizer_can_be_aborted() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!()
        };
        s.abort_expand(resizer, t(40));
        assert_eq!(s.job(resizer).unwrap().state, JobState::Cancelled);
        assert_eq!(s.nodes_of(a), 4, "original job untouched");
    }

    #[test]
    fn resizer_dies_with_its_parent() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!()
        };
        s.complete(a, t(15));
        let started = s.schedule(t(15));
        assert!(started.is_empty());
        assert_eq!(s.job(resizer).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn shrink_releases_tail_nodes() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 8), t(0));
        s.schedule(t(0));
        assert_eq!(s.shrink_protocol(a, 2, t(30)), Ok(6));
        // The tail went: the two lowest-numbered nodes stay.
        let kept = s.cluster().nodes_of(a.owner_tag());
        assert_eq!(kept, &[NodeId(0), NodeId(1)]);
        assert_eq!(s.nodes_of(a), 2);
        assert_eq!(s.job(a).unwrap().requested_nodes, 2);
        assert_eq!(s.cluster().free_nodes(), 8);
        // Shrink to 0 or >= current rejected.
        assert!(s.shrink_protocol(a, 2, t(31)).is_err());
        assert!(s.shrink_protocol(a, 0, t(31)).is_err());
    }

    #[test]
    fn nodes_of_tracks_the_running_key() {
        let mut s = slurm(12);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 6), t(0));
        assert_eq!(s.nodes_of(a), 0, "pending jobs hold nothing");
        s.schedule(t(0));
        assert_eq!((s.nodes_of(a), s.nodes_of(b)), (4, 6));
        // Immediate expand, then shrink: the key follows both.
        s.expand_protocol(a, 6, t(10)).unwrap();
        assert_eq!(s.nodes_of(a), 6);
        s.check_invariants().unwrap();
        s.shrink_protocol(b, 2, t(20)).unwrap();
        assert_eq!(s.nodes_of(b), 2);
        s.check_invariants().unwrap();
        // A queued resizer holds nothing until it starts; once its
        // nodes are reattached they count for the original, not for it.
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 12, t(30)).unwrap_err() else {
            panic!("4 free nodes cannot grant 6")
        };
        assert_eq!((s.nodes_of(resizer), s.nodes_of(a)), (0, 6));
        s.complete(b, t(40));
        assert_eq!(s.nodes_of(b), 0, "terminal jobs hold nothing");
        let started = s.schedule(t(40));
        assert_eq!(started[0].id, resizer);
        assert_eq!(s.nodes_of(resizer), 6);
        s.check_invariants().unwrap();
        s.finish_expand(resizer, t(40)).unwrap();
        assert_eq!((s.nodes_of(resizer), s.nodes_of(a)), (0, 12));
        s.check_invariants().unwrap();
        // Kill-and-requeue: the victim's key goes with it, the new
        // incarnation holds nothing until it starts at the old size.
        let node = s.cluster().nodes_of(a.owner_tag())[0];
        assert_eq!(s.fail_node(node), FailOutcome::Busy(a.owner_tag()));
        assert_eq!(s.nodes_of(a), 12, "a failed node stays owned");
        let again = s.requeue_failed(a, t(50)).unwrap();
        assert_eq!((s.nodes_of(a), s.nodes_of(again)), (0, 0));
        s.check_invariants().unwrap();
        assert!(s.schedule(t(50)).is_empty(), "11 placeable nodes left");
        s.repair_node(node);
        assert_eq!(s.schedule(t(60))[0].id, again);
        assert_eq!(s.nodes_of(again), 12);
        s.check_invariants().unwrap();
    }

    #[test]
    fn boosted_job_jumps_the_queue() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let first = s.submit(JobRequest::rigid("first", 4), t(1));
        let second = s.submit(JobRequest::rigid("second", 4), t(2));
        s.boost(second);
        s.complete(hog, t(100));
        let started = s.schedule(t(100));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, second);
        assert_eq!(s.job(first).unwrap().state, JobState::Pending);
    }

    #[test]
    fn expand_rejects_bad_targets() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        s.schedule(t(0));
        assert_eq!(
            s.expand_protocol(a, 4, t(1)),
            Err(ExpandError::InvalidTarget { current: 4, to: 4 })
        );
        assert_eq!(
            s.expand_protocol(JobId(999), 8, t(1)),
            Err(ExpandError::UnknownJob(JobId(999)))
        );
        let pending = s.submit(JobRequest::rigid("p", 2), t(1));
        assert_eq!(
            s.expand_protocol(pending, 4, t(1)),
            Err(ExpandError::NotRunning(pending))
        );
    }

    #[test]
    fn cached_pending_order_tracks_mutations_within_one_instant() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let a = s.submit(JobRequest::rigid("a", 2), t(1));
        let b = s.submit(JobRequest::rigid("b", 2), t(2));
        // Two same-instant reads hit the cache and agree — and the hit is
        // allocation-free (the same shared slice comes back).
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        assert!(Arc::ptr_eq(&s.pending_queue(t(5)), &s.pending_queue(t(5))));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        // A boost at the same instant must invalidate, not serve stale.
        s.boost(b);
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, a]);
        // A same-instant submit must appear immediately.
        let c = s.submit(JobRequest::rigid("c", 1), t(5));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, a, c]);
        // A cancellation must disappear immediately.
        s.cancel(a, t(5));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![b, c]);
        // And a start (via completion freeing the machine) as well.
        s.complete(hog, t(5));
        s.schedule(t(5));
        assert!(s.pending_queue(t(5)).is_empty());
        // Age reorders across instants: the cache must not pin t=5.
        assert!(s.pending_queue(t(6)).is_empty());
    }

    #[test]
    fn pending_queue_excludes_resizers() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 8), t(0));
        s.schedule(t(0));
        let _q = s.submit(JobRequest::rigid("q", 2), t(1));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 16, t(2)).unwrap_err() else {
            panic!()
        };
        let queue = s.pending_queue(t(3));
        assert!(!queue.contains(&resizer));
        assert_eq!(queue.len(), 1);
        assert_eq!(s.queued_count(), 1);
        assert_eq!(s.pending_count(), 2);
    }

    #[test]
    fn consult_at_the_envelope_floor_touches_no_queue_structure() {
        use crate::job::ResizeEnvelope;
        use crate::policy::ResizeAction;
        let floor = |max| ResizeEnvelope {
            min: 4,
            max,
            preferred: None,
            factor: 2,
        };
        let mut s = slurm(12);
        let a = s.submit(JobRequest::flexible("a", 4, floor(4)), t(0));
        let b = s.submit(JobRequest::flexible("b", 4, floor(8)), t(0));
        s.schedule(t(0));
        let _q = s.submit(JobRequest::rigid("q", 6), t(1));
        s.schedule(t(1)); // q blocked: needs 6, 4 free
        s.invalidate_queue_cache();
        // Both sit at their floor: nobody can be helped, and finding that
        // out does not build the pending order.
        assert_eq!(s.decide_resize(a, t(2)), ResizeAction::NoAction);
        assert_eq!(s.decide_resize(b, t(2)), ResizeAction::Expand { to: 8 });
        assert!(s.queue_cache.borrow().is_none(), "pending order built");
        s.check_invariants().unwrap();
    }

    #[test]
    fn need_view_follows_every_pending_key_change() {
        use crate::job::ResizeEnvelope;
        use crate::policy::ResizeAction;
        let mut s = slurm(8);
        let env = ResizeEnvelope {
            min: 1,
            max: 8,
            preferred: None,
            factor: 2,
        };
        let a = s.submit(JobRequest::flexible("a", 8, env), t(0));
        s.schedule(t(0));
        let q4 = s.submit(JobRequest::rigid("q4", 4), t(1));
        let q2 = s.submit(JobRequest::rigid("q2", 2), t(2));
        // q4 is first in order.
        assert_eq!(
            s.decide_resize(a, t(3)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q4)
            }
        );
        s.check_invariants().unwrap(); // q4 re-keyed by the boost
        let late = s.submit(JobRequest::rigid("late", 2), t(4)); // insert
        s.boost(late); // reboost: now ahead of q2, still behind boosted q4
        s.check_invariants().unwrap();
        s.cancel(q4, t(5)); // remove
        s.check_invariants().unwrap();
        assert_eq!(
            s.decide_resize(a, t(6)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(late)
            }
        );
        // A pending resizer never enters the view.
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 16, t(7)).unwrap_err() else {
            panic!()
        };
        s.check_invariants().unwrap();
        assert_eq!((s.queued_count(), s.pending_count()), (2, 3));
        s.abort_expand(resizer, t(8));
        s.cancel(late, t(8));
        assert_eq!(
            s.decide_resize(a, t(9)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q2)
            }
        );
        s.check_invariants().unwrap();
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

    /// A need that fits beside every reservation is represented in the
    /// indexed pass by its first job alone. When an earlier start consumes
    /// that spare, the first job stops qualifying — but the need's short
    /// jobs behind it still end by the shadow time and must start.
    #[test]
    fn a_need_that_stops_fitting_beside_the_reservation_keeps_its_short_jobs() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 7).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        let long = Span::from_secs(5000);
        // Shadow t=1000 with 2 spare nodes; 3 free now.
        let _blocked = s.submit(JobRequest::rigid("blocked", 8), t(1));
        let wide = s.submit(
            JobRequest::rigid("wide", 2).with_expected_runtime(long),
            t(2),
        );
        let slim = s.submit(
            JobRequest::rigid("slim", 1).with_expected_runtime(long),
            t(3),
        );
        let short = s.submit(
            JobRequest::rigid("short", 1).with_expected_runtime(Span::from_secs(100)),
            t(4),
        );
        // `wide` runs in the spare nodes and uses them up, so `slim`
        // would now delay `blocked`; `short` is over before it matters.
        let started: Vec<JobId> = s.backfill_pass(t(5)).iter().map(|j| j.id).collect();
        assert_eq!(started, vec![wide, short]);
        assert_eq!(s.job(slim).unwrap().state, JobState::Pending);
        assert_eq!(s.incremental_stats().backfill_jobs_examined, 4);
        s.check_invariants().unwrap();
    }

    #[test]
    fn a_pass_on_a_full_machine_examines_only_the_reservation_holders() {
        for k in [1, 2] {
            let mut s = slurm(8);
            s.config.backfill_family = BackfillFamily::easy(k);
            s.submit(JobRequest::rigid("hog", 8), t(0));
            s.schedule(t(0));
            for need in [4, 1, 2, 1, 3] {
                s.submit(JobRequest::rigid("queued", need), t(1));
            }
            assert!(s.backfill_pass(t(2)).is_empty());
            let stats = s.incremental_stats();
            assert_eq!(stats.backfill_jobs_examined, u64::from(k));
            // The memo is the walk's all the same: every queued need is a
            // capacity refusal, the smallest is the watermark.
            let memo = s.incr.bf_memo.as_ref().expect("fruitless pass memoised");
            assert_eq!((memo.watermark, memo.fitting_refused), (1, false));
        }
    }

    /// A script whose backfill passes all refuse a *fitting* job: `a`
    /// holds 6 of 8 nodes until t = 1000 on its estimate (and overruns
    /// it), the head wants all 8, and the 2-node job behind it would
    /// run 2000 s — past any reservation the head can get. Passes at
    /// t = 10, 40 and 1500, then `a` completes and a pass at t = 1600.
    /// Returns what each pass started and the pass counters after each.
    fn refused_fitting_job_script(s: &mut Slurm) -> Vec<(Vec<JobStart>, u64, u64)> {
        let est = |secs| Span::from_secs(secs);
        let a = s.submit(
            JobRequest::rigid("a", 6).with_expected_runtime(est(1000)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 1);
        s.submit(
            JobRequest::rigid("head", 8).with_expected_runtime(est(500)),
            t(1),
        );
        s.submit(
            JobRequest::rigid("long", 2).with_expected_runtime(est(2000)),
            t(1),
        );
        assert!(s.schedule(t(1)).is_empty(), "the head blocks the queue");
        let mut passes = Vec::new();
        let mut pass = |s: &mut Slurm, at: u64| {
            let started = s.backfill_pass(t(at));
            let stats = s.incremental_stats();
            passes.push((
                started,
                stats.backfill_passes_run,
                stats.backfill_passes_elided,
            ));
            s.check_invariants().unwrap();
        };
        pass(s, 10);
        pass(s, 40);
        pass(s, 1500);
        s.complete(a, t(1600));
        pass(s, 1600);
        passes
    }

    #[test]
    fn an_easy1_memo_with_a_refused_fitting_job_survives_the_clock() {
        let mut s = slurm(8);
        let passes = refused_fitting_job_script(&mut s);
        let counters: Vec<(u64, u64)> = passes.iter().map(|p| (p.1, p.2)).collect();
        // One pass runs; the two later ones — the second past the
        // estimate the reservation rests on — are elided; the completion
        // drops the memo and the last pass runs, starting the head.
        assert_eq!(counters, vec![(1, 0), (1, 1), (1, 2), (2, 2)]);
        assert!(passes[..3].iter().all(|p| p.0.is_empty()));
        assert_eq!(passes[3].0.len(), 1);
        assert_eq!(passes[3].0[0].held, 8);
    }

    #[test]
    fn a_timeline_memo_with_a_refused_fitting_job_dies_with_its_instant() {
        for family in [BackfillFamily::easy(2), BackfillFamily::Conservative] {
            let mut s = slurm(8);
            s.config.backfill_family = family;
            let est = |secs| Span::from_secs(secs);
            s.submit(
                JobRequest::rigid("a", 6).with_expected_runtime(est(1000)),
                t(0),
            );
            s.schedule(t(0));
            s.submit(
                JobRequest::rigid("head", 8).with_expected_runtime(est(500)),
                t(1),
            );
            s.submit(
                JobRequest::rigid("long", 2).with_expected_runtime(est(2000)),
                t(1),
            );
            assert!(s.backfill_pass(t(10)).is_empty());
            let memo = s.incr.bf_memo.as_ref().expect("fruitless pass memoised");
            assert!(memo.fitting_refused && !memo.easy1, "{family:?}");
            // Same instant: the memo answers. Later: a hole may have
            // opened on the timeline, so the pass runs.
            assert!(s.backfill_pass(t(10)).is_empty());
            assert!(s.backfill_pass(t(40)).is_empty());
            let stats = s.incremental_stats();
            assert_eq!(
                (stats.backfill_passes_run, stats.backfill_passes_elided),
                (2, 1),
                "{family:?}"
            );
        }
    }

    #[test]
    fn nonzero_base_priority_falls_back_to_the_sort() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let plain = s.submit(JobRequest::rigid("plain", 2), t(1));
        let vip = s.submit(
            JobRequest {
                base_priority: 50_000,
                ..JobRequest::rigid("vip", 2)
            },
            t(2),
        );
        // The static (submit, id) key would put `plain` first; the base
        // priority must win, which only the sort path can express.
        assert_eq!(s.pending_queue(t(3)).to_vec(), vec![vip, plain]);
        s.check_invariants().unwrap();
        // Once the high-base job leaves the pending set, the index serves
        // again.
        s.cancel(vip, t(4));
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![plain]);
        let _ = hog;
        s.check_invariants().unwrap();
    }

    #[test]
    fn index_served_order_is_shared_across_instants() {
        let mut s = slurm(2);
        s.submit(JobRequest::rigid("hog", 2), t(0));
        s.schedule(t(0));
        s.submit(JobRequest::rigid("a", 1), t(1));
        s.submit(JobRequest::rigid("b", 1), t(2));
        // No mutation between consults at different instants: relative
        // order cannot change (uniform age growth), so the cache entry is
        // reused without recomputation or allocation.
        let q5 = s.pending_queue(t(5));
        let q9 = s.pending_queue(t(9));
        assert!(Arc::ptr_eq(&q5, &q9));
    }

    #[test]
    fn indices_stay_consistent_through_the_expand_protocol() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        s.check_invariants().unwrap();
        // Queued expansion: resizer pending with max priority.
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!("expected queued resizer");
        };
        s.check_invariants().unwrap();
        s.complete(b, t(20));
        s.check_invariants().unwrap();
        let started = s.schedule(t(20));
        assert_eq!(started[0].id, resizer);
        s.finish_expand(resizer, t(20)).unwrap();
        s.check_invariants().unwrap();
        // Shrink re-keys the running index.
        s.shrink_protocol(a, 2, t(30)).unwrap();
        s.check_invariants().unwrap();
        s.complete(a, t(40));
        s.check_invariants().unwrap();
    }

    #[test]
    fn estimate_refresh_rekeys_the_reservation_order() {
        let mut s = slurm(12);
        let long = s.submit(
            JobRequest::rigid("long", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        let short = s.submit(
            JobRequest::rigid("short", 4).with_expected_runtime(Span::from_secs(100)),
            t(0),
        );
        s.schedule(t(0));
        s.check_invariants().unwrap();
        // Swap the estimates: the running index must re-key both entries
        // (check_invariants compares it against a fresh scan).
        s.set_expected_runtime(long, Span::from_secs(50));
        s.set_expected_runtime(short, Span::from_secs(2000));
        s.check_invariants().unwrap();
        // And the reservation built from the re-keyed order still admits
        // a short backfill candidate (2 free now, 10 needed, shadow at
        // short's new end t=2000).
        let _blocked = s.submit(JobRequest::rigid("blocked", 10), t(1));
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1, "small job backfills: {started:?}");
        assert_eq!(started[0].id, small);
    }

    /// A 10-node machine with one 8-node hog until t=1000, then (in
    /// priority order) a blocked 6-node job, a blocked 10-node job, a
    /// *long* 2-node job and a *short* 2-node job. The families disagree
    /// exactly where they should.
    fn family_fixture(family: BackfillFamily) -> (Slurm, [JobId; 4]) {
        let mut s = slurm(10);
        s.config.backfill_family = family;
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(995)),
            t(0),
        );
        s.schedule(t(0));
        let blocked1 = s.submit(
            JobRequest::rigid("blocked1", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let blocked2 = s.submit(
            JobRequest::rigid("blocked2", 10).with_expected_runtime(Span::from_secs(100)),
            t(2),
        );
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(5000)),
            t(3),
        );
        let short_small = s.submit(
            JobRequest::rigid("short-small", 2).with_expected_runtime(Span::from_secs(100)),
            t(4),
        );
        (s, [blocked1, blocked2, long_small, short_small])
    }

    #[test]
    fn easy1_lets_a_long_job_backfill_past_a_deep_blocked_job() {
        // Classic EASY: only blocked1 holds a reservation (shadow t=1000,
        // 4 extra nodes), so the long 2-node job jumps ahead even though
        // it will still be running when blocked2 could have started.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(1));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, long_small);
        assert_eq!(s.job(short_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn easy_k_protects_deeper_reservations() {
        // With two reservations, blocked2 holds the hole after blocked1's
        // plan ([t=1100, t=1200), zero spare), which the 5000 s job would
        // delay — it is refused. The short job ends before every shadow
        // time and still backfills.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(2));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn conservative_gives_every_blocked_job_a_plan() {
        // Conservative: blocked1 and blocked2 get planned slots, the long
        // job would overlap blocked2's plan (occupancy 10 > cap 8 inside
        // its window) and is only planned for later — the short job fits
        // entirely under the plans and starts.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::Conservative);
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn conservative_plans_see_the_jobs_started_earlier_in_the_pass() {
        // Plans and starts alternate inside one pass: blocked1 planned,
        // short1 started, blocked2 planned, short2 started. Each start
        // goes into the pass's timeline the moment it happens, so
        // blocked2's hole query ran over a profile holding short1, and
        // what the pass leaves in its scratch is the hog, both starts
        // and both plans.
        let mut s = slurm(12);
        s.config.backfill_family = BackfillFamily::Conservative;
        let runtime = |secs| Span::from_secs(secs);
        s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(runtime(1000)),
            t(0),
        );
        s.schedule(t(0));
        let mut submit = |name: &str, nodes, secs| {
            s.submit(
                JobRequest::rigid(name, nodes).with_expected_runtime(runtime(secs)),
                t(1),
            )
        };
        let blocked1 = submit("blocked1", 6, 100);
        let short1 = submit("short1", 2, 50);
        let blocked2 = submit("blocked2", 12, 100);
        let short2 = submit("short2", 2, 80);
        let started = s.backfill_pass(t(5));
        let ids: Vec<JobId> = started.iter().map(|j| j.id).collect();
        assert_eq!(ids, [short1, short2]);
        for blocked in [blocked1, blocked2] {
            assert_eq!(s.job(blocked).unwrap().state, JobState::Pending);
        }
        let mut profile = vec![(t(5), 12), (t(55), 10), (t(85), 8)];
        profile.extend([(t(1000), 6), (t(1100), 12), (t(1200), 0)]);
        assert_eq!(s.timeline.borrow().slots(), profile);
        s.check_invariants().unwrap();
        // The next pass builds the same profile from the running jobs
        // alone and plans the two blocked jobs where they were.
        assert!(s.backfill_pass(t(6)).is_empty());
        profile[0].0 = t(6);
        assert_eq!(s.timeline.borrow().slots(), profile);
    }

    #[test]
    fn timeline_survives_the_resize_protocol_under_deep_backfill() {
        // Expand / shrink re-key the running index and, on a machine of
        // two classes (6 + 4 nodes: `a` and `b` both end up straddling
        // them), re-record the job's class split; the timelines every
        // pass builds from those must mirror the running profile through
        // the whole §III protocol with deep backfill families querying
        // them.
        use dmr_cluster::{ClassTable, MachineClass};
        let node = MachineClass::standard(16);
        let machines = [
            ClassTable::uniform(10, 16),
            ClassTable::new(&[(node, 6), (node, 4)]),
        ];
        let families = [BackfillFamily::easy(2), BackfillFamily::Conservative];
        for (machine, family) in machines.iter().flat_map(|m| families.map(|f| (m, f))) {
            let mut s = Slurm::with_cluster(Cluster::with_classes(machine.clone()));
            s.config.backfill_family = family;
            let a = s.submit(
                JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(500)),
                t(0),
            );
            let b = s.submit(
                JobRequest::rigid("b", 4).with_expected_runtime(Span::from_secs(300)),
                t(0),
            );
            s.schedule(t(0));
            let _queued = s.submit(JobRequest::rigid("q", 8), t(1));
            let tiny = s.submit(
                JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(10)),
                t(2),
            );
            s.backfill_pass(t(3));
            s.check_invariants().unwrap();
            // Both families backfill `tiny` (harmless before every plan);
            // release its node so the expansion can complete synchronously.
            s.complete(tiny, t(8));
            s.expand_protocol(a, 6, t(10)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(12));
            s.check_invariants().unwrap();
            s.shrink_protocol(a, 2, t(20)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(25));
            s.check_invariants().unwrap();
            s.complete(b, t(30));
            s.complete(a, t(40));
            s.backfill_pass(t(45));
            s.check_invariants().unwrap();
        }
    }

    #[test]
    fn easy1_drive_never_builds_the_timeline() {
        // The default family takes its one reservation from the running
        // index: whatever the drive does — blocked heads, the resize
        // protocol, an estimate refresh, a cancel, a kill-and-requeue,
        // the hole guard — no pass ever builds the aggregate timeline:
        // the scratch is as empty at the end as `Slurm::new` left it.
        let mut s = slurm(10);
        let a = s.submit(
            JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(500)),
            t(0),
        );
        let b = s.submit(
            JobRequest::rigid("b", 4).with_expected_runtime(Span::from_secs(300)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 2);
        let head = s.submit(JobRequest::rigid("head", 8), t(1));
        let tiny = s.submit(
            JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1, "tiny backfills under head's reservation");
        s.check_invariants().unwrap();
        s.complete(tiny, t(8));
        s.expand_protocol(a, 6, t(10)).unwrap();
        s.check_invariants().unwrap();
        assert!(s.backfill_pass(t(12)).is_empty());
        assert!(s.incr.bf_memo.is_some(), "fruitless pass memoised");
        s.set_expected_runtime(a, Span::from_secs(2000));
        s.shrink_protocol(a, 2, t(20)).unwrap();
        s.check_invariants().unwrap();
        assert!(
            s.grow_steals_backfill_hole(a, 6, t(21)),
            "head holds the hole"
        );
        let doomed = s.submit(JobRequest::rigid("doomed", 9), t(22));
        assert!(s.backfill_pass(t(25)).is_empty());
        s.cancel(doomed, t(26));
        let node = s.cluster().nodes_of(b.owner_tag())[0];
        assert_eq!(s.fail_node(node), FailOutcome::Busy(b.owner_tag()));
        let b2 = s.requeue_failed(b, t(30)).expect("b was running");
        s.check_invariants().unwrap();
        assert_eq!(s.schedule(t(30))[0].id, b2, "the requeued job is boosted");
        s.backfill_pass(t(31));
        s.complete(a, t(40));
        s.complete(b2, t(50));
        assert_eq!(s.schedule(t(50))[0].id, head);
        s.check_invariants().unwrap();
        assert_eq!(s.running_count(), 1);
        assert!(s.timeline.borrow().is_empty());
    }

    #[test]
    fn easy_k_plans_only_the_reservations_a_later_one_can_see() {
        // Three blocked jobs under `k = 3`: the first two reservations
        // are planned into the timeline (the second and third hole
        // queries must see them), the third is not — nothing of this
        // pass would ever look at it.
        let mut s = slurm(10);
        s.config.backfill_family = BackfillFamily::easy(3);
        s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(995)),
            t(0),
        );
        s.schedule(t(0));
        for (i, need) in [6, 10, 7].into_iter().enumerate() {
            s.submit(
                JobRequest::rigid(format!("blocked{i}"), need)
                    .with_expected_runtime(Span::from_secs(100)),
                t(1 + i as u64),
            );
        }
        let pass = s.easy_pass(t(5), 3, false);
        assert_eq!(pass.reservations.len(), 3);
        // The hog, then blocked0 and blocked1 back to back; blocked2's
        // hole behind them, [1195, 1295), is nowhere.
        assert_eq!(
            s.timeline.borrow().slots(),
            [(t(5), 8), (t(995), 6), (t(1095), 10), (t(1195), 0)]
        );
        assert_eq!(pass.reservations[2].0, t(1195));
        assert!(s.backfill_pass(t(5)).is_empty());
        s.check_invariants().unwrap();
    }

    /// Conservative backfill on a machine of three classes at neutral
    /// speed: 2 standard nodes (n0–n1), 4 big-memory (n2–n5) and 2 GPU
    /// (n6–n7).
    fn three_class_conservative() -> Slurm {
        use dmr_cluster::{ClassTable, MachineClass};
        let standard = MachineClass::standard(16);
        let bigmem = MachineClass {
            name: "bigmem",
            memory_gb: 128,
            ..standard
        };
        let gpu = MachineClass {
            name: "gpu",
            gpu: true,
            ..standard
        };
        let table = ClassTable::new(&[(standard, 2), (bigmem, 4), (gpu, 2)]);
        let mut s = Slurm::with_cluster(Cluster::with_classes(table));
        s.config.backfill_family = BackfillFamily::Conservative;
        s
    }

    fn class_built(s: &Slurm) -> u32 {
        s.class_timelines.borrow().built
    }

    #[test]
    fn a_pass_over_gpu_only_jobs_builds_the_gpu_timeline_alone() {
        // Both GPU nodes are busy until t=1000 and two more GPU-only jobs
        // wait: the pass plans them on the GPU timeline, back to back,
        // and never asks the standard or big-memory one anything.
        let mut s = three_class_conservative();
        let gpu_job = |name, nodes, secs| {
            JobRequest::rigid(name, nodes)
                .with_expected_runtime(Span::from_secs(secs))
                .with_constraint(ClassConstraint::GpuRequired)
        };
        s.submit(gpu_job("hog", 2, 1000), t(0));
        assert_eq!(s.schedule(t(0)).len(), 1);
        s.submit(gpu_job("g1", 2, 100), t(1));
        s.submit(gpu_job("g2", 1, 50), t(2));
        assert!(s.backfill_pass(t(5)).is_empty());
        assert_eq!(class_built(&s), 1 << 2);
        let tls = s.class_timelines.borrow();
        let plans = [(t(5), 2), (t(1000), 2), (t(1100), 1), (t(1150), 0)];
        assert_eq!(tls.sets[2].slots(), plans);
        for untouched in &tls.sets[..2] {
            assert_eq!(untouched.slots(), [(SimTime::ZERO, 0)]);
        }
        drop(tls);
        s.check_invariants().unwrap();
    }

    #[test]
    fn a_class_first_queried_mid_pass_shows_the_starts_before_it() {
        // `r` holds one big-memory node until t=1000. The pass starts `a`
        // (n0 n1 n3) and `b` (n4 n5) before its first big-memory-only
        // job, so the big-memory timeline is built after both starts; it
        // must hold them as the running index does — `a` until 105, `b`
        // until 205 — for `c`'s hole to open at 205 and `d`'s, planned
        // over `c`'s plan, at 105.
        let mut s = three_class_conservative();
        let job = |name, nodes, secs, constraint| {
            JobRequest::rigid(name, nodes)
                .with_expected_runtime(Span::from_secs(secs))
                .with_constraint(constraint)
        };
        let bigmem = ClassConstraint::Class(1);
        s.submit(job("r", 1, 1000, bigmem), t(0));
        assert_eq!(s.schedule(t(0)).len(), 1);
        let a = s.submit(job("a", 3, 100, ClassConstraint::Any), t(1));
        let b = s.submit(job("b", 2, 200, ClassConstraint::Any), t(1));
        let c = s.submit(job("c", 2, 50, bigmem), t(1));
        let d = s.submit(job("d", 1, 30, bigmem), t(1));
        let started: Vec<JobId> = s.backfill_pass(t(5)).iter().map(|j| j.id).collect();
        assert_eq!(started, [a, b]);
        for waiting in [c, d] {
            assert_eq!(s.job(waiting).unwrap().state, JobState::Pending);
        }
        assert_eq!(class_built(&s), 1 << 1);
        // r + a + b = 4 until 105, r + b = 3 until 205, then r alone;
        // d's plan lifts [105, 135) to 4 and c's [205, 255) to 3.
        let mut profile = vec![(t(5), 4), (t(105), 4), (t(135), 3)];
        profile.extend([(t(205), 3), (t(255), 1), (t(1000), 0)]);
        assert_eq!(s.class_timelines.borrow().sets[1].slots(), profile);
        s.check_invariants().unwrap();
    }

    /// What the deleted `Indexed` walking twin pinned, without a knob: the
    /// memo inputs `easy_indexed` derives by two seeks — the watermark and
    /// whether a fitting job was refused — are the ones `easy_walk`
    /// records job by job, and both bodies start the same jobs against
    /// the same reservations. Twin production schedulers take one random
    /// op sequence; at every pass one runs the walk and the other the
    /// indexed body inside the same prologue and epilogue. (The model
    /// scheduler of `tests/common/model.rs` never memoises, so it cannot
    /// see an over-liberal memo until the one state where the elided pass
    /// would have started something.)
    #[test]
    fn indexed_easy_body_matches_the_walk_in_starts_reservations_and_memo_inputs() {
        for k in [1, 2, 8] {
            let (mut fruitless, mut fruitful, mut phase2) = (0, 0, 0);
            for seed in 1..=6u64 {
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut twins = [slurm(24), slurm(24)];
                let mut serial = 0u64;
                let mut submit = |twins: &mut [Slurm; 2], need: u64, secs: u64, now| {
                    serial += 1;
                    let req = JobRequest::rigid(format!("j{serial}"), need as u32)
                        .with_expected_runtime(Span::from_secs(secs));
                    twins.each_mut().map(|s| s.submit(req.clone(), now))[0]
                };
                // A full machine, then a queue deep enough that every
                // pass still has jobs behind its `k` reservation holders.
                for _ in 0..8 {
                    submit(&mut twins, 3, 200 + next() % 900, t(0));
                }
                let mut running: Vec<JobId> = Vec::new();
                for s in &mut twins {
                    running = s.schedule(t(0)).iter().map(|j| j.id).collect();
                }
                let mut pending: Vec<JobId> = (0..60)
                    .map(|_| submit(&mut twins, 1 + next() % 12, 20 + next() % 1500, t(1)))
                    .collect();
                for round in 0..120u64 {
                    let now = t(100 + round * 7);
                    let pick = |v: &[JobId], r: u64| {
                        (!v.is_empty()).then(|| v[(r % v.len() as u64) as usize])
                    };
                    match next() % 8 {
                        0 | 1 => pending.push(submit(
                            &mut twins,
                            1 + next() % 12,
                            20 + next() % 1500,
                            now,
                        )),
                        2 | 3 => {
                            if let Some(id) = pick(&running, next()) {
                                running.retain(|&r| r != id);
                                twins.iter_mut().for_each(|s| s.complete(id, now));
                            }
                        }
                        4 => {
                            if let Some(id) = pick(&pending, next()) {
                                pending.retain(|&p| p != id);
                                twins.iter_mut().for_each(|s| s.cancel(id, now));
                            }
                        }
                        5 => {
                            if let Some(id) = pick(&pending, next()) {
                                twins.iter_mut().for_each(|s| s.boost(id));
                            }
                        }
                        6 => {
                            let all: Vec<JobId> = pending.iter().chain(&running).copied().collect();
                            if let Some(id) = pick(&all, next()) {
                                let est = Span::from_secs(10 + next() % 2000);
                                twins
                                    .iter_mut()
                                    .for_each(|s| s.set_expected_runtime(id, est));
                            }
                        }
                        _ if next() % 4 == 0 => {
                            let on = twins[0].config.backfill;
                            twins.iter_mut().for_each(|s| s.config.backfill = !on);
                        }
                        _ => {}
                    }
                    let [walk, fast] = &mut twins;
                    let mut started = Vec::new();
                    if next() % 2 == 0 {
                        started = walk.schedule(now);
                        assert_eq!(started, fast.schedule(now));
                    }
                    assert!(fast.index_is_exact());
                    assert_eq!(fast.pending_index.pending_resizers(), 0);
                    let (w, f) = (walk.easy_pass(now, k, false), fast.easy_pass(now, k, true));
                    let what = format!("k {k} seed {seed} round {round}");
                    assert_eq!(w.started, f.started, "{what}");
                    assert_eq!(w.reservations, f.reservations, "{what}");
                    if w.started.is_empty() {
                        // Only a fruitless pass memoises.
                        assert_eq!(
                            (w.watermark, w.fitting_refused),
                            (f.watermark, f.fitting_refused),
                            "{what}: memo inputs"
                        );
                        fruitless += 1;
                    } else {
                        fruitful += 1;
                    }
                    phase2 += u32::from(f.reservations.len() as u32 == k);
                    for j in started.iter().chain(&w.started) {
                        pending.retain(|&p| p != j.id);
                        running.push(j.id);
                    }
                    walk.check_invariants().unwrap();
                    fast.check_invariants().unwrap();
                }
            }
            assert!(
                fruitless > 20 && fruitful > 20 && phase2 > 100,
                "k {k}: {fruitless} fruitless, {fruitful} fruitful, {phase2} reached phase 2"
            );
        }
    }

    /// Regression: a job submitted below a live memo's watermark must
    /// lower the watermark, or a completion freeing enough nodes for the
    /// new job (but not for the old refusals) would keep the memo and
    /// unsoundly elide the pass that should backfill it.
    #[test]
    fn submit_below_watermark_lowers_it() {
        let mut s = slurm(10);
        let _r1 = s.submit(
            JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        let r2 = s.submit(
            JobRequest::rigid("r2", 4).with_expected_runtime(Span::from_secs(500)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 2);
        s.submit(
            JobRequest::rigid("big", 8).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        s.schedule(t(1));
        assert!(s.backfill_pass(t(1)).is_empty(), "big cannot start");
        let small = s.submit(
            JobRequest::rigid("small", 3).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        // Frees 4 nodes: enough for `small` (3), not for `big` (8). The
        // memo recorded watermark 8 at the pass; without the lowering
        // rule this completion would keep it and elide the next pass.
        s.complete(r2, t(3));
        let started = s.backfill_pass(t(3));
        assert_eq!(
            started.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![small],
            "small must backfill into the freed nodes"
        );
        assert_eq!(s.job(small).unwrap().state, JobState::Running);
    }

    /// Same-instant duplicate reap scans are skipped under incremental
    /// scheduling: `schedule` + `backfill_pass` at one instant perform
    /// one scan, and decisions are unchanged.
    #[test]
    fn same_instant_reap_is_memoised() {
        let mut s = slurm(10);
        let a = s.submit(
            JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(300)),
            t(0),
        );
        s.schedule(t(0));
        s.expand_protocol(a, 6, t(1)).unwrap();
        s.check_invariants().unwrap();
        // schedule() reaps, then backfill_pass() at the same instant
        // reuses the memo instead of rescanning.
        s.schedule(t(2));
        s.backfill_pass(t(2));
        s.check_invariants().unwrap();
        // The memo never crosses an instant: a later pass re-scans.
        s.schedule(t(40));
        s.check_invariants().unwrap();
    }
}
