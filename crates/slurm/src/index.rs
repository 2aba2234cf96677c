//! Incremental scheduler indices — the hot-path structures behind
//! [`crate::slurm::Slurm`].
//!
//! Every scheduling pass used to rediscover global order by scanning the
//! whole job table: recompute every multifactor priority and sort
//! (pending order), collect-and-sort running end times (backfill
//! reservations), scan for dead resizer jobs. These structures maintain
//! the same orders *incrementally*, updated at the mutation points where
//! relative order can actually change:
//!
//! * [`PendingIndex`] — the pending queue keyed by
//!   `(boosted, submit_time, seq)`. The multifactor age term grows at the
//!   same rate for every pending job, so under the default configuration
//!   (pure age weight, uniform base priority) the priority-sorted order
//!   *is* this static key order at every instant; the scheduler verifies
//!   the preconditions and falls back to the full sort otherwise.
//!   Its **need view** is a second ordered set over the queued
//!   (non-resizer) jobs, keyed `(requested_nodes, boosted, submit_time,
//!   seq)`: the reconfiguration check "who is first in line among the
//!   jobs that `R` released nodes would admit" is a range query on it —
//!   one seek per distinct need in `(free, free + R]` — instead of a walk
//!   of the whole order. Built from the pending set on the first such
//!   query and maintained from then on, so a run that never consults a
//!   policy never pays for it; valid under the same static-order
//!   preconditions, with the walk as the fallback.
//! * [`RunningIndex`] — running jobs keyed by
//!   `(expected_end, held_nodes, id)`, exactly the order the EASY
//!   backfill reservation scan produced by sorting.
//! * [`ResizerIndex`] — the parent → resizer reverse-dependency map, so
//!   resizers orphaned by a completion are reaped in O(affected) instead
//!   of an O(jobs) scan per scheduling pass.
//!
//! The indices are bookkeeping only: they never decide anything, and the
//! pre-index scan implementations survive behind
//! [`crate::slurm::SchedIndex::ScanReference`] as the equivalence oracle.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

use dmr_sim::SimTime;

use crate::arena::JobArena;
use crate::job::{Job, JobId};

/// Index key of one pending job: `(boosted first, submit ascending, seq
/// ascending)`, with the id carried as payload. The submission sequence
/// number ([`Job::seq`]) is unique, so the key is total — and stable
/// even when arena slot recycling makes raw [`JobId`] values
/// non-monotonic.
pub(crate) type PendingKey = (Reverse<bool>, SimTime, u64, JobId);

/// Key of one queued job in the need view: `requested_nodes`, then the
/// ordering fields of its [`PendingKey`]. Flat and without the id — 24
/// bytes an entry against 40 for `(u32, PendingKey)`; the unique `seq`
/// finds the id again in the pending set.
pub(crate) type NeedKey = (u32, Reverse<bool>, SimTime, u64);

/// Ordered index of the pending set.
///
/// Iteration order is `(boosted first, submit ascending, seq ascending)`
/// — the multifactor order whenever the age factor is the only live
/// weight and no pending job carries a non-zero base priority. The index
/// also counts the jobs that would break that equality (`nonzero_base`)
/// so the scheduler can detect, in O(1), when it must fall back to the
/// sort.
#[derive(Debug, Default)]
pub(crate) struct PendingIndex {
    set: BTreeSet<PendingKey>,
    /// Pending jobs with `base_priority != 0` (index-exactness veto).
    nonzero_base: usize,
    /// Pending resizer jobs (lets `pending_queue` skip its filter pass
    /// when there is nothing to filter).
    resizers: usize,
    /// Pending jobs with a non-`Any` class constraint. The watermark
    /// pass-elision rule compares *global* free capacity against the
    /// blocked request, which is unsound for a class-constrained job
    /// (its class can free nodes without the global watermark moving),
    /// so capacity events fall back to a full invalidation whenever this
    /// is non-zero.
    constrained: usize,
    /// The need view: the queued (non-resizer) pending jobs ordered by
    /// `requested_nodes`, each need in [`PendingKey`] order — what
    /// [`PendingIndex::first_needing`] queries. `None` until the first
    /// query builds it from `set`, so a run that never consults a policy
    /// maintains nothing; once live it is kept current wherever a
    /// pending key changes (a pending job's `requested_nodes` never
    /// does). `RefCell`: the build happens behind the `&Slurm` a policy
    /// holds.
    by_need: RefCell<Option<BTreeSet<NeedKey>>>,
}

impl PendingIndex {
    fn key(job: &Job) -> PendingKey {
        (Reverse(job.boosted), job.submit_time, job.seq, job.id)
    }

    fn need_key(job: &Job) -> NeedKey {
        let (boosted, submit, seq, _) = Self::key(job);
        (job.requested_nodes, boosted, submit, seq)
    }

    /// The need view, if it is live and `job` belongs in it.
    fn view_of(&mut self, job: &Job) -> Option<&mut BTreeSet<NeedKey>> {
        self.by_need
            .get_mut()
            .as_mut()
            .filter(|_| !job.is_resizer())
    }

    pub(crate) fn insert(&mut self, job: &Job) {
        let added = self.set.insert(Self::key(job));
        debug_assert!(added, "{:?} already indexed", job.id);
        if let Some(view) = self.view_of(job) {
            view.insert(Self::need_key(job));
        }
        if job.base_priority != 0 {
            self.nonzero_base += 1;
        }
        if job.is_resizer() {
            self.resizers += 1;
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained += 1;
        }
    }

    pub(crate) fn remove(&mut self, job: &Job) {
        let removed = self.set.remove(&Self::key(job));
        debug_assert!(removed, "{:?} not indexed", job.id);
        if let Some(view) = self.view_of(job) {
            view.remove(&Self::need_key(job));
        }
        if job.base_priority != 0 {
            self.nonzero_base -= 1;
        }
        if job.is_resizer() {
            self.resizers -= 1;
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained -= 1;
        }
    }

    /// Re-keys a pending job whose `boosted` flag just flipped to `true`.
    pub(crate) fn reboost(&mut self, job: &Job) {
        debug_assert!(
            job.boosted,
            "{:?} reboosted before the flag flipped",
            job.id
        );
        let (_, submit, seq, id) = Self::key(job);
        let removed = self.set.remove(&(Reverse(false), submit, seq, id));
        debug_assert!(removed, "{id:?} not indexed for reboost");
        self.set.insert(Self::key(job));
        if let Some(view) = self.view_of(job) {
            view.remove(&(job.requested_nodes, Reverse(false), submit, seq));
            view.insert(Self::need_key(job));
        }
    }

    pub(crate) fn nonzero_base(&self) -> usize {
        self.nonzero_base
    }

    pub(crate) fn pending_resizers(&self) -> usize {
        self.resizers
    }

    /// Pending jobs whose class constraint is not `Any` (see the field
    /// docs: non-zero disables watermark-based capacity elision).
    pub(crate) fn constrained(&self) -> usize {
        self.constrained
    }

    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Pending ids in scheduling order (no priorities computed, no sort).
    pub(crate) fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.set.iter().map(|&(.., id)| id)
    }

    /// The full scheduling order, materialised with an exact-capacity
    /// allocation. This is the rebuild path of the persistent pass order
    /// the incremental scheduler retains between passes; after the
    /// rebuild the order is kept current by appends and tombstones, so
    /// this runs once per invalidation, not once per pass.
    pub(crate) fn ids_vec(&self) -> Vec<JobId> {
        let mut out = Vec::with_capacity(self.set.len());
        out.extend(self.ids());
        out
    }

    /// The first key strictly after `prev` (`None` starts at the front)
    /// — a resumable cursor over the scheduling order. The arena hot
    /// path walks the queue this way instead of materialising the whole
    /// order, so a pass that starts `k` of `n` pending jobs costs
    /// O(k log n) rather than O(n), and the cursor survives the removal
    /// of every key it has already visited.
    pub(crate) fn next_after(&self, prev: Option<PendingKey>) -> Option<PendingKey> {
        match prev {
            None => self.set.first().copied(),
            Some(key) => self.set.range((Excluded(key), Unbounded)).next().copied(),
        }
    }

    /// Queued (non-resizer) pending jobs. O(1).
    pub(crate) fn queued(&self) -> usize {
        self.set.len() - self.resizers
    }

    /// The queued job first in [`PendingKey`] order among those
    /// requesting more than `above` and at most `upto` nodes, with its
    /// request. Served from the need view (built here on first use, from
    /// `jobs`): one seek per distinct need in the range, so the cost is
    /// O(distinct needs · log pending) whatever the queue depth.
    pub(crate) fn first_needing(
        &self,
        above: u32,
        upto: u32,
        jobs: &JobArena,
    ) -> Option<(JobId, u32)> {
        if upto <= above || self.queued() == 0 {
            return None;
        }
        let mut view = self.by_need.borrow_mut();
        let view = view.get_or_insert_with(|| {
            self.ids()
                .map(|id| &jobs[id])
                .filter(|job| !job.is_resizer())
                .map(Self::need_key)
                .collect()
        });
        // The first entry of a need is that need's best job, and the
        // last possible key of a need is the seek to the next need.
        let last_of = |need| (need, Reverse(false), SimTime(u64::MAX), u64::MAX);
        let mut best: Option<NeedKey> = None;
        let mut need = above;
        while let Some(&head) = view.range((Excluded(last_of(need)), Unbounded)).next() {
            need = head.0;
            if need > upto {
                break;
            }
            if best.is_none_or(|b| (head.1, head.2, head.3) < (b.1, b.2, b.3)) {
                best = Some(head);
            }
        }
        let (need, boosted, submit, seq) = best?;
        let &(.., id) = self.set.range((boosted, submit, seq, JobId(0))..).next()?;
        Some((id, need))
    }

    /// The need view's entries in key order, when live (invariant check).
    pub(crate) fn need_view(&self) -> Option<Vec<NeedKey>> {
        let view = self.by_need.borrow();
        view.as_ref().map(|v| v.iter().copied().collect())
    }
}

/// Ordered index of running jobs by `(expected_end, held_nodes, id)`.
///
/// This is exactly the order the backfill reservation scan produced: a
/// stable sort of `(expected_end, held_nodes)` pairs collected in id
/// order. A side map remembers each job's current key so re-keying on
/// estimate refresh or resize is O(log n).
#[derive(Debug, Default)]
pub(crate) struct RunningIndex {
    set: BTreeSet<(SimTime, u32, JobId)>,
    key_of: BTreeMap<JobId, (SimTime, u32)>,
    /// Sum of `held_nodes` over every indexed job, maintained at each
    /// mutation. `free + held_total` is the node count *available over
    /// time* — the base the slot-set timeline subtracts occupancy from.
    held_total: u32,
}

impl RunningIndex {
    pub(crate) fn insert(&mut self, id: JobId, end: SimTime, nodes: u32) {
        debug_assert!(!self.key_of.contains_key(&id), "{id:?} already running");
        self.set.insert((end, nodes, id));
        self.key_of.insert(id, (end, nodes));
        self.held_total += nodes;
    }

    /// Removes `id` if it is indexed (jobs completed defensively twice
    /// are tolerated, mirroring the scheduler's release-mode leniency).
    /// Returns the old `(expected_end, held_nodes)` key so the caller can
    /// unplan the corresponding timeline interval.
    pub(crate) fn remove(&mut self, id: JobId) -> Option<(SimTime, u32)> {
        let old = self.key_of.remove(&id);
        if let Some((end, nodes)) = old {
            self.set.remove(&(end, nodes, id));
            self.held_total -= nodes;
        }
        old
    }

    /// The expected end currently keyed for `id`, if it is running.
    pub(crate) fn end_of(&self, id: JobId) -> Option<SimTime> {
        self.key_of.get(&id).map(|&(end, _)| end)
    }

    /// Re-keys `id` with a new expected end (estimate refresh); returns
    /// the old key for timeline re-planning.
    pub(crate) fn set_end(&mut self, id: JobId, end: SimTime) -> Option<(SimTime, u32)> {
        let key = self.key_of.get_mut(&id)?;
        let old = *key;
        self.set.remove(&(old.0, old.1, id));
        key.0 = end;
        self.set.insert((end, old.1, id));
        Some(old)
    }

    /// Re-keys `id` with a new held-node count (expand / shrink); returns
    /// the old key for timeline re-planning.
    pub(crate) fn set_nodes(&mut self, id: JobId, nodes: u32) -> Option<(SimTime, u32)> {
        let key = self.key_of.get_mut(&id)?;
        let old = *key;
        self.set.remove(&(old.0, old.1, id));
        key.1 = nodes;
        self.set.insert((old.0, nodes, id));
        self.held_total = self.held_total - old.1 + nodes;
        Some(old)
    }

    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Sum of held nodes over every running job (O(1), maintained).
    pub(crate) fn total_held(&self) -> u32 {
        self.held_total
    }

    /// `(expected_end, held_nodes)` pairs in reservation-scan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.set.iter().map(|&(end, nodes, _)| (end, nodes))
    }

    /// The jobs expiring exactly at `end`, in reservation-scan key order
    /// — the "group" the legacy reservation walk may stop inside of.
    pub(crate) fn group_at(&self, end: SimTime) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.set
            .range((end, 0, JobId(0))..=(end, u32::MAX, JobId(u64::MAX)))
            .map(|&(end, nodes, _)| (end, nodes))
    }

    /// The jobs whose expected end is at or before `now` (overruns), in
    /// reservation-scan key order — the prefix the legacy walk clamps to
    /// `now`.
    pub(crate) fn ends_through(&self, now: SimTime) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.set
            .range(..=(now, u32::MAX, JobId(u64::MAX)))
            .map(|&(end, nodes, _)| (end, nodes))
    }
}

/// Parent → resizer reverse-dependency map plus the reap candidate list.
///
/// A resizer job is dead when its parent is no longer running. Instead of
/// scanning every job per pass, resizers are registered under their
/// running parent; when the parent turns terminal the whole group moves
/// to the `dead` candidate set, which the next scheduling pass drains in
/// O(affected). Candidates are *re-verified* against live state before
/// cancellation, so a parent that was merely pending at registration time
/// and has started since is never reaped by mistake.
#[derive(Debug, Default)]
pub(crate) struct ResizerIndex {
    by_parent: BTreeMap<JobId, BTreeSet<JobId>>,
    dead: BTreeSet<JobId>,
}

impl ResizerIndex {
    /// Registers `resizer` under `parent`. A parent that is not currently
    /// running makes the resizer an immediate reap candidate (the scan
    /// path treated an unsatisfied dependency as dead regardless of why).
    pub(crate) fn register(&mut self, parent: JobId, resizer: JobId, parent_running: bool) {
        if parent_running {
            self.by_parent.entry(parent).or_default().insert(resizer);
        } else {
            self.dead.insert(resizer);
        }
    }

    /// A resizer turned terminal on its own: deregister it everywhere.
    pub(crate) fn resizer_terminal(&mut self, parent: JobId, resizer: JobId) {
        if let Some(group) = self.by_parent.get_mut(&parent) {
            group.remove(&resizer);
            if group.is_empty() {
                self.by_parent.remove(&parent);
            }
        }
        self.dead.remove(&resizer);
    }

    /// `parent` turned terminal: every resizer registered under it becomes
    /// a reap candidate.
    pub(crate) fn parent_terminal(&mut self, parent: JobId) {
        if let Some(group) = self.by_parent.remove(&parent) {
            self.dead.extend(group);
        }
    }

    pub(crate) fn has_dead_candidates(&self) -> bool {
        !self.dead.is_empty()
    }

    /// Drains the candidate list in ascending id order (the order the
    /// scan produced by walking the job table).
    pub(crate) fn take_dead(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.dead).into_iter().collect()
    }
}
