//! Incremental scheduler indices — the hot-path structures behind
//! [`crate::slurm::Slurm`].
//!
//! Every scheduling pass used to rediscover global order by scanning the
//! whole job table: sort the pending jobs (pending order),
//! collect-and-sort running end times (backfill reservations), scan for
//! dead resizer jobs. These structures maintain the same orders
//! *incrementally*, updated at the mutation points where relative order
//! can actually change:
//!
//! * [`PendingIndex`] — the pending queue keyed by
//!   `(boosted, submit_time, seq)`: Slurm's `priority/multifactor` order
//!   at the default weights the paper runs it with (§VII-A), where the
//!   age term grows at the same rate for every pending job and nothing
//!   else weighs in, so the order changes only when a job is submitted,
//!   leaves the queue or is boosted — never with the clock.
//!   Its **need view** groups the queued (non-resizer) jobs by
//!   `requested_nodes`, each non-empty need holding its jobs twice: in
//!   [`PendingKey`] order and in `(expected_runtime, id)` order.
//!   Always live — maintained wherever a pending key or estimate changes
//!   — it answers both consumers that would otherwise walk the whole
//!   order: the reconfiguration check "who is first in line among the
//!   jobs that `R` released nodes would admit" (the first key of every
//!   need in `(free, free + R]`), and the EASY backfill pass, which
//!   enumerates per fitting need only the jobs short enough to pass the
//!   harmless check (see `Slurm::backfill_pass`).
//! * [`RunningIndex`] — running jobs keyed by
//!   `(expected_end, held_nodes, id)`, exactly the order the EASY
//!   backfill reservation scan produced by sorting. Each job's current
//!   key sits in a [`JobMap`] — a flat table addressed by the id's slot
//!   with the generation checked, not a tree — because every start,
//!   resize, estimate refresh and completion looks it up, and because
//!   the key's node count doubles as the scheduler's answer to "how
//!   many nodes does this running job hold" (`Slurm::nodes_of`).
//! * [`ResizerIndex`] — the parent → resizer reverse-dependency map, so
//!   resizers orphaned by a completion are reaped in O(affected) instead
//!   of an O(jobs) scan per scheduling pass.
//!
//! The indices are bookkeeping only: they never decide anything. The
//! oracle for the orders they serve is the model scheduler of
//! `tests/common/model.rs`, which sorts and scans on every pass and is
//! driven in lockstep with production by `tests/common/lockstep.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Included, Unbounded};

use dmr_sim::{SimTime, Span};

use crate::arena::{JobArena, JobMap};
use crate::job::{Job, JobId};

/// Index key of one pending job: boosted first, then submit time, then
/// submission sequence number, with the id carried as payload. The
/// sequence number ([`Job::seq`]) is unique, so the key is total — and
/// stable even when arena slot recycling makes raw [`JobId`] values
/// non-monotonic.
///
/// The boost flag rides in the top bit of the submit time (microseconds:
/// bit 63 stays clear for 292 000 simulated years), which keeps the key
/// at 24 bytes instead of 32. Every queued job stores it twice, and on a
/// deep queue the pending index is the scheduler's largest structure
/// after the job records: with 32-byte keys here and 40-byte estimate
/// entries below it cost 146 bytes a queued job more than the flat
/// order it replaces, with these 69.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PendingKey {
    /// `submit_time`, with bit 63 set unless the job is boosted.
    rank: u64,
    seq: u64,
    pub(crate) id: JobId,
}

impl PendingKey {
    const UNBOOSTED: u64 = 1 << 63;

    fn new(boosted: bool, job: &Job) -> Self {
        debug_assert!(job.submit_time.0 < Self::UNBOOSTED, "submit time overflow");
        let rank = job.submit_time.0 | if boosted { 0 } else { Self::UNBOOSTED };
        PendingKey {
            rank,
            seq: job.seq,
            id: job.id,
        }
    }
}

/// The queued jobs requesting one node count, held in both orders the
/// need view is asked in. The scheduling order carries the whole
/// [`PendingKey`], so its first job costs no second seek in the pending
/// set; the estimate order carries the id alone (16 bytes an entry) and
/// finds the key again in the job record.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NeedBucket {
    by_key: BTreeSet<PendingKey>,
    by_estimate: BTreeSet<(Span, JobId)>,
}

impl NeedBucket {
    /// The jobs behind `after` that an EASY pass has to look at when a
    /// job of this need is harmless up to the estimate `limit`: every
    /// job within the limit (in estimate order, not scheduling order) —
    /// or, with no limit, the first job in scheduling order alone,
    /// flagged `true`: it stands for the rest of the bucket, which takes
    /// its place one job at a time.
    pub(crate) fn candidates<'a>(
        &'a self,
        after: PendingKey,
        limit: Option<Span>,
        jobs: &'a JobArena,
    ) -> impl Iterator<Item = (PendingKey, bool)> + 'a {
        let first = match limit {
            None => self.by_key.range((Excluded(after), Unbounded)).next(),
            Some(_) => None,
        };
        let within = limit.map(|limit| self.by_estimate.range(..=(limit, JobId(u64::MAX))));
        let within = within
            .into_iter()
            .flatten()
            .map(|&(_, id)| PendingIndex::key(&jobs[id]));
        first.map(|&key| (key, true)).into_iter().chain(
            within
                .filter(move |&key| key > after)
                .map(|key| (key, false)),
        )
    }
}

/// Ordered index of the pending set.
///
/// Iteration order is `(boosted first, submit ascending, seq ascending)`
/// — the scheduling order (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct PendingIndex {
    set: BTreeSet<PendingKey>,
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
    /// The need view: the queued (non-resizer) pending jobs bucketed by
    /// `requested_nodes`, empty buckets removed. Kept current wherever a
    /// pending key or estimate changes (a pending job's
    /// `requested_nodes` never does).
    by_need: BTreeMap<u32, NeedBucket>,
}

impl PendingIndex {
    fn key(job: &Job) -> PendingKey {
        PendingKey::new(job.boosted, job)
    }

    /// Files `job` in the need view under `key` / `estimate`.
    fn view_insert(&mut self, job: &Job, key: PendingKey, estimate: Span) {
        if job.is_resizer() {
            return;
        }
        let bucket = self.by_need.entry(job.requested_nodes).or_default();
        bucket.by_key.insert(key);
        bucket.by_estimate.insert((estimate, job.id));
    }

    /// Removes the need-view entry `job` was filed under (`key` /
    /// `estimate` as they were at insertion).
    fn view_remove(&mut self, job: &Job, key: PendingKey, estimate: Span) {
        if job.is_resizer() {
            return;
        }
        let need = job.requested_nodes;
        let Some(bucket) = self.by_need.get_mut(&need) else {
            debug_assert!(false, "{:?} has no need bucket", job.id);
            return;
        };
        let removed = bucket.by_key.remove(&key) & bucket.by_estimate.remove(&(estimate, job.id));
        debug_assert!(removed, "{:?} not in its need bucket", job.id);
        if bucket.by_key.is_empty() {
            self.by_need.remove(&need);
        }
    }

    pub(crate) fn insert(&mut self, job: &Job) {
        let key = Self::key(job);
        let added = self.set.insert(key);
        debug_assert!(added, "{:?} already indexed", job.id);
        self.view_insert(job, key, job.expected_runtime);
        if job.is_resizer() {
            self.resizers += 1;
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained += 1;
        }
    }

    pub(crate) fn remove(&mut self, job: &Job) {
        let key = Self::key(job);
        let removed = self.set.remove(&key);
        debug_assert!(removed, "{:?} not indexed", job.id);
        self.view_remove(job, key, job.expected_runtime);
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
        let key = Self::key(job);
        let old = PendingKey::new(false, job);
        let removed = self.set.remove(&old);
        debug_assert!(removed, "{:?} not indexed for reboost", job.id);
        self.set.insert(key);
        self.view_remove(job, old, job.expected_runtime);
        self.view_insert(job, key, job.expected_runtime);
    }

    /// Re-files a pending job whose runtime estimate just changed from
    /// `old` (the pending order itself does not depend on estimates).
    pub(crate) fn reestimate(&mut self, job: &Job, old: Span) {
        let key = Self::key(job);
        self.view_remove(job, key, old);
        self.view_insert(job, key, job.expected_runtime);
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
        self.set.iter().map(|key| key.id)
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
    /// request: the best of the first keys of the needs in range, so the
    /// cost is O(distinct needs in range) whatever the queue depth.
    pub(crate) fn first_needing(&self, above: u32, upto: u32) -> Option<(JobId, u32)> {
        if upto <= above {
            return None;
        }
        self.by_need
            .range((Excluded(above), Included(upto)))
            .filter_map(|(&need, bucket)| Some((*bucket.by_key.first()?, need)))
            .min()
            .map(|(key, need)| (key.id, need))
    }

    /// The non-empty need buckets requesting at most `upto` nodes, by
    /// ascending need.
    pub(crate) fn needs_upto(&self, upto: u32) -> impl Iterator<Item = (u32, &NeedBucket)> + '_ {
        self.by_need.range(..=upto).map(|(&need, b)| (need, b))
    }

    /// The bucket of queued jobs requesting exactly `need` nodes.
    pub(crate) fn need_bucket(&self, need: u32) -> Option<&NeedBucket> {
        self.by_need.get(&need)
    }

    /// The smallest queued request above `free` nodes.
    pub(crate) fn min_need_above(&self, free: u32) -> Option<u32> {
        self.by_need
            .range((Excluded(free), Unbounded))
            .next()
            .map(|(&need, _)| need)
    }

    /// Invariant check: the need view files exactly `queued` — the
    /// pending non-resizer jobs — each under its current request, key and
    /// estimate, in both orders, and holds no empty bucket.
    pub(crate) fn check_need_view<'a>(
        &self,
        queued: impl Iterator<Item = &'a Job>,
    ) -> Result<(), String> {
        let mut want = BTreeMap::<u32, NeedBucket>::new();
        for job in queued {
            let key = Self::key(job);
            let bucket = want.entry(job.requested_nodes).or_default();
            bucket.by_key.insert(key);
            bucket.by_estimate.insert((job.expected_runtime, job.id));
        }
        if self.by_need != want {
            let view = &self.by_need;
            return Err(format!("need view {view:?} != queued jobs {want:?}"));
        }
        Ok(())
    }
}

/// Ordered index of running jobs by `(expected_end, held_nodes, id)`.
///
/// This is exactly the order the backfill reservation scan produced: a
/// stable sort of `(expected_end, held_nodes)` pairs collected in id
/// order. A side table — a [`JobMap`], one indexed load by the id's
/// slot — remembers each job's current key, so re-keying on estimate
/// refresh or resize finds the old set entry without a search, and
/// [`RunningIndex::nodes_of`] answers a running job's size from it.
#[derive(Debug, Default)]
pub(crate) struct RunningIndex {
    set: BTreeSet<(SimTime, u32, JobId)>,
    key_of: JobMap<(SimTime, u32)>,
    /// Sum of `held_nodes` over every indexed job, maintained at each
    /// mutation. `free + held_total` is the node count *available over
    /// time* — the base the slot-set timeline subtracts occupancy from.
    held_total: u32,
}

impl RunningIndex {
    pub(crate) fn insert(&mut self, id: JobId, end: SimTime, nodes: u32) {
        debug_assert!(self.key_of.get(id).is_none(), "{id:?} already running");
        self.set.insert((end, nodes, id));
        self.key_of.insert(id, (end, nodes));
        self.held_total += nodes;
    }

    /// Removes `id` if it is indexed (jobs completed defensively twice
    /// are tolerated, mirroring the scheduler's release-mode leniency).
    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some((end, nodes)) = self.key_of.remove(id) {
            self.set.remove(&(end, nodes, id));
            self.held_total -= nodes;
        }
    }

    /// The held-node count currently keyed for `id`, if it is running.
    /// Re-keyed at every start, expand and shrink, so for a running job
    /// this is the size of its cluster allocation.
    pub(crate) fn nodes_of(&self, id: JobId) -> Option<u32> {
        self.key_of.get(id).map(|&(_, nodes)| nodes)
    }

    /// Re-keys `id`, if it is indexed, with a new expected end (estimate
    /// refresh).
    pub(crate) fn set_end(&mut self, id: JobId, end: SimTime) {
        if let Some(key) = self.key_of.get_mut(id) {
            self.set.remove(&(key.0, key.1, id));
            key.0 = end;
            self.set.insert((end, key.1, id));
        }
    }

    /// Re-keys `id` with a new held-node count (expand / shrink);
    /// whether it was indexed at all.
    pub(crate) fn set_nodes(&mut self, id: JobId, nodes: u32) -> bool {
        let Some(key) = self.key_of.get_mut(id) else {
            return false;
        };
        self.set.remove(&(key.0, key.1, id));
        self.held_total = self.held_total - key.1 + nodes;
        key.1 = nodes;
        self.set.insert((key.0, nodes, id));
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// Number of ids in the key table; equals [`RunningIndex::len`]
    /// unless the two structures drifted apart (invariant check).
    pub(crate) fn keyed(&self) -> usize {
        self.key_of.len()
    }

    /// Sum of held nodes over every running job (O(1), maintained).
    pub(crate) fn total_held(&self) -> u32 {
        self.held_total
    }

    /// `(expected_end, held_nodes)` pairs in reservation-scan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.set.iter().map(|&(end, nodes, _)| (end, nodes))
    }

    /// `(expected_end, id)` of every running job, in the same order.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = (SimTime, JobId)> + '_ {
        self.set.iter().map(|&(end, _, id)| (end, id))
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
