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
//!   leaves the queue or is boosted — never with the clock. It is the
//!   only copy of the pending order: every pass walks it through the
//!   resumable cursor [`PendingIndex::next_after`], which survives the
//!   start of the job it is visiting, and `Slurm::pending_queue`
//!   collects it afresh on each call.
//!   Its **need view** ([`crate::need`]) files the queued (non-resizer)
//!   jobs in a bucket array indexed by `requested_nodes`, each bucket
//!   holding its jobs twice: in [`PendingKey`] order and in
//!   `(expected_runtime, id)` order; an occupancy bitmap finds the
//!   non-empty needs by bit scans. Always live — maintained wherever a
//!   pending key or estimate changes — it answers both consumers that
//!   would otherwise walk the whole order: the reconfiguration check
//!   "who is first in line among the jobs that `R` released nodes would
//!   admit" (the first key of every need in `(free, free + R]`), and the
//!   EASY backfill pass, which enumerates per fitting need only the jobs
//!   short enough to pass the harmless check (see
//!   `Slurm::backfill_pass`).
//! * [`RunningIndex`] — running jobs keyed by
//!   `(expected_end, held_nodes, id)`, exactly the order the EASY
//!   backfill reservation scan produced by sorting. Each job's current
//!   key sits in a [`JobMap`] — an 8-byte entry per arena slot pointing
//!   into the packed keys, with the generation checked, not a tree —
//!   because every start, resize, estimate refresh and completion looks
//!   it up, and because the key's node count doubles as the
//!   scheduler's answer to "how many nodes does this running job hold"
//!   (`Slurm::nodes_of`).
//! * [`ResizerIndex`] — the parent → resizer reverse-dependency map, so
//!   resizers orphaned by a completion are reaped in O(affected) instead
//!   of an O(jobs) scan per scheduling pass.
//!
//! The indices are bookkeeping only: they never decide anything. The
//! oracle for the orders they serve is the model scheduler of
//! `tests/common/model.rs`, which sorts and scans on every pass and is
//! driven in lockstep with production by `tests/common/lockstep.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

use dmr_sim::{SimTime, Span};

use crate::arena::JobMap;
use crate::job::{Job, JobId};
use crate::need::{NeedBucket, NeedView};

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

/// Ordered index of the pending set.
///
/// Iteration order is `(boosted first, submit ascending, seq ascending)`
/// — the scheduling order (see the module docs).
#[derive(Debug)]
pub(crate) struct PendingIndex {
    set: BTreeSet<PendingKey>,
    /// Pending resizer jobs. The need view leaves them out, so the EASY
    /// pass may answer from it only while none is pending.
    resizers: usize,
    /// Pending jobs with a non-`Any` class constraint. The watermark
    /// pass-elision rule compares *global* free capacity against the
    /// blocked request, which is unsound for a class-constrained job
    /// (its class can free nodes without the global watermark moving),
    /// so capacity events fall back to a full invalidation whenever this
    /// is non-zero.
    constrained: usize,
    /// The need view: the queued (non-resizer) pending jobs by
    /// `requested_nodes` (see [`crate::need`]). Kept current wherever a
    /// pending key or estimate changes (a pending job's
    /// `requested_nodes` never does).
    by_need: NeedView,
}

impl PendingIndex {
    /// An empty index for a machine of `nodes` nodes (the largest
    /// request the need view's array holds).
    pub(crate) fn new(nodes: u32) -> Self {
        PendingIndex {
            set: BTreeSet::new(),
            resizers: 0,
            constrained: 0,
            by_need: NeedView::new(nodes),
        }
    }

    pub(crate) fn key(job: &Job) -> PendingKey {
        PendingKey::new(job.boosted, job)
    }

    /// Files `job` in the need view under `key` / `estimate`.
    fn view_insert(&mut self, job: &Job, key: PendingKey, estimate: Span) {
        if !job.is_resizer() {
            self.by_need.insert(job.requested_nodes, key, estimate);
        }
    }

    /// Removes the need-view entry `job` was filed under (`key` /
    /// `estimate` as they were at insertion).
    fn view_remove(&mut self, job: &Job, key: PendingKey, estimate: Span) {
        if !job.is_resizer() {
            let removed = self.by_need.remove(job.requested_nodes, key, estimate);
            debug_assert!(removed, "{:?} not in its need bucket", job.id);
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
    /// — a resumable cursor over the scheduling order. Every pass walks
    /// the queue this way instead of materialising the order, so a walk
    /// that stops after `k` of `n` pending jobs costs O(k log n) rather
    /// than O(n). The cursor is the last key yielded, not a position, so
    /// it survives the removal of every key it has already visited, never
    /// yields again a key re-keyed behind it, and yields a key inserted
    /// ahead of it.
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
            .needs_from(above + 1)
            .take_while(|&(need, _)| need <= upto)
            .filter_map(|(need, bucket)| Some((bucket.first()?, need)))
            .min()
            .map(|(key, need)| (key.id, need))
    }

    /// The non-empty need buckets requesting at most `upto` nodes, by
    /// ascending need.
    pub(crate) fn needs_upto(&self, upto: u32) -> impl Iterator<Item = (u32, &NeedBucket)> + '_ {
        self.by_need
            .needs_from(0)
            .take_while(move |&(need, _)| need <= upto)
    }

    /// The bucket of queued jobs requesting exactly `need` nodes.
    pub(crate) fn need_bucket(&self, need: u32) -> Option<&NeedBucket> {
        self.by_need.bucket(need)
    }

    /// The smallest queued request above `free` nodes.
    pub(crate) fn min_need_above(&self, free: u32) -> Option<u32> {
        self.by_need.next_need(free.checked_add(1)?)
    }

    /// Invariant check: the need view files exactly `queued` — the
    /// pending non-resizer jobs — each under its current request, key and
    /// estimate, in both orders, in a sound layout (see
    /// [`NeedView::check`]).
    pub(crate) fn check_need_view<'a>(
        &self,
        queued: impl Iterator<Item = &'a Job>,
    ) -> Result<(), String> {
        let mut want = NeedView::new(self.by_need.nodes());
        for job in queued {
            want.insert(job.requested_nodes, Self::key(job), job.expected_runtime);
        }
        self.by_need.check(&want)
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
}

impl RunningIndex {
    pub(crate) fn insert(&mut self, id: JobId, end: SimTime, nodes: u32) {
        debug_assert!(self.key_of.get(id).is_none(), "{id:?} already running");
        self.set.insert((end, nodes, id));
        self.key_of.insert(id, (end, nodes));
    }

    /// Removes `id` if it is indexed (jobs completed defensively twice
    /// are tolerated, mirroring the scheduler's release-mode leniency).
    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some((end, nodes)) = self.key_of.remove(id) {
            self.set.remove(&(end, nodes, id));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::JobArena;
    use crate::job::JobRequest;

    /// A pending index over the jobs of an arena, kept as `Slurm` keeps
    /// it (no record is removed, so the arena's length is the next seq).
    struct Queue {
        jobs: JobArena,
        index: PendingIndex,
    }

    impl Default for Queue {
        fn default() -> Self {
            let (jobs, index) = (JobArena::default(), PendingIndex::new(4));
            Queue { jobs, index }
        }
    }

    impl Queue {
        /// A queue of jobs submitted at `0..n` s.
        fn with(n: u64) -> (Self, Vec<JobId>) {
            let mut q = Queue::default();
            let ids = (0..n).map(|at| q.submit(at)).collect();
            (q, ids)
        }

        fn submit(&mut self, at: u64) -> JobId {
            let (seq, req) = (self.jobs.len() as u64, JobRequest::rigid("j", 1));
            let at = SimTime::from_secs(at);
            let id = self
                .jobs
                .insert_with(|id| Job::submitted(id, seq, req, Span::ZERO, at));
            self.index.insert(&self.jobs[id]);
            id
        }

        fn boost(&mut self, id: JobId) {
            let job = self.jobs.get_mut(id).expect("submitted");
            job.boosted = true;
            self.index.reboost(job);
        }

        /// The ids a cursor walk from the front yields, `visit` running
        /// after each (with the walk's ids so far) as a pass's step does.
        fn walk(&mut self, mut visit: impl FnMut(&mut Self, &[JobId])) -> Vec<JobId> {
            let (mut seen, mut cursor) = (Vec::new(), None);
            while let Some(key) = self.index.next_after(cursor) {
                cursor = Some(key);
                seen.push(key.id);
                visit(self, &seen);
            }
            seen
        }
    }

    #[test]
    fn the_cursor_yields_boosted_first_then_by_submit_time_then_seq() {
        let mut q = Queue::default();
        let [a, b, c, d, e] = [5, 3, 3, 9, 7].map(|at| q.submit(at));
        q.boost(d);
        q.boost(e);
        assert_eq!(q.walk(|_, _| {}), [e, d, b, c, a]);
    }

    #[test]
    fn the_cursor_survives_the_removal_of_every_key_it_yielded() {
        // Each key removed as soon as it is yielded, as a start does.
        let (mut q, ids) = Queue::with(6);
        assert_eq!(
            q.walk(|q, seen| q.index.remove(&q.jobs[seen[seen.len() - 1]])),
            ids
        );
        assert_eq!(q.index.len(), 0);
        // Every key yielded so far removed at once, halfway through.
        let (mut q, ids) = Queue::with(6);
        let walked = q.walk(|q, seen| {
            if seen.len() == 3 {
                seen.iter().for_each(|&id| q.index.remove(&q.jobs[id]));
            }
        });
        assert_eq!(
            (walked, q.index.ids().collect()),
            (ids.clone(), ids[3..].to_vec())
        );
    }

    #[test]
    fn a_key_reboosted_behind_the_cursor_is_not_yielded_again() {
        let (mut q, ids) = Queue::with(4);
        let walked = q.walk(|q, seen| {
            if seen.len() == 3 {
                q.boost(seen[1]);
            }
        });
        assert_eq!(walked, ids);
        assert_eq!(q.walk(|_, _| {}), [ids[1], ids[0], ids[2], ids[3]]);
    }

    #[test]
    fn a_fresh_submission_is_yielded() {
        let (mut q, ids) = Queue::with(3);
        let mut fresh = Vec::new();
        let walked = q.walk(|q, seen| {
            if seen.len() == 2 {
                // The same submit time as the job visited: sorts right
                // behind it by sequence number. Then one that sorts last.
                fresh = vec![q.submit(1), q.submit(10)];
            }
        });
        assert_eq!(walked, [ids[0], ids[1], fresh[0], ids[2], fresh[1]]);
    }
}
