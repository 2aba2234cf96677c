//! Incremental scheduler indices — the hot-path structures behind
//! [`crate::slurm::Slurm`].
//!
//! Every scheduling pass used to rediscover global order by scanning the
//! whole job table: sort the pending jobs (pending order),
//! collect-and-sort running end times (backfill reservations), scan for
//! dead resizer jobs. These structures maintain the same orders
//! *incrementally*, updated at the mutation points where relative order
//! can actually change. Each order is held in the structure its traffic
//! needs:
//!
//! * [`PendingIndex`] — the pending queue keyed by
//!   `(boosted, submit_time, seq)`: Slurm's `priority/multifactor` order
//!   at the default weights the paper runs it with (§VII-A), where the
//!   age term grows at the same rate for every pending job and nothing
//!   else weighs in, so the order changes only when a job is submitted,
//!   leaves the queue or is boosted — never with the clock. It is the
//!   only copy of the pending order: every pass walks it through the
//!   resumable cursor [`PendingIndex::step`], which survives the start
//!   of the job it is visiting, and `Slurm::pending_queue` collects it
//!   afresh on each call. A submission's key sorts after
//!   every key already there, so the order is a [`KeyLog`]: keys are
//!   appended, a removed key is tombstoned in place and the tombstones
//!   are swept once they outnumber the live keys; the few boosted keys
//!   sit in a short sorted array in front.
//!   Its **need view** ([`crate::need`]) files the queued (non-resizer)
//!   jobs in a bucket array indexed by `requested_nodes`, each bucket
//!   holding its jobs twice: in [`PendingKey`] order (a [`KeyLog`] too)
//!   and in `(expected_runtime, id)` order; an occupancy bitmap finds
//!   the non-empty needs by bit scans. Always live — maintained wherever
//!   a pending key or estimate changes — it answers both consumers that
//!   would otherwise walk the whole order: the reconfiguration check
//!   "who is first in line among the jobs that `R` released nodes would
//!   admit" (the first key of every need in `(free, free + R]`), and the
//!   EASY backfill pass, which enumerates per fitting need only the jobs
//!   short enough to pass the harmless check (see
//!   `Slurm::backfill_pass`).
//! * [`RunningIndex`] — running jobs keyed by
//!   `(expected_end, held_nodes, id)`, exactly the order the EASY
//!   backfill reservation scan produced by sorting, held as a sorted
//!   array: it is never longer than the machine has nodes, and a re-key
//!   rotates the entry between its old and new positions. Each job's
//!   current key sits in a [`JobMap`] — an 8-byte entry per arena slot
//!   pointing into the packed keys, with the generation checked, not a
//!   tree — because every start, resize, estimate refresh and
//!   completion looks it up, and because the key's node count doubles
//!   as the scheduler's answer to "how many nodes does this running job
//!   hold" (`Slurm::nodes_of`).
//! * [`ResizerIndex`] — the parent → resizer reverse-dependency map, so
//!   a job that ends cancels its queued resizers at that instant in
//!   O(affected) instead of an O(jobs) scan.
//!
//! The indices are bookkeeping only: they never decide anything. The
//! oracle for the orders they serve is the model scheduler of
//! `tests/common/model.rs`, which sorts and scans on every pass and is
//! driven in lockstep with production by `tests/common/lockstep.rs`.

use std::collections::{BTreeMap, BTreeSet};

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
/// after the job records.
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

    fn boosted(self) -> bool {
        self.rank & Self::UNBOOSTED == 0
    }
}

/// One scheduling order of pending keys — the global pending order and
/// each need bucket's — held flat for the traffic it gets.
///
/// Without a boost the order is submission order, so a new key sorts
/// after every key already there: unboosted keys are *appended* to
/// `log`. A removed key is tombstoned in place (its id replaced by
/// [`KeyLog::TOMB`]; the sequence number is unique, so the tombstone
/// keeps its place in the order) and the tombstones are swept once they
/// outnumber the live keys, which keeps the array within twice the live
/// set at O(1) amortised per append or removal. Boosted keys (shrink
/// beneficiaries, requeued jobs) are few and short-lived; they sit in a
/// sorted array in front of the log. A submission that does not sort
/// last (a direct `Slurm::submit` with an earlier instant) is inserted
/// in place.
///
/// Both steps a pass takes most — removing the first key (a start) and
/// a cursor step ([`KeyLog::step`]) — take no search.
#[derive(Debug, Default)]
pub(crate) struct KeyLog {
    /// Boosted keys, ascending; they sort before every key of `log`.
    boosted: Vec<PendingKey>,
    /// Unboosted keys, ascending, tombstones included.
    log: Vec<PendingKey>,
    /// The position of the first live key of `log` (its length if none):
    /// everything before it is a tombstone.
    head: usize,
    /// Tombstones in `log`: never more than its live keys.
    dead: usize,
}

/// A walk position in a [`KeyLog`]: the key a walk last yielded and
/// where it sat in `log` then (unused for a boosted key).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cursor {
    pub(crate) key: PendingKey,
    at: usize,
}

impl KeyLog {
    /// The id of a removed key. No job has it: its slot would be the
    /// 2^32nd of the arena.
    const TOMB: JobId = JobId(u64::MAX);

    pub(crate) fn len(&self) -> usize {
        self.boosted.len() + self.log.len() - self.dead
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn insert(&mut self, key: PendingKey) {
        debug_assert_ne!(key.id, Self::TOMB, "a tombstone inserted");
        if key.boosted() {
            let at = self.boosted.partition_point(|k| *k < key);
            debug_assert_ne!(self.boosted.get(at), Some(&key), "{key:?} already filed");
            self.boosted.insert(at, key);
        } else if self.log.last().is_none_or(|last| *last < key) {
            self.log.push(key);
        } else {
            let at = self.log.partition_point(|k| *k < key);
            debug_assert_ne!(self.log.get(at), Some(&key), "{key:?} already filed");
            self.log.insert(at, key);
            self.head = self.head.min(at);
        }
    }

    /// Removes `key`; whether it was there.
    pub(crate) fn remove(&mut self, key: PendingKey) -> bool {
        if key.boosted() {
            let Ok(at) = self.boosted.binary_search(&key) else {
                return false;
            };
            self.boosted.remove(at);
            return true;
        }
        let at = if self.log.get(self.head) == Some(&key) {
            self.head
        } else {
            let at = self.head + self.log[self.head..].partition_point(|k| *k < key);
            if self.log.get(at) != Some(&key) {
                return false;
            }
            at
        };
        self.log[at].id = Self::TOMB;
        self.dead += 1;
        if self.dead > self.log.len() - self.dead {
            self.log.retain(|k| k.id != Self::TOMB);
            (self.head, self.dead) = (0, 0);
        } else if at == self.head {
            while self.log.get(self.head).is_some_and(|k| k.id == Self::TOMB) {
                self.head += 1;
            }
        }
        true
    }

    /// The first key.
    pub(crate) fn first(&self) -> Option<PendingKey> {
        self.boosted.first().or(self.log.get(self.head)).copied()
    }

    /// The first key strictly after `prev` (`None`: the first key).
    pub(crate) fn next_after(&self, prev: Option<PendingKey>) -> Option<PendingKey> {
        let Some(prev) = prev else {
            return self.first();
        };
        if prev.boosted() {
            let at = self.boosted.partition_point(|k| *k <= prev);
            return self.boosted.get(at).or(self.log.get(self.head)).copied();
        }
        let head = *self.log.get(self.head)?;
        if prev < head {
            return Some(head);
        }
        let at = self.head + self.log[self.head..].partition_point(|k| *k <= prev);
        self.log[at..].iter().find(|k| k.id != Self::TOMB).copied()
    }

    /// The key after `prev` (`None`: the first key), as
    /// [`KeyLog::next_after`] finds it, at a cursor. While `log` still
    /// holds `prev`'s key where it was yielded — live, or as its
    /// tombstone, which keeps its rank and sequence number — everything
    /// behind that position sorts after it, so the step scans forward
    /// past tombstones with no search. Only a boosted key, or one a
    /// sweep or an insertion in place has moved, is searched for again.
    pub(crate) fn step(&self, prev: Option<Cursor>) -> Option<Cursor> {
        let in_place = |p: &Cursor| {
            let at = self.log.get(p.at);
            at.is_some_and(|k| (k.rank, k.seq) == (p.key.rank, p.key.seq))
        };
        let from = match prev {
            Some(p) if in_place(&p) => (p.at + 1).max(self.head),
            Some(p) if !p.key.boosted() => {
                self.head + self.log[self.head..].partition_point(|k| *k <= p.key)
            }
            _ => {
                let after = prev.map_or(0, |p| self.boosted.partition_point(|k| *k <= p.key));
                if let Some(&key) = self.boosted.get(after) {
                    return Some(Cursor { key, at: 0 });
                }
                self.head
            }
        };
        let skip = self.log[from..].iter().position(|k| k.id != Self::TOMB);
        let next = skip.map(|skip| Cursor {
            key: self.log[from + skip],
            at: from + skip,
        });
        debug_assert_eq!(
            next.map(|c| c.key),
            self.next_after(prev.map(|p| p.key)),
            "a step from {prev:?} left the order"
        );
        next
    }

    /// The keys in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PendingKey> + '_ {
        let live = self.log[self.head..].iter().filter(|k| k.id != Self::TOMB);
        self.boosted.iter().chain(live).copied()
    }

    /// Invariant check of the layout: boosted keys in front and
    /// unboosted ones in the log, each array strictly ascending, the
    /// tombstone count right, nothing but tombstones before a live head,
    /// and no more tombstones than live keys.
    pub(crate) fn check(&self) -> Result<(), String> {
        let ascending = |keys: &[PendingKey]| keys.windows(2).all(|w| w[0] < w[1]);
        if !ascending(&self.boosted) || !ascending(&self.log) {
            return Err(format!("key log {self:?} out of order"));
        }
        if !self.boosted.iter().all(|k| k.boosted()) || self.log.iter().any(|k| k.boosted()) {
            return Err(format!("key log {self:?} files a key on the wrong side"));
        }
        let dead = self.log.iter().filter(|k| k.id == Self::TOMB).count();
        let live_head = self.log.get(self.head).is_none_or(|k| k.id != Self::TOMB);
        let swept = self.log[..self.head.min(self.log.len())]
            .iter()
            .all(|k| k.id == Self::TOMB);
        if dead != self.dead || self.head > self.log.len() || !live_head || !swept {
            return Err(format!(
                "key log {self:?}: {dead} tombstones counted {}, head {}",
                self.dead, self.head
            ));
        }
        if 2 * dead > self.log.len() {
            return Err(format!("key log {self:?} holds more tombstones than keys"));
        }
        Ok(())
    }
}

/// Two logs are equal when they hold the same keys, however many
/// tombstones lie between them.
impl PartialEq for KeyLog {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Ordered index of the pending set.
///
/// Iteration order is `(boosted first, submit ascending, seq ascending)`
/// — the scheduling order (see the module docs).
#[derive(Debug)]
pub(crate) struct PendingIndex {
    order: KeyLog,
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
            order: KeyLog::default(),
            resizers: 0,
            constrained: 0,
            by_need: NeedView::new(nodes),
        }
    }

    pub(crate) fn key(job: &Job) -> PendingKey {
        PendingKey::new(job.boosted, job)
    }

    pub(crate) fn insert(&mut self, job: &Job) {
        let key = Self::key(job);
        self.order.insert(key);
        if job.is_resizer() {
            self.resizers += 1;
        } else {
            self.by_need
                .insert(job.requested_nodes, key, job.expected_runtime);
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained += 1;
        }
    }

    pub(crate) fn remove(&mut self, job: &Job) {
        let key = Self::key(job);
        let removed = self.order.remove(key);
        debug_assert!(removed, "{:?} not indexed", job.id);
        if job.is_resizer() {
            self.resizers -= 1;
        } else {
            let removed = self
                .by_need
                .remove(job.requested_nodes, key, job.expected_runtime);
            debug_assert!(removed, "{:?} not in its need bucket", job.id);
        }
        if job.constraint != dmr_cluster::ClassConstraint::Any {
            self.constrained -= 1;
        }
    }

    /// Re-keys a pending job whose `boosted` flag just flipped to `true`
    /// (its estimate order is untouched).
    pub(crate) fn reboost(&mut self, job: &Job) {
        debug_assert!(
            job.boosted,
            "{:?} reboosted before the flag flipped",
            job.id
        );
        let key = Self::key(job);
        let old = PendingKey::new(false, job);
        let removed = self.order.remove(old);
        debug_assert!(removed, "{:?} not indexed for reboost", job.id);
        self.order.insert(key);
        if !job.is_resizer() {
            let moved = self.by_need.rekey(job.requested_nodes, old, key);
            debug_assert!(moved, "{:?} not in its need bucket", job.id);
        }
    }

    /// Re-files a pending job whose runtime estimate just changed from
    /// `old` in its bucket's estimate order (no scheduling order depends
    /// on estimates).
    pub(crate) fn reestimate(&mut self, job: &Job, old: Span) {
        if !job.is_resizer() {
            let (need, new) = (job.requested_nodes, job.expected_runtime);
            let moved = self.by_need.reestimate(need, job.id, old, new);
            debug_assert!(moved, "{:?} not in its need bucket", job.id);
        }
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
        self.order.len()
    }

    /// Pending ids in scheduling order (no priorities computed, no sort).
    pub(crate) fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.iter().map(|key| key.id)
    }

    /// The key after the cursor `prev` (`None` starts at the front), at
    /// a cursor of its own — a resumable walk of the scheduling order.
    /// Every pass walks the queue this way instead of materialising the
    /// order, so a walk that stops after `k` of `n` pending jobs costs
    /// O(k) steps rather than O(n), each a scan past the tombstones
    /// behind the last key (see [`KeyLog::step`]). The cursor stands for
    /// the last key yielded, not only its position, so it survives the
    /// removal of every key it has already visited, never yields again a
    /// key re-keyed behind it, and yields a key inserted ahead of it.
    pub(crate) fn step(&self, prev: Option<Cursor>) -> Option<Cursor> {
        self.order.step(prev)
    }

    /// Queued (non-resizer) pending jobs. O(1).
    pub(crate) fn queued(&self) -> usize {
        self.order.len() - self.resizers
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

    /// Invariant check: the pending order's layout is sound (see
    /// [`KeyLog::check`]), and the need view files exactly `queued` —
    /// the pending non-resizer jobs — each under its current request,
    /// key and estimate, in both orders, in a sound layout (see
    /// [`NeedView::check`]).
    pub(crate) fn check_layout<'a>(
        &self,
        queued: impl Iterator<Item = &'a Job>,
    ) -> Result<(), String> {
        self.order.check()?;
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
/// order. Every running job holds a node, so the order is never longer
/// than the machine and is held as a sorted array. A side table — a
/// [`JobMap`], one indexed load by the id's slot — remembers each job's
/// current key, so re-keying on estimate refresh or resize finds the old
/// entry by one binary search and rotates it to its new place, and
/// [`RunningIndex::nodes_of`] answers a running job's size from it.
#[derive(Debug, Default)]
pub(crate) struct RunningIndex {
    order: Vec<(SimTime, u32, JobId)>,
    key_of: JobMap<(SimTime, u32)>,
}

impl RunningIndex {
    pub(crate) fn insert(&mut self, id: JobId, end: SimTime, nodes: u32) {
        debug_assert!(self.key_of.get(id).is_none(), "{id:?} already running");
        let entry = (end, nodes, id);
        let at = self.order.partition_point(|&e| e < entry);
        self.order.insert(at, entry);
        self.key_of.insert(id, (end, nodes));
    }

    /// The position of a keyed entry.
    fn position(&self, entry: (SimTime, u32, JobId)) -> usize {
        let found = self.order.binary_search(&entry);
        found.expect("a keyed running job is in the order")
    }

    /// Removes `id` if it is indexed (jobs completed defensively twice
    /// are tolerated, mirroring the scheduler's release-mode leniency).
    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some((end, nodes)) = self.key_of.remove(id) {
            let at = self.position((end, nodes, id));
            self.order.remove(at);
        }
    }

    /// The held-node count currently keyed for `id`, if it is running.
    /// Re-keyed at every start, expand and shrink, so for a running job
    /// this is the size of its cluster allocation.
    pub(crate) fn nodes_of(&self, id: JobId) -> Option<u32> {
        self.key_of.get(id).map(|&(_, nodes)| nodes)
    }

    /// Moves `id`, if it is indexed, to the key `rekey` makes of its
    /// current one; whether it was indexed.
    fn rekey(&mut self, id: JobId, rekey: impl FnOnce(&mut (SimTime, u32))) -> bool {
        let Some(key) = self.key_of.get_mut(id) else {
            return false;
        };
        let old = (key.0, key.1, id);
        rekey(key);
        let new = (key.0, key.1, id);
        let from = self.position(old);
        // Counted with the old entry still in place.
        let to = self.order.partition_point(|&e| e < new);
        if to > from {
            self.order[from..to].rotate_left(1);
            self.order[to - 1] = new;
        } else {
            self.order[to..=from].rotate_right(1);
            self.order[to] = new;
        }
        true
    }

    /// Re-keys `id`, if it is indexed, with a new expected end (estimate
    /// refresh).
    pub(crate) fn set_end(&mut self, id: JobId, end: SimTime) {
        self.rekey(id, |key| key.0 = end);
    }

    /// Re-keys `id` with a new held-node count (expand / shrink);
    /// whether it was indexed at all.
    pub(crate) fn set_nodes(&mut self, id: JobId, nodes: u32) -> bool {
        self.rekey(id, |key| key.1 = nodes)
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Number of ids in the key table; equals [`RunningIndex::len`]
    /// unless the two structures drifted apart (invariant check).
    pub(crate) fn keyed(&self) -> usize {
        self.key_of.len()
    }

    /// `(expected_end, held_nodes)` pairs in reservation-scan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.order.iter().map(|&(end, nodes, _)| (end, nodes))
    }

    /// `(expected_end, id)` of every running job, in the same order.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = (SimTime, JobId)> + '_ {
        self.order.iter().map(|&(end, _, id)| (end, id))
    }
}

/// Parent → resizer reverse-dependency map: the live resizers of each
/// job, so that the job's retirement cancels its queued ones in
/// O(affected) instead of a scan of the pending queue.
///
/// A resizer is registered at submission, which cancels it on the spot
/// unless its parent is running, and deregistered when it turns
/// terminal; the parent's retirement takes its whole group.
#[derive(Debug, Default)]
pub(crate) struct ResizerIndex {
    by_parent: BTreeMap<JobId, BTreeSet<JobId>>,
}

impl ResizerIndex {
    /// Registers `resizer` under its running `parent`.
    pub(crate) fn register(&mut self, parent: JobId, resizer: JobId) {
        self.by_parent.entry(parent).or_default().insert(resizer);
    }

    /// `resizer` turned terminal: deregister it.
    pub(crate) fn deregister(&mut self, parent: JobId, resizer: JobId) {
        if let Some(group) = self.by_parent.get_mut(&parent) {
            group.remove(&resizer);
            if group.is_empty() {
                self.by_parent.remove(&parent);
            }
        }
    }

    /// `parent` is retiring: its resizers, ascending, leave the index.
    pub(crate) fn take(&mut self, parent: JobId) -> BTreeSet<JobId> {
        self.by_parent.remove(&parent).unwrap_or_default()
    }

    /// Whether `resizer` is registered under `parent`.
    pub(crate) fn registered(&self, parent: JobId, resizer: JobId) -> bool {
        self.by_parent
            .get(&parent)
            .is_some_and(|group| group.contains(&resizer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::JobArena;
    use crate::job::JobRequest;
    use std::ops::Bound::{Excluded, Unbounded};

    /// A pending index over the jobs of an arena, kept as `Slurm` keeps
    /// it, and the number of jobs submitted (the next seq).
    struct Queue {
        jobs: JobArena,
        index: PendingIndex,
        submitted: u64,
    }

    impl Default for Queue {
        fn default() -> Self {
            let (jobs, index) = (JobArena::default(), PendingIndex::new(4));
            Queue {
                jobs,
                index,
                submitted: 0,
            }
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
            self.submit_needing(at, 1, Span::ZERO)
        }

        fn submit_needing(&mut self, at: u64, need: u32, estimate: Span) -> JobId {
            let seq = self.submitted;
            self.submitted += 1;
            let req = JobRequest::rigid("j", need).with_expected_runtime(estimate);
            let at = SimTime::from_secs(at);
            let id = self.jobs.insert_with(|id| Job::submitted(id, seq, req, at));
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
            while let Some(at) = self.index.step(cursor) {
                cursor = Some(at);
                seen.push(at.key.id);
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

    /// A cursor walk visits exactly the keys `next_after` visits, step
    /// for step, whatever the walk does: each visited key is removed (as
    /// a start removes it) or boosted (as a shrink beneficiary is) or
    /// left, and now and then a job submitted early is inserted in place,
    /// on a log that opens with boosted keys and tombstones. The removals
    /// sweep the log in the middle of every walk, so later steps go on
    /// from a position the sweep moved.
    #[test]
    fn a_cursor_walk_visits_the_keys_next_after_visits() {
        for seed in 0..32u64 {
            let mut rng = seed;
            let (mut q, ids) = Queue::with(48);
            for &id in &ids[40..] {
                q.boost(id);
            }
            for &id in ids.iter().skip(1).step_by(5) {
                q.index.remove(&q.jobs[id]);
            }
            let (mut cursor, mut prev) = (None, None);
            let (mut walked, mut swept_before) = (0, None);
            loop {
                let stepped = q.index.step(cursor);
                let searched = q.index.order.next_after(prev);
                assert_eq!(
                    stepped.map(|c| c.key),
                    searched,
                    "seed {seed} step {walked}"
                );
                let Some(at) = stepped else { break };
                (cursor, prev) = (Some(at), Some(at.key));
                walked += 1;
                let logged = q.index.order.log.len();
                match next(&mut rng) % 10 {
                    0..=5 => q.index.remove(&q.jobs[at.key.id]),
                    6 if !at.key.boosted() => q.boost(at.key.id),
                    // Inserted in place, ahead of the cursor or behind it.
                    7 => drop(q.submit(walked / 2)),
                    _ => {}
                }
                if q.index.order.log.len() < logged {
                    swept_before.get_or_insert(walked);
                }
            }
            assert!(
                swept_before.is_some_and(|step| step < walked),
                "seed {seed}: no sweep before the walk's last step ({swept_before:?} of {walked})"
            );
        }
    }

    /// SplitMix64: a dependency-free, seedable op generator.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every answer of the pending order and of its need view against a
    /// reference set of the keys: the walk, a cursor step from every
    /// key (and from keys since removed or re-keyed), the first job of
    /// every need range and of every bucket, and the layout check.
    fn assert_answers(q: &Queue, reference: &BTreeSet<PendingKey>, gone: &[PendingKey], at: &str) {
        let want: Vec<JobId> = reference.iter().map(|k| k.id).collect();
        assert_eq!(q.index.ids().collect::<Vec<_>>(), want, "{at}");
        assert_eq!(q.index.len(), reference.len(), "{at}");
        let order = &q.index.order;
        assert_eq!(order.next_after(None), reference.first().copied(), "{at}");
        for &key in reference.iter().chain(gone) {
            let after = reference.range((Excluded(key), Unbounded)).next().copied();
            assert_eq!(order.next_after(Some(key)), after, "{at}: after {key:?}");
        }
        let need = |key: &PendingKey| q.jobs[key.id].requested_nodes;
        for n in 0..=7 {
            let first = reference.iter().find(|k| need(k) == n).copied();
            let bucket = q.index.need_bucket(n).and_then(NeedBucket::first);
            assert_eq!(bucket, first, "{at}: need {n}");
            for above in 0..=n {
                let first = reference
                    .iter()
                    .find(|k| (above + 1..=n).contains(&need(k)));
                let first = first.map(|k| (k.id, need(k)));
                assert_eq!(
                    q.index.first_needing(above, n),
                    first,
                    "{at}: ({above}, {n}]"
                );
            }
        }
        let queued = reference.iter().map(|k| &q.jobs[k.id]);
        q.index.check_layout(queued).expect(at);
    }

    /// Generated submits — in order, and earlier than the last as a
    /// direct `Slurm::submit` may make them — boosts, removals at the
    /// head, the middle and the tail, and re-estimates, on a machine of
    /// four nodes with requests up to six (so some are filed beside the
    /// need array), against a `BTreeSet`. Enough churn that the logs
    /// are swept, and a re-estimate never touches a scheduling order.
    #[test]
    fn the_logs_answer_as_a_reference_set_under_generated_ops() {
        for seed in 0..24u64 {
            let mut rng = seed;
            let mut q = Queue::default();
            let mut reference = BTreeSet::new();
            let mut gone: Vec<PendingKey> = Vec::new();
            let (mut clock, mut sweeps, mut early) = (0, 0, 0);
            for op in 0..500 {
                let r = next(&mut rng);
                let picked = match reference.len() {
                    0 => None,
                    len => reference.iter().nth((r >> 8) as usize % len).copied(),
                };
                let victim = match r % 10 {
                    0..=4 if reference.len() < 48 => {
                        clock += r >> 62;
                        let at = if r % 10 == 4 {
                            (r >> 8) % (clock + 1)
                        } else {
                            clock
                        };
                        early += u32::from(at < clock);
                        let need = 1 + (r >> 16) as u32 % 6;
                        let id = q.submit_needing(at, need, Span::from_secs((r >> 24) % 9));
                        reference.insert(PendingIndex::key(&q.jobs[id]));
                        None
                    }
                    5 => {
                        if let Some(key) = picked.filter(|k| !q.jobs[k.id].boosted) {
                            q.boost(key.id);
                            reference.remove(&key);
                            reference.insert(PendingIndex::key(&q.jobs[key.id]));
                            gone.push(key);
                        }
                        None
                    }
                    6 => reference.first().copied(),
                    7 => reference.last().copied(),
                    8 => picked,
                    _ => {
                        if let Some(key) = picked {
                            let n = q.jobs[key.id].requested_nodes;
                            let orders = |q: &Queue| {
                                let bucket = q.index.need_bucket(n).map(crate::need::tests::order);
                                format!("{:?} {bucket:?}", q.index.order)
                            };
                            let before = orders(&q);
                            let job = q.jobs.get_mut(key.id).unwrap();
                            let estimate = Span::from_secs(r >> 60);
                            let old = std::mem::replace(&mut job.expected_runtime, estimate);
                            q.index.reestimate(job, old);
                            assert_eq!(orders(&q), before, "seed {seed} op {op}");
                        }
                        None
                    }
                };
                if let Some(key) = victim {
                    let logged = q.index.order.log.len();
                    q.index.remove(&q.jobs[key.id]);
                    sweeps += u32::from(q.index.order.log.len() < logged);
                    reference.remove(&key);
                    gone.push(key);
                }
                if gone.len() > 8 {
                    gone.remove(0);
                }
                assert_answers(&q, &reference, &gone, &format!("seed {seed} op {op}"));
            }
            assert!(
                sweeps > 0 && early > 0,
                "seed {seed}: {sweeps} sweeps, {early} early"
            );
        }
    }

    #[test]
    fn the_check_rejects_a_broken_log() {
        // Six jobs, the fifth boosted, the third removed: a log of four
        // keys and two tombstones, one key in front. Each break trips
        // one rule.
        let check = |break_it: fn(&mut KeyLog)| {
            let (mut q, ids) = Queue::with(6);
            q.boost(ids[4]);
            q.index.remove(&q.jobs[ids[2]]);
            break_it(&mut q.index.order);
            let queued: Vec<JobId> = [0, 1, 3, 4, 5].map(|i| ids[i]).to_vec();
            let queued = queued.iter().map(|&id| &q.jobs[id]);
            q.index.check_layout(queued).err().unwrap_or_default()
        };
        assert_eq!(check(|_| {}), "", "the sound layout passes");
        let rejects = |break_it: fn(&mut KeyLog), rule: &str| {
            let err = check(break_it);
            assert!(err.contains(rule), "{rule}: {err:?}");
        };
        rejects(|l| l.log.swap(0, 1), "out of order");
        rejects(|l| l.dead = 0, "2 tombstones counted 0");
        rejects(|l| l.head = 3, "head 3");
        rejects(|l| (l.log[0].id, l.dead) = (KeyLog::TOMB, 3), "head 0");
        let unswept = |l: &mut KeyLog| {
            l.log[..2].iter_mut().for_each(|k| k.id = KeyLog::TOMB);
            (l.head, l.dead) = (3, 4);
        };
        rejects(unswept, "more tombstones than keys");
        let boosted_in_log = |l: &mut KeyLog| {
            l.log.insert(0, l.boosted[0]);
            l.head = 0;
        };
        rejects(boosted_in_log, "wrong side");
        rejects(|l| l.boosted.push(l.log[5]), "wrong side");
    }

    /// Running jobs that end at one instant are walked by size, then id:
    /// the order the reservation scan's stable sort gave them, and the
    /// order `Slurm::reservation_for` counts spare nodes in. A re-key
    /// by resize or estimate refresh moves a job to its new place.
    #[test]
    fn running_jobs_ending_together_are_walked_by_size_then_id() {
        let mut r = RunningIndex::default();
        let at = SimTime::from_secs;
        let [a, b, c, early, late] = [3, 1, 2, 9, 7].map(JobId);
        for (id, end, nodes) in [
            (a, 100, 2),
            (b, 100, 4),
            (c, 100, 2),
            (early, 50, 8),
            (late, 200, 1),
        ] {
            r.insert(id, at(end), nodes);
        }
        let walk = |r: &RunningIndex| {
            r.jobs()
                .zip(r.iter())
                .map(|((end, id), (_, n))| (end.as_secs_f64() as u64, n, id))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            walk(&r),
            [
                (50, 8, early),
                (100, 2, c),
                (100, 2, a),
                (100, 4, b),
                (200, 1, late)
            ]
        );
        assert!(r.set_nodes(b, 1));
        assert_eq!(
            walk(&r),
            [
                (50, 8, early),
                (100, 1, b),
                (100, 2, c),
                (100, 2, a),
                (200, 1, late)
            ]
        );
        r.set_end(late, at(100));
        assert_eq!(
            walk(&r),
            [
                (50, 8, early),
                (100, 1, b),
                (100, 1, late),
                (100, 2, c),
                (100, 2, a)
            ]
        );
        r.set_end(early, at(100));
        assert!(r.set_nodes(c, 3));
        assert_eq!(
            walk(&r),
            [
                (100, 1, b),
                (100, 1, late),
                (100, 2, a),
                (100, 3, c),
                (100, 8, early)
            ]
        );
        r.remove(late);
        assert!(
            !r.set_nodes(late, 5),
            "a job no longer running is not re-keyed"
        );
        assert_eq!((r.len(), r.keyed(), r.nodes_of(c)), (4, 4, Some(3)));
    }
}
