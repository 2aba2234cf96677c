//! The pending order: the [`PendingIndex`](crate::index::PendingIndex)
//! key order — boosted jobs first, then submission order — memoized
//! between the mutations that change it.

use std::cell::RefMut;
use std::sync::Arc;

use dmr_sim::SimTime;

use crate::job::{JobId, JobState};

use super::Slurm;

/// One memoized pending order (see [`Slurm::pending_queue`]).
pub(super) struct QueueCache {
    /// Pending ids in scheduling order. The order persists across
    /// mutations: entries may be *tombstones* — ids whose job has since
    /// started, been cancelled or been pruned. Readers filter them
    /// against the generation-checked arena, so the order survives
    /// starts/cancellations (a removal never reorders the survivors) and
    /// submissions append in O(1) (a fresh non-boosted job sorts
    /// strictly last under the index key).
    order: Arc<Vec<JobId>>,
    /// Number of tombstones currently in `order`.
    stale: usize,
    /// What [`Slurm::pending_queue`] returns — `order` without its
    /// tombstones and resizers — built on its first call.
    queue: Option<Arc<[JobId]>>,
}

impl Slurm {
    /// The first queued job, in scheduling order, that requests more than
    /// `free` nodes and at most `free + reach` — whom releasing up to
    /// `reach` nodes would admit — with its request. Answered by the
    /// need view of the pending index.
    pub(crate) fn first_queued_needing(&self, free: u32, reach: u32) -> Option<(JobId, u32)> {
        self.pending_index
            .first_needing(free, free.saturating_add(reach))
    }

    /// The smallest request above `free` nodes among the queued jobs —
    /// one seek of the need view.
    pub(crate) fn min_queued_need_above(&self, free: u32) -> Option<u32> {
        self.pending_index.min_need_above(free)
    }

    /// Drops the memoized pending order. Must be called by every mutation
    /// that can change the pending set or any priority input.
    pub(super) fn invalidate_queue_cache(&self) {
        *self.queue_cache.borrow_mut() = None;
    }

    /// A pending job left the pending set without changing the relative
    /// order of the rest (start / cancellation): its entry in the order
    /// becomes a tombstone.
    pub(super) fn queue_cache_tombstone(&mut self) {
        let mut cache = self.queue_cache.borrow_mut();
        if let Some(c) = cache.as_mut() {
            c.stale += 1;
            c.queue = None;
            // Compact (by rebuild on next use) once tombstones dominate,
            // keeping walks O(live + live) rather than O(history).
            if c.stale * 2 > c.order.len() {
                *cache = None;
            }
        }
    }

    /// Appends a just-submitted job to the persistent order (a fresh
    /// non-boosted submission sorts strictly after every retained
    /// entry).
    pub(super) fn queue_cache_append(&mut self, id: JobId) {
        if let Some(c) = self.queue_cache.get_mut() {
            Arc::make_mut(&mut c.order).push(id);
            c.queue = None;
        }
    }

    /// The memoized pending order, rebuilt from the index first if a
    /// mutation dropped it. It does not depend on the clock, so it
    /// survives across instants until then.
    fn cached_order(&self) -> RefMut<'_, QueueCache> {
        let mut cache = self.queue_cache.borrow_mut();
        if cache.is_none() {
            *cache = Some(QueueCache {
                order: Arc::new(self.pending_index.ids().collect()),
                stale: 0,
                queue: None,
            });
        }
        RefMut::map(cache, |c| c.as_mut().expect("filled above"))
    }

    /// The order a backfill pass walks: possibly tombstoned, so passes
    /// filter on the job's state instead of materialising a clean order.
    pub(super) fn pass_order(&self) -> Arc<Vec<JobId>> {
        Arc::clone(&self.cached_order().order)
    }

    /// Pending jobs in scheduling order — boosted jobs first, then by
    /// submit time and submission sequence — excluding resizer jobs
    /// (exposed for the reconfiguration policy). Returns a shared slice:
    /// repeated consultations between two mutations are allocation-free.
    /// The order does not depend on the clock: `_now` stays only for the
    /// callers that pass it.
    pub fn pending_queue(&self, _now: SimTime) -> Arc<[JobId]> {
        let mut c = self.cached_order();
        if let Some(queue) = &c.queue {
            return Arc::clone(queue);
        }
        let queue: Arc<[JobId]> = if c.stale == 0 && self.pending_index.pending_resizers() == 0 {
            c.order.iter().copied().collect()
        } else {
            let queued = |id: &JobId| {
                let job = self.jobs.get(*id);
                job.is_some_and(|j| j.state == JobState::Pending && !j.is_resizer())
            };
            c.order.iter().copied().filter(queued).collect()
        };
        c.queue = Some(Arc::clone(&queue));
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use crate::slurm::tests::{slurm, t};
    use crate::slurm::ExpandError;

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

    /// Slurm's `priority/multifactor` at the testbed's default weights
    /// (§VII-A) orders the queue by submission, boosted jobs first: a
    /// boosted job submitted later goes first, boosted jobs go among
    /// themselves by submit time (not by when they were boosted), and
    /// ages past a day change nothing — `old` has waited 48 h and
    /// `young` 25 h when the order is read and the pass runs.
    #[test]
    fn boosted_jobs_go_first_and_each_group_keeps_submission_order() {
        let hours = |h: u64| t(h * 3600);
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), hours(0));
        s.schedule(hours(0));
        let old = s.submit(JobRequest::rigid("old", 2), hours(1));
        let early = s.submit(JobRequest::rigid("early", 2), hours(10));
        let young = s.submit(JobRequest::rigid("young", 2), hours(24));
        let late = s.submit(JobRequest::rigid("late", 2), hours(30));
        s.boost(late);
        s.boost(early);
        let order = [early, late, old, young];
        assert_eq!(s.pending_queue(hours(49)).to_vec(), order);
        s.complete(hog, hours(49));
        let started: Vec<JobId> = s.schedule(hours(49)).iter().map(|j| j.id).collect();
        assert_eq!(started, order[..2]);
        assert_eq!(s.pending_queue(hours(49)).to_vec(), order[2..]);
    }

    #[test]
    fn index_served_order_is_shared_across_instants() {
        let mut s = slurm(2);
        s.submit(JobRequest::rigid("hog", 2), t(0));
        s.schedule(t(0));
        s.submit(JobRequest::rigid("a", 1), t(1));
        s.submit(JobRequest::rigid("b", 1), t(2));
        // No mutation between consults at different instants: the order
        // does not depend on the clock, so the cache entry is reused
        // without recomputation or allocation.
        let q5 = s.pending_queue(t(5));
        let q9 = s.pending_queue(t(9));
        assert!(Arc::ptr_eq(&q5, &q9));
    }
}
