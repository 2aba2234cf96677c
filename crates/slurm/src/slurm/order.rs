//! The pending order: the [`PendingIndex`](crate::index::PendingIndex)
//! key order — boosted jobs first, then submission order. The index is
//! the only copy of it: every pass walks it through the resumable cursor
//! [`PendingIndex::step`](crate::index::PendingIndex::step).

use dmr_sim::SimTime;

use crate::job::JobId;

use super::Slurm;

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
    /// a bit scan of the need view.
    pub(crate) fn min_queued_need_above(&self, free: u32) -> Option<u32> {
        self.pending_index.min_need_above(free)
    }

    /// Pending jobs in scheduling order — boosted jobs first, then by
    /// submit time and submission sequence — excluding resizer jobs
    /// (exposed for the reconfiguration policy). Collected from the
    /// pending index on every call: O(pending) and one allocation.
    /// The order does not depend on the clock: `_now` stays only for the
    /// callers that pass it.
    pub fn pending_queue(&self, _now: SimTime) -> Vec<JobId> {
        let queued = |id: &JobId| !self.jobs[*id].is_resizer();
        self.pending_index.ids().filter(queued).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRequest, JobState};
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
    fn pending_order_tracks_mutations_within_one_instant() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let a = s.submit(JobRequest::rigid("a", 2), t(1));
        let b = s.submit(JobRequest::rigid("b", 2), t(2));
        // Two same-instant reads agree.
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        assert_eq!(s.pending_queue(t(5)).to_vec(), vec![a, b]);
        // A boost at the same instant reorders at once.
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

    /// A direct [`Slurm::submit`] may name an instant before the last
    /// submission's (the driver never does): the job still takes its
    /// place by submit time, and a job submitted at an instant already
    /// queued goes behind the jobs submitted then.
    #[test]
    fn an_earlier_submission_takes_its_place_in_the_order() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let a = s.submit(JobRequest::rigid("a", 2), t(10));
        let b = s.submit(JobRequest::rigid("b", 2), t(20));
        let early = s.submit(JobRequest::rigid("early", 2), t(5));
        let tie = s.submit(JobRequest::rigid("tie", 2), t(10));
        assert_eq!(s.pending_queue(t(20)).to_vec(), [early, a, tie, b]);
        assert_eq!(s.first_queued_needing(0, 4), Some((early, 2)));
        s.check_invariants().unwrap();
        s.complete(hog, t(30));
        let started: Vec<JobId> = s.schedule(t(30)).iter().map(|j| j.id).collect();
        assert_eq!(started, [early, a]);
        assert_eq!(s.pending_queue(t(30)).to_vec(), [tie, b]);
        s.check_invariants().unwrap();
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
    fn consult_at_the_envelope_floor_shrinks_for_nobody() {
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
        // q blocked: needs 6, 4 free. `a` sits at its floor, so it can
        // help nobody.
        s.schedule(t(1));
        assert_eq!(s.decide_resize(a, t(2)), ResizeAction::NoAction);
        assert_eq!(s.decide_resize(b, t(2)), ResizeAction::Expand { to: 8 });
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

    /// Requests wider than the machine reach the need view only through
    /// a direct [`Slurm::submit`] (the driver clamps them on arrival).
    /// They keep their place in every need-view answer (that they do not
    /// size the view is pinned in `need.rs`).
    #[test]
    fn requests_wider_than_the_machine_keep_their_need_view_answers() {
        use crate::job::ResizeEnvelope;
        use dmr_sim::Span;
        let est = |req: JobRequest, secs| req.with_expected_runtime(Span::from_secs(secs));
        let env = ResizeEnvelope {
            min: 1,
            max: 20,
            preferred: None,
            factor: 2,
        };
        let mut s = slurm(20);
        let run = s.submit(est(JobRequest::flexible("run", 6, env), 100), t(0));
        let _short = s.submit(est(JobRequest::rigid("short", 8), 30), t(0));
        assert_eq!(s.schedule(t(0)).len(), 2);
        let huge = s.submit(est(JobRequest::rigid("huge", u32::MAX), 50), t(1));
        let wide = s.submit(est(JobRequest::rigid("wide", 21), 50), t(2));
        let q12 = s.submit(est(JobRequest::rigid("q12", 12), 50), t(3));
        assert!(s.schedule(t(4)).is_empty());
        s.check_invariants().unwrap();
        let max = u32::MAX;
        let above = [6, 12, 21, max].map(|free| s.min_queued_need_above(free));
        assert_eq!(above, [Some(12), Some(21), Some(max), None]);
        let first = [
            (6, 6),
            (6, 15),
            (6, max),
            (12, 9),
            (21, max - 22),
            (max - 1, 5),
        ];
        let first = first.map(|(free, reach)| s.first_queued_needing(free, reach));
        let want = [
            Some((q12, 12)),
            Some((wide, 21)),
            Some((huge, max)),
            Some((wide, 21)),
            None,
            Some((huge, max)),
        ];
        assert_eq!(first, want);
        // A head that can never start reserves nothing to steal.
        let steals = |s: &Slurm| [8, 10].map(|to| s.grow_steals_backfill_hole(run, to, t(5)));
        assert_eq!(steals(&s), [false, false]);
        s.cancel(huge, t(5));
        assert_eq!(s.min_queued_need_above(12), Some(21));
        assert_eq!(s.first_queued_needing(6, max), Some((wide, 21)));
        assert_eq!(steals(&s), [false, false]);
        s.cancel(wide, t(5));
        assert_eq!(s.min_queued_need_above(12), None);
        assert_eq!(s.first_queued_needing(6, max), Some((q12, 12)));
        // q12 starts when `short` ends at 30 s with 2 nodes to spare.
        assert_eq!(steals(&s), [false, true]);
        s.check_invariants().unwrap();
    }
}
