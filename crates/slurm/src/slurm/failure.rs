//! Node failures, repairs and power states, and kill-and-requeue.

use dmr_cluster::{FailOutcome, NodeId};
use dmr_sim::SimTime;

use crate::job::{JobId, JobRequest, JobState};

use super::Slurm;

impl Slurm {
    /// Powers down up to `n` free nodes (S5 suspend) through the cluster
    /// (see [`Cluster::power_down`](dmr_cluster::Cluster::power_down)),
    /// returning how many were actually suspended. Free capacity shrank,
    /// so every cross-pass memo is invalidated — the catch-all rule, as
    /// for any capacity mutation the elision proofs don't cover.
    pub fn power_down_idle(&mut self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        let off = self.cluster.power_down(n);
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
    /// [`Cluster::fail_node`](dmr_cluster::Cluster::fail_node)). Any
    /// non-skipped failure is a capacity mutation no elision proof covers
    /// — an elided pass must never mask a failure — so every cross-pass
    /// memo drops, exactly as for [`Slurm::power_down_idle`]. The caller inspects the outcome: a
    /// [`FailOutcome::Busy`] victim owner needs [`Slurm::requeue_failed`].
    pub fn fail_node(&mut self, node: NodeId) -> FailOutcome {
        let outcome = self.cluster.fail_node(node);
        if outcome != FailOutcome::Skipped {
            self.incr_clear();
        }
        outcome
    }

    /// A failed node comes back up (see
    /// [`Cluster::repair_node`](dmr_cluster::Cluster::repair_node)),
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
    /// cancelled — its nodes release as any job's do, and the failed
    /// node returns to the unavailable pool, not the free one — and an
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
            expected_runtime: Some(job.expected_runtime),
            dependency: None,
            resize: job.resize,
            constraint: job.constraint,
        };
        // The kill shares the cancellation path: stale completion events
        // are cancelled by the caller, the victim's queued resizers are
        // cancelled with it, and the incremental memos invalidate.
        self.cancel(id, now);
        let new = self.submit(req, now);
        self.boost(new);
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slurm::tests::{slurm, t};
    use crate::slurm::ExpandError;

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
}
