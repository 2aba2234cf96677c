//! The §III malleability protocol: expansion through a resizer job,
//! shrinking through a node-releasing update.

use dmr_cluster::ClassConstraint;
use dmr_sim::{SimTime, Span};

use crate::job::{Dependency, Job, JobId, JobName, JobRequest, JobState};

use super::{ExpandError, Slurm};

impl Slurm {
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
    /// ([`Cluster::allocate_in`](dmr_cluster::Cluster::allocate_in)
    /// accumulates grants in ascending order), so B is never materialised.
    /// What B's passage does leave is reproduced: one submission sequence
    /// number and one job id are consumed (later submissions must draw the
    /// ids and tie-break ranks they always drew), the cancelled record is
    /// written when records are retained, and every memo the steps
    /// dropped is dropped.
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
            let req = resizer_request(id, delta, constraint);
            self.jobs.insert_with(|rj| Job {
                state: JobState::Cancelled,
                requested_nodes: 0,
                boosted: true,
                start_time: Some(now),
                end_time: Some(now),
                ..Job::submitted(rj, seq, req, now)
            });
        } else {
            self.jobs.retire_next_id();
        }
        self.cluster
            .allocate_in(delta, id.owner_tag(), constraint)
            .expect("caller verified free nodes");
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
}

/// The submission of the resizer job that expands `original` by `delta`
/// nodes (protocol step 1). Built only where a record is kept: an
/// expansion granted on the spot without retention never names it.
fn resizer_request(original: JobId, delta: u32, constraint: ClassConstraint) -> JobRequest {
    JobRequest {
        name: JobName::Indexed("resizer-of", original.0),
        nodes: delta,
        expected_runtime: Some(Span::ZERO),
        dependency: Some(Dependency::ExpandOf(original)),
        resize: None,
        constraint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slurm::tests::{slurm, t};
    use dmr_cluster::NodeId;

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
        type End = fn(&mut Slurm, JobId, SimTime);
        let ends: [(&str, End); 3] = [
            ("complete", |s, a, at| s.complete(a, at)),
            ("cancel", |s, a, at| s.cancel(a, at)),
            ("requeue", |s, a, at| {
                s.requeue_failed(a, at).expect("a running job");
            }),
        ];
        for (how, end) in ends {
            let mut s = slurm(8);
            let a = s.submit(JobRequest::rigid("a", 4), t(0));
            let _b = s.submit(JobRequest::rigid("b", 4), t(0));
            s.schedule(t(0));
            let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err()
            else {
                panic!()
            };
            end(&mut s, a, t(15));
            // Cancelled at the parent's end, before any pass runs.
            let rj = s.job(resizer).unwrap();
            assert_eq!(
                (rj.state, rj.end_time),
                (JobState::Cancelled, Some(t(15))),
                "{how}"
            );
            s.check_invariants().unwrap();
            let started = s.schedule(t(15));
            assert!(started.iter().all(|j| j.id != resizer), "{how}");
        }
    }

    #[test]
    fn a_resizer_for_a_job_that_is_not_running_is_cancelled_at_submission() {
        let mut s = slurm(4);
        let done = s.submit(JobRequest::rigid("done", 4), t(0));
        s.schedule(t(0));
        s.complete(done, t(5));
        let waiting = s.submit(JobRequest::rigid("waiting", 8), t(5));
        for parent in [waiting, done] {
            let rj = s.submit(resizer_request(parent, 2, ClassConstraint::Any), t(6));
            let job = s.job(rj).unwrap();
            assert_eq!((job.state, job.end_time), (JobState::Cancelled, Some(t(6))));
            assert_eq!(s.pending_count(), 1, "only `waiting` is pending");
            s.check_invariants().unwrap();
        }
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
}
