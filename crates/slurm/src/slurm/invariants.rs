//! [`Slurm::check_invariants`]: every index re-derived from a scan of
//! the job table and compared.

use dmr_cluster::{ClassConstraint, NodeId};
use dmr_sim::SimTime;

use crate::job::{Dependency, Job, JobId, JobState};
use crate::slotset::SlotSet;

use super::Slurm;

impl Slurm {
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
        // A resizer exists only to grow its running parent: the
        // parent's retirement cancels it, and so does a submission for
        // a parent that is not running.
        for &id in &pending {
            let Some(Dependency::ExpandOf(parent)) = self.jobs[id].dependency else {
                continue;
            };
            if !self.is_running(parent) {
                return Err(format!(
                    "pending resizer {id:?} outlived its parent {parent:?}"
                ));
            }
            if !self.resizer_index.registered(parent, id) {
                return Err(format!(
                    "pending resizer {id:?} is not registered under {parent:?}"
                ));
            }
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
            .check_layout(queued.filter(|j| !j.is_resizer()))?;
        // Failed-node accounting: a node that failed while allocated may
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
                if !self.is_running(owner) {
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
        // A pass's timeline base reads the cluster's tallies, so every
        // allocated node must belong to a running job.
        let held: u32 = scan.iter().map(|&(_, n)| n).sum();
        if held != self.cluster.allocated_nodes() {
            return Err(format!(
                "cluster allocated {} != running jobs' {held}",
                self.cluster.allocated_nodes()
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
            // per-class split of every running job's nodes, the cluster's
            // per-class tally must sum the map, and each class timeline
            // must equal its class's occupancy profile.
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
            if want_held != self.cluster.busy_by_class() {
                return Err(format!(
                    "cluster busy {:?} != running jobs' {want_held:?}",
                    self.cluster.busy_by_class()
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
    use crate::job::JobRequest;
    use crate::slurm::tests::{slurm, t};
    use crate::slurm::ExpandError;
    use dmr_sim::Span;

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
    fn a_pending_resizer_must_have_a_running_parent() {
        let mut s = slurm(8);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let ExpandError::Queued { resizer } = s.expand_protocol(a, 8, t(10)).unwrap_err() else {
            panic!("expected queued resizer");
        };
        s.check_invariants().unwrap();
        // Unregistered, the resizer would miss its parent's end.
        let group = s.resizer_index.take(a);
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("not registered"), "{err}");
        // And so it does: it stays pending under a completed parent.
        s.complete(a, t(20));
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("outlived its parent"), "{err}");
        assert_eq!(group.into_iter().collect::<Vec<_>>(), vec![resizer]);
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
}
