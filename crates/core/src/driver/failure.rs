//! Fault handling: node failures, kill-and-requeue recovery, and the
//! injected resize-failure retry schedule.
//!
//! The driver pulls one event at a time from its
//! [`dmr_cluster::FaultSource`] (the same one-in-flight discipline as
//! arrivals) and maps it onto [`dmr_slurm::Slurm::fail_node`] /
//! [`dmr_slurm::Slurm::repair_node`]. A failure that lands on a node
//! owned by a running job kills the incarnation: the in-flight event its
//! phase names is cancelled (a dead incarnation must never fire a stale
//! completion), so is the timeout of a resizer it awaits, as at
//! completion ([`Driver::drop_resizer`]; the resizer dies with the job's
//! retirement), and the job is resubmitted with a boost
//! ([`dmr_slurm::Slurm::requeue_failed`]). The resubmission has a new id:
//! the job's entry in [`Driver::specs`] moves to it, keeping the arrival
//! sequence number the sink reports the job under, and its recovery
//! bookkeeping is filed under it in [`Driver::requeued`].
//!
//! Recovery follows the configured policy: with
//! [`crate::ExperimentConfig::ckpt_interval_s`] set, the restart resumes
//! from the last periodic checkpoint image (the step count it covered);
//! otherwise from scratch. Either way the time since the last image is
//! charged as lost work — the quantity behind the summary's
//! `goodput_ratio`. The same scratch-vs-periodic arithmetic is exercised
//! against the real image store by `dmr_checkpoint::recovery`, which
//! re-runs actual rank state through save/restore; the driver only needs
//! the step/time bookkeeping.

use dmr_cluster::{FailOutcome, FaultEvent, FaultSource, NodeId};
use dmr_sim::{SimTime, Span};
use dmr_slurm::JobId;

use super::events::Ev;
use super::{Driver, Phase, RequeueInfo};

/// Injected resize-negotiation failures are retried at most this many
/// times per target before the job settles at its current size.
pub(crate) const MAX_RESIZE_RETRIES: u32 = 4;
/// First retry delay; successive retries double it (5, 10, 20, 40 s).
pub(crate) const RESIZE_RETRY_BASE_S: f64 = 5.0;

impl Driver<'_, '_> {
    /// Whether any fault source is installed — a seeded load or a
    /// scripted trace (even one that has run dry: its failures may
    /// already have landed). The zero-fault path must do zero
    /// observable work, so recovery-only machinery (e.g. cutting rigid
    /// segments at checkpoint boundaries) gates on this.
    pub(crate) fn faults_armed(&self) -> bool {
        !matches!(self.faults, FaultSource::None)
    }

    /// Pulls the next faultload event and schedules it, keeping exactly
    /// one in flight. Pulling stops once the workload has drained
    /// (mirroring the backfill-tick re-arm condition), so the event queue
    /// empties and the run terminates; at most one trailing fault event
    /// can land after the last completion.
    pub(crate) fn schedule_next_fault(&mut self, now: SimTime) {
        if self.fault_pending {
            return;
        }
        let live = self.next_arrival.is_some()
            || self.slurm.pending_count() > 0
            || !self.running.is_empty();
        if !live {
            return;
        }
        let Some(event) = self.faults.next_event() else {
            return;
        };
        // Sources emit nondecreasing instants; clamp defensively so the
        // engine is never asked to schedule in the past.
        let at = event.at().max(now);
        let ev = match event {
            FaultEvent::Fail { node, .. } => Ev::NodeFail { node },
            FaultEvent::Repair { node, .. } => Ev::NodeRepair { node },
        };
        self.engine.schedule_at(at, ev);
        self.fault_pending = true;
    }

    /// An injected failure lands: take the node down and, if it was
    /// computing for someone, kill and requeue the owner.
    pub(crate) fn on_node_fail(&mut self, node: NodeId, now: SimTime) {
        self.fault_pending = false;
        match self.slurm.fail_node(node) {
            // Already down / powered off: a counted no-op at the cluster
            // layer (victims are drawn state-blind to keep the stream
            // deterministic), invisible here.
            FailOutcome::Skipped => {}
            FailOutcome::Idle => self.failures += 1,
            FailOutcome::Busy(owner) => {
                self.failures += 1;
                self.kill_and_requeue(JobId(owner), now);
            }
        }
        self.schedule_next_fault(now);
    }

    /// An injected repair lands: the node may accept work again, so give
    /// the scheduler a chance to place on it.
    pub(crate) fn on_node_repair(&mut self, node: NodeId, now: SimTime) {
        self.fault_pending = false;
        if self.slurm.repair_node(node) {
            self.request_schedule();
        }
        self.schedule_next_fault(now);
    }

    /// Kills the running job that just lost a node and resubmits it with
    /// a boost, carrying recovery bookkeeping to the new incarnation.
    fn kill_and_requeue(&mut self, victim: JobId, now: SimTime) {
        let Some(rs) = self.running.remove(victim) else {
            // The owner is not a driver-tracked computation (e.g. a
            // resizer allocation parked mid-protocol); its own lifecycle
            // reclaims the nodes.
            return;
        };
        // Stale-event hygiene: the dead incarnation's pending completion
        // (or reconfiguration) must never fire, and neither must the
        // timeout of a resizer it will no longer consume.
        if let Some(ev) = rs.phase.event() {
            self.engine.cancel(ev);
        }
        self.drop_resizer(rs.phase);
        // Recovery policy: resume from the last periodic image, or from
        // scratch when checkpointing is off. Work since the image is lost.
        let (resume_steps, image_at) = if self.cfg.ckpt_interval_s.is_some() {
            (rs.ckpt_steps, rs.last_ckpt_at)
        } else {
            (0, rs.started_at)
        };
        self.lost_work += now.since(image_at);
        // Accounting spans incarnations: keep the first submission and
        // accumulate reconfigurations across every death.
        let (orig_submit, prior_reconfigs) = {
            let rec = self.slurm.job(victim).expect("failed owner has a record");
            match self.requeued.remove(victim) {
                Some(info) => (
                    info.orig_submit,
                    info.prior_reconfigs + rec.reconfigurations,
                ),
                None => (rec.submit_time, rec.reconfigurations),
            }
        };
        let Some(new) = self.slurm.requeue_failed(victim, now) else {
            // Unreachable while the running map mirrors scheduler state;
            // drop our tracking rather than leak the spec.
            debug_assert!(false, "requeue of a tracked running job failed");
            self.specs.remove(victim);
            return;
        };
        self.requeues += 1;
        let spec = self.specs.remove(victim).expect("victim had a spec");
        self.specs.insert(new, spec);
        self.requeued.insert(
            new,
            RequeueInfo {
                orig_submit,
                failed_at: now,
                resume_steps,
                prior_reconfigs,
            },
        );
        // The failure freed the victim's surviving nodes; let the
        // scheduler reuse them (possibly for the requeued job itself).
        self.request_schedule();
    }

    /// A job leaves the running set in `phase` (it completed or was
    /// killed): the timeout of the resizer it awaits, if any, is
    /// cancelled. The resizer itself dies with the job's retirement in
    /// the scheduler ([`dmr_slurm::Slurm::complete`] and
    /// [`dmr_slurm::Slurm::cancel`] cancel a retiring job's queued
    /// resizers).
    pub(crate) fn drop_resizer(&mut self, phase: Phase) {
        if let Phase::Awaiting { timeout, .. } = phase {
            self.engine.cancel(timeout);
        }
    }

    /// Rolls the injected-failure dice for one resize negotiation.
    /// Returns `true` when the negotiation is killed by injection — the
    /// caller degrades gracefully (the job continues at its old size)
    /// and a backoff retry is scheduled. Never draws under the
    /// zero-fault load (there is no RNG to draw from).
    pub(crate) fn inject_resize_failure(&mut self, job: JobId, to: u32, now: SimTime) -> bool {
        let Some(rng) = self.proto_rng.as_mut() else {
            return false;
        };
        if rand::RngExt::random::<f64>(rng) >= self.resize_fail_p {
            return false;
        }
        self.resize_faults += 1;
        self.schedule_resize_retry(job, to, now);
        true
    }

    /// Schedules the next bounded-exponential-backoff retry for `job`'s
    /// expansion towards `to`, if attempts remain.
    fn schedule_resize_retry(&mut self, job: JobId, to: u32, now: SimTime) {
        let rs = self.running.get_mut(job).expect("running");
        if rs.retry_attempt >= MAX_RESIZE_RETRIES {
            // Budget exhausted: settle at the current size; the policy
            // may still propose fresh expansions later.
            rs.retry_attempt = 0;
            return;
        }
        rs.retry_attempt += 1;
        let delay_s = RESIZE_RETRY_BASE_S * f64::from(1u32 << (rs.retry_attempt - 1));
        self.engine.schedule_at(
            now + Span::from_secs_f64(delay_s),
            Ev::ResizeRetry { job, to },
        );
        self.resize_retries += 1;
    }

    /// Backoff expired: mark the job eligible to retry at its next
    /// reconfiguring point (resizes only ever apply at step boundaries),
    /// whatever its phase.
    /// Stale events — the incarnation died or already reached the target
    /// — fall through the generation-checked lookup and do nothing.
    pub(crate) fn on_resize_retry(&mut self, job: JobId, to: u32, _now: SimTime) {
        let Some(rs) = self.running.get_mut(job) else {
            return;
        };
        if rs.procs >= to {
            rs.retry_attempt = 0;
            return;
        }
        rs.retry_expand = Some(to);
    }
}
