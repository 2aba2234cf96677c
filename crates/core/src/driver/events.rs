//! The event vocabulary and central dispatch.
//!
//! Everything that happens in an experiment is one of the [`Ev`]
//! variants; [`Driver::handle`] fans each out to the submodule that owns
//! the corresponding phase of the job lifecycle.

use dmr_cluster::NodeId;
use dmr_sim::{SimTime, Span};
use dmr_slurm::JobId;

use super::Driver;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Workload job `index` reaches the system.
    Arrival(usize),
    /// A running job finished a compute segment of `steps` iterations.
    /// After a check that changed nothing the segment is scheduled
    /// *relayed* behind the check pause (see
    /// [`Driver::pause_then_continue`]): the pause end has no event.
    SegmentDone { job: JobId, steps: u32 },
    /// An expansion's spawn + redistribution or a shrink's drain
    /// finished; adopt the new size and resume compute.
    ReconfigDone { job: JobId },
    /// A queued resizer job waited too long (§V-B1): abort the expansion.
    RjTimeout { rj: JobId },
    /// Periodic EASY-backfill pass (Slurm's `bf_interval`).
    BackfillTick,
    /// Powered-down (S5) nodes finish waking: capacity returns. Scheduled
    /// one wake-up latency after demand arrived while nodes were off.
    NodeWake,
    /// An injected fault takes `node` down (faultload; see
    /// [`dmr_cluster::FaultSource`]). A running owner is killed and
    /// requeued.
    NodeFail { node: NodeId },
    /// An injected repair brings `node` back; it may accept work again.
    NodeRepair { node: NodeId },
    /// Backoff expired after an injected resize-negotiation failure:
    /// mark `job` eligible to retry expanding to `to` at its next
    /// reconfiguring point.
    ResizeRetry { job: JobId, to: u32 },
}

impl Driver<'_, '_> {
    pub(crate) fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival(i) => self.on_arrival(i, now),
            Ev::SegmentDone { job, steps } => self.on_segment_done(job, steps, now),
            Ev::ReconfigDone { job } => self.on_reconfig_done(job, now),
            Ev::RjTimeout { rj } => self.on_rj_timeout(rj, now),
            Ev::BackfillTick => self.on_backfill_tick(now),
            Ev::NodeWake => self.on_node_wake(),
            Ev::NodeFail { node } => self.on_node_fail(node, now),
            Ev::NodeRepair { node } => self.on_node_repair(node, now),
            Ev::ResizeRetry { job, to } => self.on_resize_retry(job, to, now),
        }
    }

    /// Wakes every suspended node and reschedules — the capacity that
    /// left at power-down is placeable again.
    pub(crate) fn on_node_wake(&mut self) {
        self.wake_pending = false;
        if self.slurm.wake_all() > 0 {
            self.request_schedule();
        }
    }

    /// Asks the installed resize policy whether idle nodes should be
    /// suspended (S5) and applies the verdict. Runs after scheduling
    /// passes; the default policy verdict is 0, so non-energy policies
    /// leave runs bit-identical. While a wake is already in flight the
    /// system is in demand — don't suspend what is about to be needed.
    pub(crate) fn maybe_power_down(&mut self, now: SimTime) {
        if self.wake_pending {
            return;
        }
        let n = self.slurm.decide_power_down(now);
        if n > 0 {
            self.slurm.power_down_idle(n);
        }
    }

    /// The periodic backfill thread: runs a full EASY pass, then re-arms
    /// itself while there is still work in the system.
    ///
    /// A pending queue alone does not justify re-arming: if nothing is
    /// running, no arrival is in flight, and no other event is pending
    /// (no repair, wake, or resize retry), the feasible set can never
    /// change again — the pass that just ran started everything that can
    /// ever start. Ticking on would spin virtual time forever; this
    /// arises under fault scripts that down nodes without repairing
    /// them, leaving a requeued job larger than the surviving cluster.
    pub(crate) fn on_backfill_tick(&mut self, now: SimTime) {
        let starts = self.slurm.backfill_pass(now);
        self.wire_starts(starts, now);
        self.maybe_power_down(now);
        let work_left =
            self.arrivals_pending || self.slurm.pending_count() > 0 || !self.running.is_empty();
        let progress_possible =
            self.arrivals_pending || !self.running.is_empty() || self.engine.pending() > 0;
        if work_left && progress_possible {
            self.engine.schedule_in(
                Span::from_secs_f64(self.cfg.backfill_interval_s),
                Ev::BackfillTick,
            );
        }
    }
}
