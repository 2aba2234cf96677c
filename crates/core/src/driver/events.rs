//! The event vocabulary and central dispatch.
//!
//! Everything that happens in an experiment is one of the [`Ev`]
//! variants; [`Driver::handle`] fans each out to the submodule that owns
//! the corresponding phase of the job lifecycle.

use dmr_cluster::NodeId;
use dmr_sim::SimTime;
use dmr_slurm::JobId;

use super::Driver;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// The job pulled last from the source ([`Driver::next_arrival`])
    /// reaches the system. Claimable, like [`Ev::BackfillTick`]: it is
    /// handled while still queued ([`Driver::on_due`]) and re-keyed to the
    /// next job's arrival, so the one arrival in flight is one queue entry
    /// for the whole run. A handler of either sees its own event in the
    /// engine's pending count: the tick's stop rule counts the queued tick.
    Arrival,
    /// A running job finished a compute segment of `steps` iterations.
    /// After a check that changed nothing the segment is scheduled
    /// *relayed* behind the check pause (see
    /// [`Driver::pause_then_continue`]): the pause end has no event.
    SegmentDone { job: JobId, steps: u32 },
    /// An expansion's spawn + redistribution or a shrink's drain
    /// finished; adopt the new size `to` and resume compute. The job's
    /// size does not change while the reconfiguration is in flight, so
    /// `to` above it is a growth and `to` below it a shrink.
    ReconfigDone { job: JobId, to: u32 },
    /// The resizer job `job` awaits ([`super::Phase::Awaiting`]) was
    /// queued too long (§V-B1): abort the expansion.
    RjTimeout { job: JobId },
    /// Periodic EASY-backfill pass (Slurm's `bf_interval`). Claimable:
    /// it is handled while still queued ([`Driver::on_due`]) and re-keyed
    /// one interval on, so its stop rule
    /// ([`Driver::on_backfill_tick`]) counts the queued tick itself among
    /// the engine's pending events.
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
    /// Dispatches an event that fired: it has left the engine.
    pub(crate) fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::SegmentDone { job, steps } => self.on_segment_done(job, steps, now),
            Ev::ReconfigDone { job, to } => self.on_reconfig_done(job, to, now),
            Ev::RjTimeout { job } => self.on_rj_timeout(job, now),
            Ev::Arrival | Ev::BackfillTick => unreachable!("{ev:?} is claimable: see on_due"),
            Ev::NodeWake => self.on_node_wake(),
            Ev::NodeFail { node } => self.on_node_fail(node, now),
            Ev::NodeRepair { node } => self.on_node_repair(node, now),
            Ev::ResizeRetry { job, to } => self.on_resize_retry(job, to, now),
        }
    }

    /// Dispatches a claimable event that fell due ([`dmr_sim::Step::Due`])
    /// while it is still at the head of the queue. Each handler settles
    /// it: re-keys it in place where it would schedule the same event
    /// again, takes it ([`dmr_sim::Engine::fire_due`]) otherwise.
    pub(crate) fn on_due(&mut self, now: SimTime) {
        match *self.engine.due_event() {
            Ev::SegmentDone { job, steps } => self.on_due_segment(job, steps, now),
            Ev::BackfillTick => self.on_backfill_tick(now),
            Ev::Arrival => self.on_arrival(now),
            ref ev => unreachable!("{ev:?} is never marked claimable"),
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
    /// itself — the due tick re-keyed in place one interval on — while
    /// there is still work in the system, and is taken from the engine
    /// otherwise.
    ///
    /// A pending queue alone does not justify re-arming: if nothing is
    /// running, no arrival is in flight, and no other event is pending
    /// (no repair, wake, or resize retry), the feasible set can never
    /// change again — the pass that just ran started everything that can
    /// ever start. Ticking on would spin virtual time forever; this
    /// arises under fault scripts that down nodes without repairing
    /// them, leaving a requeued job larger than the surviving cluster.
    /// The tick is still queued while this runs, so "another event" is
    /// a pending count above one.
    pub(crate) fn on_backfill_tick(&mut self, now: SimTime) {
        let starts = self.slurm.backfill_pass(now);
        self.wire_starts(starts, now);
        self.maybe_power_down(now);
        let work_left = self.next_arrival.is_some()
            || self.slurm.pending_count() > 0
            || !self.running.is_empty();
        let progress_possible =
            self.next_arrival.is_some() || !self.running.is_empty() || self.engine.pending() > 1;
        if work_left && progress_possible {
            self.engine.claim_at(now + self.backfill_interval);
        } else {
            self.engine.fire_due();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::RunState;
    use super::Ev;

    /// Every event names its job and at most one 32-bit argument: the
    /// engine's queue entries stay small.
    #[test]
    fn an_event_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    /// Every started incarnation holds one, its protocol phase
    /// included: a running job's driver state stays small.
    #[test]
    fn a_run_state_is_at_most_160_bytes() {
        assert!(std::mem::size_of::<RunState>() <= 160);
    }
}
