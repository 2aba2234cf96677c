//! The ACK-style shrink workflow.
//!
//! Shrinking inverts the expansion order: the application first drains its
//! data off the leaving ranks (the redistribution is the "ACK" — only
//! after it completes is the smaller process set viable), then the
//! scheduler releases the nodes and immediately re-runs a scheduling
//! cycle so the queued job the shrink was decided for (boosted to maximum
//! priority by the scheduler mechanism whenever the installed
//! [`dmr_slurm::ResizePolicy`] names a beneficiary — Algorithm-1 line 18
//! in the default policy) can start on them.

use dmr_sim::{SimTime, Span};
use dmr_slurm::JobId;

use super::events::Ev;
use super::Driver;

impl Driver<'_, '_> {
    /// Schedules the drain: charge the redistribution now, release nodes
    /// when it completes ([`Driver::finish_shrink`]).
    pub(crate) fn schedule_shrink(&mut self, job: JobId, to: u32, now: SimTime, pause: Span) {
        let (idx, procs) = {
            let rs = &self.running[job];
            (rs.spec_idx, rs.procs)
        };
        let data = self.jobs[idx].spec.data_bytes;
        let cost = self.cfg.network.redistribution_time(data, procs, to);
        let ev = self
            .engine
            .schedule_at(now + pause + cost, Ev::ReconfigDone { job });
        let rs = self.running.get_mut(job).expect("running");
        rs.pending_shrink = Some(to);
        rs.inflight = Some(ev);
    }

    /// The drain finished: release nodes, adopt the smaller process set,
    /// and let the freed nodes admit the shrink's beneficiary.
    pub(crate) fn finish_shrink(&mut self, job: JobId, to: u32, now: SimTime) {
        if self.slurm.shrink_protocol(job, to, now).is_ok() {
            let rs = self.running.get_mut(job).expect("running");
            rs.set_procs(to, &self.jobs[rs.spec_idx]);
        }
        self.update_estimate(job, now);
        self.begin_segment(job, now);
        // Released nodes may admit the boosted beneficiary.
        self.request_schedule(now);
    }
}
