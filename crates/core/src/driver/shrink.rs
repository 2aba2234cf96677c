//! The ACK-style shrink workflow.
//!
//! Shrinking inverts the expansion order: the application first drains its
//! data off the leaving ranks (the redistribution is the "ACK" — only
//! after it completes is the smaller process set viable), then the
//! scheduler releases the nodes and immediately re-runs a scheduling
//! cycle so the queued job the shrink was decided for (boosted to maximum
//! priority by the scheduler mechanism whenever the installed
//! [`dmr_slurm::ResizePolicy`] names a beneficiary — Algorithm-1 line 18
//! in the default policy) can start on them. The drain begins like any
//! reconfiguration, in `reconfig` (a shrink is charged the redistribution
//! alone); the [`super::events::Ev::ReconfigDone`] of a smaller size ends
//! it here.

use dmr_sim::SimTime;
use dmr_slurm::JobId;

use super::Driver;

impl Driver<'_, '_> {
    /// The drain finished: release nodes, adopt the smaller process set,
    /// and let the freed nodes admit the shrink's beneficiary.
    pub(crate) fn finish_shrink(&mut self, job: JobId, to: u32, now: SimTime) {
        if self.slurm.shrink_protocol(job, to, now).is_ok() {
            let rs = self.running.get_mut(job).expect("running");
            rs.set_procs(to, &self.specs[job].1);
        }
        self.update_estimate(job, now);
        self.begin_segment(job, now);
        // Released nodes may admit the boosted beneficiary.
        self.request_schedule();
    }
}
