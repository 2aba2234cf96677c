//! Metric hooks: per-event sampling and per-completion accounting.
//!
//! After every processed event — a relayed check-pause end and a held
//! check point included — the driver samples the three evolution quantities behind the paper's
//! timeline figures (allocated nodes, running jobs, completed jobs —
//! Figures 4, 5, 6, 12) into the installed [`dmr_metrics::MetricsSink`];
//! as each job completes, its accounting is copied out of the scheduler
//! record and folded into the sink *before* the record is pruned. The
//! driver itself therefore retains no per-job or per-event telemetry —
//! what a run keeps is the sink's: the run's own streaming accumulator,
//! plus whatever an attached observer buffers.

use dmr_metrics::JobOutcome;
use dmr_sim::SimTime;
use dmr_slurm::JobId;

use super::Driver;
use crate::result::RunStats;

impl Driver<'_, '_> {
    /// Records one sample of every evolution series at `now`, and charges
    /// the power meter for the interval just ended — at the per-class
    /// counts that were in force *during* it (cached at the previous
    /// charge; this runs after the event's state change, so the current
    /// cluster counts describe the next interval, not this one).
    ///
    /// The sink is sampled after every processed event. The meter is
    /// charged only when the counts it is charged at may be about to
    /// change — when the cluster's [`dmr_cluster::Cluster::tally_changes`]
    /// counter has moved since the last charge: most events of a
    /// malleable run move neither (a step boundary whose check says "no
    /// action", a relayed pause end). The counter can move while the
    /// counts come back to what they were; that charge is one more cut of
    /// an interval at constant counts, and the meter integrates exact
    /// integer watt-µs, so however an interval is cut its charge is the
    /// same. The first event opens the window.
    pub(crate) fn sample(&mut self, now: SimTime) {
        let cluster = self.slurm.cluster();
        if !self.power.started() || cluster.tally_changes() != self.metered_changes {
            self.power.sample(now, &self.prev_busy, &self.prev_off);
            self.prev_busy.copy_from_slice(cluster.busy_by_class());
            for (prev, off) in self.prev_off.iter_mut().zip(cluster.off_counts()) {
                *prev = off;
            }
            self.metered_changes = cluster.tally_changes();
        }
        self.sink.on_sample(
            now,
            cluster.allocated_nodes() as f64,
            self.running.len() as f64,
            self.completed as f64,
        );
    }

    /// Copies the completing job's accounting into the sink and releases
    /// every per-job record the driver and scheduler still hold for it.
    /// Must run *before* [`dmr_slurm::Slurm::complete`] prunes the
    /// scheduler record.
    pub(crate) fn account_completion(&mut self, job: JobId, now: SimTime) {
        // The sink is keyed by the monotonic arrival sequence, not the
        // scheduler id — ids recycle as jobs retire, and a requeue
        // changes them.
        let Some((seq, _)) = self.specs.remove(job) else {
            return;
        };
        if let Some(rec) = self.slurm.job(job) {
            if let Some(start) = rec.start_time {
                // A requeued job reports against its *original*
                // submission — waiting time spans the lost incarnations
                // and the requeue wait — and carries the
                // reconfigurations its dead incarnations performed.
                let (submit, prior_reconfigs) = match self.requeued.remove(job) {
                    Some(info) => (info.orig_submit, info.prior_reconfigs),
                    None => (rec.submit_time, 0),
                };
                self.sink.on_job(
                    seq,
                    JobOutcome::new(submit, start, now, rec.reconfigurations + prior_reconfigs),
                );
            }
        }
    }

    /// The driver-side scalars of a finished run; everything else already
    /// lives in the sink.
    pub(crate) fn finish(mut self) -> RunStats {
        // Close the metered window at the final clock so the last
        // interval (e.g. trailing housekeeping) is charged too.
        let end = self.engine.now();
        self.power.sample(end, &self.prev_busy, &self.prev_off);
        RunStats {
            // The engine's actual final clock — never an f64 round-trip
            // of the makespan, which both loses microseconds and points
            // at the wrong instant for traces that start after t = 0.
            end_time: end,
            events: self.engine.processed(),
            past_schedules: self.engine.past_schedules(),
            sched: self.slurm.incremental_stats(),
            checks: self.checks,
            power: crate::result::PowerStats::from_meter(&self.power),
            faults: crate::result::FaultStats::collect(
                self.failures,
                self.requeues,
                self.resize_faults,
                self.resize_retries,
                self.lost_work,
                &mut self.restart_lat,
            ),
        }
    }
}
