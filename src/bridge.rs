//! The runtime ↔ RMS bridge: a live [`RmsClient`] backed by a real
//! [`Slurm`] instance.
//!
//! This is the paper's §III communication layer in miniature: the
//! application (through `dmr-runtime`'s DMR API) asks; whichever
//! [`dmr_slurm::ResizePolicy`] the scheduler has installed (Algorithm 1
//! by default, selected by [`dmr_slurm::PolicyKind`] in the scheduler
//! config) decides; and on a positive verdict the bridge drives the §III
//! protocol — the four-step resizer job for expansions, the
//! node-releasing update for shrinks — so the scheduler's allocation
//! state tracks the application's actual size. The bridge itself is
//! policy-agnostic: it only sees [`ResizeAction`] verdicts. It is also
//! workload-agnostic: jobs reach the scheduler through
//! [`dmr_slurm::Slurm::submit`] no matter which
//! [`dmr_workload::WorkloadSource`] produced them, so live kernels and
//! replayed traces share one negotiation path. Policies consulted here
//! read the pending queue off the scheduler's pending index, which keeps
//! it in order between calls: a `negotiate` call sorts nothing.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dmr_metrics::LogHistogram;
use dmr_runtime::dmr::{DmrAction, DmrSpec};
use dmr_runtime::rms::RmsClient;
use dmr_sim::{SimTime, Span};
use dmr_slurm::{ExpandError, JobId, ResizeAction, Slurm};

/// A live RMS connection for one job.
pub struct SlurmRms {
    slurm: Arc<Mutex<Slurm>>,
    job: JobId,
    epoch: Instant,
    /// Wall-clock time spent inside each `negotiate` round trip — the
    /// live-path counterpart of the simulated check overhead, recorded
    /// into the same streaming histogram type the driver's telemetry
    /// uses (O(1) memory over arbitrarily many negotiations).
    negotiate_latency: LogHistogram,
}

impl SlurmRms {
    /// Connects job `job` (which must be running in `slurm`) to the
    /// runtime. Wall-clock time since this call maps to scheduler time.
    pub fn connect(slurm: Arc<Mutex<Slurm>>, job: JobId) -> Self {
        SlurmRms {
            slurm,
            job,
            epoch: Instant::now(),
            negotiate_latency: LogHistogram::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())
    }

    /// The distribution of wall-clock `negotiate` round-trip times for
    /// this connection (count, mean, P50/P95/P99 via
    /// [`LogHistogram::percentile_s`]).
    pub fn negotiate_latency(&self) -> &LogHistogram {
        &self.negotiate_latency
    }
}

impl RmsClient for SlurmRms {
    fn negotiate(&mut self, _current: u32, _spec: &DmrSpec) -> DmrAction {
        let round_trip = Instant::now();
        let now = self.now();
        let mut slurm = self.slurm.lock();
        // Scheduler housekeeping first: anything startable starts, so the
        // policy never reasons about jobs that were only pending because
        // no scheduling cycle had run (Slurm's event loop does the same).
        let _ = slurm.schedule(now);
        // The envelope was registered at submission; Algorithm 1 reads it
        // from the job record together with the global system state.
        let verdict = match slurm.decide_resize(self.job, now) {
            ResizeAction::NoAction => DmrAction::NoAction,
            ResizeAction::Expand { to } => {
                match slurm.expand_protocol(self.job, to, now) {
                    Ok(_) => DmrAction::Expand { to },
                    // Deferral means the resizer job is queued: abort it,
                    // as the synchronous path does (§V-B1's zero-wait
                    // degenerate). Everything else is a plain refusal.
                    Err(ExpandError::Queued { resizer }) => {
                        slurm.abort_expand(resizer, now);
                        DmrAction::NoAction
                    }
                    Err(_) => DmrAction::NoAction,
                }
            }
            ResizeAction::Shrink { to, .. } => {
                if slurm.shrink_protocol(self.job, to, now).is_ok() {
                    DmrAction::Shrink { to }
                } else {
                    DmrAction::NoAction
                }
            }
        };
        // A shrink frees nodes for its beneficiary right away.
        if matches!(verdict, DmrAction::Shrink { .. }) {
            let _ = slurm.schedule(now);
        }
        drop(slurm);
        self.negotiate_latency
            .record(Span::from_secs_f64(round_trip.elapsed().as_secs_f64()));
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_cluster::Cluster;
    use dmr_slurm::{JobRequest, ResizeEnvelope};

    fn slurm_with_running_job(
        nodes: u32,
        job_nodes: u32,
        env: ResizeEnvelope,
    ) -> (Arc<Mutex<Slurm>>, JobId) {
        let mut s = Slurm::with_cluster(Cluster::new(nodes, 16));
        let id = s.submit(
            JobRequest::flexible("bridged", job_nodes, env),
            SimTime::ZERO,
        );
        let started = s.schedule(SimTime::ZERO);
        assert_eq!(started.len(), 1);
        (Arc::new(Mutex::new(s)), id)
    }

    #[test]
    fn lone_job_expands_through_the_bridge() {
        let env = ResizeEnvelope {
            min: 1,
            max: 8,
            preferred: None,
            factor: 2,
        };
        let (slurm, job) = slurm_with_running_job(16, 2, env);
        let mut rms = SlurmRms::connect(Arc::clone(&slurm), job);
        let action = rms.negotiate(2, &DmrSpec::new(1, 8));
        assert_eq!(action, DmrAction::Expand { to: 8 });
        // The protocol really ran: the scheduler now accounts 8 nodes.
        assert_eq!(slurm.lock().nodes_of(job), 8);
        // And the round trip landed in the latency telemetry.
        assert_eq!(rms.negotiate_latency().count(), 1);
        assert!(rms.negotiate_latency().max_s() < 60.0);
    }

    #[test]
    fn shrink_for_queued_job_through_the_bridge() {
        let env = ResizeEnvelope {
            min: 1,
            max: 16,
            preferred: None,
            factor: 2,
        };
        let (slurm, job) = slurm_with_running_job(16, 16, env);
        // A queued rigid job needing 8 nodes triggers the wide-
        // optimization shrink.
        {
            let mut s = slurm.lock();
            s.submit(JobRequest::rigid("queued", 8), SimTime::ZERO);
        }
        let mut rms = SlurmRms::connect(Arc::clone(&slurm), job);
        let action = rms.negotiate(16, &DmrSpec::new(1, 16));
        assert_eq!(action, DmrAction::Shrink { to: 8 });
        assert_eq!(slurm.lock().nodes_of(job), 8);
        // The bridge already ran the post-shrink cycle: the beneficiary
        // is running.
        assert_eq!(slurm.lock().running_count(), 2);
    }

    #[test]
    fn saturated_job_gets_no_action() {
        let env = ResizeEnvelope {
            min: 1,
            max: 4,
            preferred: None,
            factor: 2,
        };
        let (slurm, job) = slurm_with_running_job(16, 4, env);
        let mut rms = SlurmRms::connect(slurm, job);
        assert_eq!(rms.negotiate(4, &DmrSpec::new(1, 4)), DmrAction::NoAction);
    }

    #[test]
    fn bridge_honours_a_non_default_policy() {
        use dmr_slurm::{PolicyKind, SlurmConfig};
        let env = ResizeEnvelope {
            min: 1,
            max: 8,
            preferred: None,
            factor: 2,
        };
        // A utilization-band scheduler: 4/10 allocated sits below the
        // 0.55 floor, so the band policy expands; at 8/10 the cluster is
        // inside the band and the policy holds steady.
        let mut cfg = SlurmConfig::for_cluster(10);
        cfg.policy = PolicyKind::utilization_target();
        let mut s = Slurm::new(dmr_cluster::Cluster::new(10, 16), cfg);
        let id = s.submit(JobRequest::flexible("banded", 4, env), SimTime::ZERO);
        s.schedule(SimTime::ZERO);
        let slurm = Arc::new(Mutex::new(s));
        let mut rms = SlurmRms::connect(Arc::clone(&slurm), id);
        assert_eq!(
            rms.negotiate(4, &DmrSpec::new(1, 8)),
            DmrAction::Expand { to: 8 }
        );
        // 8/10 = 0.8 is inside [0.55, 0.85]: the band policy holds steady.
        assert_eq!(rms.negotiate(8, &DmrSpec::new(1, 8)), DmrAction::NoAction);
        assert_eq!(slurm.lock().policy_name(), "utilization-target");
    }
}
