//! Adversarial arrival generators: load spikes and day/night cycles.
//!
//! Real clusters do not see smooth Poisson traffic. Deadline waves, crons
//! and campaign submissions produce *spikes* that stress the scheduler's
//! reconfiguration machinery far harder than the Feitelson model's steady
//! arrivals (the load-spike scenarios of the related elastic-cloud test
//! suites), and production clusters breathe with their users: submissions
//! peak during working hours and nearly stop at night.
//!
//! [`Synthetic`] models both as a Poisson process whose rate is modulated
//! over time, and the two [`WorkloadKind`] variants that build it set the
//! shape of the modulation:
//!
//! * [`WorkloadKind::Burst`] — a square wave: the rate multiplies by
//!   `intensity` for the first `burst_len_s` seconds of every `period_s`,
//!   then relaxes to the base rate;
//! * [`WorkloadKind::Diurnal`] — a sine: the rate at instant `t` is
//!   `base · (1 + amplitude · sin(2πt/period_s))`, so a cycle opens at the
//!   midpoint, rises to a `(1+amplitude)×` peak and sinks to a
//!   `(1-amplitude)×` trough. High amplitudes produce long stretches of
//!   queue growth followed by near-idle drains.
//!
//! Job bodies are the flexible FS bodies of the §VIII preliminary study
//! ([`WorkloadConfig::fs_preliminary`]), drawn one at a time — the source
//! streams in O(1) memory.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::generator::WorkloadConfig;
use crate::runtime::exponential;
use crate::size::SizeModel;
use crate::source::{WorkloadKind, WorkloadSource};
use crate::spec::JobSpec;

/// Streaming rate-modulated source; see the module docs.
pub(crate) struct Synthetic {
    /// [`WorkloadKind::Burst`] or [`WorkloadKind::Diurnal`]: the rate
    /// shape and its parameters.
    kind: WorkloadKind,
    /// Mean inter-arrival gap at the base rate, seconds.
    mean_interarrival_s: f64,
    /// The body of every job, and how many to emit.
    bodies: WorkloadConfig,
    size_model: SizeModel,
    rng: StdRng,
    /// Arrival instant of the next job to emit.
    t: f64,
    emitted: u32,
}

impl Synthetic {
    /// `jobs` jobs of the synthetic `kind`, deterministic in `seed`.
    pub(crate) fn new(kind: WorkloadKind, jobs: u32, seed: u64) -> Self {
        let mean_interarrival_s = match kind {
            WorkloadKind::Burst {
                mean_interarrival_s,
                period_s,
                intensity,
                ..
            } => {
                assert!(period_s > 0.0, "period must be positive");
                assert!(intensity > 0.0, "intensity must be positive");
                mean_interarrival_s
            }
            WorkloadKind::Diurnal {
                mean_interarrival_s,
                period_s,
                amplitude,
            } => {
                assert!(period_s > 0.0, "period must be positive");
                assert!(
                    (0.0..1.0).contains(&amplitude),
                    "amplitude must be in [0, 1)"
                );
                mean_interarrival_s
            }
            _ => panic!("{kind:?} is not a synthetic workload"),
        };
        assert!(mean_interarrival_s > 0.0, "mean gap must be positive");
        let bodies = WorkloadConfig::fs_preliminary(jobs);
        Synthetic {
            kind,
            mean_interarrival_s,
            size_model: SizeModel::new(bodies.max_size),
            bodies,
            rng: StdRng::seed_from_u64(seed),
            t: 0.0,
            emitted: 0,
        }
    }

    /// Rate multiplier at instant `t`.
    fn rate_multiplier(&self, t: f64) -> f64 {
        match self.kind {
            WorkloadKind::Burst {
                period_s,
                burst_len_s,
                intensity,
                ..
            } => {
                if t % period_s < burst_len_s {
                    intensity
                } else {
                    1.0
                }
            }
            WorkloadKind::Diurnal {
                period_s,
                amplitude,
                ..
            } => 1.0 + amplitude * (std::f64::consts::TAU * t / period_s).sin(),
            _ => unreachable!("checked in Synthetic::new"),
        }
    }
}

impl WorkloadSource for Synthetic {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        if self.emitted >= self.bodies.jobs {
            return None;
        }
        let body = self
            .bodies
            .fs_body(&self.size_model, &mut self.rng, self.emitted, true);
        let job = JobSpec {
            arrival_s: self.t,
            ..body
        };
        // Draw the gap to the *next* arrival at the local rate — an
        // approximation of the inhomogeneous Poisson process that is exact
        // whenever the gap stays within the current rate regime.
        let mul = self.rate_multiplier(self.t);
        self.t += exponential(self.mean_interarrival_s / mul, &mut self.rng);
        self.emitted += 1;
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_jobs;
    use crate::spec::AppClass;

    #[test]
    fn bursts_cluster_arrivals() {
        let jobs = collect_jobs(WorkloadKind::burst().build(400, 11).as_mut());
        assert_eq!(jobs.len(), 400);
        // Jobs arriving inside burst windows (60 s of every 600 s) must be
        // over-represented relative to the 10 % duty cycle.
        let in_burst = jobs.iter().filter(|j| j.arrival_s % 600.0 < 60.0).count();
        assert!(
            in_burst as f64 > jobs.len() as f64 * 0.3,
            "only {in_burst}/400 jobs inside burst windows"
        );
    }

    #[test]
    fn bodies_respect_bounds() {
        for kind in [WorkloadKind::burst(), WorkloadKind::diurnal()] {
            let jobs = collect_jobs(kind.build(100, 5).as_mut());
            for j in &jobs {
                assert!(j.submit_procs >= 1 && j.submit_procs <= 20);
                assert!(j.step_s > 0.0);
                assert!(j.walltime_s >= j.step_s);
                assert_eq!(j.app, AppClass::Fs);
                assert!(j.flexible);
            }
        }
    }

    #[test]
    fn day_half_outpaces_night_half() {
        let jobs = collect_jobs(WorkloadKind::diurnal().build(600, 19).as_mut());
        assert_eq!(jobs.len(), 600);
        // sin > 0 on the first half of each one-hour period ("day"), < 0
        // on the second ("night"): days must collect substantially more
        // jobs.
        let day = jobs
            .iter()
            .filter(|j| j.arrival_s % 3600.0 < 1800.0)
            .count();
        let night = jobs.len() - day;
        assert!(
            day as f64 > night as f64 * 1.5,
            "day {day} vs night {night}"
        );
    }

    #[test]
    fn zero_amplitude_degenerates_to_poisson_mean() {
        let flat = WorkloadKind::Diurnal {
            mean_interarrival_s: 10.0,
            period_s: 3600.0,
            amplitude: 0.0,
        };
        let jobs = collect_jobs(flat.build(5000, 23).as_mut());
        let span = jobs.last().unwrap().arrival_s;
        let mean_gap = span / (jobs.len() - 1) as f64;
        assert!((mean_gap - 10.0).abs() < 1.0, "mean_gap={mean_gap}");
    }
}
