//! Application scalability models.
//!
//! The workload simulations need one thing from an application: *how long
//! one iteration takes at `p` processes*. The paper characterises its four
//! applications in §VII-B and §IX-A; we encode those behaviours as speedup
//! curves and derive step times by work conservation:
//!
//! `T_step(p) = T_step(p0) * S(p0) / S(p)`
//!
//! where `p0` is the submitted size the workload generator calibrated the
//! step time at.

use dmr_sim::Span;
use dmr_workload::{AppClass, JobSpec};

/// Speedup as a function of process count.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SpeedupCurve {
    /// `S(p) = p` — FS's "perfect linear scalability" (§VII-B1).
    Linear,
    /// Amdahl's law, `S(p) = p / (1 + f·(p-1))` — the CG/Jacobi class:
    /// high scalability flattening towards 32 processes (§IX-A), with the
    /// serial fraction calibrated so the preferred-8 vs maximum-32
    /// execution-time ratio lands near Table II's observation.
    Amdahl { serial_fraction: f64 },
    /// Near-constant performance: `S(p) = 1 + gain·log2(min(p,peak))/
    /// log2(peak)` — the N-body class, whose best speedup "does not exceed
    /// 10 % with respect to the sequential run" and peaks at 16 (§IX-A).
    /// Beyond `peak`, speedup degrades (communication dominates).
    LogFlat { gain: f64, peak: u32 },
}

impl SpeedupCurve {
    /// Speedup at `p` processes; `S(1) = 1` for every curve.
    pub fn speedup(&self, p: u32) -> f64 {
        let p = p.max(1);
        match *self {
            SpeedupCurve::Linear => p as f64,
            SpeedupCurve::Amdahl { serial_fraction } => {
                let pf = p as f64;
                pf / (1.0 + serial_fraction * (pf - 1.0))
            }
            SpeedupCurve::LogFlat { gain, peak } => {
                let peak = peak.max(2);
                let eff = p.min(peak) as f64;
                let base = 1.0 + gain * eff.log2() / (peak as f64).log2();
                if p > peak {
                    // Past the peak, extra ranks only add communication.
                    base * (peak as f64 / p as f64).powf(0.1)
                } else {
                    base
                }
            }
        }
    }
}

/// The calibrated curve for each paper application.
pub fn curve_for(app: AppClass) -> SpeedupCurve {
    match app {
        AppClass::Fs => SpeedupCurve::Linear,
        // S(32)/S(8) ≈ 1.58 → mixed-workload execution-time growth close
        // to Table II's ~45 %.
        AppClass::Cg => SpeedupCurve::Amdahl {
            serial_fraction: 0.115,
        },
        AppClass::Jacobi => SpeedupCurve::Amdahl {
            serial_fraction: 0.105,
        },
        AppClass::Nbody => SpeedupCurve::LogFlat {
            gain: 0.10,
            peak: 16,
        },
    }
}

/// A job together with its scalability model — what the simulation
/// driver keeps per active job. Jobs are streamed one at a time from a
/// [`dmr_workload::WorkloadSource`], and the driver binds each pulled
/// [`JobSpec`] to its class curve ([`SimJob::from_spec`]) on arrival.
#[derive(Clone, Debug)]
pub(crate) struct SimJob {
    pub spec: JobSpec,
    pub curve: SpeedupCurve,
}

impl SimJob {
    /// Binds the default curve for the job's application class.
    pub fn from_spec(spec: JobSpec) -> Self {
        let curve = curve_for(spec.app);
        SimJob { spec, curve }
    }

    /// Duration of one step at `p` processes (work conservation from the
    /// submitted size).
    pub fn step_time(&self, p: u32) -> Span {
        let s0 = self.curve.speedup(self.spec.submit_procs);
        let sp = self.curve.speedup(p);
        Span::from_secs_f64(self.spec.step_s * s0 / sp)
    }

    /// Remaining runtime estimate at `p` processes with `done` steps
    /// finished.
    pub fn remaining_time(&self, p: u32, done: u32) -> Span {
        let rem = self.spec.steps.saturating_sub(done);
        self.step_time(p).mul_f64(rem as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmr_workload::MalleabilitySpec;

    fn fs_spec(procs: u32, steps: u32, step_s: f64) -> JobSpec {
        JobSpec {
            index: 0,
            arrival_s: 0.0,
            submit_procs: procs,
            steps,
            step_s,
            walltime_s: steps as f64 * step_s * 2.5,
            data_bytes: 1 << 30,
            app: AppClass::Fs,
            flexible: true,
            gpu: false,
            malleability: MalleabilitySpec::rigid(procs),
        }
    }

    #[test]
    fn linear_speedup_is_p() {
        let c = SpeedupCurve::Linear;
        assert_eq!(c.speedup(1), 1.0);
        assert_eq!(c.speedup(8), 8.0);
        assert_eq!(c.speedup(0), 1.0, "p=0 clamps to 1");
    }

    #[test]
    fn amdahl_saturates() {
        let c = curve_for(AppClass::Cg);
        let s8 = c.speedup(8);
        let s16 = c.speedup(16);
        let s32 = c.speedup(32);
        assert!(s8 < s16 && s16 < s32, "monotone up to 32");
        // Calibration target: T(8)/T(32) = S(32)/S(8) ≈ 1.5–1.7.
        let ratio = s32 / s8;
        assert!((1.4..1.8).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn nbody_is_nearly_flat_with_peak_at_16() {
        let c = curve_for(AppClass::Nbody);
        let s16 = c.speedup(16);
        assert!(s16 <= 1.11, "gain must not exceed ~10 %: {s16}");
        assert!(c.speedup(1) == 1.0);
        assert!(c.speedup(8) < s16);
        assert!(c.speedup(32) < s16, "degrades past the peak");
    }

    #[test]
    fn step_time_scales_by_work_conservation() {
        let job = SimJob {
            spec: fs_spec(4, 2, 60.0),
            curve: SpeedupCurve::Linear,
        };
        // Linear: doubling procs halves the step.
        assert_eq!(job.step_time(4), Span::from_secs(60));
        assert_eq!(job.step_time(8), Span::from_secs(30));
        assert_eq!(job.step_time(2), Span::from_secs(120));
    }

    #[test]
    fn remaining_time_counts_steps_left() {
        let job = SimJob {
            spec: fs_spec(4, 10, 6.0),
            curve: SpeedupCurve::Linear,
        };
        assert_eq!(job.remaining_time(4, 0), Span::from_secs(60));
        assert_eq!(job.remaining_time(4, 7), Span::from_secs(18));
        assert_eq!(job.remaining_time(4, 10), Span::ZERO);
        assert_eq!(job.remaining_time(4, 99), Span::ZERO);
    }

    #[test]
    fn from_spec_picks_class_curve() {
        let mut spec = fs_spec(4, 2, 60.0);
        spec.app = AppClass::Nbody;
        let job = SimJob::from_spec(spec);
        assert!(matches!(job.curve, SpeedupCurve::LogFlat { .. }));
    }

    #[test]
    fn total_work_preserved_across_resize_for_linear() {
        let job = SimJob {
            spec: fs_spec(8, 4, 10.0),
            curve: SpeedupCurve::Linear,
        };
        // node-seconds at 8 procs vs at 16 procs must match.
        let w8 = job.step_time(8).as_secs_f64() * 8.0;
        let w16 = job.step_time(16).as_secs_f64() * 16.0;
        assert!((w8 - w16).abs() < 1e-9);
    }
}
