//! Workload generation: ties the size, runtime and arrival models
//! together and emits [`JobSpec`]s.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::arrival::ArrivalModel;
use crate::runtime::RuntimeModel;
use crate::size::SizeModel;
use crate::source::{collect_jobs, Feitelson};
use crate::spec::{AppClass, JobSpec, MalleabilitySpec};

/// Table I of the paper: per-application configuration.
///
/// Returns `(steps, envelope, data_bytes)` for each application class. FS
/// takes its submit size from the Feitelson size model, the real
/// applications are always submitted at their scalability maximum ("the job
/// submission of each application is launched with its maximum value",
/// §IX-A).
pub fn table1(app: AppClass) -> (u32, MalleabilitySpec, u64) {
    const GB: u64 = 1 << 30;
    match app {
        AppClass::Fs => (
            25,
            MalleabilitySpec {
                min_procs: 1,
                max_procs: 20,
                preferred: None,
                factor: 2,
                sched_period_s: None,
            },
            GB,
        ),
        AppClass::Cg => (
            10_000,
            MalleabilitySpec {
                min_procs: 2,
                max_procs: 32,
                preferred: Some(8),
                factor: 2,
                sched_period_s: Some(15.0),
            },
            (1.5 * GB as f64) as u64,
        ),
        AppClass::Jacobi => (
            10_000,
            MalleabilitySpec {
                min_procs: 2,
                max_procs: 32,
                preferred: Some(8),
                factor: 2,
                sched_period_s: Some(15.0),
            },
            GB,
        ),
        AppClass::Nbody => (
            25,
            MalleabilitySpec {
                min_procs: 1,
                max_procs: 16,
                preferred: Some(1),
                factor: 2,
                sched_period_s: None,
            },
            GB / 2,
        ),
    }
}

/// Everything needed to generate one workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of jobs to emit.
    pub jobs: u32,
    /// Cap on FS job sizes (20 in §VIII: "assigning up to 20 nodes to each
    /// job").
    pub max_size: u32,
    /// Mean Poisson inter-arrival gap, seconds (10 in §VIII).
    pub mean_interarrival_s: f64,
    /// Fraction of jobs that are flexible (the §VIII-D sweep variable).
    pub flexible_ratio: f64,
    /// Steps per FS job.
    pub fs_steps: u32,
    /// Distribution of one FS step's duration at the submitted size.
    pub fs_step_model: RuntimeModel,
    /// Bytes redistributed by an FS job on each reconfiguration (1 GB in
    /// §VIII).
    pub fs_data_bytes: u64,
    /// Application mix as `(class, weight)`; weights need not sum to 1.
    pub mix: Vec<(AppClass, f64)>,
    /// Distribution of a real application's *total* runtime at its submit
    /// size; the per-step time is derived from it.
    pub real_runtime_model: RuntimeModel,
}

impl WorkloadConfig {
    /// The §VIII preliminary-study testbed: FS only, 20 nodes, Table I's
    /// 25 iterations of up to 60 s each, 1 GB redistributed, 10 s mean
    /// arrival gap, all flexible.
    pub fn fs_preliminary(jobs: u32) -> Self {
        WorkloadConfig {
            jobs,
            max_size: 20,
            mean_interarrival_s: 10.0,
            flexible_ratio: 1.0,
            fs_steps: 25,
            fs_step_model: RuntimeModel::fs_steps(20),
            fs_data_bytes: 1 << 30,
            mix: vec![(AppClass::Fs, 1.0)],
            real_runtime_model: RuntimeModel::with_means(200.0, 800.0, 32),
        }
    }

    /// The §VIII-E micro-step variant: average step of ~2 s, everything
    /// else as [`WorkloadConfig::fs_preliminary`].
    pub fn fs_micro_steps(jobs: u32) -> Self {
        let mut cfg = WorkloadConfig::fs_preliminary(jobs);
        cfg.fs_steps = 25;
        cfg.fs_step_model = RuntimeModel {
            mean_short_s: 1.5,
            mean_long_s: 3.0,
            p_long_base: 0.2,
            p_long_slope: 0.3,
            max_size: 20,
            cap_s: 6.0,
        };
        cfg
    }

    /// The §IX production use-case: CG, Jacobi and N-body at 33 % each,
    /// submitted at their Table I maxima, Feitelson arrivals.
    pub fn real_mix(jobs: u32) -> Self {
        WorkloadConfig {
            jobs,
            max_size: 32,
            mean_interarrival_s: 10.0,
            flexible_ratio: 1.0,
            fs_steps: 2,
            fs_step_model: RuntimeModel::fs_steps(20),
            fs_data_bytes: 1 << 30,
            mix: vec![
                (AppClass::Cg, 1.0),
                (AppClass::Jacobi, 1.0),
                (AppClass::Nbody, 1.0),
            ],
            real_runtime_model: RuntimeModel::with_means(200.0, 800.0, 32),
        }
    }

    /// FS job `index`, its arrival instant 0: a size drawn from
    /// `size_model`, then one step's duration from
    /// [`WorkloadConfig::fs_step_model`], both from `rng`. Users request
    /// the model's cap per step as their walltime, not the drawn value.
    pub(crate) fn fs_body(
        &self,
        size_model: &SizeModel,
        rng: &mut StdRng,
        index: u32,
        flexible: bool,
    ) -> JobSpec {
        let size = size_model.sample(rng);
        let step_s = self.fs_step_model.sample(size, rng);
        let cap = self.fs_step_model.cap_s;
        let walltime_s = if cap.is_finite() {
            self.fs_steps as f64 * cap
        } else {
            self.fs_steps as f64 * step_s * 2.5
        };
        let (_, malleability, _) = table1(AppClass::Fs);
        JobSpec {
            index,
            arrival_s: 0.0,
            submit_procs: size,
            steps: self.fs_steps,
            step_s,
            walltime_s,
            data_bytes: self.fs_data_bytes,
            app: AppClass::Fs,
            flexible,
            gpu: false,
            malleability: MalleabilitySpec {
                max_procs: malleability.max_procs.min(self.max_size),
                ..malleability
            },
        }
    }
}

/// Seeded generator of Feitelson job bodies.
///
/// [`WorkloadGenerator::next_body`] is the one copy of the model's draw
/// sequence: application, flexibility, size and runtime of each job, then
/// all from one RNG stream. The arrival process is drawn
/// from the same stream *after* every body, so a job's arrival instant is
/// known only once all bodies have been drawn; [`crate::source::Feitelson`]
/// streams both with two cursors on that stream, and
/// [`WorkloadGenerator::generate`] drains it.
#[derive(Clone)]
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    rng: StdRng,
    size_model: SizeModel,
    arrival_model: ArrivalModel,
    /// Bodies handed out so far (the next body's index).
    emitted: u32,
}

impl WorkloadGenerator {
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Self {
        let size_model = SizeModel::new(cfg.max_size);
        let arrival_model = ArrivalModel::new(cfg.mean_interarrival_s);
        WorkloadGenerator {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            size_model,
            arrival_model,
            emitted: 0,
        }
    }

    /// The arrival process drawn after the bodies.
    pub(crate) fn arrival_model(&self) -> ArrivalModel {
        self.arrival_model
    }

    /// The RNG stream as it stands (after the bodies drawn so far).
    pub(crate) fn into_rng(self) -> StdRng {
        self.rng
    }

    fn pick_app(&mut self) -> AppClass {
        let total: f64 = self.cfg.mix.iter().map(|(_, w)| w).sum();
        let mut u = self.rng.random::<f64>() * total;
        for (app, w) in &self.cfg.mix {
            if u < *w {
                return *app;
            }
            u -= w;
        }
        self.cfg.mix.last().expect("mix must be non-empty").0
    }

    /// The next job body — everything but its arrival instant, which is
    /// 0 — or `None` once `cfg.jobs` bodies were handed out.
    pub fn next_body(&mut self) -> Option<JobSpec> {
        if self.emitted == self.cfg.jobs {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        let app = self.pick_app();
        let flexible = self.rng.random::<f64>() < self.cfg.flexible_ratio;
        let (steps, malleability, data_bytes) = table1(app);
        Some(match app {
            AppClass::Fs => self
                .cfg
                .fs_body(&self.size_model, &mut self.rng, index, flexible),
            AppClass::Cg | AppClass::Jacobi | AppClass::Nbody => {
                let size = malleability.max_procs;
                let total_s = self
                    .cfg
                    .real_runtime_model
                    .sample(size, &mut self.rng)
                    .max(steps as f64 * 1e-3);
                JobSpec {
                    index,
                    arrival_s: 0.0,
                    submit_procs: size,
                    steps,
                    step_s: total_s / steps as f64,
                    // Generous user walltime request.
                    walltime_s: total_s * 2.5,
                    data_bytes,
                    app,
                    flexible,
                    gpu: false,
                    malleability,
                }
            }
        })
    }

    /// Generates the full workload, sorted by arrival time: the
    /// [`Feitelson`] stream of this generator, drained.
    pub fn generate(self) -> Vec<JobSpec> {
        collect_jobs(&mut Feitelson::from_generator(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(50), 42).generate();
        let b = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(50), 42).generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit_procs, y.submit_procs);
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.step_s, y.step_s);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(50), 1).generate();
        let b = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(50), 2).generate();
        let same = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.submit_procs == y.submit_procs && x.step_s == y.step_s)
            .count();
        assert!(same < a.len(), "seeds produced identical workloads");
    }

    #[test]
    fn fs_jobs_respect_bounds() {
        let jobs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(200), 7).generate();
        for j in &jobs {
            assert!(j.submit_procs >= 1 && j.submit_procs <= 20);
            assert!(j.step_s > 0.0 && j.step_s <= 60.0);
            assert_eq!(j.steps, 25);
            assert_eq!(j.app, AppClass::Fs);
            assert!(j.flexible);
        }
    }

    #[test]
    fn real_mix_is_roughly_even_and_submitted_at_max() {
        let jobs = WorkloadGenerator::new(WorkloadConfig::real_mix(300), 11).generate();
        let mut counts = std::collections::HashMap::new();
        for j in &jobs {
            *counts.entry(j.app).or_insert(0u32) += 1;
            let (_, m, _) = table1(j.app);
            assert_eq!(j.submit_procs, m.max_procs, "submitted at maximum");
        }
        for app in [AppClass::Cg, AppClass::Jacobi, AppClass::Nbody] {
            let c = counts[&app];
            assert!((60..=140).contains(&c), "{app:?}: {c} of 300");
        }
    }

    #[test]
    fn flexible_ratio_honoured() {
        let mut cfg = WorkloadConfig::fs_preliminary(400);
        cfg.flexible_ratio = 0.5;
        let jobs = WorkloadGenerator::new(cfg, 3).generate();
        let flex = jobs.iter().filter(|j| j.flexible).count();
        assert!((120..=280).contains(&flex), "flex={flex}/400");

        let mut cfg = WorkloadConfig::fs_preliminary(100);
        cfg.flexible_ratio = 0.0;
        assert!(WorkloadGenerator::new(cfg, 3)
            .generate()
            .iter()
            .all(|j| !j.flexible));
    }

    #[test]
    fn arrivals_sorted() {
        let jobs = WorkloadGenerator::new(WorkloadConfig::real_mix(100), 5).generate();
        for w in jobs.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
    }

    #[test]
    fn micro_steps_are_short() {
        let jobs = WorkloadGenerator::new(WorkloadConfig::fs_micro_steps(100), 17).generate();
        let mean: f64 = jobs.iter().map(|j| j.step_s).sum::<f64>() / jobs.len() as f64;
        assert!(mean > 0.5 && mean < 4.0, "mean step {mean}");
        assert!(jobs.iter().all(|j| j.steps == 25));
    }
}
