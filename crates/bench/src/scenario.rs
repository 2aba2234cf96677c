//! Declarative scenario registry.
//!
//! A [`Scenario`] is one cell of the evaluation grid: a workload source ×
//! cluster size × reconfiguration policy × scheduling mode. The registry
//! enumerates the grid declaratively so the sweep runner ([`crate::sweep`])
//! and the `repro --sweep` CLI never hand-roll configurations, and every
//! future policy or workload lands here as one more axis value.
//!
//! The workload axis covers every shipped [`WorkloadSource`] family: the
//! three Feitelson presets, the two adversarial synthetics (burst spikes,
//! diurnal sine arrivals) and SWF trace replay (the bundled
//! [`TINY_SWF`] fixture, so scenarios need no filesystem access).

use dmr_core::{BackfillFamily, ExperimentConfig, FaultLoad, MachineMix, PolicyKind, ScheduleMode};
use dmr_workload::{Capped, SwfMapping, SwfTrace, WorkloadKind, WorkloadSource};

/// The bundled SWF trace fixture, embedded at compile time (the same
/// file lives at `tests/fixtures/tiny.swf` for the `repro --trace` CI
/// smoke): 12 replayable jobs plus one killed record the parser skips.
pub const TINY_SWF: &str = include_str!("../../../tests/fixtures/tiny.swf");

/// Which workload source a scenario draws from.
///
/// `Copy` like [`WorkloadKind`] so the grid stays plain data; trace
/// replay is represented by the embedded fixture rather than a path, so
/// scenarios are hermetic (no working-directory dependence in tests or
/// sweeps).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum WorkloadSel {
    /// One of the built-in synthetic generators.
    Synthetic(WorkloadKind),
    /// Replay of the bundled [`TINY_SWF`] fixture.
    SwfFixture,
}

impl WorkloadSel {
    /// Stable family identifier used in the sweep CSV `workload` column.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadSel::Synthetic(kind) => kind.name(),
            WorkloadSel::SwfFixture => "swf-tiny",
        }
    }

    /// Parameter-carrying identifier used in scenario names, so two
    /// tunings of the same generator key distinct CSV rows (mirrors
    /// [`PolicyKind::label`]).
    pub fn label(self) -> String {
        match self {
            WorkloadSel::Synthetic(kind) => kind.label(),
            WorkloadSel::SwfFixture => "swf-tiny".into(),
        }
    }

    /// Instantiates the streaming source: at most `jobs` jobs,
    /// deterministic in `seed` (trace replay ignores the seed — a replay
    /// has no randomness).
    pub fn build(self, jobs: u32, seed: u64) -> Box<dyn WorkloadSource> {
        match self {
            WorkloadSel::Synthetic(kind) => kind.build(jobs, seed),
            WorkloadSel::SwfFixture => Box::new(Capped::new(
                SwfTrace::from_static(TINY_SWF, SwfMapping::default()),
                jobs,
            )),
        }
    }
}

/// Which backfill configuration a scenario runs — the `backfill` axis of
/// the grid and the CSV column of the same name.
///
/// The axis crosses the on/off ablation switch with the
/// [`BackfillFamily`] depth knob: `Off` disables backfill entirely,
/// the other values run the slot-set families at representative depths.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BackfillSel {
    /// Backfill disabled (the ablation baseline).
    Off,
    /// EASY with one reservation — the paper's Slurm configuration.
    Easy1,
    /// EASY with eight reservations (deep-queue protection).
    Easy8,
    /// Conservative: every blocked job gets a planned slot.
    Conservative,
}

impl BackfillSel {
    /// Stable identifier used in scenario names and the CSV `backfill`
    /// column.
    pub fn name(self) -> &'static str {
        match self {
            BackfillSel::Off => "off",
            BackfillSel::Easy1 => "easy1",
            BackfillSel::Easy8 => "easy8",
            BackfillSel::Conservative => "conservative",
        }
    }

    /// Applies this selection to an experiment configuration.
    pub fn apply(self, mut cfg: ExperimentConfig) -> ExperimentConfig {
        match self {
            BackfillSel::Off => cfg.backfill = false,
            BackfillSel::Easy1 => cfg.backfill_family = BackfillFamily::easy(1),
            BackfillSel::Easy8 => cfg.backfill_family = BackfillFamily::easy(8),
            BackfillSel::Conservative => cfg.backfill_family = BackfillFamily::Conservative,
        }
        cfg
    }
}

/// One cell of the scenario grid.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub workload: WorkloadSel,
    /// Job count (an upper bound for trace replays, which end with the
    /// trace).
    pub jobs: u32,
    pub nodes: u32,
    pub policy: PolicyKind,
    pub mode: ScheduleMode,
    pub backfill: BackfillSel,
    /// Machine-class composition the cluster is built from. `Uniform`
    /// (the historical single-class machine) leaves the scenario name
    /// unchanged, so the pre-heterogeneity grid keys identical CSV rows.
    pub mix: MachineMix,
    /// Node-failure load the cell runs under. `None` (the historical
    /// fault-free machine) leaves the scenario name unchanged, like
    /// [`MachineMix::Uniform`].
    pub faults: FaultLoad,
    /// Periodic checkpoint interval in seconds (`None` restarts failed
    /// jobs from scratch). Only meaningful — and only named — on faulty
    /// cells.
    pub ckpt_s: Option<u32>,
}

impl Scenario {
    /// Stable identifier, e.g. `fs-50j-n20-fair-share-120-async-easy1`.
    /// Uses the parameter-carrying workload and policy labels so two
    /// tunings of the same source or policy get distinct names (they key
    /// CSV rows). Non-uniform machine mixes append their name as one more
    /// axis suffix; uniform scenarios keep their historical names.
    pub fn name(&self) -> String {
        let mode = match self.mode {
            ScheduleMode::Synchronous => "sync",
            ScheduleMode::Asynchronous => "async",
        };
        let mut name = format!(
            "{}-{}j-n{}-{}-{}-{}",
            self.workload.label(),
            self.jobs,
            self.nodes,
            self.policy.label(),
            mode,
            self.backfill.name()
        );
        if self.mix != MachineMix::Uniform {
            name.push('-');
            name.push_str(self.mix.name());
        }
        if !self.faults.is_none() {
            name.push('-');
            name.push_str(self.faults.name());
            if let Some(s) = self.ckpt_s {
                name.push_str(&format!("-ckpt{s}"));
            }
        }
        name
    }

    /// The experiment configuration this scenario runs under.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::preliminary().with_policy(self.policy);
        cfg.nodes = self.nodes;
        cfg.mode = self.mode;
        cfg.machine_mix = self.mix;
        cfg = cfg.with_faults(self.faults);
        if let Some(s) = self.ckpt_s {
            cfg = cfg.with_ckpt_interval(f64::from(s));
        }
        self.backfill.apply(cfg)
    }

    /// The deterministic workload source for `seed`.
    pub fn source(&self, seed: u64) -> Box<dyn WorkloadSource> {
        self.workload.build(self.jobs, seed)
    }
}

/// The four shipped policies, one per [`PolicyKind`] variant.
pub fn all_policies() -> [PolicyKind; 4] {
    [
        PolicyKind::Algorithm1,
        PolicyKind::utilization_target(),
        PolicyKind::fair_share(),
        PolicyKind::energy_aware(),
    ]
}

/// Every workload-source family at its natural scale: the paper mixes at
/// their testbed sizes, the adversarial synthetics and the trace fixture
/// at preliminary scale. New sources join the grid here (each entry is
/// `(source, job count, cluster nodes)`).
pub fn workload_axis(fs_jobs: u32) -> [(WorkloadSel, u32, u32); 5] {
    [
        (
            WorkloadSel::Synthetic(WorkloadKind::FsPreliminary),
            fs_jobs,
            20,
        ),
        (WorkloadSel::Synthetic(WorkloadKind::RealMix), fs_jobs, 65),
        (WorkloadSel::Synthetic(WorkloadKind::burst()), fs_jobs, 20),
        (WorkloadSel::Synthetic(WorkloadKind::diurnal()), fs_jobs, 20),
        (WorkloadSel::SwfFixture, 12, 20),
    ]
}

/// The backfill axis of the grid: the on/off ablation plus the slot-set
/// families at representative depths.
pub fn all_backfills() -> [BackfillSel; 4] {
    [
        BackfillSel::Off,
        BackfillSel::Easy1,
        BackfillSel::Easy8,
        BackfillSel::Conservative,
    ]
}

/// The heterogeneous cells of the grid: the GPU-tagged real mix on a
/// three-class machine (standard / big-memory / GPU), under the paper's
/// Algorithm 1 and the energy-aware policy. Small on purpose — the
/// uniform grid carries the coverage; these cells exist so every sweep
/// exercises class-constrained placement, per-class speed scaling and
/// the power meter end to end.
pub fn hetero_axis(jobs: u32) -> Vec<Scenario> {
    [PolicyKind::Algorithm1, PolicyKind::energy_aware()]
        .into_iter()
        .map(|policy| Scenario {
            workload: WorkloadSel::Synthetic(WorkloadKind::real_gpu()),
            jobs,
            nodes: 65,
            policy,
            mode: ScheduleMode::Asynchronous,
            backfill: BackfillSel::Easy1,
            mix: MachineMix::Hetero3,
            faults: FaultLoad::None,
            ckpt_s: None,
        })
        .collect()
}

/// The fault-injection cells of the grid: the preliminary Feitelson mix
/// under each non-trivial [`FaultLoad`], with and without periodic
/// checkpointing. Small on purpose, like [`hetero_axis`] — these cells
/// exist so every sweep exercises node failure, requeue/restart and the
/// lost-work accounting end to end, and so the recovery benefit of
/// checkpointing is visible as a goodput delta inside one CSV.
pub fn fault_axis(jobs: u32) -> Vec<Scenario> {
    [FaultLoad::Rare, FaultLoad::Harsh]
        .into_iter()
        .flat_map(|faults| {
            [None, Some(600u32)]
                .into_iter()
                .map(move |ckpt_s| Scenario {
                    workload: WorkloadSel::Synthetic(WorkloadKind::FsPreliminary),
                    jobs,
                    nodes: 20,
                    policy: PolicyKind::Algorithm1,
                    mode: ScheduleMode::Asynchronous,
                    backfill: BackfillSel::Easy1,
                    mix: MachineMix::Uniform,
                    faults,
                    ckpt_s,
                })
        })
        .collect()
}

/// The full scenario grid: every workload source × every policy × (sync,
/// async) × every backfill selection on the uniform machine, plus the
/// heterogeneous three-class cells from [`hetero_axis`] and the
/// fault-injection cells from [`fault_axis`].
pub fn registry() -> Vec<Scenario> {
    let mut out = grid(&workload_axis(50));
    out.extend(hetero_axis(50));
    out.extend(fault_axis(50));
    out
}

/// A CI-sized subset of the grid: 10-job workloads from every source
/// family, every policy, both modes, every backfill selection — fast
/// enough for a smoke job, wide enough to cross every workload × policy ×
/// mode × backfill tuple (plus the heterogeneous cells).
pub fn smoke_registry() -> Vec<Scenario> {
    let mut out = grid(&workload_axis(10).map(|(w, jobs, nodes)| (w, jobs.min(10), nodes)));
    out.extend(hetero_axis(10));
    out.extend(fault_axis(10));
    out
}

fn grid(workloads: &[(WorkloadSel, u32, u32)]) -> Vec<Scenario> {
    let mut out = Vec::new();
    for &(workload, jobs, nodes) in workloads {
        for policy in all_policies() {
            for mode in [ScheduleMode::Synchronous, ScheduleMode::Asynchronous] {
                for backfill in all_backfills() {
                    out.push(Scenario {
                        workload,
                        jobs,
                        nodes,
                        policy,
                        mode,
                        backfill,
                        mix: MachineMix::Uniform,
                        faults: FaultLoad::None,
                        ckpt_s: None,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_source_policy_and_mode() {
        let reg = registry();
        assert_eq!(
            reg.len(),
            166,
            "5 workloads x 4 policies x 2 modes x 4 backfills + 2 hetero + 4 fault cells"
        );
        for policy in all_policies() {
            assert!(reg.iter().any(|s| s.policy == policy));
        }
        for backfill in all_backfills() {
            assert!(reg.iter().any(|s| s.backfill == backfill));
        }
        assert!(reg.iter().any(|s| s.mode == ScheduleMode::Asynchronous));
        for name in ["fs", "real", "burst", "diurnal", "swf-tiny"] {
            assert!(
                reg.iter().any(|s| s.workload.name() == name),
                "missing workload {name}"
            );
        }
        // Names are unique (they key CSV rows).
        let mut names: Vec<String> = reg.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn smoke_registry_is_small_but_covers_every_source() {
        let smoke = smoke_registry();
        assert_eq!(
            smoke.len(),
            166,
            "5 workloads x 4 policies x 2 modes x 4 backfills + 2 hetero + 4 fault cells"
        );
        assert!(smoke.iter().all(|s| s.jobs <= 10));
        for name in ["fs", "real", "burst", "diurnal", "swf-tiny"] {
            assert!(smoke.iter().any(|s| s.workload.name() == name));
        }
        assert!(smoke
            .iter()
            .any(|s| s.backfill == BackfillSel::Conservative));
    }

    #[test]
    fn backfill_axis_lands_in_the_config() {
        let base = Scenario {
            workload: WorkloadSel::Synthetic(WorkloadKind::FsPreliminary),
            jobs: 10,
            nodes: 20,
            policy: PolicyKind::Algorithm1,
            mode: ScheduleMode::Synchronous,
            backfill: BackfillSel::Off,
            mix: MachineMix::Uniform,
            faults: FaultLoad::None,
            ckpt_s: None,
        };
        assert!(!base.config().backfill);
        assert!(base.name().ends_with("-off"));
        let easy8 = Scenario {
            backfill: BackfillSel::Easy8,
            ..base.clone()
        };
        assert!(easy8.config().backfill);
        assert_eq!(easy8.config().backfill_family, BackfillFamily::easy(8));
        assert!(easy8.name().ends_with("-easy8"));
        let cons = Scenario {
            backfill: BackfillSel::Conservative,
            ..base
        };
        assert_eq!(cons.config().backfill_family, BackfillFamily::Conservative);
        assert!(cons.name().ends_with("-conservative"));
    }

    #[test]
    fn scenario_config_and_source_are_deterministic() {
        for sc in smoke_registry().iter().take(7) {
            assert_eq!(sc.config().nodes, sc.nodes);
            assert_eq!(sc.config().policy, sc.policy);
            let a = dmr_workload::source::collect_jobs(sc.source(7).as_mut());
            let b = dmr_workload::source::collect_jobs(sc.source(7).as_mut());
            assert_eq!(a.len(), b.len());
            assert!(a.len() <= sc.jobs as usize);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_s, y.arrival_s);
                assert_eq!(x.submit_procs, y.submit_procs);
            }
        }
    }

    #[test]
    fn hetero_cells_carry_the_three_class_machine() {
        let cells = hetero_axis(10);
        assert_eq!(cells.len(), 2, "Algorithm 1 and energy-aware");
        for sc in &cells {
            assert_eq!(sc.config().machine_mix, MachineMix::Hetero3);
            assert!(sc.name().ends_with("-hetero3"), "{}", sc.name());
            assert_eq!(sc.workload.name(), "real-gpu");
        }
        assert!(cells.iter().any(|s| s.policy == PolicyKind::energy_aware()));
        // Uniform cells keep their historical (suffix-free) names.
        let uniform = &registry()[0];
        assert!(!uniform.name().contains("uniform"));
    }

    #[test]
    fn fault_cells_carry_load_and_checkpoint_into_the_config() {
        let cells = fault_axis(10);
        assert_eq!(cells.len(), 4, "rare/harsh x scratch/ckpt600");
        for sc in &cells {
            assert!(!sc.config().faults.is_none());
            assert!(sc.name().contains("-rare") || sc.name().contains("-harsh"));
        }
        let ckpt = cells
            .iter()
            .find(|s| s.faults == FaultLoad::Harsh && s.ckpt_s.is_some())
            .expect("checkpointed harsh cell");
        assert_eq!(ckpt.config().ckpt_interval_s, Some(600.0));
        assert!(ckpt.name().ends_with("-harsh-ckpt600"), "{}", ckpt.name());
        let scratch = cells
            .iter()
            .find(|s| s.faults == FaultLoad::Rare && s.ckpt_s.is_none())
            .expect("scratch rare cell");
        assert_eq!(scratch.config().ckpt_interval_s, None);
        assert!(scratch.name().ends_with("-rare"), "{}", scratch.name());
        // Fault-free cells keep their historical (suffix-free) names.
        assert!(!registry()[0].name().contains("none"));
    }

    #[test]
    fn swf_fixture_replays_twelve_jobs() {
        let sel = WorkloadSel::SwfFixture;
        let jobs = dmr_workload::source::collect_jobs(sel.build(100, 0).as_mut());
        assert_eq!(jobs.len(), 12, "fixture has 12 replayable records");
        assert!(jobs.iter().all(|j| j.submit_procs <= 16));
    }
}
