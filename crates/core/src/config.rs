//! Experiment configuration: what the experiments vary, and the
//! platform constants they hold fixed.

use dmr_cluster::{ClassTable, FaultLoad, MachineClass, NetworkModel};
use dmr_slurm::{BackfillFamily, PolicyKind};

/// Cost of one synchronous DMR check (runtime↔RMS round trip plus
/// scheduling), seconds. This is the overhead the checking inhibitor
/// exists to amortise (§V-A, §VIII-E); an asynchronous check hides it
/// behind the next step.
pub const CHECK_OVERHEAD_S: f64 = 0.3;

/// The interconnect that prices a resize: the `MPI_Comm_spawn` of new
/// ranks and the data redistribution, on the testbed's InfiniBand FDR10
/// (§VII-A).
pub const NETWORK: NetworkModel = NetworkModel::fdr10();

/// Padding applied to the runtime estimates handed to the backfill
/// scheduler under [`EstimateMode::Actual`] (users over-request
/// walltime).
pub const ESTIMATE_PADDING: f64 = 1.2;

/// Wake-up latency of a powered-down (S5) node, seconds: demand that
/// arrives while nodes are suspended waits this long before the capacity
/// returns. Only reached when the policy powers nodes down (see
/// [`dmr_slurm::EnergyAware`]).
pub const WAKE_LATENCY_S: f64 = 30.0;

/// Machine-class layout of the simulated cluster — a `Copy` selector in
/// the mould of [`PolicyKind`], expanded into a [`ClassTable`] when the
/// driver builds the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MachineMix {
    /// The paper's uniform machine, built through the legacy
    /// [`ClassTable::uniform`] path. The compatibility default.
    #[default]
    Uniform,
    /// Three classes in efficient-first node order: standard (the bulk,
    /// lowest ids — lowest-id-first allocation packs work onto the
    /// cheapest watts), big-memory (one quarter, 5/4 slower, higher base
    /// draw), and GPU (one eighth, 3/4 faster, highest draw,
    /// `GpuRequired`-routable).
    Hetero3,
}

impl MachineMix {
    /// Stable name (scenario ids, sweep CSV `machine_mix` column).
    pub fn name(self) -> &'static str {
        match self {
            MachineMix::Uniform => "uniform",
            MachineMix::Hetero3 => "hetero3",
        }
    }

    /// The big-memory class of [`MachineMix::Hetero3`]: 64 GiB, 5/4
    /// execution-time multiplier, 200 W machine base.
    pub fn bigmem_class(cores: u32) -> MachineClass {
        MachineClass {
            name: "bigmem",
            memory_gb: 64,
            slow_num: 5,
            slow_den: 4,
            s_states_w: [200, 160, 160, 120, 60, 12, 0],
            ..MachineClass::standard(cores)
        }
    }

    /// The GPU class of [`MachineMix::Hetero3`]: 32 GiB, 3/4
    /// execution-time multiplier (accelerated), 300 W machine base.
    pub fn gpu_class(cores: u32) -> MachineClass {
        MachineClass {
            name: "gpu",
            memory_gb: 32,
            gpu: true,
            slow_num: 3,
            slow_den: 4,
            s_states_w: [300, 220, 220, 160, 80, 15, 0],
            ..MachineClass::standard(cores)
        }
    }

    /// The smallest machine that gives every class of the mix at least
    /// one node.
    pub fn min_nodes(self) -> u32 {
        match self {
            MachineMix::Uniform => 1,
            MachineMix::Hetero3 => 3,
        }
    }

    /// Expands the mix into the class table of a `nodes`-node machine
    /// with `cores` cores per (standard) node.
    ///
    /// # Panics
    /// If `nodes` is below [`MachineMix::min_nodes`].
    pub fn table(self, nodes: u32, cores: u32) -> ClassTable {
        assert!(
            nodes >= self.min_nodes(),
            "{} needs at least {} nodes, got {nodes}",
            self.name(),
            self.min_nodes()
        );
        match self {
            MachineMix::Uniform => ClassTable::uniform(nodes, cores),
            MachineMix::Hetero3 => {
                let gpu = (nodes / 8).max(1);
                let big = (nodes / 4).max(1);
                ClassTable::new(&[
                    (MachineClass::standard(cores), nodes - big - gpu),
                    (MachineMix::bigmem_class(cores), big),
                    (MachineMix::gpu_class(cores), gpu),
                ])
            }
        }
    }
}

/// When a DMR decision is applied (§V-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScheduleMode {
    /// `dmr_check_status`: decide and apply at the same reconfiguring
    /// point. The application pays the runtime↔RMS communication cost at
    /// every non-inhibited check.
    Synchronous,
    /// `dmr_icheck_status`: the decision made at step *k* is applied at
    /// step *k+1*, hiding the communication cost behind computation — at
    /// the risk of enforcing outdated actions (§VIII-C).
    Asynchronous,
}

/// What the backfill scheduler believes about job runtimes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EstimateMode {
    /// Plan with the user-requested walltime (what Slurm actually has;
    /// conservative, leaves holes — the realistic default).
    Walltime,
    /// Plan with near-exact runtimes (oracle; ablation knob showing how
    /// much of the malleability gain evaporates under perfect backfill).
    Actual,
}

/// All knobs of one workload experiment: the parameters the paper's
/// evaluation and this reproduction's ablations vary. The platform's
/// costs are constants ([`CHECK_OVERHEAD_S`], [`NETWORK`],
/// [`ESTIMATE_PADDING`], [`WAKE_LATENCY_S`]).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Compute nodes (20 in §VIII, 65 in §IX).
    pub nodes: u32,
    /// Cores per node (16 on MareNostrum; informational).
    pub cores_per_node: u32,
    /// Synchronous or asynchronous action selection.
    pub mode: ScheduleMode,
    /// Master switch: `false` runs every job rigid (the "fixed" bars).
    pub malleability: bool,
    /// Override of the per-job checking-inhibitor period in seconds.
    /// `None` keeps each job's own (Table I) period; `Some(None)` disables
    /// inhibition; `Some(Some(p))` forces period `p` (the Figure 9 sweep).
    pub inhibitor_override: Option<Option<f64>>,
    /// EASY backfill on/off (ablation; the paper always runs with it).
    pub backfill: bool,
    /// Which backfill family the scheduler runs when `backfill` is on:
    /// EASY-k (`k = 1` is the paper's Slurm configuration and the
    /// default) or conservative, every blocked job planned (see
    /// [`BackfillFamily`]).
    pub backfill_family: BackfillFamily,
    /// Period of the backfill pass, seconds (Slurm's `bf_interval`,
    /// default 30). The event-driven pass is FIFO-only, as in Slurm.
    pub backfill_interval_s: f64,
    /// Source of the backfill scheduler's runtime estimates.
    pub estimate_mode: EstimateMode,
    /// Algorithm-1 line 18: boost the shrink beneficiary's priority
    /// (ablation knob; the paper always boosts).
    pub shrink_boost: bool,
    /// How long the runtime waits for a queued resizer job before aborting
    /// an expansion (§V-B1).
    pub resizer_timeout_s: f64,
    /// Which reconfiguration decision procedure the scheduler installs
    /// (the §IV plug-in: Algorithm 1 or an alternative).
    pub policy: PolicyKind,
    /// Machine-class layout of the simulated cluster. The default
    /// [`MachineMix::Uniform`] reproduces the paper's homogeneous testbed
    /// bit-for-bit; [`MachineMix::Hetero3`] adds big-memory and GPU
    /// classes with distinct speed factors and power ladders.
    pub machine_mix: MachineMix,
    /// Injected faultload preset ([`FaultLoad::None`] — the default — is
    /// the zero-fault oracle, bit-identical to pre-fault-injection
    /// behaviour; `Rare`/`Harsh` run seeded per-class MTBF/MTTR
    /// processes). A scripted [`dmr_cluster::FaultTrace`] is injected
    /// through [`crate::Simulation::faults`], not the config (the config
    /// stays `Copy`).
    pub faults: FaultLoad,
    /// Seed of the fault process (independent of workload seeds so the
    /// same faultload can be replayed over different workloads).
    pub fault_seed: u64,
    /// Checkpoint interval for failure recovery, seconds. `None` restarts
    /// a killed job from scratch; `Some(p)` models periodic images every
    /// `p` seconds of execution — a requeued job loses only the work
    /// since its last image.
    pub ckpt_interval_s: Option<f64>,
}

impl ExperimentConfig {
    /// §VIII testbed: 20 nodes, synchronous, malleable.
    pub fn preliminary() -> Self {
        ExperimentConfig {
            nodes: 20,
            cores_per_node: 16,
            mode: ScheduleMode::Synchronous,
            malleability: true,
            inhibitor_override: None,
            backfill: true,
            backfill_family: BackfillFamily::default(),
            backfill_interval_s: 30.0,
            estimate_mode: EstimateMode::Walltime,
            shrink_boost: true,
            resizer_timeout_s: 30.0,
            policy: PolicyKind::Algorithm1,
            machine_mix: MachineMix::Uniform,
            faults: FaultLoad::None,
            fault_seed: 0xFA17,
            ckpt_interval_s: None,
        }
    }

    /// §IX testbed: the full 65-node machine.
    pub fn production() -> Self {
        ExperimentConfig {
            nodes: 65,
            ..ExperimentConfig::preliminary()
        }
    }

    /// The rigid-workload counterpart of this configuration.
    pub fn as_fixed(mut self) -> Self {
        self.malleability = false;
        self
    }

    /// Resizes the simulated machine (trace replays and scenario grids
    /// pick cluster sizes that match their workload source, not the
    /// paper's testbeds).
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Switches to asynchronous action selection.
    pub fn asynchronous(mut self) -> Self {
        self.mode = ScheduleMode::Asynchronous;
        self
    }

    /// Forces the checking-inhibitor period (Figure 9 sweep). Pass `None`
    /// to disable inhibition for all jobs.
    pub fn with_inhibitor(mut self, period_s: Option<f64>) -> Self {
        self.inhibitor_override = Some(period_s);
        self
    }

    /// Selects the reconfiguration policy the scheduler installs.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the backfill family the scheduler runs (EASY-k depth or
    /// conservative planning). Only consulted while `backfill` is on.
    pub fn with_backfill_family(mut self, family: BackfillFamily) -> Self {
        self.backfill_family = family;
        self
    }

    /// Switches backfill to the conservative family: every blocked job
    /// gets a planned slot and backfill may not delay any plan.
    pub fn conservative_backfill(mut self) -> Self {
        self.backfill_family = BackfillFamily::Conservative;
        self
    }

    /// Selects the machine-class layout ([`MachineMix`]). The default is
    /// the uniform paper testbed; `Hetero3` turns on the heterogeneous
    /// classes and their power ladders.
    pub fn with_machine_mix(mut self, mix: MachineMix) -> Self {
        self.machine_mix = mix;
        self
    }

    /// Selects the injected faultload preset (`--faults` on the CLI).
    /// [`FaultLoad::None`] keeps the zero-fault oracle behaviour.
    pub fn with_faults(mut self, faults: FaultLoad) -> Self {
        self.faults = faults;
        self
    }

    /// Seeds the fault process independently of the workload.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Enables periodic checkpoint images every `seconds` of execution:
    /// a job killed by a node failure requeues and repeats only the work
    /// since its last image instead of restarting from scratch.
    pub fn with_ckpt_interval(mut self, seconds: f64) -> Self {
        self.ckpt_interval_s = Some(seconds);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_testbeds() {
        assert_eq!(ExperimentConfig::preliminary().nodes, 20);
        assert_eq!(ExperimentConfig::production().nodes, 65);
        assert_eq!(
            ExperimentConfig::preliminary().mode,
            ScheduleMode::Synchronous
        );
        assert!(ExperimentConfig::preliminary().malleability);
    }

    #[test]
    fn builders_flip_the_right_switches() {
        let c = ExperimentConfig::preliminary().as_fixed();
        assert!(!c.malleability);
        let c = ExperimentConfig::preliminary().with_nodes(128);
        assert_eq!(c.nodes, 128);
        let c = ExperimentConfig::preliminary().asynchronous();
        assert_eq!(c.mode, ScheduleMode::Asynchronous);
        let c = ExperimentConfig::preliminary().with_inhibitor(Some(5.0));
        assert_eq!(c.inhibitor_override, Some(Some(5.0)));
        let c = ExperimentConfig::preliminary().with_inhibitor(None);
        assert_eq!(c.inhibitor_override, Some(None));
        let c = ExperimentConfig::preliminary().with_policy(PolicyKind::fair_share());
        assert_eq!(c.policy, PolicyKind::fair_share());
        assert_eq!(
            ExperimentConfig::preliminary().backfill_family,
            BackfillFamily::easy(1),
            "EASY-1 is the paper's Slurm configuration"
        );
        let c = ExperimentConfig::preliminary().with_backfill_family(BackfillFamily::easy(8));
        assert_eq!(c.backfill_family, BackfillFamily::easy(8));
        let c = ExperimentConfig::preliminary().conservative_backfill();
        assert_eq!(c.backfill_family, BackfillFamily::Conservative);
        assert_eq!(
            ExperimentConfig::preliminary().machine_mix,
            MachineMix::Uniform,
            "the uniform paper testbed is the compatibility default"
        );
        let c = ExperimentConfig::preliminary().with_machine_mix(MachineMix::Hetero3);
        assert_eq!(c.machine_mix, MachineMix::Hetero3);
        assert_eq!(
            ExperimentConfig::preliminary().faults,
            FaultLoad::None,
            "zero-fault is the oracle default"
        );
        assert_eq!(ExperimentConfig::preliminary().ckpt_interval_s, None);
        let c = ExperimentConfig::preliminary().with_faults(FaultLoad::Harsh);
        assert_eq!(c.faults, FaultLoad::Harsh);
        let c = ExperimentConfig::preliminary().with_fault_seed(99);
        assert_eq!(c.fault_seed, 99);
        let c = ExperimentConfig::preliminary().with_ckpt_interval(600.0);
        assert_eq!(c.ckpt_interval_s, Some(600.0));
    }

    #[test]
    fn machine_mix_tables_cover_the_node_count() {
        for mix in [MachineMix::Uniform, MachineMix::Hetero3] {
            let t = mix.table(64, 16);
            assert_eq!(t.total_nodes(), 64, "{mix:?}");
            t.check().unwrap();
        }
        assert!(MachineMix::Uniform.table(64, 16).is_uniform());
        let h = MachineMix::Hetero3.table(64, 16);
        assert_eq!(h.num_classes(), 3);
        assert!(h.has_gpu_class());
        // Efficient-first: the standard bulk owns the lowest node ids.
        assert_eq!(h.class(0).name, "standard");
        assert_eq!(h.range(0), (0, 64 - 16 - 8));
        assert_eq!(h.class(1).name, "bigmem");
        assert_eq!(h.class(2).name, "gpu");
        assert!(h.class(2).gpu);
        // The GPU class is faster, the big-memory class slower.
        assert!(h.class(2).slow_num < h.class(2).slow_den);
        assert!(h.class(1).slow_num > h.class(1).slow_den);
    }

    #[test]
    fn default_policy_is_algorithm1() {
        assert_eq!(
            ExperimentConfig::preliminary().policy,
            PolicyKind::Algorithm1
        );
        assert_eq!(
            ExperimentConfig::production().policy,
            PolicyKind::Algorithm1
        );
    }
}
