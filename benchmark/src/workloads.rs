//! The five benchmark workloads: what each feeds the simulator and under
//! which configuration. README.md says why each was chosen.
//!
//! Every workload draws FS job bodies with a 10 s mean arrival gap from
//! the Feitelson model; the program under test receives only the
//! generated `JobSpec` stream (or, for `trace_mixed`, SWF text).

use std::io::{Cursor, Write};

use dmr_core::{ExperimentConfig, FaultLoad, MachineMix, PolicyKind};
use dmr_workload::{Feitelson, GpuShare, SwfMapping, SwfTrace, WorkloadConfig, WorkloadSource};

/// Seed the reference fingerprints were recorded at (the paper's
/// publication date, as everywhere else in the repository).
pub const DEFAULT_SEED: u64 = 20170814;

/// GPU-demanding jobs per thousand on `trace_mixed`.
const GPU_PERMILLE: u32 = 250;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SatFlex,
    SatFixed,
    DeepFlex,
    DeepFixed,
    TraceMixed,
}

pub const ALL: [Workload; 5] = [
    Workload::SatFlex,
    Workload::SatFixed,
    Workload::DeepFlex,
    Workload::DeepFixed,
    Workload::TraceMixed,
];

/// Generated inputs of one run, ready to stream.
pub enum Inputs {
    /// The Feitelson model's own buffered stream.
    Stream(Feitelson),
    /// SWF text rendered in memory, parsed while the run pulls jobs.
    Swf(Vec<u8>),
}

impl Inputs {
    pub fn into_source(self) -> Box<dyn WorkloadSource> {
        match self {
            Inputs::Stream(source) => Box::new(source),
            Inputs::Swf(text) => {
                let mapping = SwfMapping {
                    flexible_ratio: 0.5,
                    ..SwfMapping::default()
                };
                Box::new(GpuShare::new(
                    SwfTrace::from_reader(Cursor::new(text), mapping),
                    GPU_PERMILLE,
                ))
            }
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SatFlex => "sat_flex",
            Workload::SatFixed => "sat_fixed",
            Workload::DeepFlex => "deep_flex",
            Workload::DeepFixed => "deep_fixed",
            Workload::TraceMixed => "trace_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in one timed run: small, so a run lasts 0.3–0.4 s (≈ 1 s on
    /// `deep_*`, half the issue's sizes and still superlinear) and the
    /// reference-clock spins around it see the host state it saw. The
    /// many runs of a sample stand in for the issue's one long run.
    pub fn jobs(self) -> u32 {
        match self {
            Workload::SatFlex => 10_000,
            Workload::SatFixed => 80_000,
            Workload::DeepFlex => 4_000,
            Workload::DeepFixed => 8_000,
            Workload::TraceMixed => 15_000,
        }
    }

    /// Whether jobs may be resized (decides which probes apply).
    pub fn malleable(self) -> bool {
        !matches!(self, Workload::SatFixed | Workload::DeepFixed)
    }

    pub fn config(self, seed: u64) -> ExperimentConfig {
        let testbed = ExperimentConfig::preliminary();
        match self {
            Workload::SatFlex => testbed.with_nodes(300),
            Workload::SatFixed => testbed.with_nodes(300).as_fixed(),
            Workload::DeepFlex => testbed,
            Workload::DeepFixed => testbed.as_fixed(),
            // 512 nodes, not fewer: at 480 the GPU class saturates and
            // host time swings twofold with the seed.
            Workload::TraceMixed => testbed
                .with_nodes(512)
                .with_machine_mix(MachineMix::Hetero3)
                .with_faults(FaultLoad::Harsh)
                .with_fault_seed(seed)
                .with_ckpt_interval(600.0)
                .conservative_backfill()
                .with_policy(PolicyKind::energy_aware()),
        }
    }

    /// Generates `jobs` jobs of input from `seed`.
    pub fn inputs(self, jobs: u32, seed: u64) -> Inputs {
        let model = Feitelson::new(WorkloadConfig::fs_preliminary(jobs), seed);
        match self {
            Workload::TraceMixed => Inputs::Swf(render_swf(model)),
            _ => Inputs::Stream(model),
        }
    }
}

/// Renders a job stream as SWF v2.2 text, one 18-field record per job
/// with unused fields -1 — the layout `repro --gen-swf` writes, so the
/// run exercises the `repro --trace` user path.
fn render_swf(mut source: impl WorkloadSource) -> Vec<u8> {
    let mut out = Vec::new();
    let mut id = 0u64;
    while let Some(job) = source.next_job() {
        id += 1;
        let runtime = job.steps as f64 * job.step_s;
        writeln!(
            out,
            "{id} {:.0} -1 {:.0} {procs} -1 -1 {procs} {:.0} -1 1 -1 -1 -1 -1 -1 -1 -1",
            job.arrival_s,
            runtime.max(1.0),
            job.walltime_s.max(1.0),
            procs = job.submit_procs,
        )
        .expect("writing to memory cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The input a run sees, as bytes: every streamed `JobSpec`.
    fn input_bytes(workload: Workload, seed: u64) -> Vec<u8> {
        let mut source = workload.inputs(500, seed).into_source();
        let mut bytes = Vec::new();
        while let Some(job) = source.next_job() {
            writeln!(bytes, "{job:?}").unwrap();
        }
        bytes
    }

    #[test]
    fn same_seed_gives_identical_input_bytes() {
        for workload in ALL {
            let first = input_bytes(workload, 7);
            assert!(!first.is_empty(), "{}", workload.name());
            assert_eq!(first, input_bytes(workload, 7), "{}", workload.name());
            assert_ne!(first, input_bytes(workload, 8), "{}", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
