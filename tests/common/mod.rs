//! What the `*_equivalence.rs` suites share: the selectors their
//! properties draw from, one run of a configuration, the comparison of
//! two experiment results down to the last bit and the digest a result
//! is pinned by, a seeded generator for operation sequences, and the
//! model scheduler with the harness that drives production against it.

// Each suite compiles its own copy and uses a subset.
#![allow(dead_code)]

pub mod lockstep;
pub mod model;

use dmr::core::{
    BackfillFamily, ExperimentConfig, ExperimentResult, PolicyKind, Simulation, WorkloadKind,
};
use dmr::metrics::{JobOutcome, SeriesRecorder};
use dmr::workload::WorkloadSource;
use dmr_bench::sweep::SweepCell;
use proptest::prelude::*;

pub fn kind_for(kind: u8) -> WorkloadKind {
    match kind % 5 {
        0 => WorkloadKind::FsPreliminary,
        1 => WorkloadKind::FsMicroSteps,
        2 => WorkloadKind::RealMix,
        3 => WorkloadKind::burst(),
        _ => WorkloadKind::diurnal(),
    }
}

/// Draw from `0..3` for the policies that never power nodes down, from
/// `0..4` to include the energy-aware one.
pub fn policy_for(policy: u8) -> PolicyKind {
    match policy % 4 {
        0 => PolicyKind::Algorithm1,
        1 => PolicyKind::utilization_target(),
        2 => PolicyKind::fair_share(),
        _ => PolicyKind::energy_aware(),
    }
}

pub fn family_for(family: u8) -> BackfillFamily {
    match family % 4 {
        0 => BackfillFamily::easy(1),
        1 => BackfillFamily::easy(8),
        2 => BackfillFamily::Conservative,
        _ => BackfillFamily::easy(64),
    }
}

/// One run of `cfg` over `source`.
pub fn run(cfg: &ExperimentConfig, source: &mut dyn WorkloadSource) -> ExperimentResult {
    Simulation::new(cfg)
        .source(source)
        .run()
        .expect("a valid configuration")
}

/// [`run`] with a recorder attached: the result and the per-job outcomes
/// in submission order.
pub fn run_recorded(
    cfg: &ExperimentConfig,
    source: &mut dyn WorkloadSource,
) -> (ExperimentResult, Vec<JobOutcome>) {
    let mut rec = SeriesRecorder::new();
    let result = Simulation::new(cfg)
        .source(source)
        .sink(&mut rec)
        .run()
        .expect("a valid configuration");
    (result, rec.into_parts().3)
}

/// One sweep-style CSV row for a result. The labels come from `cfg`
/// alone, so rows of two runs compared under one `cfg` can differ only
/// in the numbers — i.e. in the scheduling outcome.
pub fn csv_row(
    workload: &'static str,
    cfg: &ExperimentConfig,
    seed: u64,
    r: &ExperimentResult,
) -> String {
    SweepCell {
        scenario: "equivalence".into(),
        workload,
        policy: cfg.policy.label(),
        mode: "sync",
        backfill: cfg.backfill_family.label(),
        machine_mix: cfg.machine_mix.name(),
        faults: cfg.faults.name(),
        seed,
        nodes: cfg.nodes,
        summary: r.summary.clone(),
        events: r.events,
        past_schedules: r.past_schedules,
    }
    .csv_row()
}

/// Every summary field, the event count and the end time. `{:?}` prints
/// each f64 in its shortest round-trip form, so equal renderings are
/// equal bits: even sub-rounding divergence fails.
pub fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult) -> Result<(), String> {
    prop_assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    prop_assert_eq!(a.events, b.events, "event streams diverged");
    prop_assert_eq!(a.past_schedules, b.past_schedules);
    prop_assert_eq!(a.end_time, b.end_time);
    Ok(())
}

/// Two runs' per-job outcomes ([`run_recorded`]), bit for bit.
pub fn assert_outcomes_identical(a: &[JobOutcome], b: &[JobOutcome]) -> Result<(), String> {
    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    Ok(())
}

/// What a recorded run is pinned by: event count, reconfigurations,
/// makespan and mean waiting time bits, and an FNV-1a fold of every job's
/// start and end bits in submission order.
pub fn pin(r: &ExperimentResult, outcomes: &[JobOutcome]) -> (u64, u32, u64, u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes {
        for bits in [o.start.to_bits(), o.end.to_bits()] {
            digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (
        r.events,
        r.summary.reconfigurations,
        r.summary.makespan_s.to_bits(),
        r.summary.avg_waiting_s.to_bits(),
        digest,
    )
}

/// A xorshift generator seeded from `seed`: the operation sequences of
/// the lockstep drives.
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}
