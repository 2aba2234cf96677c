//! What the `*_equivalence.rs` suites share: the selectors their
//! properties draw from, and the comparison of two experiment results
//! down to the last bit.

// Each suite compiles its own copy and uses a subset.
#![allow(dead_code)]

use dmr::core::{BackfillFamily, ExperimentConfig, ExperimentResult, PolicyKind, WorkloadKind};
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

/// Every summary field, the event count, the end time and the per-job
/// outcomes (empty under online telemetry, full otherwise — either way
/// they must agree). Floats are compared by raw bits: even sub-rounding
/// divergence fails.
pub fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult) -> Result<(), String> {
    let (sa, sb) = (&a.summary, &b.summary);
    prop_assert_eq!(sa.jobs, sb.jobs);
    prop_assert_eq!(sa.reconfigurations, sb.reconfigurations);
    prop_assert_eq!(sa.failures, sb.failures);
    prop_assert_eq!(sa.requeues, sb.requeues);
    for (x, y, what) in [
        (sa.makespan_s, sb.makespan_s, "makespan"),
        (sa.utilization, sb.utilization, "utilization"),
        (sa.avg_waiting_s, sb.avg_waiting_s, "avg_wait"),
        (sa.avg_execution_s, sb.avg_execution_s, "avg_exec"),
        (sa.avg_completion_s, sb.avg_completion_s, "avg_compl"),
        (sa.waiting_q.p50_s, sb.waiting_q.p50_s, "p50_wait"),
        (sa.waiting_q.p95_s, sb.waiting_q.p95_s, "p95_wait"),
        (sa.waiting_q.p99_s, sb.waiting_q.p99_s, "p99_wait"),
        (sa.execution_q.p50_s, sb.execution_q.p50_s, "p50_exec"),
        (sa.execution_q.p95_s, sb.execution_q.p95_s, "p95_exec"),
        (sa.execution_q.p99_s, sb.execution_q.p99_s, "p99_exec"),
        (sa.completion_q.p50_s, sb.completion_q.p50_s, "p50_compl"),
        (sa.completion_q.p95_s, sb.completion_q.p95_s, "p95_compl"),
        (sa.completion_q.p99_s, sb.completion_q.p99_s, "p99_compl"),
        (sa.energy_to_solution_j, sb.energy_to_solution_j, "energy_j"),
        (sa.avg_watts, sb.avg_watts, "avg_watts"),
        (sa.lost_work_s, sb.lost_work_s, "lost_work"),
        (sa.goodput_ratio, sb.goodput_ratio, "goodput"),
        (sa.restart_p95_s, sb.restart_p95_s, "restart_p95"),
    ] {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverged: {} vs {}",
            what,
            x,
            y
        );
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(&sa.class_utilization),
        bits(&sb.class_utilization),
        "class utilization diverged"
    );
    prop_assert_eq!(a.events, b.events, "event streams diverged");
    prop_assert_eq!(a.past_schedules, b.past_schedules);
    prop_assert_eq!(a.end_time, b.end_time);
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        prop_assert_eq!(x.submit.to_bits(), y.submit.to_bits());
        prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
        prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
        prop_assert_eq!(x.reconfigurations, y.reconfigurations);
    }
    Ok(())
}
