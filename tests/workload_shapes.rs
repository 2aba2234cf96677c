//! End-to-end shape tests: the qualitative claims of the paper's
//! evaluation must hold on freshly simulated workloads.

use dmr::core::{compare_fixed_flexible, ExperimentConfig, ExperimentResult, Simulation};
use dmr::workload::{JobSpec, WorkloadConfig, WorkloadGenerator};

fn production_pair(jobs: u32, seed: u64) -> (ExperimentResult, ExperimentResult) {
    let specs = WorkloadGenerator::new(WorkloadConfig::real_mix(jobs), seed).generate();
    compare_fixed_flexible(&ExperimentConfig::production(), &specs).unwrap()
}

fn run(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> ExperimentResult {
    Simulation::new(cfg).source(&mut jobs.iter()).run().unwrap()
}

/// Figure 10: flexible workloads cut the makespan by tens of percent.
#[test]
fn production_flexible_cuts_makespan_substantially() {
    let (fixed, flexible) = production_pair(50, 1);
    let gain = (fixed.summary.makespan_s - flexible.summary.makespan_s) / fixed.summary.makespan_s;
    assert!(
        gain > 0.20,
        "expected >20% gain, got {:.1}% (fixed {}, flexible {})",
        gain * 100.0,
        fixed.summary.makespan_s,
        flexible.summary.makespan_s
    );
}

/// Table II row 1: flexible runs allocate substantially fewer node-hours.
#[test]
fn production_flexible_reduces_allocation_rate() {
    let (fixed, flexible) = production_pair(50, 2);
    assert!(
        fixed.summary.utilization > 0.85,
        "{}",
        fixed.summary.utilization
    );
    assert!(
        flexible.summary.utilization < fixed.summary.utilization - 0.15,
        "fixed {} vs flexible {}",
        fixed.summary.utilization,
        flexible.summary.utilization
    );
}

/// Table II rows 2-4: waiting time collapses, execution time grows, and
/// completion time still wins.
#[test]
fn production_wait_drops_exec_rises_completion_wins() {
    let (fixed, flexible) = production_pair(50, 3);
    assert!(
        flexible.summary.avg_waiting_s < fixed.summary.avg_waiting_s * 0.6,
        "wait: fixed {} flexible {}",
        fixed.summary.avg_waiting_s,
        flexible.summary.avg_waiting_s
    );
    assert!(
        flexible.summary.avg_execution_s > fixed.summary.avg_execution_s * 1.1,
        "exec: fixed {} flexible {}",
        fixed.summary.avg_execution_s,
        flexible.summary.avg_execution_s
    );
    assert!(
        flexible.summary.avg_completion_s < fixed.summary.avg_completion_s,
        "completion: fixed {} flexible {}",
        fixed.summary.avg_completion_s,
        flexible.summary.avg_completion_s
    );
}

/// Figure 3 shape: the FS preliminary study favours flexible for small
/// and medium workloads.
#[test]
fn preliminary_fs_workloads_gain() {
    for (jobs, seed) in [(10u32, 4u64), (25, 4)] {
        let specs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(jobs), seed).generate();
        let (fixed, flexible) =
            compare_fixed_flexible(&ExperimentConfig::preliminary(), &specs).unwrap();
        assert!(
            flexible.summary.makespan_s < fixed.summary.makespan_s,
            "{jobs} jobs: flexible {} !< fixed {}",
            flexible.summary.makespan_s,
            fixed.summary.makespan_s
        );
    }
}

/// §VIII-C: synchronous scheduling is at least as good as asynchronous
/// (the paper concludes "there is no need of using an asynchronous
/// scheduling").
#[test]
fn synchronous_beats_asynchronous_overall() {
    let jobs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(25), 7).generate();
    let sync = run(&ExperimentConfig::preliminary(), &jobs);
    let asynchronous = run(&ExperimentConfig::preliminary().asynchronous(), &jobs);
    assert!(
        sync.summary.makespan_s <= asynchronous.summary.makespan_s * 1.02,
        "sync {} vs async {}",
        sync.summary.makespan_s,
        asynchronous.summary.makespan_s
    );
}

/// Determinism across identical configurations, divergence across seeds.
#[test]
fn simulation_is_deterministic_per_seed() {
    let (f1, x1) = production_pair(30, 11);
    let (f2, x2) = production_pair(30, 11);
    assert_eq!(f1.summary.makespan_s, f2.summary.makespan_s);
    assert_eq!(x1.summary.makespan_s, x2.summary.makespan_s);
    assert_eq!(x1.events, x2.events);
    let (_, x3) = production_pair(30, 12);
    assert_ne!(
        x1.summary.makespan_s, x3.summary.makespan_s,
        "different seeds should differ"
    );
}

/// The backfill ablation: disabling backfill must not help the fixed
/// workload (it is one of the design choices DESIGN.md calls out).
#[test]
fn backfill_ablation_does_not_help_fixed() {
    let jobs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(25), 9).generate();
    let mut cfg = ExperimentConfig::preliminary().as_fixed();
    let with_bf = run(&cfg, &jobs);
    cfg.backfill = false;
    let without_bf = run(&cfg, &jobs);
    assert!(
        with_bf.summary.makespan_s <= without_bf.summary.makespan_s,
        "backfill on {} vs off {}",
        with_bf.summary.makespan_s,
        without_bf.summary.makespan_s
    );
}
