//! Property test: the production scheduler path is bit-identical to the
//! scan reference.
//!
//! Every per-pass scan has an incremental structure in front of it: the
//! pending queue is an ordered index keyed by `(boosted, submit, seq)`
//! (exact because the multifactor age term grows uniformly), backfill
//! reservations walk a running-jobs end-time index, dead resizers are
//! reaped through a reverse-dependency map, node selection takes the
//! lowest run of a sorted free set, job records sit in a slab, fruitless
//! passes leave memos that elide their repeats, and the driver batches
//! same-instant arrivals into one scheduling pass. The from-scratch
//! implementations survive behind
//! [`dmr::slurm::SchedIndex::ScanReference`] as the one reference; this
//! suite drives *full experiments* through both paths and requires
//! bit-identical results, down to the raw f64 bits of every summary field
//! and the exact bytes of the sweep CSV row — one axis at a time over
//! workload family × resize policy × fixed/flexible × sync/async, and
//! then over the product of every feature the configuration can turn on.

mod common;

use common::{assert_bit_identical, csv_row, family_for, kind_for, policy_for};
use dmr::core::{run_experiment_streaming, ExperimentConfig, FaultLoad, MachineMix, WorkloadKind};
use dmr_bench::scenario::smoke_registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn indexed_experiments_match_scan_reference_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .online();
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let scan = run_experiment_streaming(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&arena, &scan)?;
        // The derived sweep CSV rows must be byte-identical too.
        prop_assert_eq!(
            csv_row(kind.name(), &cfg, seed, &arena),
            csv_row(kind.name(), &cfg, seed, &scan)
        );
    }
}

// The buffered (Full-telemetry) path pins per-job outcomes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn indexed_outcomes_match_scan_reference(seed in 0u64..1000, jobs in 1u32..20) {
        let cfg = ExperimentConfig::preliminary();
        let kind = WorkloadKind::FsPreliminary;
        let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let scan = run_experiment_streaming(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(arena.outcomes.len(), jobs as usize);
        assert_bit_identical(&arena, &scan)?;
    }
}

// Every feature at once. The properties above and in the sibling suites
// sample one axis at a time; this one draws whole configurations —
// workload × all four policies (the energy-aware one powers nodes down)
// × backfill family × machine mix × fault load and seed × checkpoint
// interval × sync/async × fixed/flexible × machine size × job count —
// and holds production to the reference on each. One case of 64 cells,
// so that coverage of the run as a whole can be asserted at the end.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]
    #[test]
    fn feature_cross_product_matches_scan_reference(
        cells in proptest::collection::vec(
            (
                (0u8..5, 0u8..4, 0u8..4, proptest::bool::ANY, 0u8..3, 0u64..10_000),
                (0u32..4, proptest::bool::ANY, proptest::bool::ANY, 20u32..124, 1u32..151, 0u64..10_000),
            ),
            64..65,
        ),
    ) {
        let (mut elided, mut failures) = (0, 0);
        for cell in cells {
            let ((kind, policy, family, hetero, faults, fault_seed), rest) = cell;
            let (ckpt, asynchronous, fixed, nodes, jobs, seed) = rest;
            let kind = kind_for(kind);
            let mut cfg = ExperimentConfig::preliminary()
                .with_nodes(nodes)
                .with_policy(policy_for(policy))
                .with_backfill_family(family_for(family))
                .with_machine_mix(if hetero { MachineMix::Hetero3 } else { MachineMix::Uniform })
                .with_faults([FaultLoad::None, FaultLoad::Rare, FaultLoad::Harsh][faults as usize])
                .with_fault_seed(fault_seed)
                .online();
            if ckpt > 0 {
                cfg = cfg.with_ckpt_interval(f64::from(ckpt) * 600.0);
            }
            if asynchronous {
                cfg = cfg.asynchronous();
            }
            if fixed {
                cfg = cfg.as_fixed();
            }
            let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
            let scan = run_experiment_streaming(
                &cfg.scan_reference(),
                kind.build(jobs, seed).as_mut(),
            );
            assert_bit_identical(&arena, &scan).map_err(|e| format!("{e}\nin {cell:?}"))?;
            prop_assert_eq!(
                csv_row(kind.name(), &cfg, seed, &arena),
                csv_row(kind.name(), &cfg, seed, &scan),
                "{:?}",
                cell
            );
            let passes = arena.sched;
            elided += passes.sched_passes_elided + passes.backfill_passes_elided;
            failures += arena.summary.failures;
        }
        prop_assert!(elided > 0, "no cell elided a pass");
        prop_assert!(failures > 0, "no cell injected a failure");
    }
}

/// Every cell of the CI scenario grid — all workload families × policies
/// × modes × backfill selections × machine mixes × fault loads — produces
/// byte-identical sweep CSV rows under both paths.
#[test]
fn smoke_registry_sweep_rows_are_byte_identical_across_hot_paths() {
    let seed = dmr_bench::SEED;
    for sc in smoke_registry() {
        let cfg = sc.config();
        let row = |run: &ExperimentConfig| {
            let r = run_experiment_streaming(run, sc.source(seed).as_mut());
            csv_row(sc.workload.name(), &cfg, seed, &r)
        };
        assert_eq!(
            row(&cfg),
            row(&cfg.scan_reference()),
            "scenario {} diverged between the production and scan paths",
            sc.name()
        );
    }
}

/// The paper's 20-node testbed about 17x overloaded, malleable: the
/// queue runs over a thousand deep, so nearly every reconfiguration check
/// is a beneficiary search over a queue deep enough for the need-keyed
/// pending view (production path) and the walk of the sorted order (scan
/// path) to part ways if they ever could.
#[test]
fn overloaded_malleable_run_matches_scan_reference() {
    let cfg = ExperimentConfig::preliminary().online();
    let kind = WorkloadKind::FsPreliminary;
    let (jobs, seed) = (2000, dmr_bench::SEED);
    let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
    let scan = run_experiment_streaming(&cfg.scan_reference(), kind.build(jobs, seed).as_mut());
    assert_eq!(arena.summary.jobs, jobs as usize);
    assert!(
        arena.summary.reconfigurations > 1000,
        "only {} reconfigurations: the queue never got deep",
        arena.summary.reconfigurations
    );
    assert_bit_identical(&arena, &scan).unwrap();
    assert_eq!(
        csv_row(kind.name(), &cfg, seed, &arena),
        csv_row(kind.name(), &cfg, seed, &scan)
    );
}

/// The indexed EASY pass evaluates a bounded number of jobs per pass and
/// per start, whatever the queue depth; the walk evaluates the whole
/// queue. Counted, not timed, so no host noise can blur it: on the same
/// overloaded run (rigid and malleable) the production path stays under
/// 8 evaluations per executed pass and started job while the scan twin —
/// with identical decisions — pays more than twenty times that.
#[test]
fn indexed_easy_pass_examines_a_bounded_number_of_jobs() {
    let kind = WorkloadKind::FsPreliminary;
    let (jobs, seed) = (2000, dmr_bench::SEED);
    let flexible = ExperimentConfig::preliminary().online();
    for cfg in [flexible.as_fixed(), flexible] {
        let arena = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        let scan = run_experiment_streaming(&cfg.scan_reference(), kind.build(jobs, seed).as_mut());
        assert_bit_identical(&arena, &scan).unwrap();
        let budget = 8 * (arena.sched.backfill_passes_run + u64::from(jobs));
        let (fast, walk) = (
            arena.sched.backfill_jobs_examined,
            scan.sched.backfill_jobs_examined,
        );
        assert!(fast <= budget, "arena examined {fast} jobs > {budget}");
        assert!(
            walk > 20 * budget,
            "scan twin examined {walk} jobs, not > 20 x {budget}: queue too shallow to tell"
        );
    }
}
