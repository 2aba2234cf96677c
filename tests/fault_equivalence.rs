//! Fault-injection contracts: the zero-fault oracle, scripted-trace
//! determinism, the failed-while-allocated return path, and the
//! failure/elision interaction.
//!
//! The fault-injection PR threads node failures through every layer, but
//! its first acceptance bar is *absence*: under [`FaultLoad::None`] no
//! fault process is even constructed, so every experiment must be
//! bit-identical to pre-fault behaviour — raw f64 summary bits, event
//! counts, and sweep-CSV bytes — across the full workload × policy ×
//! fixed/flexible × sync/async × `SchedIndex` matrix, regardless of the
//! fault seed or a configured checkpoint interval. On top of that:
//! scripted [`FaultTrace`]s replay deterministically (same script ⇒
//! identical outcomes, run after run, on the production path and on the
//! scan reference, and across sweep thread counts), the PR 5
//! drained-while-allocated fix holds for *failures* on both paths and
//! on per-class clusters, and twin schedulers pin that an elided pass
//! never masks a failure invalidation.

mod common;

use common::{assert_bit_identical, csv_row, kind_for, policy_for, run};
use dmr::cluster::{Cluster, FailOutcome, NodeId, NodeState};
use dmr::core::{ExperimentConfig, FaultLoad, FaultTrace, MachineMix, Simulation};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobId, JobRequest, JobState, SchedIndex, Slurm, SlurmConfig};
use dmr_bench::scenario::fault_axis;
use dmr_bench::sweep::{csv_report, run_sweep};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The zero-fault oracle: `FaultLoad::None` is inert. Varying the
    /// fault seed, or configuring a checkpoint interval, must leave
    /// every path of the matrix bit-identical — including the fault
    /// columns of the CSV row, which stay at their identity values.
    #[test]
    fn zero_fault_load_is_bit_identical_across_the_matrix(
        seed in 0u64..10_000,
        fault_seed in 1u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy));
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        let base = run(&cfg, kind.build(jobs, seed).as_mut());
        // A different fault seed is unobservable when no process runs,
        // and an armed checkpoint interval is unobservable with nothing
        // to recover from — on both paths.
        for cfg2 in [
            cfg.with_faults(FaultLoad::None).with_fault_seed(fault_seed),
            cfg.with_ckpt_interval(600.0),
            cfg.scan_reference().with_fault_seed(fault_seed),
        ] {
            let r = run(&cfg2, kind.build(jobs, seed).as_mut());
            assert_bit_identical(&base, &r)?;
        }
        let s = &base.summary;
        prop_assert_eq!(s.failures, 0);
        prop_assert_eq!(s.requeues, 0);
        prop_assert_eq!(s.lost_work_s.to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(s.goodput_ratio.to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(s.restart_p95_s.to_bits(), 0.0f64.to_bits());
        let row = csv_row(kind.name(), &cfg, seed, &base);
        let with_seed = cfg.with_fault_seed(fault_seed);
        let r = run(&with_seed, kind.build(jobs, seed).as_mut());
        prop_assert_eq!(&row, &csv_row(kind.name(), &with_seed, seed, &r));
    }

    /// Scripted faultloads are deterministic: replaying the same
    /// [`FaultTrace`] over the same workload gives bit-identical results,
    /// run after run and on both paths.
    #[test]
    fn scripted_fault_traces_replay_deterministically(
        seed in 0u64..10_000,
        jobs in 4u32..26,
        kind in 0u8..5,
        events in proptest::collection::vec((1u64..5_000, 0u32..20, proptest::bool::ANY), 1..12),
    ) {
        let kind = kind_for(kind);
        let cfg = ExperimentConfig::preliminary();
        // Build a well-formed script: nondecreasing instants, fail or
        // repair drawn per event (repairs of never-failed nodes are
        // legal no-ops at the cluster layer).
        let mut t = 0u64;
        let mut script = String::new();
        for &(dt, node, repair) in &events {
            t += dt;
            let verb = if repair { "repair" } else { "fail" };
            script.push_str(&format!("{t} {verb} {node}\n"));
        }
        let run = |cfg: &ExperimentConfig| {
            let trace = FaultTrace::parse(&script).expect("generated script parses");
            Simulation::new(cfg)
                .source(kind.build(jobs, seed).as_mut())
                .faults(trace)
                .run()
                .expect("the script names the machine's nodes only")
        };
        let (a, b) = (run(&cfg), run(&cfg));
        assert_bit_identical(&a, &b)?;
        let scan = cfg.scan_reference();
        let (c, d) = (run(&scan), run(&scan));
        assert_bit_identical(&c, &d)?;
        assert_bit_identical(&a, &c)?;
    }

    /// The PR 5 fix, extended to failures: a node that fails *while
    /// allocated* returns to the unavailable pool when its job's nodes
    /// release — never to a free set — on both `SchedIndex` paths and
    /// on a per-class (three-FreeSet) cluster alike. Repair is the
    /// only transition that makes it placeable again.
    #[test]
    fn failed_while_allocated_nodes_return_unavailable(
        seed in 0u64..100_000,
        nodes in 8u32..33,
        hetero in proptest::bool::ANY,
        reference in proptest::bool::ANY,
        rounds in 10u64..40,
    ) {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        if reference {
            cfg.sched_index = SchedIndex::ScanReference;
        }
        let cluster = if hetero {
            Cluster::with_classes(MachineMix::Hetero3.table(nodes, 16))
        } else {
            Cluster::new(nodes, 16)
        };
        let mut s = Slurm::new(cluster, cfg);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut running: Vec<JobId> = Vec::new();
        let mut down: Vec<NodeId> = Vec::new();
        for round in 0..rounds {
            let now = SimTime::from_secs(round * 11);
            match step() % 4 {
                0 | 1 => {
                    let need = 1 + (step() % u64::from(nodes.min(8))) as u32;
                    let id = s.submit(
                        JobRequest::rigid(format!("j{round}"), need)
                            .with_expected_runtime(Span::from_secs(120 + step() % 600)),
                        now,
                    );
                    let _ = id;
                }
                2 => {
                    let node = NodeId((step() % u64::from(nodes)) as u32);
                    match s.fail_node(node) {
                        FailOutcome::Busy(owner) => {
                            let victim = JobId(owner);
                            running.retain(|&id| id != victim);
                            // The kill releases the victim's nodes; the
                            // failed one must land unavailable, the rest
                            // free.
                            prop_assert!(s.requeue_failed(victim, now).is_some());
                            prop_assert_eq!(s.cluster().node_state(node), NodeState::Down);
                            prop_assert_eq!(s.cluster().owner_of(node), None);
                            down.push(node);
                        }
                        FailOutcome::Idle => {
                            prop_assert_eq!(s.cluster().node_state(node), NodeState::Down);
                            down.push(node);
                        }
                        FailOutcome::Skipped => {}
                    }
                }
                _ => {
                    if !down.is_empty() {
                        let node = down.remove((step() % down.len() as u64) as usize);
                        s.repair_node(node);
                        prop_assert_eq!(s.cluster().node_state(node), NodeState::Up);
                    } else if let Some(id) = running.pop() {
                        s.complete(id, now);
                    }
                }
            }
            for start in s.schedule(now) {
                running.push(start.id);
            }
            // The maintained free sets — per-class included — must agree
            // with first principles after every mutation; in particular
            // no Down node may ever sit in a free set.
            prop_assert!(s.check_invariants().is_ok(), "round {}", round);
            for &node in &down {
                prop_assert_eq!(s.cluster().node_state(node), NodeState::Down);
            }
        }
    }

    /// Twin schedulers (production vs scan reference) driven through
    /// churn with injected failures and repairs: every pass must agree,
    /// and whenever the production twin elides a pass the reference must
    /// have started nothing — i.e. no elided pass ever masks a failure
    /// or repair invalidation.
    #[test]
    fn elision_never_masks_a_failure_invalidation(
        seed in 0u64..100_000,
        nodes in 8u32..25,
    ) {
        let mk = |sched_index: SchedIndex| {
            let mut cfg = SlurmConfig::for_cluster(nodes);
            cfg.sched_index = sched_index;
            Slurm::new(Cluster::new(nodes, 16), cfg)
        };
        let mut on = mk(SchedIndex::Arena);
        let mut off = mk(SchedIndex::ScanReference);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut down: Vec<NodeId> = Vec::new();
        for round in 0..50u64 {
            let now = SimTime::from_secs(round * 7);
            match step() % 6 {
                0..=2 => {
                    let need = 1 + (step() % u64::from(nodes)) as u32;
                    let dur = 30 + step() % 900;
                    let req = || {
                        JobRequest::rigid(format!("j{round}"), need)
                            .with_expected_runtime(Span::from_secs(dur))
                    };
                    let a = on.submit(req(), now);
                    let b = off.submit(req(), now);
                    prop_assert_eq!(a, b, "ids diverged at submit");
                }
                3 => {
                    let node = NodeId((step() % u64::from(nodes)) as u32);
                    let a = on.fail_node(node);
                    let b = off.fail_node(node);
                    prop_assert_eq!(a, b, "fail outcomes diverged at round {}", round);
                    match a {
                        FailOutcome::Busy(owner) => {
                            let x = on.requeue_failed(JobId(owner), now);
                            let y = off.requeue_failed(JobId(owner), now);
                            prop_assert_eq!(x, y, "requeue diverged at round {}", round);
                            down.push(node);
                        }
                        FailOutcome::Idle => down.push(node),
                        FailOutcome::Skipped => {}
                    }
                }
                4 if !down.is_empty() => {
                    let node = down.remove((step() % down.len() as u64) as usize);
                    prop_assert_eq!(on.repair_node(node), off.repair_node(node));
                }
                _ => {}
            }
            let before = on.incremental_stats();
            let a = on.schedule(now);
            let b = off.schedule(now);
            prop_assert_eq!(&a, &b, "schedule diverged at round {}", round);
            let mid = on.incremental_stats();
            if mid.sched_passes_elided > before.sched_passes_elided {
                prop_assert!(
                    b.is_empty(),
                    "elided schedule pass at round {} masked starts {:?}",
                    round,
                    b
                );
            }
            let a = on.backfill_pass(now);
            let b = off.backfill_pass(now);
            prop_assert_eq!(&a, &b, "backfill diverged at round {}", round);
            let after = on.incremental_stats();
            if after.backfill_passes_elided > mid.backfill_passes_elided {
                prop_assert!(
                    b.is_empty(),
                    "elided backfill pass at round {} masked starts {:?}",
                    round,
                    b
                );
            }
            prop_assert!(on.check_invariants().is_ok());
            prop_assert!(off.check_invariants().is_ok());
            prop_assert_eq!(
                on.cluster().free_nodes(),
                off.cluster().free_nodes(),
                "occupancy diverged at round {}",
                round
            );
        }
        // Sanity on the twins' state accounting at the end of the storm.
        let live: Vec<JobId> = on
            .jobs()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        prop_assert_eq!(live.len(), on.running_count());
    }
}

/// A harsh preset faultload sweeps deterministically: the fault-axis
/// scenario cells produce byte-identical CSV whatever the thread count —
/// the `--threads` half of the determinism acceptance bar.
#[test]
fn fault_axis_sweep_is_byte_identical_across_thread_counts() {
    let scenarios = fault_axis(10);
    let seeds = [dmr_bench::SEED, 7];
    let serial = csv_report(&run_sweep(&scenarios, &seeds, 1));
    let parallel = csv_report(&run_sweep(&scenarios, &seeds, 8));
    assert_eq!(serial, parallel, "fault sweep depends on thread count");
    let wide = csv_report(&run_sweep(&scenarios, &seeds, 3));
    assert_eq!(serial, wide);
    assert!(
        serial.contains("harsh"),
        "harsh cells missing from the axis"
    );
}
