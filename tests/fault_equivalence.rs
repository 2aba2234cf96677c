//! Fault-injection contracts: the zero-fault oracle, scripted-trace
//! determinism, the failed-while-allocated return path, and the
//! failure/elision interaction.
//!
//! The fault-injection PR threads node failures through every layer, but
//! its first acceptance bar is *absence*: under [`FaultLoad::None`] no
//! fault process is even constructed, so every experiment must be
//! bit-identical to pre-fault behaviour — raw f64 summary bits, event
//! counts, and sweep-CSV bytes — across the full workload × policy ×
//! fixed/flexible × sync/async matrix, regardless of the fault seed or a
//! configured checkpoint interval. On top of that: scripted
//! [`FaultTrace`]s replay deterministically (same script ⇒ identical
//! outcomes, run after run, and across sweep thread counts), a node that
//! fails while allocated returns to the unavailable pool — not a free
//! set — on uniform and per-class clusters, and the lockstep harness pins
//! that an elided pass never masks a failure invalidation.

mod common;

use common::lockstep::{Lockstep, Op, Setup};
use common::{assert_bit_identical, csv_row, kind_for, policy_for, run, xorshift};
use dmr::cluster::{ClassTable, Cluster, FailOutcome, NodeId, NodeState};
use dmr::core::{ExperimentConfig, FaultLoad, FaultTrace, MachineMix, Simulation};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobId, JobRequest, Slurm, SlurmConfig};
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
        // to recover from.
        for cfg2 in [
            cfg.with_faults(FaultLoad::None).with_fault_seed(fault_seed),
            cfg.with_ckpt_interval(600.0),
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
    /// run after run.
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
    }

    /// The PR 5 fix, extended to failures: a node that fails *while
    /// allocated* returns to the unavailable pool when its job's nodes
    /// release — never to a free set — on a uniform and on a per-class
    /// (three-FreeSet) cluster alike. Repair is the only transition that
    /// makes it placeable again.
    #[test]
    fn failed_while_allocated_nodes_return_unavailable(
        seed in 0u64..100_000,
        nodes in 8u32..33,
        hetero in proptest::bool::ANY,
        rounds in 10u64..40,
    ) {
        let cfg = SlurmConfig::for_cluster(nodes);
        let cluster = if hetero {
            Cluster::with_classes(MachineMix::Hetero3.table(nodes, 16))
        } else {
            Cluster::new(nodes, 16)
        };
        let mut s = Slurm::new(cluster, cfg);
        let mut step = xorshift(seed);
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

    /// Production and the model of the lockstep harness driven through
    /// churn with injected failures and repairs: every pass must agree,
    /// so an elided pass — after which the model, which ran it, must
    /// have started nothing — never masks a failure or repair
    /// invalidation.
    #[test]
    fn elision_never_masks_a_failure_invalidation(
        seed in 0u64..100_000,
        nodes in 8u32..25,
    ) {
        let cfg = SlurmConfig::for_cluster(nodes);
        let mut h = Lockstep::new(Setup::new(ClassTable::uniform(nodes, 16), cfg));
        let mut step = xorshift(seed);
        let mut down: Vec<NodeId> = Vec::new();
        for round in 0..50u64 {
            h.at(SimTime::from_secs(round * 7))?;
            match step() % 6 {
                0..=2 => {
                    let need = 1 + (step() % u64::from(nodes)) as u32;
                    let dur = 30 + step() % 900;
                    let req = JobRequest::rigid(format!("j{round}"), need)
                        .with_expected_runtime(Span::from_secs(dur));
                    h.submit(req)?;
                }
                3 => {
                    let node = NodeId((step() % u64::from(nodes)) as u32);
                    if h.slurm().cluster().node_state(node) == NodeState::Up {
                        down.push(node);
                    }
                    h.apply(Op::Fail(node))?;
                }
                4 if !down.is_empty() => {
                    let node = down.remove((step() % down.len() as u64) as usize);
                    h.apply(Op::Repair(node))?;
                }
                _ => {}
            }
            h.schedule()?;
            h.backfill()?;
        }
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
