//! Determinism smoke test: the whole stack — Feitelson workload
//! generation, the Slurm scheduler, the Algorithm-1 policy, the
//! discrete-event driver — must be a pure function of (config, seed).
//! Two runs with identical inputs yield an identical
//! [`dmr::metrics::WorkloadSummary`] and identical per-job outcomes.

use dmr::core::{run_experiment, ExperimentConfig, ExperimentResult, SimJob};
use dmr::workload::{WorkloadConfig, WorkloadGenerator};

fn run_once(cfg: &ExperimentConfig, jobs: u32, seed: u64) -> ExperimentResult {
    let specs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(jobs), seed).generate();
    run_experiment(cfg, &SimJob::from_specs(specs))
}

fn assert_identical(a: &ExperimentResult, b: &ExperimentResult) {
    // Summary: exact equality, including float fields — determinism means
    // bit-identical arithmetic, not approximate agreement.
    assert_eq!(a.summary.jobs, b.summary.jobs);
    assert_eq!(a.summary.makespan_s, b.summary.makespan_s);
    assert_eq!(a.summary.utilization, b.summary.utilization);
    assert_eq!(a.summary.avg_waiting_s, b.summary.avg_waiting_s);
    assert_eq!(a.summary.avg_execution_s, b.summary.avg_execution_s);
    assert_eq!(a.summary.avg_completion_s, b.summary.avg_completion_s);
    assert_eq!(a.summary.reconfigurations, b.summary.reconfigurations);
    // Per-job outcomes, in order.
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.submit, y.submit);
        assert_eq!(x.start, y.start);
        assert_eq!(x.end, y.end);
        assert_eq!(x.reconfigurations, y.reconfigurations);
    }
    // The event streams themselves must match, not just their aggregates.
    assert_eq!(a.events, b.events);
}

#[test]
fn same_config_same_seed_is_bit_identical() {
    let cfg = ExperimentConfig::preliminary();
    for seed in [0u64, 1, 20170814] {
        let a = run_once(&cfg, 25, seed);
        let b = run_once(&cfg, 25, seed);
        assert_identical(&a, &b);
    }
}

#[test]
fn asynchronous_mode_is_deterministic_too() {
    let cfg = ExperimentConfig::preliminary().asynchronous();
    let a = run_once(&cfg, 20, 9);
    let b = run_once(&cfg, 20, 9);
    assert_identical(&a, &b);
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a trivially-constant pipeline faking the test above.
    let cfg = ExperimentConfig::preliminary();
    let a = run_once(&cfg, 25, 1);
    let b = run_once(&cfg, 25, 2);
    assert_ne!(a.summary.makespan_s, b.summary.makespan_s);
}

/// The paper's 20-node testbed under synchronous checks, with jobs that
/// reach their step boundaries at one instant. `ja` and `jb` start
/// together and hold what they asked for; after a check that changes
/// nothing the driver schedules the next segment *relayed* behind the
/// 0.3 s check pause instead of handling a pause-end event per job. `z`,
/// identical to them, arrives exactly when their first pause ends, on
/// nodes a rigid job has just left: its first segment is scheduled from
/// the arrival's pass, an ordinary event, and ends at the instant theirs
/// do. Four nodes are free by then and all three jobs would double onto
/// them, so who gets them is decided by the order in which the three
/// same-instant `SegmentDone`s pop: `z` first, because its segment was
/// scheduled before the pause ends were handled. A relay that ranked a
/// segment as of the check (0.3 s early) rather than as of the pause end
/// would hand the nodes to `ja`.
fn lockstep_jobs(steps: u32) -> Vec<SimJob> {
    use dmr::core::SpeedupCurve;
    use dmr::workload::{AppClass, JobSpec, MalleabilitySpec};
    let job = |index: u32, arrival_s: f64, flexible: bool, steps: u32, step_s: f64| SimJob {
        spec: JobSpec {
            index,
            arrival_s,
            submit_procs: 4,
            steps,
            step_s,
            walltime_s: steps as f64 * step_s * 2.5,
            data_bytes: 1 << 28,
            app: AppClass::Fs,
            flexible,
            gpu: false,
            malleability: MalleabilitySpec {
                min_procs: 1,
                max_procs: 8,
                preferred: None,
                factor: 2,
                sched_period_s: None,
            },
        },
        curve: SpeedupCurve::Linear,
    };
    vec![
        job(0, 0.0, true, steps, 10.0),  // ja
        job(1, 0.0, true, steps, 10.0),  // jb
        job(2, 0.0, false, 1, 10.2),     // leaves its nodes to z
        job(3, 0.0, false, 1, 15.0),     // leaves the nodes the three compete for
        job(4, 0.0, false, 1, 60.0),     // keeps the rest of the machine busy for a while
        job(5, 10.3, true, steps, 10.0), // z
        job(6, 50.0, false, 6, 10.0),    // queues: someone shrinks for it
        job(7, 50.0, true, steps, 10.0), // queues behind it
    ]
}

/// What a run is pinned by: event count, reconfigurations, makespan and
/// mean waiting time bits, and an FNV-1a fold of every job's start and
/// end bits in submission order.
fn pin(r: &ExperimentResult) -> (u64, u32, u64, u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for o in &r.outcomes {
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

/// Recorded from the build before relays existed (the commit this one
/// follows), where every check pause ended in a `ReconfigDone` event of
/// its own. To re-record after an intended change of behaviour: print
/// `pin(&r)` in the two tests below and copy the tuples.
const LOCKSTEP_CALM: (u64, u32, u64, u64, u64) = (
    109,
    4,
    4639433213434468445,
    4609844850072326857,
    17214997311278668430,
);
const LOCKSTEP_HARSH: (u64, u32, u64, u64, u64) = (
    18059,
    13,
    4674415293753880182,
    4659183853417014283,
    1301103906732110954,
);

#[test]
fn relayed_check_pauses_keep_the_lockstep_order() {
    let r = run_experiment(&ExperimentConfig::preliminary(), &lockstep_jobs(12));
    assert_eq!(r.summary.jobs, 8);
    // `z` got the contested nodes and finished first of the three.
    let end = |i: usize| r.outcomes[i].end;
    assert!(end(5) < end(0) && end(5) < end(1), "z lost the tie");
    assert_eq!(pin(&r), LOCKSTEP_CALM);
}

/// The same jobs running for hours under the harsh faultload, with a
/// check pause long enough (a fifth of a step) for failures to land in
/// it: with this fault seed three jobs are killed and requeued, two of
/// them during a check pause — their relayed `SegmentDone` is cancelled
/// before its relay — and one mid-segment, after it.
#[test]
fn node_failures_cancel_relayed_segments_on_both_sides_of_the_relay() {
    let mut cfg = ExperimentConfig::preliminary()
        .with_faults(dmr::core::FaultLoad::Harsh)
        .with_fault_seed(8);
    cfg.check_overhead_s = 2.5;
    let r = run_experiment(&cfg, &lockstep_jobs(1500));
    assert_eq!((r.summary.jobs, r.summary.requeues), (8, 3));
    assert_eq!(pin(&r), LOCKSTEP_HARSH);
}

/// The benchmark's `trace_mixed` configuration on a 32-node machine:
/// three machine classes (standard, 5/4-slower big-memory, 3/4-faster
/// GPU), one job in four confined to the GPU class, conservative
/// backfill, the energy-aware policy, the harsh faultload and 600 s
/// checkpoints — every path where the classes cost something: per-class
/// timelines, each job's slowest-class factor through start / expand /
/// shrink / kill-and-requeue, and the power meter.
fn trace_mixed_config() -> ExperimentConfig {
    use dmr::core::{FaultLoad, MachineMix, PolicyKind};
    ExperimentConfig::preliminary()
        .with_nodes(32)
        .with_machine_mix(MachineMix::Hetero3)
        .with_faults(FaultLoad::Harsh)
        .with_fault_seed(20170814)
        .with_ckpt_interval(600.0)
        .conservative_backfill()
        .with_policy(PolicyKind::energy_aware())
}

/// What the three-class run is pinned by: events, reconfigurations,
/// failures, requeues, makespan and energy bits, and the FNV-1a fold of
/// every job's start and end bits.
type MixedPin = (u64, u32, u64, u64, u64, u64, u64);

/// Recorded from the build before a running job's slowest-class factor
/// was stored, class timelines were built on first query and the power
/// meter was charged on a change counter. Re-record as for the lockstep
/// pins above.
const TRACE_MIXED_300: MixedPin = (
    17766,
    175,
    15,
    4,
    4680348093108751708,
    4738881594021293022,
    8488999103349633714,
);

#[test]
fn three_class_conservative_faulty_run_is_pinned() {
    use dmr::core::run_experiment_streaming;
    use dmr::workload::{Feitelson, GpuShare};
    let feitelson = Feitelson::new(WorkloadConfig::fs_preliminary(300), 20170814);
    let r = run_experiment_streaming(&trace_mixed_config(), &mut GpuShare::new(feitelson, 250));
    assert_eq!(r.summary.jobs, 300);
    let (events, reconfigurations, _, _, digest) = pin(&r);
    let got = (
        events,
        reconfigurations,
        r.summary.failures,
        r.summary.requeues,
        r.summary.makespan_s.to_bits(),
        r.summary.energy_to_solution_j.to_bits(),
        digest,
    );
    assert_eq!(got, TRACE_MIXED_300);
}
