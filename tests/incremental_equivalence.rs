//! Property test: incremental scheduling is bit-identical to the
//! from-scratch reference, and every elided pass equals the pass it
//! elided.
//!
//! The production scheduler is stateful *between* passes: fruitless
//! scheduling and backfill passes leave a memo (the blocked head's need;
//! the minimum need over the pass's non-fitting refusals and whether a
//! fitting job was refused), and a later pass whose trigger provably
//! cannot change any decision returns in O(1) instead of re-walking the
//! queue. Every mutation — submit, start, boost, complete, cancel,
//! shrink, expand, estimate refresh — either invalidates the memos or
//! tightens them (a submission below the live watermark lowers it).
//! There is no switch for any of this; the twin that re-derives
//! everything is `SchedIndex::ScanReference`, which never memoises —
//! the costed baseline.
//!
//! Two properties pin the contract:
//!
//! 1. **Full-experiment equivalence** — every workload family × resize
//!    policy × backfill family, run on the production path and on the
//!    reference, must agree down to the raw f64 bits of every summary
//!    field.
//! 2. **The shadow check** — twin schedulers driven through the same
//!    random operation sequence must start the same jobs at every pass,
//!    and whenever the production twin elides a pass, the reference twin
//!    (identical state, pass actually executed) must have started
//!    nothing — an elided pass *is* the pass it elided.

mod common;

use common::{
    assert_bit_identical, assert_outcomes_identical, family_for, kind_for, policy_for, run,
    run_recorded,
};
use dmr::core::{ExperimentConfig, WorkloadKind};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobRequest, JobState, SchedIndex, Slurm, SlurmConfig};
use dmr_cluster::Cluster;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn incremental_experiments_match_the_costed_baseline_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        family in 0u8..4,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .with_backfill_family(family_for(family));
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        let on = run(&cfg, kind.build(jobs, seed).as_mut());
        let off = run(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&on, &off)?;
        let passes = off.sched;
        prop_assert_eq!(passes.sched_passes_elided + passes.backfill_passes_elided, 0);
    }
}

// With a recorder attached, per-job outcomes are pinned as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn incremental_outcomes_match_the_costed_baseline(
        seed in 0u64..1000,
        jobs in 1u32..20,
        family in 0u8..4,
    ) {
        let cfg = ExperimentConfig::preliminary()
            .with_backfill_family(family_for(family));
        let kind = WorkloadKind::FsPreliminary;
        let (on, on_jobs) = run_recorded(&cfg, kind.build(jobs, seed).as_mut());
        let (off, off_jobs) = run_recorded(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(on_jobs.len(), jobs as usize);
        assert_bit_identical(&on, &off)?;
        assert_outcomes_identical(&on_jobs, &off_jobs)?;
    }
}

/// One row of [`job_table`]: name, state, start, end, requested nodes.
type JobRow = (String, JobState, Option<SimTime>, Option<SimTime>, u32);

/// Per-job view used to compare the twins' whole job tables: everything
/// the scheduler ever decided about a job.
fn job_table(s: &Slurm) -> Vec<JobRow> {
    s.jobs()
        .map(|j| {
            (
                j.name.to_string(),
                j.state,
                j.start_time,
                j.end_time,
                j.requested_nodes,
            )
        })
        .collect()
}

// The shadow check, institutionalised: twin schedulers — production vs
// scan reference — driven in lockstep through random submit / complete
// / cancel / boost / estimate-refresh sequences. Both twins see
// identical state before every pass, so comparing the started sets
// checks precisely that each elided pass equals the executed pass it
// stands in for; the elision counters prove the production twin
// actually took the O(1) path while the reference walked the queue.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn elided_passes_equal_the_passes_they_elide(
        seed in 0u64..100_000,
        family in 0u8..4,
        nodes in 8u32..33,
    ) {
        let family = family_for(family);
        let mk = |sched_index: SchedIndex| {
            let mut cfg = SlurmConfig::for_cluster(nodes);
            cfg.backfill_family = family;
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
        let mut live: Vec<dmr::slurm::JobId> = Vec::new();
        let mut now = SimTime::ZERO;
        for round in 0..60u64 {
            // The clock moves between any two passes: a few seconds and
            // (three times in four) a mutation, or a quiet stretch long
            // enough to carry running jobs past their estimates — where a
            // pass memo is asked about a later instant with nothing but
            // time between, and a memo that rests on a timeline must not
            // answer.
            let quiet = step() % 4 == 0;
            let gap = if quiet { 200 + step() % 800 } else { 1 + step() % 12 };
            now += Span::from_secs(gap);
            match if quiet { 7 } else { step() % 8 } {
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
                    live.push(a);
                }
                3 if !live.is_empty() => {
                    let id = live.remove((step() % live.len() as u64) as usize);
                    match on.job(id).map(|j| j.state) {
                        Some(JobState::Running) => {
                            on.complete(id, now);
                            off.complete(id, now);
                        }
                        Some(JobState::Pending) => {
                            on.cancel(id, now);
                            off.cancel(id, now);
                        }
                        _ => {}
                    }
                }
                4 if !live.is_empty() => {
                    let id = live[(step() % live.len() as u64) as usize];
                    if on.job(id).is_some_and(|j| j.state == JobState::Pending) {
                        on.boost(id);
                        off.boost(id);
                    }
                }
                5 if !live.is_empty() => {
                    let id = live[(step() % live.len() as u64) as usize];
                    if on.job(id).is_some_and(|j| j.state == JobState::Running) {
                        let est = Span::from_secs(30 + step() % 900);
                        on.set_expected_runtime(id, est);
                        off.set_expected_runtime(id, est);
                    }
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
                    "elided schedule pass at round {} but the baseline started {:?}",
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
                    "elided backfill pass at round {} but the baseline started {:?}",
                    round,
                    b
                );
            }
            // Invariants (timeline occupancy vs running set among them)
            // must hold on both twins.
            prop_assert!(on.check_invariants().is_ok());
            prop_assert!(off.check_invariants().is_ok());
            prop_assert_eq!(
                on.cluster().free_nodes(),
                off.cluster().free_nodes(),
                "occupancy diverged at round {}",
                round
            );
        }
        prop_assert_eq!(job_table(&on), job_table(&off));
        let stats = off.incremental_stats();
        prop_assert_eq!(stats.sched_passes_elided, 0, "the reference never elides");
        prop_assert_eq!(stats.backfill_passes_elided, 0, "the reference never elides");
    }
}
