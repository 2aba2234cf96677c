//! The backfill families: lawful on full experiments, and the indexed
//! EASY pass equal to the walk of the model scheduler.
//!
//! EASY-k holds up to `k` reservations (the first from the running
//! index, deeper ones from hole queries on the slot-set timeline,
//! `dmr_slurm::slotset`); conservative plans every blocked job in its
//! window. The deeper families are checked for lawfulness on the
//! experiment matrix — every job runs exactly once, nothing schedules in
//! the past — and through a direct scheduler drive, where the timeline's
//! occupancy invariants must hold after every mutation. Slot-set
//! structural invariants (sorted, disjoint, conservation) are covered by
//! the brute-force model tests in `dmr_slurm::slotset`.
//!
//! The last section drives the *indexed EASY pass* against the model of
//! `tests/common/model.rs`: on the production path an EASY pass visits
//! only the jobs that can pass the harmless check, and must start exactly
//! the jobs — in exactly the order, on exactly the nodes — that the
//! model's walk of every pending entry starts, call by call.

mod common;

use common::lockstep::{Lockstep, Op, Setup};
use common::model::Grow;
use common::{kind_for, policy_for, run, xorshift};
use dmr::cluster::ClassTable;
use dmr::core::{BackfillFamily, ExperimentConfig};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobId, JobRequest, JobState, Slurm, SlurmConfig};
use dmr_cluster::{ClassConstraint, Cluster};
use proptest::prelude::*;

// Deeper families schedule differently from EASY-1 by design; they must
// stay lawful on the same experiment matrix.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn deep_families_run_lawful_experiments(
        seed in 0u64..10_000,
        jobs in 1u32..22,
        kind in 0u8..5,
        policy in 0u8..3,
        family in 0u8..3,
    ) {
        let kind = kind_for(kind);
        let family = match family {
            0 => BackfillFamily::easy(8),
            1 => BackfillFamily::easy(64),
            _ => BackfillFamily::Conservative,
        };
        let cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .with_backfill_family(family);
        let r = run(&cfg, kind.build(jobs, seed).as_mut());
        prop_assert_eq!(r.summary.jobs as u32, jobs, "every job must complete");
        prop_assert_eq!(r.past_schedules, 0, "scheduled in the past");
        prop_assert!(r.summary.makespan_s.is_finite() && r.summary.makespan_s >= 0.0);
        prop_assert!(r.summary.utilization >= 0.0 && r.summary.utilization <= 1.0 + 1e-9);
    }
}

// A direct scheduler drive under each family, with the timeline/index
// invariants checked after every mutation batch — the whole-scheduler
// counterpart of the slot-set model tests.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scheduler_invariants_hold_under_every_family(
        seed in 0u64..10_000,
        family in 0u8..3,
    ) {
        let family = match family {
            0 => BackfillFamily::easy(1),
            1 => BackfillFamily::easy(3),
            _ => BackfillFamily::Conservative,
        };
        let mut cfg = SlurmConfig::for_cluster(24);
        cfg.backfill_family = family;
        let mut s = Slurm::new(Cluster::new(24, 16), cfg);
        let mut step = xorshift(seed);
        let mut live: Vec<JobId> = Vec::new();
        for round in 0..40u64 {
            let now = SimTime::from_secs(round * 5);
            match step() % 4 {
                0 | 1 => {
                    let nodes = 1 + (step() % 12) as u32;
                    let dur = 30 + step() % 600;
                    let id = s.submit(
                        JobRequest::rigid(format!("j{round}"), nodes)
                            .with_expected_runtime(Span::from_secs(dur)),
                        now,
                    );
                    live.push(id);
                }
                2 => {
                    s.schedule(now);
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove((step() % live.len() as u64) as usize);
                        // Complete if running, cancel if still pending;
                        // both must re-key the running index the passes
                        // build their timeline from.
                        match s.job(id).map(|j| j.state) {
                            Some(JobState::Running) => s.complete(id, now),
                            Some(JobState::Pending) => s.cancel(id, now),
                            _ => {}
                        }
                    }
                }
            }
            s.backfill_pass(now);
            let inv = s.check_invariants();
            prop_assert!(
                inv.is_ok(),
                "round {} under {:?}: {:?}",
                round,
                family,
                inv
            );
        }
    }
}

// ---------------------------------------------------------------------
// The indexed EASY pass against the walk.
// ---------------------------------------------------------------------

/// Drives the hot-path cell's rhythm through the lockstep harness —
/// complete the oldest running job, submit a replacement or two,
/// `schedule`, and a `backfill_pass` every few rounds — mixed with
/// everything that re-keys the need view or flips the pass to its
/// fallback walk. `invariants_every` is how many operations pass between
/// two `Slurm::check_invariants` calls, which are O(nodes × allocation
/// width).
fn drive(nodes: u32, k: u32, depth: u32, rounds: u32, seed: u64) {
    let mut cfg = SlurmConfig::for_cluster(nodes);
    cfg.backfill_family = BackfillFamily::easy(k);
    cfg.retain_completed = false;
    let mut setup = Setup::new(ClassTable::uniform(nodes, 16), cfg);
    setup.invariants_every = if nodes <= 64 {
        1
    } else if nodes <= 1024 {
        8
    } else {
        500
    };
    let mut h = Lockstep::new(setup);
    if let Err(divergence) = churn(&mut h, nodes, depth, rounds, seed) {
        panic!("n{nodes} k{k} seed {seed}: {divergence}");
    }
    let stats = h.slurm().incremental_stats();
    let coverage = h.coverage();
    assert!(
        stats.backfill_passes_run > u64::from(rounds / 10),
        "{stats:?}"
    );
    // What ran was the indexed body and the memos, not the fallback walk
    // at full cost: some passes were elided, and the executed ones
    // examined fewer jobs than the model's walks of the queue.
    assert!(coverage.elided > 0 && coverage.indexed > 0, "{coverage:?}");
    assert!(coverage.examined < coverage.walk_examined, "{coverage:?}");
    assert!(
        h.model().in_state(JobState::Pending).next().is_some(),
        "queue drained"
    );
}

fn churn(h: &mut Lockstep, nodes: u32, depth: u32, rounds: u32, seed: u64) -> Result<(), String> {
    let mut next = xorshift(seed);
    let width = (nodes / 64).max(1);
    let max_need = (width * 4).max(nodes.min(12));
    let request = |next: &mut dyn FnMut() -> u64, i: u64| {
        JobRequest::rigid(format!("j{i}"), 1 + (next() % u64::from(max_need)) as u32)
            .with_expected_runtime(Span::from_secs(20 + next() % 1500))
    };
    let mut running: std::collections::VecDeque<usize> = Default::default();
    let mut pending: Vec<usize> = Vec::new();
    let mut resizers: Vec<usize> = Vec::new();
    // Fallback triggers, each with the round it is withdrawn in: left
    // pending deep in the queue, one of them would keep every later pass
    // on the fallback walk.
    let mut triggers: std::collections::VecDeque<(u64, usize)> = Default::default();
    // The machine starts full, the queue `depth` deep.
    for i in 0..u64::from(nodes / width) {
        let req = JobRequest::rigid(format!("run{i}"), width)
            .with_expected_runtime(Span::from_secs(300 + (i * 37) % 900));
        h.submit(req)?;
    }
    running.extend(h.schedule()?.iter().map(|j| j.0));
    for i in 0..u64::from(depth) {
        let at = SimTime::from_secs(1 + i * 100 / u64::from(depth));
        if at > h.now() {
            h.at(at)?;
        }
        pending.push(h.submit(request(&mut next, i))?);
    }
    let mut serial = u64::from(depth);
    for round in 0..u64::from(rounds) {
        h.at(SimTime::from_secs(1000 + round))?;
        let pick = |v: &[usize], r: u64| (!v.is_empty()).then(|| v[(r % v.len() as u64) as usize]);
        if let Some(j) = running.pop_front() {
            h.apply(Op::Complete(j))?;
        }
        while triggers.front().is_some_and(|&(due, _)| due <= round) {
            let (_, j) = triggers.pop_front().expect("checked");
            if h.model().state(j) == JobState::Pending {
                pending.retain(|&p| p != j);
                h.apply(Op::Cancel(j))?;
            }
        }
        for _ in 0..1 + next() % 2 {
            serial += 1;
            let mut req = request(&mut next, serial);
            // The fallback trigger, a class-constrained job: two
            // submissions in 97.
            let trigger = next() % 97 < 2;
            if trigger {
                req = req.with_constraint(ClassConstraint::Class(0));
            }
            let j = h.submit(req)?;
            pending.push(j);
            if trigger {
                triggers.push_back((round + 8, j));
            }
        }
        match next() % 16 {
            0 | 1 => {
                if let Some(j) = pick(&pending, next()) {
                    h.apply(Op::Boost(j))?;
                }
            }
            2 | 3 => {
                if let Some(j) = pick(&pending, next()) {
                    pending.retain(|&p| p != j);
                    h.apply(Op::Cancel(j))?;
                }
            }
            4 => {
                let live: Vec<usize> = running.iter().copied().collect();
                if let Some(j) = pick(&live, next()) {
                    running.retain(|&r| r != j);
                    pending.extend(h.apply(Op::Requeue(j))?.job());
                }
            }
            5 | 6 => {
                if let Some(j) = pick(&pending, next()) {
                    h.apply(Op::Estimate(j, Span::from_secs(10 + next() % 2000)))?;
                }
            }
            7 => {
                let live: Vec<usize> = running.iter().copied().collect();
                if let Some(j) = pick(&live, next()) {
                    h.apply(Op::Estimate(j, Span::from_secs(10 + next() % 3000)))?;
                }
            }
            8 if next().is_multiple_of(4) => {
                // A pending resizer: the expansion cannot be served (the
                // machine runs full), so it queues with maximum priority.
                let live: Vec<usize> = running.iter().copied().collect();
                if let Some(j) = pick(&live, next()) {
                    let to = h.model().held(j) + width;
                    if let Grow::Queued(b) = h.apply(Op::Expand(j, to))?.grow() {
                        resizers.push(b);
                    }
                }
            }
            9 => {
                if let Some(b) = resizers.pop() {
                    h.apply(Op::Abort(b))?;
                }
            }
            10 if next().is_multiple_of(8) => {
                let on = h.slurm().config.backfill;
                h.apply(Op::SetBackfill(!on))?;
            }
            _ => {}
        }
        let mut started = h.schedule()?;
        if round % 3 == 2 || next().is_multiple_of(5) {
            started.extend(h.backfill()?);
        }
        for (j, resizer_for) in started {
            if resizer_for.is_some() {
                resizers.retain(|&b| b != j);
            } else {
                pending.retain(|&p| p != j);
                running.push_back(j);
            }
        }
    }
    Ok(())
}
/// One cluster size under every reservation depth: 1 500 rounds at the
/// given queue depth in an optimised build (CI runs this suite with
/// `--release`), a fifth of the rounds on half the queue in a debug one.
fn drive_every_depth(nodes: u32, depth: u32) {
    let (depth, rounds) = if cfg!(debug_assertions) {
        (depth / 2, 300)
    } else {
        (depth, 1500)
    };
    for k in [1, 2, 3, 8, 64] {
        drive(nodes, k, depth, rounds, u64::from(nodes) + u64::from(k));
    }
}

// Needs spread over 1..=12, 1..=12, 1..=64 and 1..=4096: from a dozen
// need buckets, each deep, to thousands holding a job or two each.
#[test]
fn indexed_easy_pass_matches_the_walk_on_the_testbed() {
    drive_every_depth(20, 600);
}

#[test]
fn indexed_easy_pass_matches_the_walk_on_64_nodes() {
    drive_every_depth(64, 1500);
}

#[test]
fn indexed_easy_pass_matches_the_walk_on_1024_nodes() {
    drive_every_depth(1024, 2500);
}

#[test]
fn indexed_easy_pass_matches_the_walk_on_65536_nodes() {
    drive_every_depth(65_536, 3000);
}
