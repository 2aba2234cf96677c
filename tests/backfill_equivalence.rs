//! Property tests of the backfill families against the scan reference.
//!
//! EASY-k holds up to `k` reservations (the first from the running
//! index, deeper ones from hole queries on the slot-set timeline,
//! `dmr_slurm::slotset`); conservative plans every blocked job in its
//! window. On the production path an EASY pass does not even walk the
//! queue. The reference for all of it is the same family under
//! `SchedIndex::ScanReference`: a walk of every pending entry against
//! reservations taken from a scan of the job table, nothing memoised.
//! This suite drives *full experiments* (every workload family × resize
//! policy × fixed/flexible × sync/async × estimate source) through both,
//! requiring bit-identical results down to the raw f64 bits of every
//! summary field and the exact bytes of the sweep CSV row; the deeper
//! families are additionally checked for lawfulness: every job runs
//! exactly once, nothing schedules in the past, and the timeline's
//! occupancy invariants hold through a direct scheduler drive.
//!
//! Slot-set structural invariants (sorted, disjoint, conservation) are
//! covered by the brute-force model tests in `dmr_slurm::slotset`; here
//! the whole scheduler sits between the property and the structure.
//!
//! The last section is the differential test of the *indexed EASY pass*:
//! the production path visits only the jobs that can pass the harmless
//! check, and must start exactly the jobs — in exactly the order — that
//! the walk of every pending entry starts, call by call.

mod common;

use common::{
    assert_bit_identical, assert_outcomes_identical, csv_row, kind_for, policy_for, run,
    run_recorded,
};
use dmr::core::config::EstimateMode;
use dmr::core::{BackfillFamily, ExperimentConfig, WorkloadKind};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{ExpandError, JobId, JobRequest, JobState, SchedIndex, Slurm, SlurmConfig};
use dmr_cluster::{ClassConstraint, Cluster};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn easy1_experiments_match_the_legacy_oracle_bit_for_bit(
        seed in 0u64..10_000,
        jobs in 1u32..26,
        kind in 0u8..5,
        policy in 0u8..3,
        asynchronous in 0u8..2,
        fixed in 0u8..2,
        exact_estimates in 0u8..2,
    ) {
        let kind = kind_for(kind);
        let mut cfg = ExperimentConfig::preliminary()
            .with_policy(policy_for(policy))
            .with_backfill_family(BackfillFamily::easy(1));
        if asynchronous == 1 {
            cfg = cfg.asynchronous();
        }
        if fixed == 1 {
            cfg = cfg.as_fixed();
        }
        // Near-exact estimates leave backfill the fewest holes and the
        // tightest shadow times: the other regime of the harmless check.
        if exact_estimates == 1 {
            cfg.estimate_mode = EstimateMode::Actual;
        }
        let easy1 = run(&cfg, kind.build(jobs, seed).as_mut());
        let walked = run(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&easy1, &walked)?;
        // The derived sweep CSV rows must be byte-identical too.
        prop_assert_eq!(
            csv_row(kind.name(), &cfg, seed, &easy1),
            csv_row(kind.name(), &cfg, seed, &walked)
        );
    }
}

// With a recorder attached, per-job outcomes are pinned as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn easy1_outcomes_match_the_legacy_oracle(seed in 0u64..1000, jobs in 1u32..20) {
        let cfg = ExperimentConfig::preliminary().with_backfill_family(BackfillFamily::easy(1));
        let kind = WorkloadKind::RealMix;
        let (easy1, easy1_jobs) = run_recorded(&cfg, kind.build(jobs, seed).as_mut());
        let (walked, walked_jobs) = run_recorded(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(easy1_jobs.len(), jobs as usize);
        assert_bit_identical(&easy1, &walked)?;
        assert_outcomes_identical(&easy1_jobs, &walked_jobs)?;
    }
}

// Deeper families schedule differently from EASY-1 by design; they must
// stay lawful on the same experiment matrix, and equal to their own
// from-scratch twin.
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
        let scan = run(
            &cfg.scan_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&r, &scan)?;
    }
}

// A direct scheduler drive under each family, on either path, with the
// timeline/index invariants checked after every mutation batch — the
// whole-scheduler counterpart of the slot-set model tests.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scheduler_invariants_hold_under_every_family(
        seed in 0u64..10_000,
        family in 0u8..3,
        reference in proptest::bool::ANY,
    ) {
        let family = match family {
            0 => BackfillFamily::easy(1),
            1 => BackfillFamily::easy(3),
            _ => BackfillFamily::Conservative,
        };
        let mut cfg = SlurmConfig::for_cluster(24);
        cfg.backfill_family = family;
        if reference {
            cfg.sched_index = SchedIndex::ScanReference;
        }
        let mut s = Slurm::new(Cluster::new(24, 16), cfg);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
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
                        // both paths must re-key the running index the
                        // passes build their timeline from.
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

/// The production scheduler and the scan reference, driven in
/// lock-step. The reference walks every pending entry on every pass and
/// never memoises or elides, so its decisions are what is comparable —
/// and its pass counters are the from-scratch cost (the memo inputs the
/// indexed pass derives are pinned against the walk's inside
/// `dmr-slurm`, where both bodies can run on one state).
struct Twins {
    arena: Slurm,
    scan: Slurm,
    /// Whether [`Slurm::check_invariants`] runs on the production
    /// scheduler after every operation. It sorts the pending set and, in
    /// the cluster, looks every owned node up in its owner's held list —
    /// O(nodes x allocation width): the 1,024-node cell checks once per
    /// round, the 65,536-node cell every 100th.
    check_every_op: bool,
    check_every_round: bool,
}

impl Twins {
    fn new(nodes: u32, k: u32) -> Self {
        let build = |mode| {
            let mut cfg = SlurmConfig::for_cluster(nodes);
            cfg.sched_index = mode;
            cfg.backfill_family = BackfillFamily::easy(k);
            cfg.retain_completed = false;
            Slurm::new(Cluster::new(nodes, 16), cfg)
        };
        Twins {
            arena: build(SchedIndex::Arena),
            scan: build(SchedIndex::ScanReference),
            check_every_op: nodes <= 64,
            check_every_round: nodes <= 1024,
        }
    }

    /// Applies `op` to both and requires one answer.
    fn all<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut Slurm) -> T,
    ) -> T {
        let a = op(&mut self.arena);
        let s = op(&mut self.scan);
        assert_eq!(a, s, "{what}: production vs scan reference");
        if self.check_every_op {
            self.check(what, false);
        }
        a
    }

    fn check(&self, what: &str, twin_too: bool) {
        let mut checked = vec![("arena", &self.arena)];
        if twin_too {
            checked.push(("scan", &self.scan));
        }
        for (name, s) in checked {
            if let Err(e) = s.check_invariants() {
                panic!("{what}: {name} invariants: {e}");
            }
        }
    }
}

/// What a pass of `s` just started, in order: job, resizer parent, and
/// the node allocation as `(first node, count)`, the ids read from the
/// cluster — node selection is lowest-first on identical free sets, and
/// a failure message stays readable.
fn starts(
    s: &Slurm,
    started: Vec<dmr::slurm::JobStart>,
) -> Vec<(JobId, Option<JobId>, Option<dmr_cluster::NodeId>, usize)> {
    started
        .into_iter()
        .map(|j| {
            let nodes = s.cluster().nodes_of(j.id.owner_tag());
            assert_eq!(
                nodes.len(),
                j.held as usize,
                "{:?} holds what it started on",
                j.id
            );
            (j.id, j.resizer_for, nodes.first().copied(), nodes.len())
        })
        .collect()
}

/// Drives the hot-path cell's rhythm — complete the oldest running job,
/// submit a replacement, `schedule`, and a `backfill_pass` every few
/// rounds — mixed with everything that re-keys the need view or flips
/// the pass to its fallback walk.
fn drive_twins(nodes: u32, k: u32, depth: u32, rounds: u32, seed: u64) {
    let mut t = Twins::new(nodes, k);
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let width = (nodes / 64).max(1);
    let max_need = (width * 4).max(nodes.min(12));
    let request = |next: &mut dyn FnMut() -> u64, i: u64| {
        JobRequest::rigid(format!("j{i}"), 1 + (next() % u64::from(max_need)) as u32)
            .with_expected_runtime(Span::from_secs(20 + next() % 1500))
    };
    let mut running: std::collections::VecDeque<JobId> = Default::default();
    let mut pending: Vec<JobId> = Vec::new();
    let mut resizers: Vec<JobId> = Vec::new();
    // Fallback triggers, each with the round it is withdrawn in: left
    // pending deep in the queue, one of them would keep every later pass
    // on the fallback walk.
    let mut triggers: std::collections::VecDeque<(u64, JobId)> = Default::default();
    // The machine starts full, the queue `depth` deep.
    for i in 0..u64::from(nodes / width) {
        let req = JobRequest::rigid(format!("run{i}"), width)
            .with_expected_runtime(Span::from_secs(300 + (i * 37) % 900));
        t.all("fill", |s| s.submit(req.clone(), SimTime::ZERO));
    }
    running.extend(
        t.all("fill", |s| {
            let started = s.schedule(SimTime::ZERO);
            starts(s, started)
        })
        .iter()
        .map(|j| j.0),
    );
    for i in 0..u64::from(depth) {
        let req = request(&mut next, i);
        pending.push(t.all("fill", |s| {
            s.submit(req.clone(), SimTime::from_secs(1 + i % 100))
        }));
    }
    let mut serial = u64::from(depth);
    for round in 0..u64::from(rounds) {
        let now = SimTime::from_secs(1000 + round);
        let what = format!("n{nodes} k{k} seed {seed} round {round}");
        let pick = |v: &[JobId], r: u64| (!v.is_empty()).then(|| v[(r % v.len() as u64) as usize]);
        if let Some(id) = running.pop_front() {
            t.all(&what, |s| s.complete(id, now));
        }
        while triggers.front().is_some_and(|&(due, _)| due <= round) {
            let (_, id) = triggers.pop_front().expect("checked");
            if t.arena
                .job(id)
                .is_some_and(|j| j.state == JobState::Pending)
            {
                pending.retain(|&p| p != id);
                t.all(&what, |s| s.cancel(id, now));
            }
        }
        for _ in 0..1 + next() % 2 {
            serial += 1;
            let mut req = request(&mut next, serial);
            // Fallback triggers: a class-constrained job, a base priority.
            let trigger = next() % 97;
            match trigger {
                0 => req = req.with_constraint(ClassConstraint::Class(0)),
                1 => req.base_priority = 1 + next() % 5000,
                _ => {}
            }
            let id = t.all(&what, |s| s.submit(req.clone(), now));
            pending.push(id);
            if trigger < 2 {
                triggers.push_back((round + 8, id));
            }
        }
        match next() % 16 {
            0 | 1 => {
                if let Some(id) = pick(&pending, next()) {
                    t.all(&what, |s| s.boost(id));
                }
            }
            2 | 3 => {
                if let Some(id) = pick(&pending, next()) {
                    pending.retain(|&p| p != id);
                    t.all(&what, |s| s.cancel(id, now));
                }
            }
            4 => {
                let live: Vec<JobId> = running.iter().copied().collect();
                if let Some(id) = pick(&live, next()) {
                    let again = t.all(&what, |s| s.requeue_failed(id, now));
                    running.retain(|&r| r != id);
                    pending.extend(again);
                }
            }
            5 | 6 => {
                if let Some(id) = pick(&pending, next()) {
                    let est = Span::from_secs(10 + next() % 2000);
                    t.all(&what, |s| s.set_expected_runtime(id, est));
                }
            }
            7 => {
                let live: Vec<JobId> = running.iter().copied().collect();
                if let Some(id) = pick(&live, next()) {
                    let est = Span::from_secs(10 + next() % 3000);
                    t.all(&what, |s| s.set_expected_runtime(id, est));
                }
            }
            8 if next() % 4 == 0 => {
                // A pending resizer: the expansion cannot be served (the
                // machine runs full), so it queues with maximum priority.
                let live: Vec<JobId> = running.iter().copied().collect();
                if let Some(id) = pick(&live, next()) {
                    let to = t.arena.nodes_of(id) + width;
                    if let Err(ExpandError::Queued { resizer }) =
                        t.all(&what, |s| s.expand_protocol(id, to, now).map(|_| ()))
                    {
                        resizers.push(resizer);
                    }
                }
            }
            9 => {
                if let Some(rj) = resizers.pop() {
                    t.all(&what, |s| s.abort_expand(rj, now));
                }
            }
            10 if next() % 8 == 0 => {
                let off = t.arena.config.backfill;
                t.all(&what, |s| s.config.backfill = !off);
            }
            _ => {}
        }
        let mut started = t.all(&what, |s| {
            let started = s.schedule(now);
            starts(s, started)
        });
        if round % 3 == 2 || next() % 5 == 0 {
            started.extend(t.all(&what, |s| {
                let started = s.backfill_pass(now);
                starts(s, started)
            }));
        }
        for (id, resizer_for, ..) in started {
            if resizer_for.is_some() {
                resizers.retain(|&r| r != id);
                let _ = t.all(&what, |s| s.finish_expand(id, now).map(|(id, _)| id));
            } else {
                pending.retain(|&p| p != id);
                running.push_back(id);
            }
        }
        if t.check_every_round || round % 100 == 0 {
            t.check(&what, round % 100 == 0);
        }
    }
    t.check("end of run", true);
    let (stats, walked) = (t.arena.incremental_stats(), t.scan.incremental_stats());
    assert!(
        stats.backfill_passes_run > u64::from(rounds / 10),
        "{stats:?}"
    );
    // What ran was the indexed body and the memos, not the fallback walk
    // at full cost: some passes were elided, and the executed ones
    // examined fewer jobs than the reference's walks of the queue.
    assert!(
        stats.sched_passes_elided + stats.backfill_passes_elided > 0,
        "{stats:?}"
    );
    assert!(
        stats.backfill_jobs_examined < walked.backfill_jobs_examined,
        "{stats:?} vs {walked:?}"
    );
    assert_eq!(
        walked.sched_passes_elided + walked.backfill_passes_elided,
        0
    );
    assert!(
        t.arena.jobs().any(|j| j.state == JobState::Pending),
        "queue drained"
    );
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
        drive_twins(nodes, k, depth, rounds, u64::from(nodes) + u64::from(k));
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
