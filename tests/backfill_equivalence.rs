//! Property test: slot-set `Easy { reservations: 1 }` backfill is
//! bit-identical to the legacy single-reservation oracle.
//!
//! The slot-set PR replaced the per-pass running-index reservation walk
//! with a free-resource timeline (`dmr_slurm::slotset`): EASY-k holds up
//! to `k` reservations found by O(log) hole queries, conservative plans
//! every blocked job in its window. The pre-slot-set walk survives as
//! [`dmr::slurm::BackfillFamily::LegacyReference`] — the same oracle
//! pattern as `SchedIndex::ScanReference` — and this suite drives *full
//! experiments* (every workload family × resize policy × fixed/flexible ×
//! sync/async, under every scheduler hot path) through both families,
//! requiring bit-identical results down to the raw f64 bits of every
//! summary field and the exact bytes of the sweep CSV row. Deeper
//! families cannot be pinned to the oracle (they schedule differently by
//! design), so they are checked for lawfulness instead: every job runs
//! exactly once, nothing schedules in the past, and the timeline's
//! occupancy invariants hold through a direct scheduler drive.
//!
//! Slot-set structural invariants (sorted, disjoint, conservation) are
//! covered by the brute-force model tests in `dmr_slurm::slotset`; here
//! the whole scheduler sits between the property and the structure.
//!
//! The last section is the differential test of the *indexed EASY pass*:
//! the production arena path visits only the jobs that can pass the
//! harmless check, and must start exactly the jobs — in exactly the
//! order — that the walk of every pending entry starts, call by call.

use dmr::core::{
    run_experiment_streaming, BackfillFamily, ExperimentConfig, ExperimentResult, PolicyKind,
    WorkloadKind,
};
use dmr::sim::{SimTime, Span};
use dmr::slurm::{ExpandError, JobId, JobRequest, JobState, SchedIndex, Slurm, SlurmConfig};
use dmr_bench::sweep::SweepCell;
use dmr_cluster::{ClassConstraint, Cluster};
use proptest::prelude::*;

fn kind_for(kind: u8) -> WorkloadKind {
    match kind % 5 {
        0 => WorkloadKind::FsPreliminary,
        1 => WorkloadKind::FsMicroSteps,
        2 => WorkloadKind::RealMix,
        3 => WorkloadKind::burst(),
        _ => WorkloadKind::diurnal(),
    }
}

fn policy_for(policy: u8) -> PolicyKind {
    match policy % 3 {
        0 => PolicyKind::Algorithm1,
        1 => PolicyKind::utilization_target(),
        _ => PolicyKind::fair_share(),
    }
}

/// One sweep-style CSV row for a result (fixed labels: only the numbers
/// — i.e. the scheduling outcome — can differ between the two families).
fn csv_row(kind: WorkloadKind, cfg: &ExperimentConfig, seed: u64, r: &ExperimentResult) -> String {
    SweepCell {
        scenario: "backfill-equivalence".into(),
        workload: kind.name(),
        policy: cfg.policy.label(),
        mode: "sync",
        backfill: "easy1-vs-legacy",
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

fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult) -> Result<(), String> {
    let sa = &a.summary;
    let sb = &b.summary;
    prop_assert_eq!(sa.jobs, sb.jobs);
    prop_assert_eq!(sa.reconfigurations, sb.reconfigurations);
    // Raw-bit float comparison: even sub-rounding divergence fails.
    for (x, y, what) in [
        (sa.makespan_s, sb.makespan_s, "makespan"),
        (sa.utilization, sb.utilization, "utilization"),
        (sa.avg_waiting_s, sb.avg_waiting_s, "avg_wait"),
        (sa.avg_execution_s, sb.avg_execution_s, "avg_exec"),
        (sa.avg_completion_s, sb.avg_completion_s, "avg_compl"),
        (sa.waiting_q.p50_s, sb.waiting_q.p50_s, "p50_wait"),
        (sa.waiting_q.p99_s, sb.waiting_q.p99_s, "p99_wait"),
        (sa.execution_q.p95_s, sb.execution_q.p95_s, "p95_exec"),
        (sa.completion_q.p99_s, sb.completion_q.p99_s, "p99_compl"),
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
    prop_assert_eq!(a.events, b.events, "event streams diverged");
    prop_assert_eq!(a.past_schedules, b.past_schedules);
    prop_assert_eq!(a.end_time, b.end_time);
    Ok(())
}

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
        hot_path in 0u8..3,
        incremental in 0u8..2,
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
        // The family equivalence must hold under every scheduler hot
        // path and with incremental pass elision both on and off (the
        // oracle axes are orthogonal).
        cfg = match hot_path {
            0 => cfg,
            1 => cfg.indexed_reference(),
            _ => cfg.scan_reference(),
        };
        if incremental == 1 {
            cfg = cfg.incremental_off();
        }
        let easy1 = run_experiment_streaming(
            &cfg.with_backfill_family(BackfillFamily::easy(1)),
            kind.build(jobs, seed).as_mut(),
        );
        let legacy = run_experiment_streaming(
            &cfg.legacy_backfill_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&easy1, &legacy)?;
        // The derived sweep CSV rows must be byte-identical too.
        prop_assert_eq!(
            csv_row(kind, &cfg, seed, &easy1),
            csv_row(kind, &cfg, seed, &legacy)
        );
    }
}

// The buffered (Full-telemetry) path pins per-job outcomes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn easy1_outcomes_match_the_legacy_oracle(seed in 0u64..1000, jobs in 1u32..20) {
        let cfg = ExperimentConfig::preliminary();
        let kind = WorkloadKind::FsPreliminary;
        let easy1 = run_experiment_streaming(
            &cfg.with_backfill_family(BackfillFamily::easy(1)),
            kind.build(jobs, seed).as_mut(),
        );
        let legacy = run_experiment_streaming(
            &cfg.legacy_backfill_reference(),
            kind.build(jobs, seed).as_mut(),
        );
        prop_assert_eq!(easy1.outcomes.len(), legacy.outcomes.len());
        for (x, y) in easy1.outcomes.iter().zip(&legacy.outcomes) {
            prop_assert_eq!(x.submit, y.submit);
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
            prop_assert_eq!(x.reconfigurations, y.reconfigurations);
        }
        assert_bit_identical(&easy1, &legacy)?;
    }
}

// Deeper families are not oracle-pinned (they schedule differently by
// design) but must stay lawful on the same experiment matrix.
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
        let r = run_experiment_streaming(&cfg, kind.build(jobs, seed).as_mut());
        prop_assert_eq!(r.summary.jobs as u32, jobs, "every job must complete");
        prop_assert_eq!(r.past_schedules, 0, "scheduled in the past");
        prop_assert!(r.summary.makespan_s.is_finite() && r.summary.makespan_s >= 0.0);
        prop_assert!(r.summary.utilization >= 0.0 && r.summary.utilization <= 1.0 + 1e-9);
        // Not oracle-pinned, but the incremental elision contract still
        // holds for the deep families: off must reproduce on exactly.
        let off = run_experiment_streaming(
            &cfg.incremental_off(),
            kind.build(jobs, seed).as_mut(),
        );
        assert_bit_identical(&r, &off)?;
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
        family in 0u8..4,
    ) {
        let family = match family {
            0 => BackfillFamily::easy(1),
            1 => BackfillFamily::easy(3),
            2 => BackfillFamily::Conservative,
            _ => BackfillFamily::LegacyReference,
        };
        let mut cfg = SlurmConfig::for_cluster(24);
        cfg.backfill_family = family;
        let mut s = Slurm::new(Cluster::new(24, 16), cfg);
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut live: Vec<dmr::slurm::JobId> = Vec::new();
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
                    for start in s.schedule(now) {
                        let _ = start;
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove((step() % live.len() as u64) as usize);
                        // Complete if running, cancel if still pending;
                        // both paths must keep the timeline in sync.
                        match s.job(id).map(|j| j.state) {
                            Some(dmr::slurm::JobState::Running) => s.complete(id, now),
                            Some(dmr::slurm::JobState::Pending) => s.cancel(id, now),
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

/// The production scheduler and its two walking twins, driven in
/// lock-step. `Indexed` walks the materialised order but memoises and
/// elides exactly like the arena path, so reservations and pass counters
/// must match it field for field; `ScanReference` is the oracle that
/// never elides, so only its decisions are comparable.
struct Twins {
    arena: Slurm,
    indexed: Slurm,
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
            indexed: build(SchedIndex::Indexed),
            scan: build(SchedIndex::ScanReference),
            check_every_op: nodes <= 64,
            check_every_round: nodes <= 1024,
        }
    }

    /// Applies `op` to all three and requires one answer.
    fn all<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut Slurm) -> T,
    ) -> T {
        let a = op(&mut self.arena);
        let i = op(&mut self.indexed);
        let s = op(&mut self.scan);
        assert_eq!(a, i, "{what}: arena vs indexed walk");
        assert_eq!(a, s, "{what}: arena vs scan oracle");
        assert_eq!(
            self.arena.easy_reservations(),
            self.indexed.easy_reservations(),
            "{what}: retained reservations"
        );
        let (x, y) = (
            self.arena.incremental_stats(),
            self.indexed.incremental_stats(),
        );
        assert_eq!(
            (
                x.sched_passes_run,
                x.sched_passes_elided,
                x.backfill_passes_run,
                x.backfill_passes_elided
            ),
            (
                y.sched_passes_run,
                y.sched_passes_elided,
                y.backfill_passes_run,
                y.backfill_passes_elided
            ),
            "{what}: pass counters"
        );
        if self.check_every_op {
            self.check(what, false);
        }
        a
    }

    fn check(&self, what: &str, twins_too: bool) {
        let mut checked = vec![("arena", &self.arena)];
        if twins_too {
            checked.extend([("indexed", &self.indexed), ("scan", &self.scan)]);
        }
        for (name, s) in checked {
            if let Err(e) = s.check_invariants() {
                panic!("{what}: {name} invariants: {e}");
            }
        }
    }
}

/// What a pass started, in order: job, resizer parent, and the node
/// allocation as `(first node, count)` — node selection is lowest-first
/// on identical free sets, and a failure message stays readable.
fn starts(
    started: Vec<dmr::slurm::JobStart>,
) -> Vec<(JobId, Option<JobId>, Option<dmr_cluster::NodeId>, usize)> {
    started
        .into_iter()
        .map(|j| (j.id, j.resizer_for, j.nodes.first().copied(), j.nodes.len()))
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
    // The machine starts full, the queue `depth` deep.
    for i in 0..u64::from(nodes / width) {
        let req = JobRequest::rigid(format!("run{i}"), width)
            .with_expected_runtime(Span::from_secs(300 + (i * 37) % 900));
        t.all("fill", |s| s.submit(req.clone(), SimTime::ZERO));
    }
    running.extend(
        t.all("fill", |s| starts(s.schedule(SimTime::ZERO)))
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
        for _ in 0..1 + next() % 2 {
            serial += 1;
            let mut req = request(&mut next, serial);
            // Fallback triggers: a class-constrained job, a base priority.
            match next() % 97 {
                0 => req = req.with_constraint(ClassConstraint::Class(0)),
                1 => req.base_priority = 1 + next() % 5000,
                _ => {}
            }
            pending.push(t.all(&what, |s| s.submit(req.clone(), now)));
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
        let mut started = t.all(&what, |s| starts(s.schedule(now)));
        if round % 3 == 2 || next() % 5 == 0 {
            started.extend(t.all(&what, |s| starts(s.backfill_pass(now))));
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
    let stats = t.arena.incremental_stats();
    assert!(
        stats.backfill_passes_run > u64::from(rounds / 10),
        "{stats:?}"
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
