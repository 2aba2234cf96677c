//! Property test: [`dmr::slurm::Algorithm1`] behind the [`ResizePolicy`]
//! trait is decision-identical to the pre-refactor inline implementation.
//!
//! `reference_decide` below is a faithful transcription of the original
//! `Slurm::decide_resize` body (the inline Algorithm 1 that lived in
//! `crates/slurm/src/policy.rs` before the mechanism/policy split),
//! expressed over the scheduler's public read API. The property drives
//! randomized queue/cluster states and checks that the trait-object path
//! returns exactly the same verdict for every running job.
//!
//! The second half is the differential test of the need-keyed pending
//! view: on queues up to a few hundred deep, with boosts, pending
//! resizers, cancellations and requeues, the beneficiary and shrink
//! target the policies get from the view equal the reference walk of the
//! whole pending order ([`reference_shrink`]) — under `Algorithm1`,
//! `UtilizationTarget` and `EnergyAware`. Every pass, and the pending
//! order itself, runs in lockstep with the model scheduler, whose order
//! is a sort of the pending jobs on every call.
//!
//! The last part checks [`Hold`]s: which policies grant them, and that
//! one granted earlier that still stands, at the size it was granted at,
//! is a "no action" of `Algorithm1` and `EnergyAware` — on seeded drives
//! of random scheduler operations between grant and check.

mod common;

use common::lockstep::{Lockstep, Op, Outcome, Setup};
use dmr::cluster::ClassTable;
use dmr::sim::{SimTime, Span};
use dmr::slurm::{
    Hold, JobId, JobRequest, JobStart, JobState, PolicyKind, ResizeAction, ResizeEnvelope, Slurm,
    SlurmConfig,
};
use dmr_cluster::Cluster;
use proptest::prelude::*;

/// The pre-refactor Algorithm 1, verbatim (minus the boost side effect,
/// which the mechanism applies after the decision in both versions).
fn reference_decide(s: &Slurm, id: JobId, now: SimTime) -> ResizeAction {
    let Some(job) = s.job(id) else {
        return ResizeAction::NoAction;
    };
    if job.state != JobState::Running {
        return ResizeAction::NoAction;
    }
    let Some(env) = job.resize else {
        return ResizeAction::NoAction;
    };
    let current = s.nodes_of(id);
    let free = s.cluster().free_nodes();
    let pending = s.pending_queue(now);

    if let Some(pref) = env.preferred {
        if pending.is_empty() && s.running_count() == 1 {
            match env.max_procs_to(current, env.max, free) {
                Some(t) => ResizeAction::Expand { to: t },
                None => ResizeAction::NoAction,
            }
        } else if pref == current {
            ResizeAction::NoAction
        } else if pref > current {
            match env.max_procs_to(current, pref, free) {
                Some(t) => ResizeAction::Expand { to: t },
                None => reference_wide(s, current, free, &pending, env),
            }
        } else if env.can_shrink_to(current, pref) {
            ResizeAction::Shrink {
                to: pref,
                beneficiary: None,
            }
        } else {
            reference_wide(s, current, free, &pending, env)
        }
    } else {
        reference_wide(s, current, free, &pending, env)
    }
}

fn reference_wide(
    s: &Slurm,
    current: u32,
    free: u32,
    pending: &[JobId],
    env: ResizeEnvelope,
) -> ResizeAction {
    if let Some((to, cand)) = reference_shrink(s, current, free, pending, env) {
        return ResizeAction::Shrink {
            to,
            beneficiary: Some(cand),
        };
    }
    match env.max_procs_to(current, env.max, free) {
        Some(t) => ResizeAction::Expand { to: t },
        None => ResizeAction::NoAction,
    }
}

/// The pre-view beneficiary search, verbatim: walk the whole pending
/// order, skip what already fits, take the first job some step of the
/// shrink chain admits, and the shallowest such step.
fn reference_shrink(
    s: &Slurm,
    current: u32,
    free: u32,
    pending: &[JobId],
    env: ResizeEnvelope,
) -> Option<(u32, JobId)> {
    for &cand in pending {
        let req = s.job(cand).map(|j| j.requested_nodes).unwrap_or(0);
        let missing = req.saturating_sub(free);
        if missing == 0 {
            continue;
        }
        if let Some(to) = env
            .shrink_chain(current)
            .into_iter()
            .find(|to| current - to >= missing)
        {
            return Some((to, cand));
        }
    }
    None
}

/// One generated job: size, flexible?, envelope min, envelope max, carries
/// a preference?
type JobShape = (u32, bool, u32, u32, bool);

/// The submission for the `i`th generated job on a `nodes`-node cluster.
fn request(i: usize, nodes: u32, (size, flexible, min, max, prefer): JobShape) -> JobRequest {
    let size = size.clamp(1, nodes);
    if !flexible {
        return JobRequest::rigid(format!("j{i}"), size);
    }
    let min = min.clamp(1, size);
    let max = max.clamp(size, nodes.max(size));
    JobRequest::flexible(
        format!("j{i}"),
        size,
        ResizeEnvelope {
            min,
            max,
            preferred: prefer.then_some(min.midpoint(max)),
            factor: 2,
        },
    )
}

/// A `nodes`-node scheduler with `policy` installed.
fn slurm_with(nodes: u32, policy: PolicyKind) -> Slurm {
    let mut cfg = SlurmConfig::for_cluster(nodes);
    cfg.policy = policy;
    Slurm::new(Cluster::new(nodes, 16), cfg)
}

/// Builds a randomized scheduler state: `nodes`-node cluster, a batch of
/// jobs of mixed rigidity/sizes/preferences submitted over staggered
/// instants with scheduling cycles in between, so some run, some queue.
fn build_state(nodes: u32, policy: PolicyKind, jobs: &[JobShape]) -> (Slurm, SimTime) {
    let mut s = slurm_with(nodes, policy);
    let mut now = SimTime::ZERO;
    for (i, &shape) in jobs.iter().enumerate() {
        now = SimTime::from_secs(i as u64 * 3);
        s.submit(request(i, nodes, shape), now);
        s.schedule(now);
    }
    let decision_time = now + Span::from_secs(5);
    (s, decision_time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm1_trait_matches_inline_reference(
        nodes in 4u32..66,
        jobs in proptest::collection::vec(
            (1u32..20, proptest::bool::ANY, 1u32..8, 4u32..33, proptest::bool::ANY),
            1..12,
        ),
    ) {
        let (mut s, now) = build_state(nodes, PolicyKind::Algorithm1, &jobs);
        let ids: Vec<JobId> = s
            .jobs()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        for id in ids {
            // Reference first (pure read), then the trait path; the boost
            // side effect lands after both saw the same state.
            let expected = reference_decide(&s, id, now);
            let actual = s.decide_resize(id, now);
            prop_assert_eq!(
                actual,
                expected,
                "job {:?} on {} nodes with workload {:?}",
                id,
                nodes,
                &jobs
            );
        }
    }

    #[test]
    fn non_running_and_rigid_jobs_always_no_action(
        nodes in 4u32..33,
        jobs in proptest::collection::vec(
            (1u32..20, proptest::bool::ANY, 1u32..8, 4u32..33, proptest::bool::ANY),
            1..10,
        ),
    ) {
        let (mut s, now) = build_state(nodes, PolicyKind::Algorithm1, &jobs);
        let ids: Vec<(JobId, bool, bool)> = s
            .jobs()
            .map(|j| (j.id, j.state == JobState::Running, j.resize.is_some()))
            .collect();
        for (id, running, flexible) in ids {
            if !running || !flexible {
                prop_assert_eq!(s.decide_resize(id, now), ResizeAction::NoAction);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The need-keyed pending view against the walk of the whole order.
// ---------------------------------------------------------------------

/// The band the differential test gives `UtilizationTarget`: narrow and
/// low, so deep queues sit above it.
const BAND: (f64, f64) = (0.3, 0.6);

fn policy_under_test(which: u8) -> PolicyKind {
    match which % 3 {
        0 => PolicyKind::Algorithm1,
        1 => PolicyKind::UtilizationTarget {
            low: BAND.0,
            high: BAND.1,
        },
        _ => PolicyKind::energy_aware(),
    }
}

/// Production in lockstep with the model scheduler, configured with
/// `policy`.
fn lockstep(nodes: u32, policy: PolicyKind) -> Lockstep {
    let mut cfg = SlurmConfig::for_cluster(nodes);
    cfg.policy = policy;
    Lockstep::new(Setup::new(ClassTable::uniform(nodes, 16), cfg))
}

/// The jobs in `state` that pass `keep`, in submission order.
fn ordinals_where(
    h: &Lockstep,
    state: JobState,
    keep: impl Fn(&dmr::slurm::Job) -> bool,
) -> Vec<usize> {
    let m = h.model();
    m.in_state(state)
        .filter(|&j| !m.is_resizer(j) && keep(&m.jobs[j]))
        .collect()
}

/// The `pick`th of `jobs`, wrapping; `None` when there are none.
fn nth(jobs: &[usize], pick: u32) -> Option<usize> {
    (!jobs.is_empty()).then(|| jobs[pick as usize % jobs.len()])
}

/// Runs a pass (the harness finishes the expansions whose resizers it
/// started, and holds its starts against the model's).
fn pass(h: &mut Lockstep, backfill: bool) -> Result<(), String> {
    h.apply(if backfill { Op::Backfill } else { Op::Schedule })?;
    Ok(())
}

/// Consults the policy about every running flexible job. The beneficiary
/// and shrink target of the verdict must be what the reference walk of
/// the scheduler's own pending order finds. With `apply`, shrinks are
/// carried out.
fn consult_everyone(h: &mut Lockstep, policy: PolicyKind, apply: bool) -> Result<(), String> {
    let now = h.now();
    for j in ordinals_where(h, JobState::Running, |j| j.resize.is_some()) {
        let (s, id) = (h.slurm(), h.id(j));
        let env = s.job(id).and_then(|j| j.resize).expect("flexible");
        let (current, free) = (s.nodes_of(id), s.cluster().free_nodes());
        let walked = reference_shrink(s, current, free, &s.pending_queue(now), env);
        let walked_action =
            walked.map_or(ResizeAction::NoAction, |(to, cand)| ResizeAction::Shrink {
                to,
                beneficiary: Some(cand),
            });
        let utilization = s.allocated_nodes() as f64 / s.cluster().total_nodes() as f64;
        // Where a policy's verdict is the beneficiary search and nothing
        // else, the walk predicts the whole verdict.
        let predicted = match policy {
            PolicyKind::Algorithm1 => Some(reference_decide(s, id, now)),
            PolicyKind::UtilizationTarget { .. } if utilization > BAND.1 => Some(walked_action),
            PolicyKind::EnergyAware { .. } if s.queued_count() > 0 => Some(walked_action),
            _ => None,
        };
        let Outcome::Verdict(verdict) = h.apply(Op::Decide(j))? else {
            unreachable!("a consultation returns a verdict");
        };
        if let Some(predicted) = predicted {
            prop_assert_eq!(verdict, predicted, "walk, {:?}", id);
        }
        if let ResizeAction::Shrink {
            to,
            beneficiary: Some(cand),
        } = verdict
        {
            prop_assert_eq!(Some((to, cand)), walked, "beneficiary of {:?}", id);
            if apply {
                h.apply(Op::Shrink(j, to))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn view_served_beneficiary_matches_the_walk_of_the_whole_order(
        nodes in 8u32..41,
        which in 0u8..3,
        backlog in proptest::collection::vec(
            (1u32..24, proptest::bool::ANY, 1u32..8, 4u32..41, proptest::bool::ANY),
            1..300,
        ),
        ops in proptest::collection::vec((0u8..9, 0u32..1000), 1..60),
    ) {
        let policy = policy_under_test(which);
        let mut h = lockstep(nodes, policy);
        let mut submitted = 0usize;
        let mut submit = |h: &mut Lockstep, shape: JobShape| {
            let req = request(submitted, nodes, shape);
            submitted += 1;
            h.submit(req)
        };
        // The backlog arrives over a few instants, then the machine fills.
        let mut now = SimTime::ZERO;
        for (i, &shape) in backlog.iter().enumerate() {
            now = SimTime::from_secs(i as u64 / 16);
            h.at(now)?;
            submit(&mut h, shape)?;
        }
        pass(&mut h, false)?;
        consult_everyone(&mut h, policy, false)?;

        for &(op, pick) in &ops {
            now += Span::from_secs(7);
            h.at(now)?;
            let running = ordinals_where(&h, JobState::Running, |_| true);
            let queued = ordinals_where(&h, JobState::Pending, |_| true);
            match op {
                0 => pass(&mut h, false)?,
                1 => pass(&mut h, true)?,
                2 => {
                    if let Some(j) = nth(&running, pick) {
                        h.apply(Op::Complete(j))?;
                        pass(&mut h, false)?;
                    }
                }
                3 => {
                    if let Some(j) = nth(&queued, pick) {
                        h.apply(Op::Cancel(j))?;
                    }
                }
                4 => {
                    if let Some(j) = nth(&queued, pick) {
                        h.apply(Op::Boost(j))?;
                    }
                }
                5 => {
                    // An expansion the machine has no room for leaves a
                    // boosted resizer pending; one it has room for grows
                    // the job on the spot.
                    if let Some(j) = nth(&running, pick) {
                        let to = h.model().held(j) * 2;
                        h.apply(Op::Expand(j, to))?;
                    }
                }
                6 => {
                    if let Some(j) = nth(&running, pick) {
                        prop_assert!(h.apply(Op::Requeue(j))?.job().is_some());
                    }
                }
                7 => {
                    submit(&mut h, backlog[pick as usize % backlog.len()])?;
                }
                _ => consult_everyone(&mut h, policy, true)?,
            }
            consult_everyone(&mut h, policy, false)?;
        }
    }
}

// ---------------------------------------------------------------------
// Holds: a standing hold is a "no action" known in advance.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Algorithm1` grants a hold to every running flexible job without a
    /// preference and `EnergyAware` to every one; `UtilizationTarget`,
    /// `FairShare`, and any job that is rigid or not running get none.
    #[test]
    fn only_algorithm1_without_a_preference_and_energy_aware_grant_holds(
        nodes in 4u32..41,
        which in 0u8..4,
        jobs in proptest::collection::vec(
            (1u32..20, proptest::bool::ANY, 1u32..8, 4u32..33, proptest::bool::ANY),
            1..16,
        ),
    ) {
        let policy = common::policy_for(which);
        let (s, _) = build_state(nodes, policy, &jobs);
        for job in s.jobs() {
            let flexible_running = job.state == JobState::Running && job.resize.is_some();
            let preferred = job.resize.is_some_and(|env| env.preferred.is_some());
            let granted = match policy {
                PolicyKind::Algorithm1 => flexible_running && !preferred,
                PolicyKind::EnergyAware { .. } => flexible_running,
                _ => false,
            };
            let hold = s.resize_hold(job.id);
            prop_assert_eq!(hold.is_some(), granted, "{:?} under {:?}", job.id, policy);
        }
    }
}

/// How often a hold soundness drive exercised each side of the hold.
#[derive(Default, Debug)]
struct HoldCoverage {
    /// A hold granted earlier stood at its size; the policy was asked.
    stood: usize,
    /// Of those, holds with a reach that stood while jobs were queued:
    /// the need-view seek decided.
    stood_within_reach: usize,
    /// A hold at its size did not stand.
    broke: usize,
    /// Of the holds that stood, those whose job had left the size the
    /// hold was granted at and come back to it.
    returned: usize,
}

/// Every running flexible job's hold in `s`'s current state, with the
/// size it was granted at.
fn grant_holds(s: &Slurm) -> Vec<(JobId, u32, Hold)> {
    s.jobs()
        .filter(|j| j.state == JobState::Running)
        .filter_map(|j| Some((j.id, s.nodes_of(j.id), s.resize_hold(j.id)?)))
        .collect()
}

/// Finishes the expansions whose resizers a pass just started.
fn wire(s: &mut Slurm, starts: Vec<JobStart>, now: SimTime) {
    for st in starts {
        if st.resizer_for.is_some() {
            s.finish_expand(st.id, now)
                .expect("a started resizer finishes");
        }
    }
}

/// One seeded drive of `policy`: a machine of 8 to 40 nodes and a backlog
/// that fills it, then 60 random scheduler operations — submissions,
/// passes, completions, cancellations, boosts, expansions (granted on the
/// spot or through a queued resizer) and shrinks — at advancing instants.
/// Every running flexible job is granted a hold at the start and every
/// few operations; after every operation, each hold granted so far whose
/// job runs at the size it was granted at — still, or again after a
/// resize away and back — and that stands must be a "no action" of the
/// policy.
fn drive_holds(policy: PolicyKind, seed: u64, cov: &mut HoldCoverage) -> Result<(), String> {
    let mut rand = common::xorshift(seed);
    let nodes = 8 + (rand() % 33) as u32;
    let mut s = slurm_with(nodes, policy);
    let shape = |rand: &mut dyn FnMut() -> u64| -> JobShape {
        let size = 1 + (rand() % 16) as u32;
        let min = 1 + (rand() % 4) as u32;
        let max = 4 + (rand() % 37) as u32;
        let flexible = !rand().is_multiple_of(3);
        let prefer = rand().is_multiple_of(5);
        (size, flexible, min, max, prefer)
    };
    let mut submitted = 0;
    let mut now = SimTime::ZERO;
    for _ in 0..(nodes as usize / 2 + rand() as usize % 24) {
        s.submit(request(submitted, nodes, shape(&mut rand)), now);
        submitted += 1;
    }
    let starts = s.schedule(now);
    wire(&mut s, starts, now);
    // Each hold with whether its job has been seen at another size.
    let mut holds: Vec<_> = grant_holds(&s).into_iter().map(|h| (h, false)).collect();
    for op in 0..60 {
        now += Span::from_secs(1 + rand() % 30);
        let in_state = |s: &Slurm, state| -> Vec<JobId> {
            s.jobs()
                .filter(|j| j.state == state && !j.is_resizer())
                .map(|j| j.id)
                .collect()
        };
        let (running, queued) = (
            in_state(&s, JobState::Running),
            in_state(&s, JobState::Pending),
        );
        let pick =
            |jobs: &[JobId], r: u64| (!jobs.is_empty()).then(|| jobs[r as usize % jobs.len()]);
        let r = rand();
        match rand() % 9 {
            0 | 1 => {
                s.submit(request(submitted, nodes, shape(&mut rand)), now);
                submitted += 1;
            }
            2 => {
                let starts = s.schedule(now);
                wire(&mut s, starts, now);
            }
            3 => {
                let starts = s.backfill_pass(now);
                wire(&mut s, starts, now);
            }
            4 => {
                if let Some(j) = pick(&running, r) {
                    s.complete(j, now);
                    let starts = s.schedule(now);
                    wire(&mut s, starts, now);
                }
            }
            // A third of the cancellations empty the queue: the hold of
            // `EnergyAware` rests on whether anything is queued.
            5 if r.is_multiple_of(3) => {
                for &j in &queued {
                    s.cancel(j, now);
                }
            }
            5 => {
                if let Some(j) = pick(&queued, r) {
                    s.cancel(j, now);
                }
            }
            6 => {
                if let Some(j) = pick(&queued, r) {
                    s.boost(j);
                }
            }
            7 => {
                if let Some(j) = pick(&running, r) {
                    let to = s.nodes_of(j) * 2;
                    let _ = s.expand_protocol(j, to, now);
                }
            }
            _ => {
                if let Some(j) = pick(&running, r) {
                    let current = s.nodes_of(j);
                    let step = s
                        .job(j)
                        .and_then(|job| job.resize?.shrink_steps(current).next());
                    if let Some(to) = step {
                        s.shrink_protocol(j, to, now)
                            .expect("a running job shrinks");
                    }
                }
            }
        }
        if op % 6 == 5 {
            holds.extend(grant_holds(&s).into_iter().map(|h| (h, false)));
        }
        for ((id, size, hold), moved) in &mut holds {
            let (id, size) = (*id, *size);
            if !s.job(id).is_some_and(|j| j.state == JobState::Running) {
                continue;
            }
            if s.nodes_of(id) != size {
                *moved = true;
                continue;
            }
            if !hold.stands(&s) {
                cov.broke += 1;
                continue;
            }
            cov.stood += 1;
            cov.returned += usize::from(*moved);
            if hold.reach > 0 && s.queued_count() > 0 {
                cov.stood_within_reach += 1;
            }
            prop_assert_eq!(
                s.decide_resize(id, now),
                ResizeAction::NoAction,
                "{:?} at {} nodes under {:?} (seed {}, op {}): {:?}",
                id,
                size,
                policy,
                seed,
                op,
                hold
            );
        }
    }
    Ok(())
}

/// Hold soundness: under `Algorithm1` and `EnergyAware`, on randomized
/// queue and cluster states, a hold granted earlier that still stands
/// means the policy answers "no action" — whatever happened in between,
/// a resize of its job away from the hold's size and back included (the
/// driver passes such a job's check points held). The drives must reach
/// both sides of every hold often, and a hold that stood after such a
/// round trip at least once.
#[test]
fn a_standing_hold_means_no_action() {
    for policy in [PolicyKind::Algorithm1, PolicyKind::energy_aware()] {
        let mut cov = HoldCoverage::default();
        for seed in 0..48 {
            if let Err(msg) = drive_holds(policy, seed, &mut cov) {
                panic!("{msg}");
            }
        }
        assert!(
            cov.stood >= 1000
                && cov.stood_within_reach >= 100
                && cov.broke >= 1000
                && cov.returned > 0,
            "{policy:?}: {cov:?}"
        );
    }
}
