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
//! `UtilizationTarget` and `EnergyAware`, and across the two conditions
//! that send the production path back to the walk (a pending job with a
//! base priority; a size weight).

use dmr::sim::{SimTime, Span};
use dmr::slurm::{
    ExpandError, JobId, JobRequest, JobState, MultifactorConfig, PolicyKind, ResizeAction,
    ResizeEnvelope, SchedIndex, Slurm, SlurmConfig,
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

/// Builds a randomized scheduler state: `nodes`-node cluster, a batch of
/// jobs of mixed rigidity/sizes/preferences submitted over staggered
/// instants with scheduling cycles in between, so some run, some queue.
fn build_state(nodes: u32, jobs: &[JobShape]) -> (Slurm, SimTime) {
    let mut s = Slurm::with_cluster(Cluster::new(nodes, 16));
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
        let (mut s, now) = build_state(nodes, &jobs);
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
        let (mut s, now) = build_state(nodes, &jobs);
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

/// What makes the pending order a live sort, so that the production path
/// must leave the view for the walk: nothing, a pending job with a base
/// priority (every 7th submission carries one), or a size weight.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Order {
    Static,
    BasePriority,
    SizeWeight,
}

/// The production scheduler and its scan-reference twin (which never
/// serves a decision from an index), identically configured otherwise.
fn twins(nodes: u32, policy: PolicyKind, order: Order) -> [Slurm; 2] {
    [SchedIndex::Arena, SchedIndex::ScanReference].map(|sched_index| {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        cfg.policy = policy;
        cfg.sched_index = sched_index;
        if order == Order::SizeWeight {
            cfg.multifactor = MultifactorConfig::size_weighted(nodes);
        }
        Slurm::new(Cluster::new(nodes, 16), cfg)
    })
}

/// Ids of the jobs in `state` that pass `keep`, in submission order.
fn ids_where(s: &Slurm, state: JobState, keep: impl Fn(&dmr::slurm::Job) -> bool) -> Vec<JobId> {
    let mut jobs: Vec<_> = s
        .jobs()
        .filter(|j| j.state == state && keep(j))
        .map(|j| (j.seq, j.id))
        .collect();
    jobs.sort();
    jobs.into_iter().map(|(_, id)| id).collect()
}

/// The `pick`th of `ids`, wrapping; `None` when there are none.
fn nth(ids: &[JobId], pick: u32) -> Option<JobId> {
    (!ids.is_empty()).then(|| ids[pick as usize % ids.len()])
}

/// Runs a pass on both twins, completes the expansions whose resizers it
/// started, and requires the same starts.
fn pass(pair: &mut [Slurm; 2], now: SimTime, backfill: bool) -> Result<(), String> {
    let mut starts = Vec::new();
    for s in pair.iter_mut() {
        let started = if backfill {
            s.backfill_pass(now)
        } else {
            s.schedule(now)
        };
        for start in started.iter().filter(|start| start.resizer_for.is_some()) {
            s.finish_expand(start.id, now).map_err(|e| e.to_string())?;
        }
        starts.push(started);
    }
    prop_assert_eq!(&starts[0], &starts[1]);
    Ok(())
}

/// Consults the policy about every running flexible job on both twins.
/// The production verdict must equal the twin's, and its beneficiary and
/// shrink target must be what the reference walk of the production
/// scheduler's own pending order finds. With `apply`, shrinks are
/// carried out (on both).
fn consult_everyone(
    pair: &mut [Slurm; 2],
    policy: PolicyKind,
    now: SimTime,
    apply: bool,
) -> Result<(), String> {
    for id in ids_where(&pair[0], JobState::Running, |j| j.resize.is_some()) {
        let s = &pair[0];
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
        let verdict = pair[0].decide_resize(id, now);
        prop_assert_eq!(verdict, pair[1].decide_resize(id, now), "twin, {:?}", id);
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
                for s in pair.iter_mut() {
                    s.shrink_protocol(id, to, now).map_err(|e| e.to_string())?;
                }
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
        order in 0u8..3,
        backlog in proptest::collection::vec(
            (1u32..24, proptest::bool::ANY, 1u32..8, 4u32..41, proptest::bool::ANY),
            1..300,
        ),
        ops in proptest::collection::vec((0u8..9, 0u32..1000), 1..60),
    ) {
        let policy = policy_under_test(which);
        let order = [Order::Static, Order::BasePriority, Order::SizeWeight][order as usize];
        let mut pair = twins(nodes, policy, order);
        let mut submitted = 0usize;
        let mut submit = |pair: &mut [Slurm; 2], shape: JobShape, now: SimTime| {
            let mut req = request(submitted, nodes, shape);
            if order == Order::BasePriority && submitted % 7 == 3 {
                req.base_priority = 5;
            }
            submitted += 1;
            for s in pair.iter_mut() {
                s.submit(req.clone(), now);
            }
        };
        // The backlog arrives over a few instants, then the machine fills.
        let mut now = SimTime::ZERO;
        for (i, &shape) in backlog.iter().enumerate() {
            now = SimTime::from_secs(i as u64 / 16);
            submit(&mut pair, shape, now);
        }
        pass(&mut pair, now, false)?;
        consult_everyone(&mut pair, policy, now, false)?;

        for &(op, pick) in &ops {
            now += Span::from_secs(7);
            let running = ids_where(&pair[0], JobState::Running, |j| !j.is_resizer());
            let queued = ids_where(&pair[0], JobState::Pending, |j| !j.is_resizer());
            match op {
                0 => pass(&mut pair, now, false)?,
                1 => pass(&mut pair, now, true)?,
                2 => {
                    if let Some(id) = nth(&running, pick) {
                        pair.iter_mut().for_each(|s| s.complete(id, now));
                        pass(&mut pair, now, false)?;
                    }
                }
                3 => {
                    if let Some(id) = nth(&queued, pick) {
                        pair.iter_mut().for_each(|s| s.cancel(id, now));
                    }
                }
                4 => {
                    if let Some(id) = nth(&queued, pick) {
                        pair.iter_mut().for_each(|s| s.boost(id));
                    }
                }
                5 => {
                    // An expansion the machine has no room for leaves a
                    // boosted resizer pending; one it has room for grows
                    // the job on the spot.
                    if let Some(id) = nth(&running, pick) {
                        let to = pair[0].nodes_of(id) * 2;
                        let grown: Vec<_> = pair
                            .iter_mut()
                            .map(|s| match s.expand_protocol(id, to, now) {
                                Ok(nodes) => Ok(nodes),
                                Err(ExpandError::Queued { resizer }) => Err(resizer),
                                Err(other) => panic!("{other}"),
                            })
                            .collect();
                        prop_assert_eq!(&grown[0], &grown[1]);
                    }
                }
                6 => {
                    if let Some(id) = nth(&running, pick) {
                        let again: Vec<_> = pair
                            .iter_mut()
                            .map(|s| s.requeue_failed(id, now))
                            .collect();
                        prop_assert!(again[0].is_some());
                        prop_assert_eq!(again[0], again[1]);
                    }
                }
                7 => submit(&mut pair, backlog[pick as usize % backlog.len()], now),
                _ => consult_everyone(&mut pair, policy, now, true)?,
            }
            consult_everyone(&mut pair, policy, now, false)?;
            prop_assert_eq!(pair[0].pending_queue(now), pair[1].pending_queue(now));
            for s in &pair {
                let sound = s.check_invariants();
                prop_assert!(sound.is_ok(), "{:?}", sound);
            }
        }
    }
}
