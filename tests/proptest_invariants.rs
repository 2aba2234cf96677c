//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;

use dmr::cluster::Cluster;
use dmr::runtime::dist::BlockDist;
use dmr::sim::{EventQueue, SimTime};
use dmr::workload::{SizeModel, WorkloadConfig, WorkloadGenerator};

proptest! {
    /// Redistribution plans move every element exactly once, for any pair
    /// of process counts and any global size.
    #[test]
    fn block_plans_cover_exactly_once(
        n in 0usize..500,
        from in 1usize..17,
        to in 1usize..17,
    ) {
        let a = BlockDist::new(n, from);
        let b = BlockDist::new(n, to);
        let mut seen = vec![0u32; n];
        for t in a.plan_to(&b) {
            let src_global = a.start(t.src_rank) + t.src_offset;
            let dst_global = b.start(t.dst_rank) + t.dst_offset;
            prop_assert_eq!(src_global, dst_global);
            for c in &mut seen[src_global..src_global + t.len] {
                *c += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Block distributions tile the index space: ranges are disjoint,
    /// ordered, and cover 0..n.
    #[test]
    fn block_ranges_tile(n in 0usize..1000, parts in 1usize..33) {
        let d = BlockDist::new(n, parts);
        let mut cursor = 0usize;
        for r in 0..parts {
            let range = d.range(r);
            prop_assert_eq!(range.start, cursor);
            cursor = range.end;
        }
        prop_assert_eq!(cursor, n);
    }

    /// The event queue dequeues in nondecreasing time order regardless of
    /// insertion order and cancellations.
    #[test]
    fn event_queue_is_time_ordered(
        ops in proptest::collection::vec((0u64..10_000, proptest::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for (i, &(t, cancel)) in ops.iter().enumerate() {
            let k = q.push(SimTime(t), i);
            if cancel {
                q.cancel(k);
            } else {
                keys.push(k);
            }
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, keys.len());
    }

    /// Cluster allocation bookkeeping never corrupts under arbitrary
    /// allocate / release-all / release-tail sequences, and the count
    /// each call answers with is the change `nodes_of` shows.
    #[test]
    fn cluster_invariants_hold(
        nodes in 1u32..64,
        ops in proptest::collection::vec((0u8..3, 1u32..16, 0u64..8), 1..60)
    ) {
        let mut c = Cluster::new(nodes, 16);
        for &(op, count, owner) in &ops {
            match op {
                0 => {
                    let before = c.nodes_of(owner).to_vec();
                    if let Ok(granted) = c.allocate(count.min(nodes), owner) {
                        let held = c.nodes_of(owner);
                        prop_assert_eq!(held.len(), before.len() + granted as usize);
                        prop_assert!(before.iter().all(|n| held.contains(n)));
                    }
                }
                1 => {
                    let held = c.held_by(owner);
                    if let Ok(freed) = c.release_all(owner) {
                        prop_assert_eq!(freed, held);
                        prop_assert!(c.nodes_of(owner).is_empty());
                    }
                }
                _ => {
                    let before = c.nodes_of(owner).to_vec();
                    if let Ok(freed) = c.release_tail(owner, count) {
                        prop_assert_eq!(freed, count);
                        let kept = before.len() - count as usize;
                        prop_assert_eq!(c.nodes_of(owner), &before[..kept]);
                    }
                }
            }
            prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
            prop_assert!(c.free_nodes() <= nodes);
        }
    }

    /// The Feitelson size model only produces sizes within bounds, and
    /// the generated workloads respect their envelopes.
    #[test]
    fn workload_respects_bounds(jobs in 1u32..60, seed in 0u64..1000) {
        let cfg = WorkloadConfig::fs_preliminary(jobs);
        let max = cfg.max_size;
        let specs = WorkloadGenerator::new(cfg, seed).generate();
        prop_assert_eq!(specs.len(), jobs as usize);
        let mut last_arrival = 0.0f64;
        for s in &specs {
            prop_assert!(s.submit_procs >= 1 && s.submit_procs <= max);
            prop_assert!(s.step_s > 0.0);
            prop_assert!(s.walltime_s >= s.step_s);
            prop_assert!(s.arrival_s >= last_arrival);
            last_arrival = s.arrival_s;
        }
    }

    /// Size-model sampling and pmf agree on support.
    #[test]
    fn size_model_support(max in 1u32..64, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let m = SizeModel::new(max);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let s = m.sample(&mut rng);
            prop_assert!(s >= 1 && s <= max);
            prop_assert!(m.pmf(s) > 0.0);
        }
    }
}

// Small deterministic run of the full simulator inside a property: any
// seed must produce a consistent accounting (no negative waits, makespan
// covers every completion).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn simulator_accounting_is_consistent(seed in 0u64..50) {
        use dmr::core::{ExperimentConfig, Simulation};
        use dmr::metrics::SeriesRecorder;
        let specs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(12), seed).generate();
        let mut rec = SeriesRecorder::new();
        let cfg = ExperimentConfig::preliminary();
        let r = Simulation::new(&cfg).source(&mut specs.iter()).sink(&mut rec).run().unwrap();
        let (allocation, _, _, outcomes) = rec.into_parts();
        prop_assert_eq!(r.summary.jobs, 12);
        for o in &outcomes {
            prop_assert!(o.start >= o.submit);
            prop_assert!(o.end >= o.start);
            prop_assert!(o.end <= r.summary.makespan_s + 1e-6);
        }
        prop_assert!(r.summary.utilization > 0.0 && r.summary.utilization <= 1.0);
        prop_assert!(allocation.max_value() <= 20.0);
    }
}

/// `Slurm::expand_protocol` grants an expansion the machine has room for
/// in one allocation, without materialising the resizer job of the
/// paper's §III protocol. This module holds it against the protocol made
/// literal through the public API — submit the resizer with its
/// dependency, boost it, let a scheduling pass start it, `finish_expand`
/// — on twin schedulers driven through the same random history. On the
/// three-class machine it also holds each running job's stored
/// slowest-class factor (`Slurm::slowdown`, what a compute segment is
/// scaled by) against the cluster's probe of the job's node list after
/// every start, expansion, shrink, completion and kill-and-requeue.
mod immediate_expansion {
    use super::*;
    use dmr::cluster::{ClassConstraint, ClassTable, MachineClass};
    use dmr::core::MachineMix;
    use dmr::sim::Span;
    use dmr::slurm::{
        Dependency, ExpandError, JobId, JobRequest, JobState, ResizeEnvelope, Slurm, SlurmConfig,
    };

    /// The four steps, one public call each. Only meaningful right after
    /// a scheduling pass at `now` with no boosted job left pending (the
    /// caller sees to both): the pass here then starts the boosted
    /// resizer, first in line, and nothing else.
    fn literal_expand(s: &mut Slurm, id: JobId, to: u32, now: SimTime) -> Result<u32, ExpandError> {
        let job = s.job(id).ok_or(ExpandError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(ExpandError::NotRunning(id));
        }
        let current = s.nodes_of(id);
        if to <= current {
            return Err(ExpandError::InvalidTarget { current, to });
        }
        let (delta, constraint) = (to - current, job.constraint);
        let resizer = s.submit(
            JobRequest {
                name: format!("resizer-of-{id}").into(),
                nodes: delta,
                time_limit: None,
                expected_runtime: Some(Span::ZERO),
                dependency: Some(Dependency::ExpandOf(id)),
                resize: None,
                constraint,
            },
            now,
        );
        s.boost(resizer);
        if !s.cluster().can_allocate_in(delta, constraint) {
            return Err(ExpandError::Queued { resizer });
        }
        let started = s.schedule(now);
        assert_eq!(started.len(), 1, "the pass did not start the resizer alone");
        assert_eq!((started[0].id, started[0].resizer_for), (resizer, Some(id)));
        s.finish_expand(resizer, now).map(|(_, held)| held)
    }

    /// Ids of the jobs in `state`, resizers or not, in submission order.
    fn ids_where(s: &Slurm, state: JobState, resizers: bool) -> Vec<JobId> {
        let mut jobs: Vec<_> = s
            .jobs()
            .filter(|j| j.state == state && j.is_resizer() == resizers)
            .map(|j| (j.seq, j.id))
            .collect();
        jobs.sort();
        jobs.into_iter().map(|(_, id)| id).collect()
    }

    fn nth(ids: &[JobId], pick: u32) -> Option<JobId> {
        (!ids.is_empty()).then(|| ids[pick as usize % ids.len()])
    }

    /// A pass on both twins, with the queued expansions whose resizers
    /// it started completed on both: same starts, same growth.
    fn pass(pair: &mut [Slurm; 2], now: SimTime, backfill: bool) -> Result<(), String> {
        let outcomes = pair.each_mut().map(|s| {
            let started = if backfill {
                s.backfill_pass(now)
            } else {
                s.schedule(now)
            };
            let resizers = started.iter().filter(|start| start.resizer_for.is_some());
            let grown: Vec<_> = resizers.map(|r| s.finish_expand(r.id, now)).collect();
            (started, grown)
        });
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
        Ok(())
    }

    /// Each running job's stored factor is the slowest of the classes its
    /// nodes are on, on both twins — resizers included.
    fn factors_follow_allocations(pair: &[Slurm; 2]) -> Result<(), String> {
        for s in pair {
            for resizers in [false, true] {
                for id in ids_where(s, JobState::Running, resizers) {
                    let probed = s.cluster().worst_slowdown(id.owner_tag());
                    prop_assert_eq!(s.slowdown(id), probed, "factor of {:?}", id);
                }
            }
        }
        Ok(())
    }

    /// Everything a caller can see of the two schedulers is the same.
    fn same_state(pair: &[Slurm; 2], now: SimTime) -> Result<(), String> {
        let [a, b] = pair;
        let records = |s: &Slurm| s.jobs().map(|j| format!("{j:?}")).collect::<Vec<_>>();
        prop_assert_eq!(records(a), records(b));
        prop_assert_eq!(a.cluster().free_nodes(), b.cluster().free_nodes());
        prop_assert_eq!(a.allocated_nodes(), b.allocated_nodes());
        for id in ids_where(a, JobState::Running, false) {
            prop_assert_eq!(a.nodes_of(id), b.nodes_of(id));
            let held = |s: &Slurm| s.cluster().nodes_of(id.owner_tag()).to_vec();
            prop_assert_eq!(held(a), held(b), "node list of {:?}", id);
        }
        prop_assert_eq!(a.pending_queue(now), b.pending_queue(now));
        prop_assert_eq!(a.queued_count(), b.queued_count());
        for s in pair {
            let sound = s.check_invariants();
            prop_assert!(sound.is_ok(), "{:?}", sound);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn immediate_expansion_matches_the_four_step_protocol(
            retain_completed in proptest::bool::ANY,
            hetero in proptest::bool::ANY,
            ops in proptest::collection::vec((0u8..11, 0u32..1000, 1u32..7), 1..80),
        ) {
            // Jobs that may run anywhere fill the standard nodes first,
            // then the 5/4-slower big-memory ones: growing onto those and
            // shrinking off them moves a job's factor.
            let table = if hetero {
                ClassTable::new(&[
                    (MachineClass::standard(16), 6),
                    (MachineMix::bigmem_class(16), 4),
                    (MachineMix::gpu_class(16), 6),
                ])
            } else {
                ClassTable::uniform(16, 16)
            };
            let mut pair = [(), ()].map(|()| {
                let mut cfg = SlurmConfig::for_cluster(16);
                cfg.retain_completed = retain_completed;
                Slurm::new(Cluster::with_classes(table.clone()), cfg)
            });
            let mut now = SimTime::ZERO;
            for &(op, pick, size) in &ops {
                let running = ids_where(&pair[0], JobState::Running, false);
                match op {
                    0..=2 => {
                        // A fifth of the jobs on the three-class machine
                        // may only run on its six GPU nodes.
                        let constraint = if hetero && pick % 5 == 0 {
                            ClassConstraint::GpuRequired
                        } else {
                            ClassConstraint::Any
                        };
                        let envelope = ResizeEnvelope { min: 1, max: 16, preferred: None, factor: 2 };
                        let req = JobRequest::flexible(format!("j{pick}"), size, envelope)
                            .with_expected_runtime(Span::from_secs(60 + u64::from(pick)))
                            .with_constraint(constraint);
                        let ids = pair.each_mut().map(|s| s.submit(req.clone(), now));
                        prop_assert_eq!(ids[0], ids[1], "the id stream shifted");
                    }
                    3 => pass(&mut pair, now, true)?,
                    4 | 5 => {
                        // `expand_protocol` starts a resizer that fits at
                        // once, even past an older boosted job that does
                        // not; a pass would stop at that job. Resizers
                        // and requeued jobs are boosted, so expansions
                        // wait until neither is pending.
                        let boosted = pair[0].jobs().any(|j| j.state == JobState::Pending && j.boosted);
                        if let Some(id) = nth(&running, pick).filter(|_| !boosted) {
                            pass(&mut pair, now, false)?;
                            let to = pair[0].nodes_of(id) + size;
                            let [a, b] = &mut pair;
                            let grown = [a.expand_protocol(id, to, now), literal_expand(b, id, to, now)];
                            prop_assert_eq!(grown[0], grown[1]);
                        }
                    }
                    6 => {
                        if let Some(id) = nth(&running, pick) {
                            let to = (pair[0].nodes_of(id) / 2).max(1);
                            let shrunk = pair.each_mut().map(|s| s.shrink_protocol(id, to, now));
                            prop_assert_eq!(&shrunk[0], &shrunk[1]);
                        }
                    }
                    7 => {
                        if let Some(id) = nth(&running, pick) {
                            pair.iter_mut().for_each(|s| s.complete(id, now));
                        }
                    }
                    8 => {
                        let waiting = ids_where(&pair[0], JobState::Pending, true);
                        if let Some(resizer) = nth(&waiting, pick) {
                            pair.iter_mut().for_each(|s| s.abort_expand(resizer, now));
                        }
                    }
                    9 => {
                        // A node of a running job fails: the job is killed
                        // and resubmitted, boosted, at its current size.
                        if let Some(id) = nth(&running, pick) {
                            let nodes = pair[0].cluster().nodes_of(id.owner_tag());
                            let node = nodes[size as usize % nodes.len()];
                            let again = pair.each_mut().map(|s| {
                                s.fail_node(node);
                                let again = s.requeue_failed(id, now);
                                s.repair_node(node);
                                again
                            });
                            prop_assert_eq!(again[0], again[1], "the requeue ids differ");
                        }
                    }
                    _ => now += Span::from_secs(u64::from(pick % 40)),
                }
                if op != 3 {
                    pass(&mut pair, now, false)?;
                }
                factors_follow_allocations(&pair)?;
                same_state(&pair, now)?;
            }
            // The next id either scheduler hands out is the same one.
            let probe = pair.each_mut().map(|s| s.submit(JobRequest::rigid("probe", 1), now));
            prop_assert_eq!(probe[0], probe[1]);
        }
    }
}
