//! The production scheduler against the model scheduler of
//! `tests/common/model.rs`, over generated configurations and operation
//! sequences of the `trace_mixed` shape: a uniform or three-class machine,
//! GPU-only and class-pinned jobs, malleable jobs that
//! the policy grows and shrinks, node failures and repairs, power-downs,
//! estimate refreshes, boosts and cancellations — every pass and every
//! operation compared by the lockstep harness.
//!
//! A lockstep drive can pass while exercising little: one of this
//! repository's ran the fallback walk for most of every run before anyone
//! noticed. So the drive counts what it covered — elided, indexed and
//! walked passes, conservative passes cut off by `bf_max_job_test`, holes
//! found for class-constrained jobs, queued resizers a pass started, and
//! requeues — prints the counts and requires every one to be non-zero.

mod common;

use common::lockstep::{Coverage, Lockstep, Op, Outcome, Setup};
use dmr::cluster::{ClassConstraint, ClassTable, NodeId, NodeState};
use dmr::core::MachineMix;
use dmr::sim::{SimTime, Span};
use dmr::slurm::{BackfillFamily, JobRequest, JobState, ResizeAction, ResizeEnvelope, SlurmConfig};
use proptest::prelude::*;

/// One drawn configuration.
#[derive(Clone, Copy, Debug)]
struct Draw {
    nodes: u32,
    hetero: bool,
    backfill: bool,
    /// 0–3: EASY-1, -2, -3, -8; 4: conservative.
    family: u8,
    window: u32,
    retain: bool,
}

impl Draw {
    fn setup(self) -> Setup {
        let table = if self.hetero {
            MachineMix::Hetero3.table(self.nodes, 16)
        } else {
            ClassTable::uniform(self.nodes, 16)
        };
        let mut cfg = SlurmConfig::for_cluster(self.nodes);
        cfg.backfill = self.backfill;
        cfg.backfill_family = match self.family {
            0..=2 => BackfillFamily::easy(u32::from(self.family) + 1),
            3 => BackfillFamily::easy(8),
            _ => BackfillFamily::Conservative,
        };
        cfg.bf_max_job_test = self.window;
        cfg.retain_completed = self.retain;
        Setup::new(table, cfg)
    }
}

/// The `pick`th of `jobs`, wrapping.
fn nth(jobs: &[usize], pick: u32) -> Option<usize> {
    (!jobs.is_empty()).then(|| jobs[pick as usize % jobs.len()])
}

/// A submission drawn from `a` and `b`: mostly rigid or malleable jobs
/// anywhere, now and then one pinned to a class or confined to the GPU
/// class — each of which sends production's EASY pass to its fallback
/// walk while it is pending, so they are rare enough for the indexed
/// pass to run too.
fn request(h: &Lockstep, serial: usize, a: u32, b: u32) -> JobRequest {
    let table = h.slurm().cluster().table();
    let nodes = table.total_nodes();
    let need = 1 + a % nodes.min(16);
    let req = JobRequest::rigid(format!("j{serial}"), need)
        .with_expected_runtime(Span::from_secs(20 + u64::from(b % 1500)));
    let class_size = |c: usize| table.range(c).1 - table.range(c).0;
    match a / 16 % 24 {
        0 if table.has_gpu_class() => {
            let gpu = table.num_classes() - 1;
            JobRequest {
                nodes: 1 + b % class_size(gpu),
                ..req.with_constraint(ClassConstraint::GpuRequired)
            }
        }
        1 => {
            let c = b as usize % table.num_classes();
            JobRequest {
                nodes: 1 + a % class_size(c),
                ..req.with_constraint(ClassConstraint::Class(c))
            }
        }
        2..=11 => JobRequest {
            resize: Some(ResizeEnvelope {
                min: 1,
                max: nodes,
                preferred: b.is_multiple_of(3).then_some(need),
                factor: 2,
            }),
            ..req
        },
        _ => req,
    }
}

/// Applies what a consultation decided about `j`.
fn act(h: &mut Lockstep, j: usize, verdict: ResizeAction) -> Result<(), String> {
    match verdict {
        ResizeAction::Expand { to } => h.apply(Op::Expand(j, to))?,
        ResizeAction::Shrink { to, .. } => h.apply(Op::Shrink(j, to))?,
        ResizeAction::NoAction => Outcome::Done,
    };
    Ok(())
}

/// Runs one drawn configuration through one drawn operation sequence.
fn drive(draw: Draw, ops: &[(u8, u32, u32)]) -> Result<Coverage, String> {
    let mut h = Lockstep::new(draw.setup());
    let mut now = SimTime::ZERO;
    let mut down: Vec<NodeId> = Vec::new();
    for (serial, &(kind, a, b)) in ops.iter().enumerate() {
        // Mostly a few seconds between operations; now and then long
        // enough for running jobs to overrun their estimates.
        now += Span::from_secs(if a.is_multiple_of(9) {
            200 + u64::from(b % 800)
        } else {
            1 + u64::from(a % 20)
        });
        h.at(now)?;
        let m = h.model();
        let running: Vec<usize> = m.in_state(JobState::Running).collect();
        let pending: Vec<usize> = m.in_state(JobState::Pending).collect();
        let flexible: Vec<usize> = running
            .iter()
            .copied()
            .filter(|&j| m.jobs[j].resize.is_some())
            .collect();
        let resizers: Vec<usize> = pending
            .iter()
            .copied()
            .filter(|&j| m.is_resizer(j))
            .collect();
        let live: Vec<usize> = running.iter().chain(&pending).copied().collect();
        match kind {
            0..=4 => {
                let req = request(&h, serial, a, b);
                h.submit(req)?;
            }
            5 | 6 => {
                h.schedule()?;
            }
            7 | 8 => {
                h.backfill()?;
            }
            9 => {
                if let Some(j) = nth(&running, a) {
                    h.apply(Op::Complete(j))?;
                }
            }
            10 => {
                if let Some(j) = nth(&pending, a) {
                    h.apply(Op::Cancel(j))?;
                }
            }
            11 => {
                if let Some(j) = nth(&pending, a) {
                    h.apply(Op::Boost(j))?;
                }
            }
            12 => {
                if let Some(j) = nth(&live, a) {
                    h.apply(Op::Estimate(j, Span::from_secs(10 + u64::from(b % 2000))))?;
                }
            }
            13 => {
                if let Some(j) = nth(&flexible, a) {
                    let to = h.model().held(j) + 1 + b % 4;
                    h.apply(Op::Expand(j, to))?;
                }
            }
            14 => {
                if let Some(j) = nth(&flexible, a) {
                    let to = (h.model().held(j) / 2).max(1);
                    h.apply(Op::Shrink(j, to))?;
                }
            }
            15 => {
                if let Some(j) = nth(&flexible, a) {
                    if let Outcome::Verdict(verdict) = h.apply(Op::Decide(j))? {
                        act(&mut h, j, verdict)?;
                    }
                }
            }
            16 => {
                let node = NodeId(a % draw.nodes);
                if h.slurm().cluster().node_state(node) == NodeState::Up {
                    down.push(node);
                }
                h.apply(Op::Fail(node))?;
            }
            17 => {
                if !down.is_empty() {
                    let node = down.remove(a as usize % down.len());
                    h.apply(Op::Repair(node))?;
                }
            }
            18 => {
                let op = if b.is_multiple_of(2) {
                    Op::PowerDown(a % 4)
                } else {
                    Op::WakeAll
                };
                h.apply(op)?;
            }
            _ => match b % 8 {
                0 => {
                    let on = h.slurm().config.backfill;
                    h.apply(Op::SetBackfill(!on))?;
                }
                1..=3 => {
                    if let Some(j) = nth(&resizers, a) {
                        h.apply(Op::Abort(j))?;
                    }
                }
                _ => {
                    if let Some(j) = nth(&running, a) {
                        h.apply(Op::Requeue(j))?;
                    }
                }
            },
        }
    }
    Ok(h.coverage())
}

#[test]
fn production_matches_the_model() {
    let config = (
        (12u32..41, proptest::bool::ANY, 0u8..4, 0u8..5),
        (2u32..9, proptest::bool::ANY),
    );
    let ops = proptest::collection::vec((0u8..20, 0u32..10_000, 0u32..10_000), 40..300);
    let mut rng = proptest::rng_for("scheduler_differential::production_matches_the_model");
    let mut total = Coverage::default();
    for case in 0..96 {
        let ((nodes, hetero, backfill, family), (window, retain)) = config.sample(&mut rng);
        let draw = Draw {
            nodes,
            hetero,
            backfill: backfill > 0,
            family,
            window,
            retain,
        };
        let ops = ops.sample(&mut rng);
        let covered = drive(draw, &ops).unwrap_or_else(|divergence| {
            panic!("case {case}, {draw:?}: {divergence}");
        });
        total.elided += covered.elided;
        total.indexed += covered.indexed;
        total.walked += covered.walked;
        total.window_cutoffs += covered.window_cutoffs;
        total.constrained_holes += covered.constrained_holes;
        total.resizers_started += covered.resizers_started;
        total.requeues += covered.requeues;
        total.examined += covered.examined;
        total.walk_examined += covered.walk_examined;
    }
    println!("production_matches_the_model: {total:?}");
    let counts = [
        ("elided passes", total.elided),
        ("indexed passes", total.indexed),
        ("walked passes", total.walked),
        ("conservative window cut-offs", total.window_cutoffs),
        ("constrained holes", total.constrained_holes),
        ("queued resizers a pass started", total.resizers_started),
        ("requeues", total.requeues),
    ];
    for (what, count) in counts {
        assert!(count > 0, "no {what}: {total:?}");
    }
}
