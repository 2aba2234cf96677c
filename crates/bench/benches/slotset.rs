//! Slot-set timeline micro-benchmarks: hole-finding on timelines of 64,
//! 1 000 and 16 000 plans, the rebuild a pass opens with from as many
//! running commitments (and a plan into the result), and the backfill
//! pass itself at queue depths 1k–100k under EASY-1 (which never builds
//! the timeline), EASY-8 and conservative. The `churn` group of the
//! `hotpath` bench runs the same families through whole churn rounds;
//! this bench isolates the per-operation costs of the flat boundary
//! array. A scheduler's
//! timeline holds tens of boundaries at the start of a pass and about a
//! thousand inside the widest conservative window, so the first two
//! sizes are the measured range and the third is one step beyond it —
//! where the O(s) insert and scan start to show.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dmr_cluster::Cluster;
use dmr_sim::{SimTime, Span};
use dmr_slurm::{BackfillFamily, JobRequest, SlotSet, Slurm, SlurmConfig};

/// Pending-queue depths for the pass benches.
const DEPTHS: [u32; 3] = [1_000, 10_000, 100_000];
/// Timeline sizes for the per-operation benches.
const PLANS: [u32; 3] = [64, 1_000, 16_000];

/// A timeline carrying `plans` staggered intervals (the steady-state
/// shape after a deep conservative pass: overlapping plans at mixed
/// widths and durations).
fn planned_timeline(plans: u32) -> SlotSet {
    let mut tl = SlotSet::new(SimTime::ZERO);
    for i in 0..u64::from(plans) {
        let from = SimTime::from_secs((i * 37) % 90_000);
        let until = from + Span::from_secs(120 + (i * 13) % 900);
        tl.plan(from, until, 1 + (i % 64) as u32);
    }
    tl
}

fn bench_hole_finding(c: &mut Criterion) {
    let mut g = c.benchmark_group("slotset");
    for plans in PLANS {
        let tl = planned_timeline(plans);
        // A tight cap forces the query past the congested region instead
        // of accepting the first boundary.
        g.bench_function(format!("earliest_hole_{plans}plans"), |b| {
            b.iter(|| {
                black_box(
                    tl.earliest_hole(
                        black_box(SimTime::ZERO),
                        black_box(64),
                        Span::from_secs(300),
                    )
                    .map(|hole| hole.at),
                )
            })
        });
    }
    g.finish();
}

fn bench_rebuild_and_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("slotset");
    for plans in PLANS {
        // What opens a pass: the whole timeline from the running set —
        // commitments as the running index hands them over, ascending by
        // end, a few sharing one — into the buffers of the previous pass.
        let commitments: Vec<(SimTime, u32)> = (0..u64::from(plans))
            .map(|i| (SimTime::from_secs(100 + i * 37 / 4), 1 + (i % 64) as u32))
            .collect();
        let mut tl = SlotSet::new(SimTime::ZERO);
        g.bench_function(format!("rebuild_{plans}commitments"), |b| {
            b.iter(|| {
                tl.rebuild(
                    SimTime::from_secs(50),
                    black_box(&commitments).iter().copied(),
                );
                black_box(tl.len())
            })
        });
        // One reservation mid-timeline: two inserts and an add over the
        // covered range.
        g.bench_function(format!("plan_{plans}plans"), |b| {
            b.iter_batched(
                || planned_timeline(plans),
                |mut tl| {
                    let from = SimTime::from_secs(45_000);
                    tl.plan(from, from + Span::from_secs(500), 7);
                    black_box(tl.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// A full 64-node machine with `pending` blocked jobs queued — the state
/// a backfill pass walks.
fn deep_queue(pending: u32, family: BackfillFamily) -> Slurm {
    let mut cfg = SlurmConfig::for_cluster(64);
    cfg.backfill_family = family;
    let mut s = Slurm::new(Cluster::new(64, 16), cfg);
    for i in 0..8u64 {
        s.submit(
            JobRequest::rigid(format!("run{i}"), 8)
                .with_expected_runtime(Span::from_secs(600 + i * 60)),
            SimTime::ZERO,
        );
    }
    s.schedule(SimTime::ZERO);
    for i in 0..pending {
        s.submit(
            JobRequest::rigid(format!("pend{i}"), 9 + i % 48)
                .with_expected_runtime(Span::from_secs(120 + u64::from(i) * 13 % 900)),
            SimTime::from_secs(1),
        );
    }
    s
}

fn bench_backfill_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("backfill");
    for depth in DEPTHS {
        for (label, family) in [
            ("easy1", BackfillFamily::easy(1)),
            ("easy8", BackfillFamily::easy(8)),
            ("conservative", BackfillFamily::Conservative),
        ] {
            g.bench_function(format!("pass_{label}_q{depth}"), |b| {
                b.iter_batched(
                    || deep_queue(depth, family),
                    |mut s| black_box(s.backfill_pass(SimTime::from_secs(5)).len()),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hole_finding,
    bench_rebuild_and_plan,
    bench_backfill_pass
);
criterion_main!(benches);
