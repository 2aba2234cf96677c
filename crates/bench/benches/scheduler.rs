//! Scheduler micro-benchmarks: FIFO cycle, EASY backfill pass, and the
//! Algorithm-1 decision — the operations on the RMS's critical path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dmr_cluster::Cluster;
use dmr_sim::{SimTime, Span};
use dmr_slurm::{JobRequest, ResizeEnvelope, Slurm};

fn deep_queue(pending: u32) -> Slurm {
    let mut s = Slurm::with_cluster(Cluster::new(64, 16));
    // Fill the machine.
    for i in 0..8 {
        s.submit(
            JobRequest::rigid(format!("run{i}"), 8)
                .with_expected_runtime(Span::from_secs(600 + i * 60)),
            SimTime::ZERO,
        );
    }
    s.schedule(SimTime::ZERO);
    // Deep pending queue of mixed sizes.
    for i in 0..pending {
        s.submit(
            JobRequest::rigid(format!("pend{i}"), 1 + (i * 7) % 32)
                .with_expected_runtime(Span::from_secs(120 + (i as u64 * 13) % 900)),
            SimTime::from_secs(1 + i as u64),
        );
    }
    s
}

fn bench_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("slurm");
    for pending in [50u32, 400] {
        g.bench_function(format!("fifo_cycle_q{pending}"), |b| {
            b.iter_batched(
                || deep_queue(pending),
                |mut s| black_box(s.schedule(SimTime::from_secs(1000))),
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("backfill_pass_q{pending}"), |b| {
            b.iter_batched(
                || deep_queue(pending),
                |mut s| black_box(s.backfill_pass(SimTime::from_secs(1000))),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy");
    for pending in [0u32, 50, 400] {
        g.bench_function(format!("decide_resize_q{pending}"), |b| {
            b.iter_batched(
                || {
                    let mut s = deep_queue(pending);
                    let id = s.submit(
                        JobRequest::flexible(
                            "flex",
                            8,
                            ResizeEnvelope {
                                min: 1,
                                max: 32,
                                preferred: None,
                                factor: 2,
                            },
                        ),
                        SimTime::from_secs(2000),
                    );
                    // Make room so the flexible job runs.
                    let running: Vec<_> = s
                        .jobs()
                        .filter(|j| j.state == dmr_slurm::JobState::Running)
                        .map(|j| j.id)
                        .collect();
                    s.complete(running[0], SimTime::from_secs(2000));
                    s.schedule(SimTime::from_secs(2000));
                    (s, id)
                },
                |(mut s, id)| black_box(s.decide_resize(id, SimTime::from_secs(2001))),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The per-instant pending-order cache win: one scheduling instant issues
/// a FIFO cycle plus (with many flexible jobs at their reconfiguring
/// points) a burst of same-instant `pending_queue` consultations. Before
/// the cache every consultation re-sorted the deep queue; now only the
/// first materialises the order from the pending index, the rest clone
/// the memoized one. `x1` measures the mandatory recompute, `x8` the
/// pattern the cache exists for — it must cost far less than 8 × `x1`.
fn bench_pending_order_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("pending_order");
    for pending in [50u32, 400] {
        for consults in [1u32, 8] {
            g.bench_function(format!("pending_queue_x{consults}_q{pending}"), |b| {
                b.iter_batched(
                    || deep_queue(pending),
                    |s| {
                        let now = SimTime::from_secs(2000);
                        for _ in 0..consults {
                            black_box(s.pending_queue(now));
                        }
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_expand_protocol(c: &mut Criterion) {
    c.bench_function("expand_protocol_4to8", |b| {
        b.iter_batched(
            || {
                let mut s = Slurm::with_cluster(Cluster::new(64, 16));
                let id = s.submit(JobRequest::rigid("a", 4), SimTime::ZERO);
                s.schedule(SimTime::ZERO);
                (s, id)
            },
            |(mut s, id)| black_box(s.expand_protocol(id, 8, SimTime::from_secs(1))),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_cycles,
    bench_policy,
    bench_pending_order_cache,
    bench_expand_protocol
);
criterion_main!(benches);
