//! Hot-path micro-benchmarks of the scheduler alone: node allocation,
//! pending-order consultation, the EASY backfill pass (reservation +
//! reap), the churn driver of `dmr_bench::hotpath`, and the slab job
//! table against the `BTreeMap` it replaced. The `churn` group is where
//! the large-machine cells (65 536 nodes × 100 000 pending: base,
//! hetero3, faulty, EASY-8, EASY-64, conservative) run; whole-experiment
//! throughput is `benchmark/`'s to measure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use dmr_bench::hotpath::{self, Cell};
use dmr_cluster::{ClassConstraint, Cluster};
use dmr_sim::{SimTime, Span};
use dmr_slurm::{Job, JobArena, JobId, JobRequest, JobState, Slurm};

/// A 4096-node cluster with the low 4000 ids busy: lowest-first selection
/// must reach past them for every grant.
fn busy_low_cluster() -> Cluster {
    let mut c = Cluster::new(4096, 16);
    c.allocate(4000, 1).expect("fits");
    c
}

fn bench_allocate(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.bench_function("allocate32_n4096_busy", |b| {
        b.iter_batched(
            busy_low_cluster,
            |mut c| black_box(c.allocate(32, 2).unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn deep_queue(pending: u32) -> Slurm {
    let mut s = Slurm::with_cluster(Cluster::new(64, 16));
    for i in 0..8 {
        s.submit(
            JobRequest::rigid(format!("run{i}"), 8)
                .with_expected_runtime(Span::from_secs(600 + i * 60)),
            SimTime::ZERO,
        );
    }
    s.schedule(SimTime::ZERO);
    for i in 0..pending {
        s.submit(
            JobRequest::rigid(format!("pend{i}"), 1 + (i * 7) % 32)
                .with_expected_runtime(Span::from_secs(120 + (u64::from(i) * 13) % 900)),
            SimTime::from_secs(1 + u64::from(i)),
        );
    }
    s
}

fn bench_pending_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("pending_order");
    for pending in [1_000u32, 10_000] {
        g.bench_function(format!("rebuild_q{pending}"), |b| {
            b.iter_batched(
                || deep_queue(pending),
                // A fresh scheduler has no cached order, so this times
                // one full order build.
                |s| black_box(s.pending_queue(SimTime::from_secs(99_999)).len()),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_backfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("backfill");
    g.bench_function("pass_q4000", |b| {
        b.iter_batched(
            || deep_queue(4_000),
            |mut s| black_box(s.backfill_pass(SimTime::from_secs(2_000))),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// What tells a headline cell from the base cell of its group.
fn axis(cell: &Cell) -> &'static str {
    if cell.hetero {
        "hetero3"
    } else if cell.faulty {
        "faulty"
    } else {
        cell.family.label()
    }
}

/// The headline group of the cell table. Criterion's line times a whole
/// `run_cell`, filling the machine and the queue included; the `churn:`
/// line after it is the fastest sample's churn loop alone — the figure
/// every `events_per_sec` in git history reports. It is printed and
/// forgotten: the timed section of a headline cell is 5–10 ms.
fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn");
    g.sample_size(5);
    let headline = hotpath::cell_table(true)
        .pop()
        .expect("the table ends with the headline group");
    let rounds = hotpath::rounds(false);
    for cell in headline {
        let name = format!("n{}_q{}_{}", cell.nodes, cell.depth, axis(&cell));
        let mut fastest = 0.0_f64;
        g.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let run = hotpath::run_cell(&cell, rounds);
                fastest = fastest.max(run.events_per_sec());
                run.events
            })
        });
        println!("churn: {name:<48} {fastest:>12.0} events/s");
    }
    g.finish();
}

/// A minimal pending-job record for the job-table contrast.
fn record(id: JobId, seq: u64) -> Job {
    Job {
        id,
        seq,
        detached_nodes: 0,
        name: "".into(),
        state: JobState::Pending,
        requested_nodes: 1 + (seq as u32 % 32),
        time_limit: None,
        expected_runtime: Span::from_secs(600),
        dependency: None,
        boosted: false,
        resize: None,
        constraint: ClassConstraint::Any,
        submit_time: SimTime::from_secs(seq),
        start_time: None,
        end_time: None,
        reconfigurations: 0,
    }
}

/// The job-table contrast behind the arena conversion: fill 100k
/// records, then run a lookup + remove/reinsert churn sweep — once on
/// [`JobArena`] (slot-indexed, generation-checked) and once on the
/// `BTreeMap<JobId, Job>` the scheduler used to keep.
fn bench_job_table(c: &mut Criterion) {
    const JOBS: u64 = 100_000;
    let mut g = c.benchmark_group("job_table");
    g.sample_size(10);
    g.bench_function("churn100k_arena", |b| {
        b.iter_batched(
            || {
                let mut a = JobArena::new();
                let ids: Vec<JobId> = (0..JOBS)
                    .map(|seq| a.insert_with(|id| record(id, seq)))
                    .collect();
                (a, ids)
            },
            |(mut a, ids)| {
                let mut touched = 0u64;
                for id in &ids {
                    touched += u64::from(a[*id].requested_nodes);
                }
                for id in &ids[..1000] {
                    let seq = a[*id].seq;
                    a.remove(*id);
                    a.insert_with(|id| record(id, seq));
                }
                black_box((touched, a.len()))
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("churn100k_btreemap", |b| {
        b.iter_batched(
            || {
                let mut m = BTreeMap::new();
                let ids: Vec<JobId> = (0..JOBS)
                    .map(|seq| {
                        let id = JobId(seq);
                        m.insert(id, record(id, seq));
                        id
                    })
                    .collect();
                (m, ids)
            },
            |(mut m, ids)| {
                let mut touched = 0u64;
                for id in &ids {
                    touched += u64::from(m[id].requested_nodes);
                }
                for id in &ids[..1000] {
                    let rec = m.remove(id).expect("present");
                    m.insert(rec.id, rec);
                }
                black_box((touched, m.len()))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_allocate,
    bench_pending_order,
    bench_backfill,
    bench_churn,
    bench_job_table
);
criterion_main!(benches);
