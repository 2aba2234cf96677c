//! The scheduler alone on the large-machine cells of
//! `dmr_bench::hotpath` (65 536 nodes × 100 000 pending: base, hetero3,
//! faulty, EASY-8, EASY-64, conservative) — a regime no `benchmark/`
//! workload reaches yet. Whole-experiment throughput is `benchmark/`'s
//! to measure; this target only keeps the wide regime running.

use criterion::{criterion_group, criterion_main, Criterion};

use dmr_bench::hotpath::{self, Cell};

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

/// The headline cells. Criterion's line times a whole
/// `run_cell`, filling the machine and the queue included; the `churn:`
/// line after it is the fastest sample's churn loop alone — the figure
/// every `events_per_sec` in git history reports. It is printed and
/// forgotten: the timed section of a headline cell is 5–10 ms.
fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn");
    g.sample_size(5);
    for cell in hotpath::headline() {
        let name = format!("n{}_q{}_{}", cell.nodes, cell.depth, axis(&cell));
        let mut fastest = 0.0_f64;
        g.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let run = hotpath::run_cell(&cell, hotpath::ROUNDS);
                fastest = fastest.max(run.events_per_sec());
                run.events
            })
        });
        println!("churn: {name:<48} {fastest:>12.0} events/s");
    }
    g.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
