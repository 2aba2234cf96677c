//! Offline stand-in for the `criterion` crate.
//!
//! Keeps the three bench targets of `dmr-bench` compiling and runnable
//! without crates.io: same macro/entry-point shape (`criterion_group!` /
//! `criterion_main!`, [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`]), but
//! measurement is a simple best-of-N wall-clock timer with one line of
//! output per benchmark — no statistics, plots, or saved baselines.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value wrapper.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Units-processed-per-iteration annotation, echoed in the report line.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// Runs one benchmark body repeatedly and records the best sample.
pub struct Bencher {
    samples: u32,
    best: Duration,
}

impl Bencher {
    fn new(samples: u32) -> Self {
        Bencher {
            samples,
            best: Duration::MAX,
        }
    }

    /// Times `routine` directly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(routine());
            let dt = t0.elapsed();
            self.best = self.best.min(dt);
        }
    }
}

fn report(name: &str, best: Duration, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Bytes(n)) if best > Duration::ZERO => {
            format!(
                "  ({:.1} MiB/s)",
                n as f64 / best.as_secs_f64() / (1 << 20) as f64
            )
        }
        _ => String::new(),
    };
    println!("bench: {name:<48} best {best:>12.3?}{rate}");
}

/// A named family of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: u32,
}

impl BenchmarkGroup<'_> {
    /// Sets the units processed per iteration for subsequent benches.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets how many samples each bench takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u32).max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id.into()),
            b.best,
            self.throughput,
        );
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {
        let _ = self.criterion;
    }
}

/// The benchmark driver handed to every `criterion_group!` target.
pub struct Criterion;

impl Criterion {
    /// Opens a named benchmark group of 10 samples a bench.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: 10,
        }
    }
}

/// Bundles bench functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion;
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups (use `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_a_sample() {
        let mut c = Criterion;
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Bytes(4)).sample_size(3);
        g.bench_function("noop", |b| b.iter(|| black_box(vec![1u8; 4]).len()));
        g.finish();
    }
}
