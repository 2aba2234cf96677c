//! # dmr-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation ([`figures`]),
//! plus the scenario layer: a declarative [`scenario`] registry (workload
//! mix × cluster size × policy × sync/async mode) and the parallel
//! [`sweep`] runner that fans simulation runs over the (scenario × seed)
//! grid with deterministic, thread-count-independent CSV output. The
//! `repro` binary dispatches to both. Every figure function both
//! *returns* structured rows (for tests and EXPERIMENTS.md generation)
//! and *prints* a paper-style table.
//!
//! Speed is measured in one place, `benchmark/` (declared in
//! `BENCHMARK.json`). The crate keeps three bench targets:
//! `redistribution` and `cr_vs_dmr` time the live MPI stack (the input
//! of the reconfiguration cost model), and `hotpath` runs the
//! [`hotpath`] churn driver — the scheduler alone, on a machine and a
//! queue no `benchmark/` workload reaches yet.

pub mod figures;
pub mod hotpath;
pub mod report;
pub mod scenario;
pub mod sweep;

/// The workload sizes of Figures 3 and 7.
pub const PRELIM_JOB_COUNTS: [u32; 6] = [10, 25, 50, 100, 200, 400];
/// The workload sizes of Figures 10 and 11 / Table II.
pub const PRODUCTION_JOB_COUNTS: [u32; 4] = [50, 100, 200, 400];
/// Seed used throughout ("randomly-sorted jobs with a fixed seed", §IX-A).
pub const SEED: u64 = 20170814;
