//! An allocation budget for the start / resize / complete path.
//!
//! The RMS-side cost of a job has to stay negligible next to the spawn
//! and redistribution it triggers, and on `sat_fixed` a whole job costs
//! under two microseconds — a handful of `malloc`s is a visible share of
//! that. In the steady state the stack allocates only what it keeps: one
//! node list per job in the cluster's owner table, the starts a pass
//! returns, and the amortised growth of the indices. This binary counts
//! heap allocations per simulated job over a whole
//! `run_experiment_with_sink`, from driver start to `summary()`, on the
//! two saturated benchmark shapes, and fails when a change puts a
//! per-call `Vec`, `format!` or `to_vec` back on that path.
//!
//! The counting `#[global_allocator]` is why this is a test binary of
//! its own. The count is per thread, so the harness running the two
//! tests side by side (or printing) cannot pollute either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmr::core::{run_experiment_with_sink, ExperimentConfig};
use dmr::metrics::OnlineAccumulator;
use dmr::workload::{Feitelson, WorkloadConfig};

thread_local! {
    /// Calls this thread made to `alloc` / `alloc_zeroed` / `realloc`.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may free (and allocate) after
    // its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local `Cell` with no destructor, so touching it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const JOBS: u32 = 2_000;

/// Heap allocations per simulated job of one streamed run of `cfg` over
/// the benchmark's FS job mix (10 s mean arrival gap), the input
/// generated before the count starts.
fn allocations_per_job(cfg: &ExperimentConfig) -> f64 {
    let mut source = Feitelson::new(WorkloadConfig::fs_preliminary(JOBS), 20170814);
    let mut sink = OnlineAccumulator::new();
    let before = ALLOCATIONS.get();
    let stats = run_experiment_with_sink(cfg, &mut source, &mut sink);
    let summary = sink.summary(cfg.nodes);
    let allocations = ALLOCATIONS.get() - before;
    assert_eq!(summary.jobs, JOBS as usize, "every job completed");
    assert!(stats.events > u64::from(JOBS));
    allocations as f64 / f64::from(JOBS)
}

/// Full-size runs read ≈ 2.7 (7.8 before the count-returning cluster
/// calls); 2 000 jobs amortise container growth over fewer jobs.
#[test]
fn a_rigid_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300).as_fixed();
    let per_job = allocations_per_job(&cfg);
    println!("alloc_budget: sat_fixed-shaped {per_job:.2} allocations/job (budget 4.5)");
    assert!(per_job <= 4.5, "{per_job:.2} allocations per rigid job");
}

/// Full-size runs read ≈ 6 (20.2 before): a malleable job is resized a
/// dozen times, and a resize that fits its list allocates nothing.
#[test]
fn a_malleable_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300);
    let per_job = allocations_per_job(&cfg);
    println!("alloc_budget: sat_flex-shaped {per_job:.2} allocations/job (budget 9.5)");
    assert!(per_job <= 9.5, "{per_job:.2} allocations per malleable job");
}
