//! An allocation budget for the start / resize / complete path.
//!
//! The RMS-side cost of a job has to stay negligible next to the spawn
//! and redistribution it triggers, and on `sat_fixed` a whole job costs
//! under two microseconds — a handful of `malloc`s is a visible share of
//! that. In the steady state the stack allocates only what it keeps: one
//! node list per job in the cluster's owner table, the starts a pass
//! returns, and the amortised growth of the indices. This binary counts
//! heap allocations per simulated job over a whole run on the default
//! path, `Simulation::new(cfg).source(..).run()` — driver, summary and
//! result — on the two saturated benchmark shapes and the three-class
//! faulty one, and fails when a change puts a per-call `Vec`, `format!`
//! or `to_vec` back on that path.
//!
//! The counting `#[global_allocator]` is why this is a test binary of
//! its own. The count is per thread, so the harness running the three
//! tests side by side (or printing) cannot pollute any of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmr::core::{ExperimentConfig, Simulation};
use dmr::workload::{Feitelson, GpuShare, WorkloadConfig};

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
/// the benchmark's FS job mix (10 s mean arrival gap), `gpu_permille`
/// jobs per thousand confined to the GPU class, the input generated
/// before the count starts.
fn allocations_per_job(cfg: &ExperimentConfig, gpu_permille: u32) -> f64 {
    let feitelson = Feitelson::new(WorkloadConfig::fs_preliminary(JOBS), 20170814);
    let mut source = GpuShare::new(feitelson, gpu_permille);
    let before = ALLOCATIONS.get();
    let result = Simulation::new(cfg).source(&mut source).run();
    let allocations = ALLOCATIONS.get() - before;
    let result = result.expect("a valid configuration");
    assert_eq!(result.summary.jobs, JOBS as usize, "every job completed");
    assert!(result.events > u64::from(JOBS));
    allocations as f64 / f64::from(JOBS)
}

/// Full-size runs read ≈ 2.7 (7.8 before the count-returning cluster
/// calls); 2 000 jobs amortise container growth over fewer jobs.
#[test]
fn a_rigid_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300).as_fixed();
    let per_job = allocations_per_job(&cfg, 0);
    println!("alloc_budget: sat_fixed-shaped {per_job:.2} allocations/job (budget 4.5)");
    assert!(per_job <= 4.5, "{per_job:.2} allocations per rigid job");
}

/// Full-size runs read ≈ 6 (20.2 before): a malleable job is resized a
/// dozen times, and a resize that fits its list allocates nothing.
#[test]
fn a_malleable_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300);
    let per_job = allocations_per_job(&cfg, 0);
    println!("alloc_budget: sat_flex-shaped {per_job:.2} allocations/job (budget 9.5)");
    assert!(per_job <= 9.5, "{per_job:.2} allocations per malleable job");
}

/// The `trace_mixed` shape (the configuration `tests/determinism.rs`
/// pins): three machine classes, a quarter of the jobs GPU-only,
/// conservative backfill, the energy-aware policy, harsh faults with
/// 600 s checkpoints. On top of the saturated shapes' node lists a job
/// keeps its class split, and a requeue submits a second incarnation.
/// Reads ≈ 4.7 (the benchmark's full-size `trace_mixed` ≈ 4.3).
#[test]
fn a_job_on_a_three_class_faulty_machine_allocates_within_budget() {
    use dmr::core::{FaultLoad, MachineMix, PolicyKind};
    let cfg = ExperimentConfig::preliminary()
        .with_nodes(32)
        .with_machine_mix(MachineMix::Hetero3)
        .with_faults(FaultLoad::Harsh)
        .with_fault_seed(20170814)
        .with_ckpt_interval(600.0)
        .conservative_backfill()
        .with_policy(PolicyKind::energy_aware());
    let per_job = allocations_per_job(&cfg, 250);
    println!("alloc_budget: trace_mixed-shaped {per_job:.2} allocations/job (budget 6.0)");
    assert!(
        per_job <= 6.0,
        "{per_job:.2} allocations per job on three classes"
    );
}
