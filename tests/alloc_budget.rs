//! An allocation and heap budget for the start / resize / complete path.
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
//! Beside the count it tracks the bytes live on the heap and their peak,
//! for two memory laws: a Feitelson stream holds the same heap whatever
//! its length, and a run holds a bounded number of bytes per job waiting
//! in its queue — per-job tables cost what they hold, not what the job
//! arena spans.
//!
//! The counting `#[global_allocator]` is why this is a test binary of
//! its own. The counts are per thread, so the harness running the tests
//! side by side (or printing) cannot pollute any of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmr::core::{ExperimentConfig, MetricsSink, Simulation};
use dmr::metrics::JobOutcome;
use dmr::sim::SimTime;
use dmr::workload::{Feitelson, GpuShare, JobSpec, WorkloadConfig, WorkloadSource};

thread_local! {
    /// Calls this thread made to `alloc` / `alloc_zeroed` / `realloc`.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_heap_of`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Books one allocator call that moved this thread's live heap by
/// `bytes` (negative for a free, which is not counted as an allocation).
fn book(allocation: bool, bytes: i64) {
    // `try_with`: a thread being torn down may free (and allocate) after
    // its locals are gone.
    if allocation {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are `const`-initialised
// thread-local `Cell`s with no destructor, so touching them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(true, layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(true, layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(true, new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(false, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it returned with the peak of this thread's
/// live heap while it ran, in bytes above the live heap when it began.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    (out, (PEAK.get() - base) as u64)
}

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

/// Reads 1.80 (2.07 with B-tree pending, need-bucket and running
/// orders, 7.9 before the count-returning cluster calls); 2 000 jobs
/// amortise container growth over fewer jobs than a full-size run.
#[test]
fn a_rigid_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300).as_fixed();
    let per_job = allocations_per_job(&cfg, 0);
    println!("alloc_budget: sat_fixed-shaped {per_job:.2} allocations/job (budget 2.5)");
    assert!(per_job <= 2.5, "{per_job:.2} allocations per rigid job");
}

/// Reads 3.04 (3.34 with B-tree orders, 19.0 before the count-returning
/// cluster calls): a malleable job is resized a dozen times, and a
/// resize that fits its list allocates nothing.
#[test]
fn a_malleable_job_on_a_saturated_machine_allocates_within_budget() {
    let cfg = ExperimentConfig::preliminary().with_nodes(300);
    let per_job = allocations_per_job(&cfg, 0);
    println!("alloc_budget: sat_flex-shaped {per_job:.2} allocations/job (budget 4.0)");
    assert!(per_job <= 4.0, "{per_job:.2} allocations per malleable job");
}

/// The `trace_mixed` shape (the configuration `tests/determinism.rs`
/// pins): three machine classes, a quarter of the jobs GPU-only,
/// conservative backfill, the energy-aware policy, harsh faults with
/// 600 s checkpoints. On top of the saturated shapes' node lists a job
/// keeps its class split, and a requeue submits a second incarnation.
/// Reads 3.15 (3.16 while `Cluster::power_down` returned the ids it
/// suspended, 3.66 with B-tree orders).
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
    println!("alloc_budget: trace_mixed-shaped {per_job:.2} allocations/job (budget 3.5)");
    assert!(
        per_job <= 3.5,
        "{per_job:.2} allocations per job on three classes"
    );
}

/// A Feitelson stream draws bodies on demand and arrivals from a second
/// cursor on its RNG stream, so building and draining one holds the same
/// heap at any length — nothing per job outlives the job handed out.
#[test]
fn a_feitelson_drain_peaks_at_the_same_heap_whatever_its_length() {
    let drain = |jobs| {
        let ((), peak) = peak_heap_of(|| {
            let mut source = Feitelson::new(WorkloadConfig::fs_preliminary(jobs), 20170814);
            while source.next_job().is_some() {}
        });
        peak
    };
    let (short, long) = (drain(2_000), drain(200_000));
    println!(
        "alloc_budget: a Feitelson drain peaks at {short} B (2 000 jobs), {long} B (200 000 jobs)"
    );
    assert_eq!(short, long, "the stream's heap grows with its length");
}

/// Counts the jobs pulled from a source, for [`PendingPeak`].
struct Pulled<'a, S> {
    inner: S,
    pulled: &'a Cell<u64>,
    /// Whether the last pull returned a job (the driver holds one job
    /// ahead of the clock until its arrival).
    ahead: &'a Cell<bool>,
}

impl<S: WorkloadSource> WorkloadSource for Pulled<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        let job = self.inner.next_job();
        self.pulled
            .set(self.pulled.get() + u64::from(job.is_some()));
        self.ahead.set(job.is_some());
        job
    }
}

/// The most jobs that had arrived and were neither running nor done at
/// any sample of a run.
struct PendingPeak<'a> {
    pulled: &'a Cell<u64>,
    ahead: &'a Cell<bool>,
    peak: u64,
}

impl MetricsSink for PendingPeak<'_> {
    fn on_sample(&mut self, _now: SimTime, _allocated: f64, running: f64, completed: f64) {
        let arrived = self.pulled.get() - u64::from(self.ahead.get());
        let pending = arrived.saturating_sub(running as u64 + completed as u64);
        self.peak = self.peak.max(pending);
    }

    fn on_job(&mut self, _seq: u64, _outcome: JobOutcome) {}
}

/// The paper's 20-node testbed 17× overloaded with rigid jobs (the
/// benchmark's `deep_fixed` shape): nearly the whole workload queues, and
/// at most 20 jobs run. What the run holds per queued job is its record,
/// its index keys and its entries in the per-job tables; a table of
/// running-job state sized by the arena's slots instead of by the running
/// jobs breaks the budget. Reads ≈ 500 B.
#[test]
fn a_deep_queue_run_peaks_within_a_heap_budget_per_pending_job() {
    let cfg = ExperimentConfig::preliminary().as_fixed();
    let (pulled, ahead) = (Cell::new(0), Cell::new(false));
    let mut source = Pulled {
        inner: Feitelson::new(WorkloadConfig::fs_preliminary(JOBS), 20170814),
        pulled: &pulled,
        ahead: &ahead,
    };
    let mut sink = PendingPeak {
        pulled: &pulled,
        ahead: &ahead,
        peak: 0,
    };
    let (result, peak) = peak_heap_of(|| {
        Simulation::new(&cfg)
            .source(&mut source)
            .sink(&mut sink)
            .run()
    });
    let result = result.expect("a valid configuration");
    assert_eq!(result.summary.jobs, JOBS as usize, "every job completed");
    let per_job = peak as f64 / sink.peak as f64;
    println!(
        "alloc_budget: deep_fixed-shaped peak heap {peak} B over {} pending jobs, {per_job:.0} B/pending job (budget 640)",
        sink.peak
    );
    assert!(sink.peak > u64::from(JOBS) / 2, "the queue ran deep");
    assert!(per_job <= 640.0, "{per_job:.0} B per pending job");
}
