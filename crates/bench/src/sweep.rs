//! Parallel scenario-sweep runner.
//!
//! Fans `run_experiment` over the (scenario × seed) grid across OS
//! threads. Work items are claimed from an atomic cursor and results are
//! written into pre-indexed slots, so the output order — and therefore the
//! CSV byte stream — is a pure function of the grid, never of thread
//! scheduling. Each worker builds its own driver; nothing is shared but
//! the cursor and the result slots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dmr_core::run_experiment_streaming;
use dmr_metrics::csv::escape_field;
use dmr_metrics::WorkloadSummary;

use crate::scenario::Scenario;

/// One (scenario, seed) cell's outcome.
#[derive(Clone, Debug)]
pub struct SweepCell {
    pub scenario: String,
    /// Workload-source family the scenario drew from.
    pub workload: &'static str,
    pub policy: String,
    pub mode: &'static str,
    /// Backfill selection the cell ran under (off / easy1 / easy8 /
    /// conservative).
    pub backfill: &'static str,
    /// Machine-class composition the cluster was built from (uniform /
    /// hetero3).
    pub machine_mix: &'static str,
    /// Fault load the cell ran under (none / rare / harsh).
    pub faults: &'static str,
    pub seed: u64,
    pub nodes: u32,
    pub summary: WorkloadSummary,
    pub events: u64,
    pub past_schedules: u64,
}

impl SweepCell {
    /// The CSV header matching [`SweepCell::csv_row`].
    pub const CSV_HEADER: &'static str =
        "scenario,workload,policy,mode,backfill,seed,nodes,jobs,makespan_s,\
         utilization,avg_wait_s,avg_exec_s,avg_completion_s,\
         p50_wait_s,p95_wait_s,p99_wait_s,p50_exec_s,p95_exec_s,p99_exec_s,\
         p50_compl_s,p95_compl_s,p99_compl_s,reconfigurations,events,past_schedules,\
         machine_mix,energy_j,avg_watts,\
         faults,failures,requeues,lost_work_s,goodput_ratio,restart_p95_s";

    /// One CSV row. Fixed-precision formatting keeps the byte stream
    /// deterministic across runs and thread counts; free-form labels are
    /// RFC 4180-escaped so a comma in a name can never shift columns.
    /// The percentile columns come from the streaming histograms and are
    /// deterministic like everything else (bins are a pure function of
    /// the recorded durations).
    pub fn csv_row(&self) -> String {
        let s = &self.summary;
        format!(
            "{},{},{},{},{},{},{},{},{:.3},{:.6},{:.3},{:.3},{:.3},\
             {:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},\
             {},{:.3},{:.3},{},{},{},{:.3},{:.6},{:.3}",
            escape_field(&self.scenario),
            escape_field(self.workload),
            escape_field(&self.policy),
            self.mode,
            self.backfill,
            self.seed,
            self.nodes,
            s.jobs,
            s.makespan_s,
            s.utilization,
            s.avg_waiting_s,
            s.avg_execution_s,
            s.avg_completion_s,
            s.waiting_q.p50_s,
            s.waiting_q.p95_s,
            s.waiting_q.p99_s,
            s.execution_q.p50_s,
            s.execution_q.p95_s,
            s.execution_q.p99_s,
            s.completion_q.p50_s,
            s.completion_q.p95_s,
            s.completion_q.p99_s,
            s.reconfigurations,
            self.events,
            self.past_schedules,
            self.machine_mix,
            s.energy_to_solution_j,
            s.avg_watts,
            self.faults,
            s.failures,
            s.requeues,
            s.lost_work_s,
            s.goodput_ratio,
            s.restart_p95_s,
        )
    }
}

/// Runs every (scenario, seed) cell on up to `threads` worker threads and
/// returns the cells in grid order (scenario-major, then seed), regardless
/// of which thread computed which cell.
pub fn run_sweep(scenarios: &[Scenario], seeds: &[u64], threads: usize) -> Vec<SweepCell> {
    let work: Vec<(&Scenario, u64)> = scenarios
        .iter()
        .flat_map(|sc| seeds.iter().map(move |&seed| (sc, seed)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepCell>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.max(1).min(work.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(sc, seed)) = work.get(i) else {
                    break;
                };
                let cell = run_cell(sc, seed);
                *slots[i].lock().expect("sweep slot poisoned") = Some(cell);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every work item was claimed and completed")
        })
        .collect()
}

fn run_cell(sc: &Scenario, seed: u64) -> SweepCell {
    let mut source = sc.source(seed);
    let result = run_experiment_streaming(&sc.config(), source.as_mut());
    SweepCell {
        scenario: sc.name(),
        workload: sc.workload.name(),
        policy: sc.policy.label(),
        mode: match sc.mode {
            dmr_core::ScheduleMode::Synchronous => "sync",
            dmr_core::ScheduleMode::Asynchronous => "async",
        },
        backfill: sc.backfill.name(),
        machine_mix: sc.mix.name(),
        faults: sc.faults.name(),
        seed,
        nodes: sc.nodes,
        summary: result.summary,
        events: result.events,
        past_schedules: result.past_schedules,
    }
}

/// Renders cells as one CSV document, one row per (scenario, seed).
pub fn csv_report(cells: &[SweepCell]) -> String {
    let mut out = String::from(SweepCell::CSV_HEADER);
    out.push('\n');
    for cell in cells {
        out.push_str(&cell.csv_row());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::smoke_registry;

    #[test]
    fn sweep_output_is_identical_across_thread_counts() {
        // The acceptance bar: byte-identical CSV regardless of how the
        // work was scheduled. 1 thread vs an over-subscribed pool.
        let scenarios = smoke_registry();
        let seeds = [1u64, 20170814];
        let serial = csv_report(&run_sweep(&scenarios, &seeds, 1));
        let parallel = csv_report(&run_sweep(&scenarios, &seeds, 8));
        assert_eq!(serial, parallel);
        let wide = csv_report(&run_sweep(&scenarios, &seeds, 3));
        assert_eq!(serial, wide);
    }

    #[test]
    fn sweep_emits_one_row_per_cell_in_grid_order() {
        let scenarios = smoke_registry();
        let seeds = [5u64, 6];
        let cells = run_sweep(&scenarios, &seeds, 4);
        assert_eq!(cells.len(), scenarios.len() * seeds.len());
        for (i, cell) in cells.iter().enumerate() {
            let sc = &scenarios[i / seeds.len()];
            assert_eq!(cell.scenario, sc.name());
            assert_eq!(cell.workload, sc.workload.name());
            assert_eq!(cell.seed, seeds[i % seeds.len()]);
            // Synthetic sources emit exactly `jobs`; trace replays at most.
            assert!(cell.summary.jobs as u32 <= sc.jobs);
            assert!(cell.summary.jobs > 0);
        }
    }

    #[test]
    fn sweep_cells_report_no_past_scheduling() {
        let scenarios = smoke_registry();
        let cells = run_sweep(&scenarios, &[3], 2);
        for cell in &cells {
            assert_eq!(
                cell.past_schedules, 0,
                "{} scheduled in the past",
                cell.scenario
            );
        }
    }

    #[test]
    fn csv_has_header_and_stable_shape() {
        let cells = run_sweep(&smoke_registry()[..1], &[1], 1);
        let csv = csv_report(&cells);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("scenario,workload,policy,mode,backfill,seed,"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
    }

    #[test]
    fn sweep_reports_machine_mix_and_energy() {
        assert!(SweepCell::CSV_HEADER.contains("machine_mix,energy_j,avg_watts"));
        let cells = run_sweep(&crate::scenario::hetero_axis(10), &[1], 2);
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.machine_mix, "hetero3");
            assert!(
                cell.summary.energy_to_solution_j > 0.0,
                "{} metered no energy",
                cell.scenario
            );
            assert!(cell.summary.avg_watts > 0.0);
            assert!(!cell.summary.class_utilization.is_empty());
        }
    }

    #[test]
    fn energy_aware_dominates_algorithm1_on_energy() {
        // The Pareto gate: on the heterogeneous cells the energy-aware
        // policy (idle power-down + shrink-for-blocked) must spend
        // strictly less energy than Algorithm 1 on the same workload and
        // seed.
        let cells = run_sweep(&crate::scenario::hetero_axis(10), &[crate::SEED], 2);
        let energy = |policy: &str| {
            cells
                .iter()
                .find(|c| c.policy.starts_with(policy))
                .expect("hetero cell present")
                .summary
                .energy_to_solution_j
        };
        assert!(
            energy("energy-aware") < energy("algorithm1"),
            "energy-aware {} J vs algorithm1 {} J",
            energy("energy-aware"),
            energy("algorithm1")
        );
    }

    #[test]
    fn fault_cells_report_failures_and_goodput() {
        assert!(SweepCell::CSV_HEADER
            .ends_with("faults,failures,requeues,lost_work_s,goodput_ratio,restart_p95_s"));
        let cells = run_sweep(&crate::scenario::fault_axis(10), &[crate::SEED], 2);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert_ne!(cell.faults, "none");
            // Every submitted job still completes — failures requeue,
            // they don't drop work.
            assert_eq!(cell.summary.jobs, 10, "{} lost jobs", cell.scenario);
            assert!(cell.summary.goodput_ratio > 0.0 && cell.summary.goodput_ratio <= 1.0);
            // Only busy-node failures requeue, so requeues never exceed
            // failures.
            assert!(cell.summary.requeues <= cell.summary.failures);
        }
        // The harsh load actually bites on at least one cell.
        assert!(
            cells
                .iter()
                .filter(|c| c.faults == "harsh")
                .any(|c| c.summary.failures > 0),
            "harsh cells saw no failures"
        );
        // Fault-free cells keep the identity goodput.
        let calm = run_sweep(&smoke_registry()[..1], &[crate::SEED], 1);
        assert_eq!(calm[0].faults, "none");
        assert_eq!(calm[0].summary.goodput_ratio, 1.0);
        assert_eq!(calm[0].summary.lost_work_s, 0.0);
    }

    #[test]
    fn every_workload_family_lands_in_the_smoke_csv() {
        let cells = run_sweep(&smoke_registry(), &[1], 4);
        for family in ["fs", "real", "burst", "diurnal", "swf-tiny"] {
            assert!(
                cells.iter().any(|c| c.workload == family),
                "{family} missing from sweep"
            );
        }
        for backfill in ["off", "easy1", "easy8", "conservative"] {
            assert!(
                cells.iter().any(|c| c.backfill == backfill),
                "{backfill} missing from sweep"
            );
        }
    }
}
