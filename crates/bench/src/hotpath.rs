//! Scheduler hot-path churn driver — the workload behind the `churn`
//! group of `benches/hotpath.rs`.
//!
//! Drives a synthetic churn workload (a full machine with a deep pending
//! queue, one completion + one submission + one scheduling pass per
//! round, a backfill pass every `bf_interval`-like 30 rounds) through
//! the scheduler once per [`Cell`] of the [`headline`] table: under each
//! backfill family, on the three-class machine and under node failures.
//!
//! Nothing here records a number. The repository's performance
//! trajectory is `benchmark/` (declared in `BENCHMARK.json`), which
//! times whole simulation runs; this driver keeps the one regime no
//! `WorkloadSource` of that benchmark reaches — 65 536 nodes with
//! 100 000 jobs pending — runnable, and the bench prints each
//! cell's churn-only [`CellResult::events_per_sec`] for the reader of
//! that session. A headline cell's timed section is 5–10 ms: two
//! readings from different sessions do not compare.

use std::collections::VecDeque;
use std::time::Instant;

use dmr_cluster::{Cluster, FailOutcome, NodeId};
use dmr_core::MachineMix;
use dmr_sim::{SimTime, Span};
use dmr_slurm::{BackfillFamily, JobId, JobRequest, Slurm, SlurmConfig};

/// What one measurement runs: a machine, a queue depth and one setting
/// per axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    pub nodes: u32,
    /// Pending jobs queued before the first round.
    pub depth: u32,
    pub family: BackfillFamily,
    /// The same churn on a three-class [`MachineMix::Hetero3`] cluster,
    /// driving the per-class free sets and class splits on every start. The
    /// churn jobs stay class-unconstrained, so the pass-elision memos
    /// keep firing and the measured contrast is the per-class
    /// bookkeeping alone.
    pub hetero: bool,
    /// A deterministic node failure every 10th round (kill-and-requeue
    /// when the node was serving a job) repaired five rounds later, so
    /// at most one node is down at a time and capacity recovers.
    pub faulty: bool,
}

impl Cell {
    /// The cell every axis is read against: EASY-1 (the paper's
    /// configuration), uniform machine, no faults.
    pub fn base(nodes: u32, depth: u32) -> Cell {
        Cell {
            nodes,
            depth,
            family: BackfillFamily::easy(1),
            hetero: false,
            faulty: false,
        }
    }
}

/// One measured [`Cell`].
#[derive(Clone, Debug)]
pub struct CellResult {
    pub cell: Cell,
    /// Scheduling events processed: submissions + completions + passes +
    /// job starts.
    pub events: u64,
    pub jobs_started: u64,
    pub peak_queue_depth: u64,
    /// Scheduling + backfill passes that executed / that returned via the
    /// O(1) elision path — reported per cell so the memos' win is
    /// attributable, not inferred.
    pub passes_run: u64,
    pub passes_elided: u64,
    pub elapsed_s: f64,
}

impl CellResult {
    /// Events per second of the churn loop alone: `elapsed_s` starts
    /// after the machine is filled and the queue is `depth` deep.
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.events as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// The headline cells: 65 536 nodes with 100 000 jobs pending, the
/// [`Cell::base`] first, then the machine and fault twins *adjacent* to
/// it — they are read against it, and back-to-back measurements compare
/// better than the two ends of a sweep — then the deeper backfill
/// families.
pub fn headline() -> Vec<Cell> {
    let base = Cell::base(65_536, 100_000);
    let mut cells = vec![
        base,
        Cell {
            hetero: true,
            ..base
        },
        Cell {
            faulty: true,
            ..base
        },
    ];
    cells.extend(
        [
            BackfillFamily::easy(8),
            BackfillFamily::easy(64),
            BackfillFamily::Conservative,
        ]
        .map(|family| Cell { family, ..base }),
    );
    cells
}

/// Rounds of churn per cell; every reading in git history was taken at
/// this count.
pub const ROUNDS: u32 = 300;

/// Runs one cell.
///
/// The churn loop mirrors the driver's steady state: the machine starts
/// full (one running job per 64th of the cluster), the queue starts
/// `depth` deep with mixed widths, and every round completes the oldest
/// running job, submits a replacement, and runs the event-driven
/// scheduling pass; every 30th round runs the periodic backfill pass
/// (Slurm's `bf_interval` at one round per second).
pub fn run_cell(cell: &Cell, rounds: u32) -> CellResult {
    let Cell { nodes, depth, .. } = *cell;
    let mut cfg = SlurmConfig::for_cluster(nodes);
    cfg.backfill_family = cell.family;
    // Steady-state churn would grow the terminal-record table without
    // bound; the streaming driver prunes it, so the bench does too.
    cfg.retain_completed = false;
    let cluster = if cell.hetero {
        Cluster::with_classes(MachineMix::Hetero3.table(nodes, 16))
    } else {
        Cluster::new(nodes, 16)
    };
    let mut s = Slurm::new(cluster, cfg);

    let width = (nodes / 64).max(1);
    let mut running: VecDeque<_> = VecDeque::new();
    for i in 0..nodes / width {
        s.submit(
            JobRequest::rigid(format!("run{i}"), width)
                .with_expected_runtime(Span::from_secs(600 + (u64::from(i) * 37) % 600)),
            SimTime::ZERO,
        );
    }
    for start in s.schedule(SimTime::ZERO) {
        running.push_back(start.id);
    }
    for i in 0..depth {
        s.submit(
            JobRequest::rigid(format!("pend{i}"), 1 + (i * 7) % (width * 4))
                .with_expected_runtime(Span::from_secs(120 + (u64::from(i) * 13) % 900)),
            SimTime::from_secs(1 + u64::from(i) % 100),
        );
    }

    let mut events: u64 = 0;
    let mut jobs_started: u64 = 0;
    let mut pending = u64::from(depth);
    let mut peak = pending;
    let mut down: VecDeque<NodeId> = VecDeque::new();
    let t0 = Instant::now();
    for r in 0..rounds {
        let now = SimTime::from_secs(1000 + u64::from(r));
        if let Some(id) = running.pop_front() {
            s.complete(id, now);
            events += 1;
        }
        if cell.faulty && r % 10 == 3 {
            // Deterministic victim walk; most hits land on busy nodes
            // (the machine runs full), exercising kill-and-requeue.
            let node = NodeId((r / 10 * 17 + 1) % nodes);
            let outcome = s.fail_node(node);
            if let FailOutcome::Busy(owner) = outcome {
                let victim = JobId(owner);
                running.retain(|&id| id != victim);
                if s.requeue_failed(victim, now).is_some() {
                    pending += 1;
                }
            }
            if outcome != FailOutcome::Skipped {
                down.push_back(node);
                events += 1;
            }
        }
        if cell.faulty && r % 10 == 8 {
            if let Some(node) = down.pop_front() {
                s.repair_node(node);
                events += 1;
            }
        }
        let i = depth + r;
        s.submit(
            JobRequest::rigid(format!("churn{r}"), 1 + (i * 7) % (width * 4))
                .with_expected_runtime(Span::from_secs(120 + (u64::from(i) * 13) % 900)),
            now,
        );
        pending += 1;
        events += 2; // the submission and the scheduling pass itself
        let mut started = s.schedule(now);
        if r % 30 == 29 {
            events += 1;
            started.extend(s.backfill_pass(now));
        }
        for start in started {
            running.push_back(start.id);
            jobs_started += 1;
            pending -= 1;
            events += 1;
        }
        peak = peak.max(pending);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let stats = s.incremental_stats();

    CellResult {
        cell: *cell,
        events,
        jobs_started,
        peak_queue_depth: peak,
        passes_run: stats.sched_passes_run + stats.backfill_passes_run,
        passes_elided: stats.sched_passes_elided + stats.backfill_passes_elided,
        elapsed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Cell = Cell {
        nodes: 16,
        depth: 20,
        family: BackfillFamily::Easy { reservations: 1 },
        hetero: false,
        faulty: false,
    };

    #[test]
    fn headline_measures_every_axis_against_its_base() {
        let cells = headline();
        assert_eq!(cells[0], Cell::base(65_536, 100_000));
        assert!(cells
            .iter()
            .all(|c| (c.nodes, c.depth) == (65_536, 100_000)));
        // Twins adjacent to the base cell.
        assert!(cells[1].hetero && cells[2].faulty);
        let families: Vec<_> = cells.iter().map(|c| c.family.label()).collect();
        assert_eq!(
            families,
            ["easy1", "easy1", "easy1", "easy8", "easy64", "conservative"]
        );
    }

    #[test]
    fn axis_cells_run_the_same_churn_shape() {
        // Same submission/completion churn in every family and on the
        // three-class machine; the set of backfilled jobs may
        // legitimately differ (deeper reservations can refuse a start
        // EASY-1 would have allowed), so only the shape is pinned here.
        for family in [8, 64]
            .map(BackfillFamily::easy)
            .into_iter()
            .chain([BackfillFamily::Conservative])
        {
            let deep = run_cell(&Cell { family, ..TINY }, 5);
            assert_eq!(deep.cell.family.label(), family.label());
            assert!(deep.events > 0 && deep.jobs_started > 0, "{family:?}");
        }
        let hetero = run_cell(
            &Cell {
                hetero: true,
                ..TINY
            },
            5,
        );
        assert!(hetero.events > 0 && hetero.jobs_started > 0);
    }

    #[test]
    fn faulty_churn_requeues_and_survives() {
        // Enough rounds for several failure/repair cycles on the tiny
        // cell; the run must keep starting jobs and stay deterministic —
        // and so must the uniform and three-class cells, which every
        // sample of the bench repeats.
        let faulty = Cell {
            faulty: true,
            ..TINY
        };
        let hetero = Cell {
            hetero: true,
            ..TINY
        };
        for cell in [faulty, TINY, hetero] {
            let a = run_cell(&cell, 50);
            assert!(a.events > 0 && a.jobs_started > 0, "{cell:?}");
            let b = run_cell(&cell, 50);
            let counts = |r: &CellResult| {
                (
                    r.events,
                    r.jobs_started,
                    r.peak_queue_depth,
                    r.passes_run,
                    r.passes_elided,
                )
            };
            assert_eq!(counts(&a), counts(&b), "{cell:?}: churn nondeterministic");
        }
        // The injection actually changes the schedule vs the calm twin.
        assert_ne!(
            run_cell(&faulty, 50).events,
            run_cell(&TINY, 50).events,
            "faults were a no-op"
        );
    }
}
