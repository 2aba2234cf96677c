//! Experiment outputs.

use dmr_metrics::WorkloadSummary;
use dmr_sim::SimTime;

/// What [`crate::Simulation::run`] returns: the summary and the driver's
/// own scalars, in O(1) memory whatever the workload length.
///
/// The summary is folded in a [`dmr_metrics::OnlineAccumulator`] the run
/// owns, bit-identical (percentile columns included) to
/// [`WorkloadSummary::compute`] over the buffered outcomes and allocation
/// series. A caller that wants those buffers — the evolution series behind
/// the timeline figures, per-job outcomes — attaches a
/// [`dmr_metrics::SeriesRecorder`] with [`crate::Simulation::sink`] and
/// takes them from [`dmr_metrics::SeriesRecorder::into_parts`].
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Aggregate measures (Table II row set plus P50/P95/P99 tails).
    pub summary: WorkloadSummary,
    /// The engine's final clock when the event queue drained — the actual
    /// end instant of the run (at or after the last completion; trailing
    /// housekeeping events such as a final backfill pass can land later).
    /// Taken directly from the engine, never re-derived through an f64
    /// round-trip of the makespan.
    pub end_time: SimTime,
    /// Total events processed by the engine (diagnostics / determinism
    /// checks).
    pub events: u64,
    /// Engine [`dmr_sim::Engine::past_schedules`] count — events the
    /// driver scheduled in the past (clamped to `now`). Sweeps assert
    /// this stays zero.
    pub past_schedules: u64,
    /// The scheduler's pass counters at the end of the run (see
    /// [`RunStats::sched`]).
    pub sched: dmr_slurm::IncrementalStats,
    /// How the check points were passed (see [`RunStats::checks`]).
    pub checks: CheckStats,
}

/// What the driver itself measures about a run — everything else flows
/// through the installed [`dmr_metrics::MetricsSink`].
/// [`crate::Simulation::run`] folds it into the summary
/// ([`RunStats::fold_into`]).
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// The engine's final clock when the event queue drained.
    pub end_time: SimTime,
    /// Total events processed by the engine.
    pub events: u64,
    /// Past-scheduling clamps (see [`dmr_sim::Engine::past_schedules`]).
    pub past_schedules: u64,
    /// The scheduler's pass counters: passes run and elided, and the
    /// pending jobs the executed backfill passes evaluated. Host-side
    /// work, not a simulated result — a scheduler that walked every pass
    /// would make the same decisions with other counts.
    pub sched: dmr_slurm::IncrementalStats,
    /// Check points passed on a standing hold and full policy
    /// consultations. Host-side work too: every held boundary would have
    /// been a consultation answering "no action".
    pub checks: CheckStats,
    /// Energy accounting from the driver's [`dmr_cluster::PowerMeter`].
    pub power: PowerStats,
    /// Fault-injection and recovery accounting (all zeros, ratio fields
    /// included, under [`dmr_cluster::FaultLoad::None`]).
    pub faults: FaultStats,
}

impl RunStats {
    /// Writes the driver's power and fault scalars into a summary the
    /// sink assembled: energy, mean watts, per-class utilization, the
    /// fault counters, and the goodput ratio derived from them.
    pub fn fold_into(&self, summary: &mut WorkloadSummary) {
        summary.energy_to_solution_j = self.power.energy_j;
        summary.avg_watts = self.power.avg_watts;
        summary.class_utilization = self.power.class_utilization().to_vec();
        summary.failures = self.faults.failures;
        summary.requeues = self.faults.requeues;
        summary.lost_work_s = self.faults.lost_work_s;
        summary.restart_p95_s = self.faults.restart_p95_s;
        // Useful compute over total compute destroyed-or-delivered; an
        // exact 1.0 whenever nothing was lost.
        let exec = summary.avg_execution_s * summary.jobs as f64;
        summary.goodput_ratio = if exec > 0.0 {
            exec / (exec + self.faults.lost_work_s)
        } else {
            1.0
        };
    }
}

/// How the check points of a run's flexible jobs were passed: on a
/// standing [`dmr_slurm::Hold`] without asking the policy, or through a
/// full consultation ([`dmr_slurm::Slurm::decide_resize`]). Boundaries
/// the inhibitor swallows and expansion retries count in neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Check points passed held: the policy's "no action" was known.
    pub held: u64,
    /// Check points at which the policy was consulted.
    pub consulted: u64,
}

/// `Copy` snapshot of a finished run's [`dmr_cluster::PowerMeter`]: the
/// scalars the driver patches into the summary, sized by
/// [`MAX_CLASSES`] so sweep workers can pass it by value.
///
/// [`MAX_CLASSES`]: dmr_cluster::MAX_CLASSES
#[derive(Clone, Copy, Debug)]
pub struct PowerStats {
    /// Total cluster energy over the run, joules.
    pub energy_j: f64,
    /// Mean cluster power over the metered window, watts.
    pub avg_watts: f64,
    /// Per-class busy fraction, valid in `[..classes]`.
    pub class_util: [f64; dmr_cluster::MAX_CLASSES],
    /// Number of machine classes the meter tracked.
    pub classes: usize,
}

impl PowerStats {
    /// Snapshots a meter into the `Copy` form.
    pub fn from_meter(meter: &dmr_cluster::PowerMeter) -> Self {
        let util = meter.class_utilization();
        let mut class_util = [0.0; dmr_cluster::MAX_CLASSES];
        class_util[..util.len()].copy_from_slice(&util);
        PowerStats {
            energy_j: meter.energy_j(),
            avg_watts: meter.avg_watts(),
            class_util,
            classes: meter.num_classes(),
        }
    }

    /// The per-class utilization as a slice of the live classes.
    pub fn class_utilization(&self) -> &[f64] {
        &self.class_util[..self.classes]
    }
}

/// `Copy` snapshot of a run's fault-injection and recovery accounting —
/// the scalars behind the summary's `failures` / `requeues` /
/// `lost_work_s` / `goodput_ratio` / `restart_p95_s` columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Injected fault events that hit an `Up` node (idle or busy).
    pub failures: u64,
    /// Running jobs killed by a node failure and resubmitted.
    pub requeues: u64,
    /// Resize negotiations killed by injection.
    pub resize_faults: u64,
    /// Backoff retries scheduled after injected negotiation failures.
    pub resize_retries: u64,
    /// Compute time destroyed by failures (time since the last
    /// checkpoint image, per kill), seconds.
    pub lost_work_s: f64,
    /// P95 of failure-to-restart latency across requeues, seconds
    /// (0 when nothing was requeued).
    pub restart_p95_s: f64,
}

impl FaultStats {
    /// Folds the driver's raw counters into the `Copy` form. `restarts`
    /// holds one failure-to-restart latency (µs) per restarted
    /// incarnation; it is sorted in place to take the P95.
    pub fn collect(
        failures: u64,
        requeues: u64,
        resize_faults: u64,
        resize_retries: u64,
        lost_work: dmr_sim::Span,
        restarts: &mut [u64],
    ) -> Self {
        restarts.sort_unstable();
        let restart_p95_s = match restarts.len() {
            0 => 0.0,
            n => {
                // Nearest-rank on the sorted latencies.
                let rank = ((n as f64) * 0.95).ceil() as usize;
                dmr_sim::Span(restarts[rank.clamp(1, n) - 1]).as_secs_f64()
            }
        };
        FaultStats {
            failures,
            requeues,
            resize_faults,
            resize_retries,
            lost_work_s: lost_work.as_secs_f64(),
            restart_p95_s,
        }
    }
}
