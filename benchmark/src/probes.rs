//! Probes: direct drives of one layer's public API at a workload's
//! operating point — its node count and class table, policy, backfill
//! family, job bodies from the same source, and the pending depth and
//! event population its traced run showed. They split `core.self_s`,
//! which the decorators cannot see into.
//!
//! Only the default production path is named (`Engine::new`,
//! `SlurmConfig::for_cluster`), so retiring the selectable reference paths
//! needs no edit here.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use dmr_cluster::{ClassConstraint, ClassTable, Cluster, NodeId};
use dmr_core::ExperimentConfig;
use dmr_sim::{Engine, SimTime, Span};
use dmr_slurm::{JobId, JobRequest, JobStart, ResizeEnvelope, Slurm, SlurmConfig};
use dmr_workload::JobSpec;

use crate::trace::CallStat;

/// Operations between two looks at the clock in the tight probes.
const BATCH: u32 = 1024;

/// Where a workload operates, as its traced run measured it.
pub struct OperatingPoint<'a> {
    pub cfg: ExperimentConfig,
    pub malleable: bool,
    /// Job bodies from the workload's own source; the probes cycle
    /// through them.
    pub jobs: &'a [JobSpec],
    /// Events the engine holds in steady state.
    pub event_population: usize,
    /// Pending jobs the scheduler holds in steady state.
    pub pending_depth: usize,
    /// Seconds each probe phase runs.
    pub phase_s: f64,
}

impl OperatingPoint<'_> {
    fn table(&self) -> ClassTable {
        self.cfg
            .machine_mix
            .table(self.cfg.nodes, self.cfg.cores_per_node)
    }
}

/// Runs `batch` until `phase_s` has passed; mean nanoseconds per
/// operation, `batch` being [`BATCH`] operations.
fn mean_ns(phase_s: f64, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut operations = 0u64;
    while start.elapsed().as_secs_f64() < phase_s || operations == 0 {
        batch();
        operations += BATCH as u64;
    }
    start.elapsed().as_nanos() as f64 / operations as f64
}

pub struct SimProbe {
    /// One `next_event` + `schedule_in` at the steady population.
    pub hold_ns: f64,
    /// One `schedule_in` + `cancel` at the same population.
    pub cancel_ns: f64,
}

/// `dmr-sim`: the classic hold model. Event delays are the workload's
/// own step times, so the queue sees the spread of instants a run has.
pub fn sim(point: &OperatingPoint) -> SimProbe {
    let delays: Vec<Span> = point
        .jobs
        .iter()
        .map(|job| Span::from_secs_f64(job.step_s).max(Span(1)))
        .collect();
    let mut next = 0;
    let mut delay = move || {
        next = (next + 1) % delays.len();
        delays[next]
    };
    let mut engine: Engine<u32> = Engine::new();
    for payload in 0..point.event_population.max(1) as u32 {
        engine.schedule_in(delay(), payload);
    }
    let hold_ns = mean_ns(point.phase_s, || {
        for _ in 0..BATCH {
            let (_, payload) = engine.next_event().expect("the population is constant");
            engine.schedule_in(delay(), payload);
        }
    });
    let cancel_ns = mean_ns(point.phase_s, || {
        for _ in 0..BATCH {
            let id = engine.schedule_in(delay(), 0);
            black_box(engine.cancel(id));
        }
    });
    SimProbe { hold_ns, cancel_ns }
}

/// Where a job may be placed: its constraint, and its size clamped to
/// the nodes its eligible classes hold (`capacity`), as the driver clamps
/// at submission.
struct Placement {
    size: u32,
    capacity: u32,
    constraint: ClassConstraint,
}

fn placement(job: &JobSpec, table: &ClassTable) -> Placement {
    let (constraint, capacity) = if job.gpu && table.has_gpu_class() {
        let gpu_nodes = (0..table.num_classes())
            .filter(|&c| table.class(c).gpu)
            .map(|c| table.class_nodes(c))
            .sum();
        (ClassConstraint::GpuRequired, gpu_nodes)
    } else {
        (ClassConstraint::Any, table.total_nodes())
    };
    Placement {
        size: job.submit_procs.min(capacity),
        capacity,
        constraint,
    }
}

pub struct ClusterProbe {
    /// One allocation and, in time, its release, on a full machine.
    pub alloc_release_ns: f64,
    /// One `fail_node` + `repair_node` on the loaded machine.
    pub fail_repair_ns: f64,
}

/// `dmr-cluster`: keeps the machine full — oldest allocation out, next
/// job in — the steady state of a saturated run.
pub fn cluster(point: &OperatingPoint) -> ClusterProbe {
    let table = point.table();
    let nodes = table.total_nodes();
    let mut cluster = Cluster::with_classes(table.clone());
    let mut held: VecDeque<u64> = VecDeque::new();
    let mut owner = 0u64;
    let mut next = 0;
    let alloc_release_ns = mean_ns(point.phase_s, || {
        for _ in 0..BATCH {
            next = (next + 1) % point.jobs.len();
            let Placement {
                size, constraint, ..
            } = placement(&point.jobs[next], &table);
            while !cluster.can_allocate_in(size, constraint) {
                let oldest = held
                    .pop_front()
                    .expect("an empty machine fits any clamped job");
                cluster.release_all(oldest).expect("held allocations exist");
            }
            owner += 1;
            black_box(cluster.allocate_in(size, owner, constraint)).expect("checked above");
            held.push_back(owner);
        }
    });
    let mut node = 0;
    let fail_repair_ns = mean_ns(point.phase_s, || {
        for _ in 0..BATCH {
            node = (node + 1) % nodes;
            black_box(cluster.fail_node(NodeId(node)));
            black_box(cluster.repair_node(NodeId(node)));
        }
    });
    ClusterProbe {
        alloc_release_ns,
        fail_repair_ns,
    }
}

/// Turns of the scheduler probe whose counts make the exact ratios: the
/// probe always plays at least this many, and the ratios stop there, so
/// they repeat bit for bit however long the timing part goes on.
const EXACT_TURNS: u64 = 2000;

#[derive(Default)]
pub struct SlurmProbe {
    pub submit: CallStat,
    pub complete: CallStat,
    pub schedule: CallStat,
    pub backfill: CallStat,
    pub pending_queue: CallStat,
    pub decide: CallStat,
    /// Jobs the passes started.
    starts: u64,
    /// `decide_resize` calls that answered expand or shrink.
    actions: u64,
    pub exact: ExactRatios,
}

/// Ratios of useful outcomes to attempts over the first [`EXACT_TURNS`]
/// turns.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct ExactRatios {
    /// Passes elided over passes asked for, from `incremental_stats`.
    pub pass_elision_rate: f64,
    /// Jobs started per `schedule` or `backfill_pass` call, elided calls
    /// included.
    pub starts_per_pass: f64,
    /// Share of policy consultations that answered expand or shrink. The
    /// probe does not carry the resize out (that is the driver's
    /// protocol), so this is the share that would act at this depth.
    pub decide_action_ratio: f64,
}

impl SlurmProbe {
    fn ratios(&self, slurm: &Slurm) -> ExactRatios {
        let stats = slurm.incremental_stats();
        let elided = stats.sched_passes_elided + stats.backfill_passes_elided;
        let asked = elided + stats.sched_passes_run + stats.backfill_passes_run;
        let passes = self.schedule.calls + self.backfill.calls;
        ExactRatios {
            pass_elision_rate: elided as f64 / asked.max(1) as f64,
            starts_per_pass: self.starts as f64 / passes.max(1) as f64,
            decide_action_ratio: self.actions as f64 / self.decide.calls.max(1) as f64,
        }
    }
}

/// The submission the driver would make for `job`.
fn request(job: &JobSpec, point: &OperatingPoint, table: &ClassTable) -> JobRequest {
    let Placement {
        size,
        capacity,
        constraint,
    } = placement(job, table);
    let name = format!("{}-{}", job.app.name(), job.index);
    let request = if point.malleable && job.flexible && !job.malleability.is_rigid() {
        let envelope = ResizeEnvelope {
            min: job.malleability.min_procs.min(size),
            max: job.malleability.max_procs.min(capacity),
            preferred: job.malleability.preferred,
            factor: job.malleability.factor.max(2),
        };
        JobRequest::flexible(name, size, envelope)
    } else {
        JobRequest::rigid(name, size)
    };
    request
        .with_expected_runtime(Span::from_secs_f64(job.walltime_s))
        .with_constraint(constraint)
}

/// `dmr-slurm`: a rigid-job replay held at the workload's pending depth.
/// Each turn tops the queue up, runs a scheduling pass (and a backfill
/// pass every 30 simulated seconds, as the driver does), reads the
/// pending order, consults the policy about the job next to finish, and
/// completes that job, which moves the clock.
pub fn slurm(point: &OperatingPoint) -> SlurmProbe {
    let table = point.table();
    let mut config = SlurmConfig::for_cluster(point.cfg.nodes);
    config.backfill_family = point.cfg.backfill_family;
    config.policy = point.cfg.policy;
    config.retain_completed = false;
    let mut slurm = Slurm::new(Cluster::with_classes(table.clone()), config);
    let mut probe = SlurmProbe::default();
    // Run time of the job in each scheduler slot, set at submission.
    let mut runtimes: Vec<Span> = Vec::new();
    let mut running: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let backfill_every = Span::from_secs_f64(point.cfg.backfill_interval_s);
    let (mut now, mut next_backfill) = (SimTime::ZERO, SimTime::ZERO + backfill_every);
    let mut next = 0;
    let started = Instant::now();
    let mut turns = 0;
    while turns < EXACT_TURNS || started.elapsed().as_secs_f64() < point.phase_s {
        while slurm.pending_count() < point.pending_depth.max(1) {
            next = (next + 1) % point.jobs.len();
            let job = &point.jobs[next];
            let req = request(job, point, &table);
            let id = probe.submit.time(|| slurm.submit(req, now));
            let slot = id.slot() as usize;
            if slot >= runtimes.len() {
                runtimes.resize(slot + 1, Span::ZERO);
            }
            runtimes[slot] = Span::from_secs_f64(job.steps as f64 * job.step_s).max(Span(1));
        }
        let mut wire = |starts: Vec<JobStart>, probe: &mut SlurmProbe| {
            probe.starts += starts.len() as u64;
            for start in starts {
                running.push(Reverse((
                    now + runtimes[start.id.slot() as usize],
                    start.id,
                )));
            }
        };
        let starts = probe.schedule.time(|| slurm.schedule(now));
        wire(starts, &mut probe);
        if now >= next_backfill {
            next_backfill = now + backfill_every;
            let starts = probe.backfill.time(|| slurm.backfill_pass(now));
            wire(starts, &mut probe);
        }
        black_box(probe.pending_queue.time(|| slurm.pending_queue(now)));
        let Reverse((end, finishing)) = running
            .pop()
            .expect("an empty machine starts the head of a non-empty queue");
        if point.malleable {
            let action = probe.decide.time(|| slurm.decide_resize(finishing, now));
            probe.actions += action.is_action() as u64;
        }
        now = end;
        probe.complete.time(|| slurm.complete(finishing, now));
        turns += 1;
        if turns == EXACT_TURNS {
            probe.exact = probe.ratios(&slurm);
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn every_probe_does_work_on_every_workload() {
        for workload in ALL {
            let mut source = workload.inputs(300, 5).into_source();
            let jobs: Vec<JobSpec> = std::iter::from_fn(|| source.next_job()).collect();
            let point = OperatingPoint {
                cfg: workload.config(5),
                malleable: workload.malleable(),
                jobs: &jobs,
                event_population: 32,
                pending_depth: 16,
                phase_s: 0.02,
            };
            let name = workload.name();
            let sim = sim(&point);
            assert!(sim.hold_ns > 0.0 && sim.cancel_ns > 0.0, "{name}");
            let cluster = cluster(&point);
            assert!(
                cluster.alloc_release_ns > 0.0 && cluster.fail_repair_ns > 0.0,
                "{name}"
            );
            let first = slurm(&point);
            assert!(first.submit.calls >= EXACT_TURNS, "{name}");
            assert!(first.complete.calls >= EXACT_TURNS, "{name}");
            assert_eq!(first.decide.calls > 0, workload.malleable(), "{name}");
            assert!(first.exact.starts_per_pass > 0.0, "{name}");
            assert!(
                (0.0..=1.0).contains(&first.exact.pass_elision_rate),
                "{name}"
            );
            // However long the timing part ran, the ratios repeat.
            assert_eq!(first.exact, slurm(&point).exact, "{name}");
        }
    }
}
