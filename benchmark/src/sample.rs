//! One sample: set up (generate inputs, run the reference canary as the
//! warm-up), run whole experiments for the measuring window, check every
//! simulated output, and report.

use std::time::Instant;

use dmr_core::{run_experiment_with_sink, ExperimentConfig, RunStats};
use dmr_metrics::{OnlineAccumulator, WorkloadSummary};

use crate::calib;
use crate::metrics::{median, Values};
use crate::trace::{CallStat, Pulled, TimedSink, TimedSource};
use crate::workloads::{Inputs, Workload, DEFAULT_SEED};

/// Set-ups per sample, each followed by at least one timed run: the
/// set-up median needs several, and spreading them over the window
/// shows them the host states the timed runs see.
const BLOCKS: usize = 5;

/// A timed run that had the processor for less than this share of its
/// wall time was descheduled and is measured again, once.
const MIN_CPU_OVER_WALL: f64 = 0.95;

/// What to sample. `jobs` is [`Workload::jobs`] except in self-tests,
/// which shrink it (and thereby skip the recorded references).
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub jobs: u32,
    pub seed: u64,
    /// The measuring window: timed runs, with the reference-clock spins
    /// around them, repeat until they fill it (0 gives one run per
    /// set-up, [`BLOCKS`] in all).
    pub seconds: f64,
}

impl Spec {
    /// The canary is a quarter-size run at the default seed, whatever
    /// seed the sample measures: every sample on every seed checks the
    /// simulator bit for bit against the recorded reference.
    pub fn canary_jobs(&self) -> u32 {
        self.jobs / 4
    }

    fn reference(&self) -> Option<Reference> {
        (self.jobs == self.workload.jobs()).then(|| Reference::of(self.workload))
    }
}

/// Fingerprints recorded by `benchmark record` at [`DEFAULT_SEED`].
pub struct Reference {
    pub canary: &'static str,
    pub full: &'static str,
}

impl Reference {
    fn of(workload: Workload) -> Reference {
        let text = match workload {
            Workload::SatFlex => include_str!("../reference/sat_flex.fp"),
            Workload::SatFixed => include_str!("../reference/sat_fixed.fp"),
            Workload::DeepFlex => include_str!("../reference/deep_flex.fp"),
            Workload::DeepFixed => include_str!("../reference/deep_fixed.fp"),
            Workload::TraceMixed => include_str!("../reference/trace_mixed.fp"),
        };
        let line = |label: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(label))
                .map_or("", str::trim)
        };
        Reference {
            canary: line("canary "),
            full: line("full "),
        }
    }
}

/// One whole experiment, as the benchmark saw it.
pub struct Run {
    pub wall_s: f64,
    pub cpu_over_wall: f64,
    pub summary_us: f64,
    pub stats: RunStats,
    pub summary: WorkloadSummary,
    /// Broken laws, empty when the run is sound.
    pub broken: Vec<String>,
}

impl Run {
    /// Every summary f64 as raw bits plus the counters — byte-equal iff
    /// the simulated results are. Leaves out `events` and `end_time`:
    /// eliding events is a legal optimisation.
    pub fn fingerprint(&self) -> String {
        let s = &self.summary;
        let mut floats = vec![
            s.makespan_s,
            s.utilization,
            s.avg_waiting_s,
            s.avg_execution_s,
            s.avg_completion_s,
        ];
        for q in [&s.waiting_q, &s.execution_q, &s.completion_q] {
            floats.extend([q.p50_s, q.p95_s, q.p99_s]);
        }
        floats.extend([
            s.energy_to_solution_j,
            s.avg_watts,
            s.lost_work_s,
            s.goodput_ratio,
            s.restart_p95_s,
        ]);
        floats.extend(&s.class_utilization);
        let bits: Vec<String> = floats
            .iter()
            .map(|f| format!("{:016x}", f.to_bits()))
            .collect();
        format!(
            "jobs={} reconf={} failures={} requeues={} {}",
            s.jobs,
            s.reconfigurations,
            s.failures,
            s.requeues,
            bits.join(" ")
        )
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.summary.jobs as f64 / self.wall_s
    }
}

/// Decorator readings of a traced run.
pub struct Boundaries {
    pub next_job: CallStat,
    pub on_sample: CallStat,
    pub on_job: CallStat,
    pub peak_pending: u64,
    pub mean_pending: f64,
    pub mean_running: f64,
}

/// Seconds this process has spent on a processor.
fn cpu_seconds() -> f64 {
    // Nanoseconds on-CPU, run-queue wait, timeslices.
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 * 1e-9)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `inputs` through `run_experiment_with_sink` + `summary()`, timed
/// as one unit. With `traced`, the source and sink are wrapped in the
/// timing decorators.
pub fn run_once(
    cfg: &ExperimentConfig,
    inputs: Inputs,
    jobs: u32,
    traced: bool,
) -> (Run, Option<Boundaries>) {
    let mut source = inputs.into_source();
    let mut sink = OnlineAccumulator::new();
    let pulled = Pulled::default();
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let (stats, boundaries) = if traced {
        let mut timed_source = TimedSource::new(source.as_mut(), &pulled);
        let mut timed_sink = TimedSink::new(&mut sink, &pulled);
        let stats = run_experiment_with_sink(cfg, &mut timed_source, &mut timed_sink);
        let boundaries = Boundaries {
            next_job: timed_source.next_job,
            on_sample: timed_sink.on_sample,
            on_job: timed_sink.on_job,
            peak_pending: timed_sink.peak_pending,
            mean_pending: timed_sink.mean_pending(),
            mean_running: timed_sink.mean_running(),
        };
        (stats, Some(boundaries))
    } else {
        let stats = run_experiment_with_sink(cfg, source.as_mut(), &mut sink);
        (stats, None)
    };
    let summary_start = Instant::now();
    let mut summary = sink.summary(cfg.nodes);
    let wall_s = start.elapsed().as_secs_f64();
    let summary_us = summary_start.elapsed().as_secs_f64() * 1e6;
    let cpu_over_wall = (cpu_seconds() - cpu_before) / wall_s;

    // The scalars the driver measures itself, folded in as `dmr-core`
    // does for its own `ExperimentResult` (that code is private to it).
    summary.energy_to_solution_j = stats.power.energy_j;
    summary.avg_watts = stats.power.avg_watts;
    summary.class_utilization = stats.power.class_utilization().to_vec();
    summary.failures = stats.faults.failures;
    summary.requeues = stats.faults.requeues;
    summary.lost_work_s = stats.faults.lost_work_s;
    summary.restart_p95_s = stats.faults.restart_p95_s;
    let executed = summary.avg_execution_s * summary.jobs as f64;
    summary.goodput_ratio = if executed > 0.0 {
        executed / (executed + stats.faults.lost_work_s)
    } else {
        1.0
    };

    let mut broken = Vec::new();
    if summary.jobs != jobs as usize {
        broken.push(format!("{} jobs completed of {jobs} emitted", summary.jobs));
    }
    if let Some(b) = &boundaries {
        // One call per job and the one that found the source dry.
        if b.next_job.calls != jobs as u64 + 1 || b.on_job.calls != jobs as u64 {
            broken.push(format!(
                "{} pulls and {} outcomes for {jobs} jobs",
                b.next_job.calls, b.on_job.calls
            ));
        }
    }
    if stats.past_schedules != 0 {
        broken.push(format!(
            "{} events scheduled in the past",
            stats.past_schedules
        ));
    }
    for (name, ratio) in [
        ("utilization", summary.utilization),
        ("goodput_ratio", summary.goodput_ratio),
    ] {
        if !(0.0..=1.0).contains(&ratio) {
            broken.push(format!("{name} {ratio} outside [0, 1]"));
        }
    }
    let run = Run {
        wall_s,
        cpu_over_wall,
        summary_us,
        stats,
        summary,
        broken,
    };
    (run, boundaries)
}

/// Operations attempted and failed, with the reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problems` empty means it passed.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Checks a run's laws and its fingerprint against `expected` (skipped
/// when empty: nothing recorded for this size or seed).
pub fn verdict(run: &Run, expected: &str) -> Vec<String> {
    let mut problems = run.broken.clone();
    let fingerprint = run.fingerprint();
    if !expected.is_empty() && fingerprint != expected {
        problems.push(format!(
            "fingerprint mismatch\n    got      {fingerprint}\n    expected {expected}"
        ));
    }
    problems
}

/// Set-up of one timed run: generate its inputs, then run the canary —
/// the warm-up, and the check against the recorded reference. Returns
/// the inputs and how long all of it took.
pub fn set_up(spec: &Spec, tally: &mut Tally) -> (Inputs, f64) {
    let start = Instant::now();
    let inputs = spec.workload.inputs(spec.jobs, spec.seed);
    let canary_inputs = spec.workload.inputs(spec.canary_jobs(), DEFAULT_SEED);
    let canary_cfg = spec.workload.config(DEFAULT_SEED);
    let (canary, _) = run_once(&canary_cfg, canary_inputs, spec.canary_jobs(), false);
    let expected = spec.reference().map_or("", |r| r.canary);
    tally.record("canary", verdict(&canary, expected));
    (inputs, start.elapsed().as_secs_f64())
}

/// The expected fingerprint of a full-size run: the recorded one at the
/// default seed, else none (empty).
pub fn expected_full(spec: &Spec) -> &'static str {
    match spec.reference() {
        Some(reference) if spec.seed == DEFAULT_SEED => reference.full,
        _ => "",
    }
}

/// One untraced timed run of the sample's inputs between two spins of
/// the reference clock; returns the run and the host's speed around it.
/// A run that was descheduled is measured again — once per sample, and
/// counted in `reruns`, never hidden.
pub fn guarded_run(spec: &Spec, inputs: Inputs, reruns: &mut u32, tally: &mut Tally) -> (Run, f64) {
    let cfg = spec.workload.config(spec.seed);
    let paced = |inputs| {
        let before = calib::spin();
        let (run, _) = run_once(&cfg, inputs, spec.jobs, false);
        (run, calib::host_speed(before, calib::spin()))
    };
    let mut measured = paced(inputs);
    if measured.0.cpu_over_wall < MIN_CPU_OVER_WALL && *reruns == 0 {
        *reruns += 1;
        tally.record("descheduled run", Vec::new());
        measured = paced(spec.workload.inputs(spec.jobs, spec.seed));
    }
    measured
}

/// What an untraced sample found.
pub struct Sampled {
    pub values: Values,
    /// Of the first timed run, the one on the sample's own seed.
    pub fingerprint: String,
    pub cpu_over_wall: f64,
    pub reruns: u32,
    pub runs: u32,
    /// Medians over the timed runs, for the reader: plain wall-clock
    /// throughput, and the host's speed against the reference clock.
    pub jobs_per_wall_s: f64,
    pub host_speed: f64,
}

/// Seed of the sample's `index`th timed run; the first is the sample's
/// own seed.
fn run_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The end-to-end sample: timed runs until they fill the measuring
/// window, a set-up before the first run of each [`BLOCKS`]th of it;
/// medians over the runs and over the set-ups.
///
/// Every run draws fresh inputs from a seed of its own. Host time per job
/// differs by up to a fifth between two seeds at these sizes — more than
/// anything else once the host's speed is divided out — so a sample
/// measures a population of inputs, not one input again and again.
pub fn end_to_end(spec: &Spec, tally: &mut Tally) -> Sampled {
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut wall_rates, mut speeds) = (Vec::new(), Vec::new());
    let mut timed_s = 0.0;
    let mut fingerprint = String::new();
    let mut cpu_over_wall = f64::INFINITY;
    let mut reruns = 0;
    while setups.len() < BLOCKS || timed_s < spec.seconds {
        let run_spec = Spec {
            seed: run_seed(spec.seed, rates.len()),
            ..*spec
        };
        let set_up_due =
            setups.len() < BLOCKS && timed_s >= spec.seconds * setups.len() as f64 / BLOCKS as f64;
        let inputs = if set_up_due {
            let (inputs, setup_s) = set_up(&run_spec, tally);
            setups.push(setup_s);
            inputs
        } else {
            run_spec.workload.inputs(run_spec.jobs, run_spec.seed)
        };
        let started = Instant::now();
        let (run, host_speed) = guarded_run(&run_spec, inputs, &mut reruns, tally);
        timed_s += started.elapsed().as_secs_f64();
        tally.record("timed run", verdict(&run, expected_full(&run_spec)));
        if rates.is_empty() {
            fingerprint = run.fingerprint();
        }
        cpu_over_wall = cpu_over_wall.min(run.cpu_over_wall);
        println!(
            "run {}: {:.4} s at host speed {host_speed:.4}, cpu/wall {:.4}",
            rates.len() + 1,
            run.wall_s,
            run.cpu_over_wall
        );
        rates.push(run.jobs_per_s() / host_speed);
        wall_rates.push(run.jobs_per_s());
        speeds.push(host_speed);
    }
    let values = Values::from([
        ("jobs_per_ref_s", median(&rates)),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", median(&setups)),
    ]);
    Sampled {
        values,
        fingerprint,
        cpu_over_wall,
        reruns,
        runs: rates.len() as u32,
        jobs_per_wall_s: median(&wall_rates),
        host_speed: median(&speeds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    fn small(workload: Workload) -> Spec {
        Spec {
            workload,
            jobs: 400,
            seed: 11,
            seconds: 0.0,
        }
    }

    #[test]
    fn decorators_are_invisible_to_the_simulation() {
        for workload in ALL {
            let spec = small(workload);
            let cfg = workload.config(spec.seed);
            let inputs = || workload.inputs(spec.jobs, spec.seed);
            let (plain, none) = run_once(&cfg, inputs(), spec.jobs, false);
            let (traced, boundaries) = run_once(&cfg, inputs(), spec.jobs, true);
            assert!(none.is_none());
            assert_eq!(plain.broken, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(traced.broken, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(
                plain.fingerprint(),
                traced.fingerprint(),
                "{}",
                workload.name()
            );
            assert_eq!(plain.stats.events, traced.stats.events);
            let b = boundaries.unwrap();
            assert!(b.on_sample.calls >= traced.stats.events);
            assert!(b.peak_pending as f64 >= b.mean_pending);
        }
    }

    #[test]
    fn every_end_to_end_metric_is_reported() {
        let mut tally = Tally::default();
        let sampled = end_to_end(&small(Workload::DeepFlex), &mut tally);
        assert_eq!(tally.failures, Vec::<String>::new());
        // Each timed run has its set-up, and each set-up its canary.
        assert_eq!(tally.attempted, 2 * BLOCKS as u64 + sampled.reruns as u64);
        assert_eq!(sampled.runs as usize, BLOCKS);
        // The first run is on the sample's own seed, later ones are not.
        assert_eq!(run_seed(11, 0), 11);
        assert_ne!(run_seed(11, 1), run_seed(11, 2));
        let line = crate::metrics::result_line(
            &crate::metrics::END_TO_END,
            &sampled.values,
            tally.attempted,
            tally.failed(),
        );
        assert_eq!(line.get("correct"), Some(&crate::json::Json::Bool(true)));
        assert!(sampled.values.values().all(|value| *value > 0.0));
    }

    #[test]
    fn a_wrong_fingerprint_fails_the_run() {
        let spec = small(Workload::SatFixed);
        let cfg = spec.workload.config(spec.seed);
        let inputs = spec.workload.inputs(spec.jobs, spec.seed);
        let (run, _) = run_once(&cfg, inputs, spec.jobs, false);
        assert!(verdict(&run, "").is_empty());
        assert!(verdict(&run, &run.fingerprint()).is_empty());
        assert_eq!(verdict(&run, "jobs=1").len(), 1);
        // A source that emits fewer jobs than announced breaks a law.
        let short = spec.workload.inputs(spec.jobs - 1, spec.seed);
        let (run, _) = run_once(&cfg, short, spec.jobs, false);
        assert_eq!(run.broken.len(), 1);
    }
}
