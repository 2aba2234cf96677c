//! The traced sample: one untraced and one decorated run of the same
//! inputs, a half-size run for the growth figure, then the layer probes
//! at the operating point the decorated run showed. Every per-layer
//! metric comes from here.

use std::path::Path;

use dmr_workload::JobSpec;

use crate::json::Json;
use crate::metrics::Values;
use crate::probes::{self, OperatingPoint};
use crate::sample::{expected_full, guarded_run, run_once, set_up, verdict, Spec, Tally};
use crate::trace::Spans;

/// Job bodies the probes cycle through.
const PROBE_JOBS: u32 = 20_000;

/// Samples `spec` with tracing on; writes the spans and the metrics to
/// `out_dir` and returns the metrics and the untraced run's fingerprint.
pub fn per_layer(spec: &Spec, tally: &mut Tally, out_dir: &Path) -> (Values, String) {
    let workload = spec.workload;
    let cfg = workload.config(spec.seed);
    let mut spans = Spans::new();
    let root = spans.open(format!("sample {}", workload.name()), None);

    let span = spans.open("set-up", Some(root));
    let (inputs, _) = set_up(spec, tally);
    spans.close(span);

    let span = spans.open("run untraced", Some(root));
    let mut reruns = 0;
    let (plain, host_speed) = guarded_run(spec, inputs, &mut reruns, tally);
    spans.close(span);
    tally.record("timed run", verdict(&plain, expected_full(spec)));
    let fingerprint = plain.fingerprint();

    let span = spans.open("generate", Some(root));
    let inputs = workload.inputs(spec.jobs, spec.seed);
    let gen_s = spans.close(span);

    let span = spans.open("run traced", Some(root));
    let (traced, boundaries) = run_once(&cfg, inputs, spec.jobs, true);
    spans.close(span);
    // The decorators must be invisible: same simulated results.
    tally.record("traced run", verdict(&traced, &fingerprint));
    let b = boundaries.expect("a traced run reads its boundaries");

    // Wall time at N over wall time at N/2, both untraced.
    let half_jobs = spec.jobs / 2;
    let span = spans.open("run half size", Some(root));
    let (half, _) = run_once(
        &cfg,
        workload.inputs(half_jobs, spec.seed),
        half_jobs,
        false,
    );
    spans.close(span);
    tally.record("half-size run", verdict(&half, ""));

    let span = spans.open("probe inputs", Some(root));
    let mut source = workload
        .inputs(spec.jobs.min(PROBE_JOBS), spec.seed)
        .into_source();
    let jobs: Vec<JobSpec> = std::iter::from_fn(|| source.next_job()).collect();
    spans.close(span);
    let point = OperatingPoint {
        cfg,
        malleable: workload.malleable(),
        jobs: &jobs,
        // One pending event per running job, plus the arrival, the
        // backfill tick and the fault in flight.
        event_population: b.mean_running.ceil() as usize + 3,
        pending_depth: (b.mean_pending.ceil() as usize).next_power_of_two(),
        phase_s: spec.seconds / 8.0,
    };
    let span = spans.open("probe dmr-sim", Some(root));
    let sim = probes::sim(&point);
    spans.close(span);
    let span = spans.open("probe dmr-cluster", Some(root));
    let cluster = probes::cluster(&point);
    spans.close(span);
    let span = spans.open("probe dmr-slurm", Some(root));
    let slurm = probes::slurm(&point);
    spans.close(span);
    tally.attempted += 3;
    spans.close(root);

    let events = traced.stats.events as f64;
    let sink_s = b.on_sample.busy_s() + b.on_job.busy_s() + traced.summary_us * 1e-6;
    let self_s = traced.wall_s - b.next_job.busy_s() - sink_s;
    let values = Values::from([
        ("workload.next_job_calls", b.next_job.calls as f64),
        ("workload.next_job_ns", b.next_job.mean_ns()),
        ("workload.gen_s", gen_s),
        ("metrics.on_sample_calls", b.on_sample.calls as f64),
        ("metrics.on_job_calls", b.on_job.calls as f64),
        ("metrics.on_sample_ns", b.on_sample.mean_ns()),
        ("metrics.on_job_ns", b.on_job.mean_ns()),
        ("metrics.summary_us", traced.summary_us),
        ("core.run_s", traced.wall_s),
        ("core.self_s", self_s),
        ("core.events", events),
        ("core.events_per_job", events / spec.jobs as f64),
        (
            "core.reconfigurations",
            traced.summary.reconfigurations as f64,
        ),
        ("core.peak_pending", b.peak_pending as f64),
        ("core.mean_pending", b.mean_pending),
        ("core.ns_per_event", plain.wall_s * 1e9 / events),
        ("core.events_per_s", events / plain.wall_s),
        ("core.growth_per_doubling", plain.wall_s / half.wall_s),
        (
            "core.trace_overhead_pct",
            (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        ),
        ("core.sim_makespan_s", traced.summary.makespan_s),
        ("sim.hold_ns", sim.hold_ns),
        ("sim.cancel_ns", sim.cancel_ns),
        (
            "sim.share_pct",
            sim.hold_ns * 1e-9 * events / self_s * 100.0,
        ),
        ("cluster.alloc_release_ns", cluster.alloc_release_ns),
        ("cluster.fail_repair_ns", cluster.fail_repair_ns),
        ("slurm.submit_ns", slurm.submit.mean_ns()),
        ("slurm.complete_ns", slurm.complete.mean_ns()),
        ("slurm.schedule_pass_us", slurm.schedule.mean_ns() / 1e3),
        ("slurm.backfill_pass_us", slurm.backfill.mean_ns() / 1e3),
        (
            "slurm.pending_queue_us",
            slurm.pending_queue.mean_ns() / 1e3,
        ),
        // Never consulted, so 0, where jobs are rigid.
        ("slurm.decide_resize_us", slurm.decide.mean_ns() / 1e3),
        ("slurm.pass_elision_rate", slurm.exact.pass_elision_rate),
        ("slurm.starts_per_pass", slurm.exact.starts_per_pass),
        ("slurm.decide_action_ratio", slurm.exact.decide_action_ratio),
        ("bench.cpu_over_wall", plain.cpu_over_wall),
        ("bench.reruns", reruns as f64),
        ("bench.host_speed", host_speed),
    ]);

    let file = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(spec.seed as f64)),
        ("jobs", Json::Num(spec.jobs as f64)),
        ("fingerprint", Json::Str(fingerprint.clone())),
        (
            "metrics",
            Json::obj(
                values
                    .iter()
                    .map(|(name, value)| (*name, Json::Num(*value))),
            ),
        ),
        ("spans", spans.to_json()),
    ]);
    let path = out_dir.join(format!("trace-{}-{}.json", workload.name(), spec.seed));
    let written =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, format!("{file}\n")));
    let problems = match written {
        Ok(()) => Vec::new(),
        Err(e) => vec![format!("cannot write {}: {e}", path.display())],
    };
    tally.record("span file", problems);
    (values, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, PER_LAYER};
    use crate::workloads::ALL;

    #[test]
    fn every_per_layer_metric_is_reported_on_every_workload() {
        let out_dir = crate::out_dir().join(format!("self-test-{}", std::process::id()));
        let mut exact = Vec::new();
        for workload in ALL {
            let spec = Spec {
                workload,
                jobs: 600,
                seed: 3,
                seconds: 0.08,
            };
            let mut tally = Tally::default();
            let (values, fingerprint) = per_layer(&spec, &mut tally, &out_dir);
            assert_eq!(tally.failures, Vec::<String>::new(), "{}", workload.name());
            // Panics on a name declared and not measured, or the reverse.
            let line = result_line(&PER_LAYER, &values, tally.attempted, tally.failed());
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(!fingerprint.is_empty());
            assert_eq!(values["workload.next_job_calls"], 601.0);
            assert_eq!(values["metrics.on_job_calls"], 600.0);
            assert_eq!(values["slurm.decide_resize_us"] > 0.0, workload.malleable());
            let written = out_dir.join(format!("trace-{}-3.json", workload.name()));
            let file = Json::parse(&std::fs::read_to_string(written).unwrap()).unwrap();
            let spans = file.get("spans").and_then(Json::as_arr).unwrap();
            assert!(spans.len() >= 9);
            assert!(spans
                .iter()
                .all(|s| s.get("end_us").and_then(Json::as_f64).is_some()));
            exact.push((values["core.events"], values["core.mean_pending"]));
        }
        // The exact counts repeat.
        let spec = Spec {
            workload: ALL[0],
            jobs: 600,
            seed: 3,
            seconds: 0.08,
        };
        let (again, _) = per_layer(&spec, &mut Tally::default(), &out_dir);
        assert_eq!((again["core.events"], again["core.mean_pending"]), exact[0]);
        std::fs::remove_dir_all(out_dir).unwrap();
    }
}
