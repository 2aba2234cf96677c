//! The metrics the benchmark declares — the same tables BENCHMARK.json
//! carries (a self-test keeps the two equal) — and the result line.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the simulator sees, all in host time. Throughput is
/// per reference second (`calib.rs`), because the sandbox host changes
/// speed under the benchmark. The bounds are the ceiling the benchmark
/// contract allows; README.md has the spreads measured, which are far
/// tighter.
pub const END_TO_END: [Metric; 3] = [
    metric("jobs_per_ref_s", "1/s", Better::Higher, 0.25),
    metric("peak_rss_mb", "MB", Better::Lower, 0.2),
    metric("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    metric(name, unit, better, 0.0)
}

/// One traced run's numbers, layer by layer (layers are crate names).
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 37] = [
    layer("workload.next_job_calls", "count", Better::Lower),
    layer("workload.next_job_ns", "ns", Better::Lower),
    layer("workload.gen_s", "s", Better::Lower),
    layer("metrics.on_sample_calls", "count", Better::Lower),
    layer("metrics.on_job_calls", "count", Better::Lower),
    layer("metrics.on_sample_ns", "ns", Better::Lower),
    layer("metrics.on_job_ns", "ns", Better::Lower),
    layer("metrics.summary_us", "us", Better::Lower),
    layer("core.run_s", "s", Better::Lower),
    layer("core.self_s", "s", Better::Lower),
    layer("core.events", "count", Better::Lower),
    layer("core.events_per_job", "count", Better::Lower),
    layer("core.reconfigurations", "count", Better::Higher),
    layer("core.peak_pending", "count", Better::Lower),
    layer("core.mean_pending", "count", Better::Lower),
    layer("core.ns_per_event", "ns", Better::Lower),
    layer("core.events_per_s", "1/s", Better::Higher),
    layer("core.growth_per_doubling", "ratio", Better::Lower),
    layer("core.trace_overhead_pct", "%", Better::Lower),
    layer("core.sim_makespan_s", "s", Better::Lower),
    layer("sim.hold_ns", "ns", Better::Lower),
    layer("sim.cancel_ns", "ns", Better::Lower),
    layer("sim.share_pct", "%", Better::Lower),
    layer("cluster.alloc_release_ns", "ns", Better::Lower),
    layer("cluster.fail_repair_ns", "ns", Better::Lower),
    layer("slurm.submit_ns", "ns", Better::Lower),
    layer("slurm.complete_ns", "ns", Better::Lower),
    layer("slurm.schedule_pass_us", "us", Better::Lower),
    layer("slurm.backfill_pass_us", "us", Better::Lower),
    layer("slurm.pending_queue_us", "us", Better::Lower),
    layer("slurm.decide_resize_us", "us", Better::Lower),
    layer("slurm.pass_elision_rate", "ratio", Better::Higher),
    layer("slurm.starts_per_pass", "ratio", Better::Higher),
    layer("slurm.decide_action_ratio", "ratio", Better::Higher),
    layer("bench.cpu_over_wall", "ratio", Better::Higher),
    layer("bench.reruns", "count", Better::Lower),
    layer("bench.host_speed", "ratio", Better::Higher),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result object a run ends with: the declared metrics, each with its
/// unit, and the count of operations attempted and failed.
///
/// # Panics
/// If `values` misses a declared metric or holds an undeclared one — the
/// printed names and BENCHMARK.json must not drift apart.
pub fn result_line(declared: &[Metric], values: &Values, attempted: u64, failed: u64) -> Json {
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric `{name}` is measured but not declared"
        );
    }
    let metrics = declared.iter().map(|m| {
        let value = *values
            .get(m.name)
            .unwrap_or_else(|| panic!("metric `{}` is declared but not measured", m.name));
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(m.unit.into())),
        ]);
        (m.name, entry)
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(low, high), v| {
            (low.min(*v), high.max(*v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared_in(benchmark: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        benchmark
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let ours: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.name().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect();
            assert_eq!(declared_in(&benchmark, key), ours, "{key}");
        }
        let workloads: Vec<&str> = benchmark
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "declared but not measured")]
    fn a_missing_metric_is_a_bug() {
        result_line(&END_TO_END, &Values::new(), 1, 0);
    }
}
