//! `benchmark run` / `trace` / `record`: the whole matrix from one
//! command. Samples are child processes (so `peak_rss_mb` is each
//! sample's own), spawned rep-major — every round runs each workload
//! once — so slow drift of the machine hits all workloads alike; one
//! process at a time.

use std::collections::BTreeMap;
use std::process::Command;

use crate::compare::spread;
use crate::json::Json;
use crate::metrics::{median, min_max, END_TO_END, PER_LAYER};
use crate::sample::{run_once, verdict};
use crate::workloads::{Workload, ALL, DEFAULT_SEED};

/// What one child sample printed.
struct Child {
    metrics: BTreeMap<String, f64>,
    fingerprint: String,
    attempted: u64,
    failed: u64,
}

fn spawn(workload: Workload, seed: u64, extra: &[&str]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("cannot spawn a sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("  {} {line}", workload.name());
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        format!(
            "sample of {} gave no result ({e}): {stderr}",
            workload.name()
        )
    })?;
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = result.get("metrics").map_or(&[][..], Json::fields);
    Ok(Child {
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        fingerprint: stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .unwrap_or("")
            .to_string(),
        attempted: count("attempted"),
        // A sample that died without a count still failed once.
        failed: count("failed").max(!output.status.success() as u64),
    })
}

/// `rounds` rounds of untraced samples (a 6 s window each, so a round
/// stays short), then one traced round; prints every metric and — unless `rounds` is 0, the
/// traced round alone — writes the run file. `Ok(true)` when no operation
/// failed and each workload's samples — the traced one too — simulated
/// the same results.
pub fn run(seed: u64, rounds: u32, out: Option<String>) -> Result<bool, String> {
    // Per workload: its untraced samples in round order, then the traced one.
    let mut children: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for round in 1..=rounds {
        for workload in ALL {
            let child = spawn(workload, seed, &["--trace", "0", "--seconds", "6"])?;
            println!(
                "round {round}/{rounds} {:<12} {:>12.1} jobs per reference second",
                workload.name(),
                child
                    .metrics
                    .get("jobs_per_ref_s")
                    .copied()
                    .unwrap_or(f64::NAN)
            );
            children.entry(workload.name()).or_default().push(child);
        }
    }
    for workload in ALL {
        let child = spawn(workload, seed, &["--trace", "1"])?;
        println!("traced {}", workload.name());
        children.entry(workload.name()).or_default().push(child);
    }
    let untraced = |workload: &str, metric: &str| -> Vec<f64> {
        children[workload][..rounds as usize]
            .iter()
            .map(|child| child.metrics.get(metric).copied().unwrap_or(f64::NAN))
            .collect()
    };
    let traced = |workload: &str| &children[workload][rounds as usize];

    if rounds > 0 {
        println!("\nend to end, seed {seed}, one sample per round:");
        println!(
            "{:<12} {:<14} {:>14} {:>14} {:>14} {:>3} {:>7}  unit",
            "workload", "metric", "median", "min", "max", "n", "spread"
        );
        for workload in ALL {
            for metric in &END_TO_END {
                let values = untraced(workload.name(), metric.name);
                let (low, high) = min_max(&values);
                let spread = if values.len() >= 2 {
                    spread(&values) * 100.0
                } else {
                    f64::NAN
                };
                println!(
                    "{:<12} {:<14} {:>14.4} {low:>14.4} {high:>14.4} {:>3} {spread:>6.1}%  {}",
                    workload.name(),
                    metric.name,
                    median(&values),
                    values.len(),
                    metric.unit,
                );
            }
        }
    }
    println!("\nper layer, one traced sample:");
    print!("{:<28}", "metric");
    for workload in ALL {
        print!(" {:>14}", workload.name());
    }
    println!("  unit");
    for metric in &PER_LAYER {
        print!("{:<28}", metric.name);
        for workload in ALL {
            let value = traced(workload.name()).metrics.get(metric.name);
            print!(" {:>14.4}", value.copied().unwrap_or(f64::NAN));
        }
        println!("  {}", metric.unit);
    }

    let mut agree = true;
    for (workload, samples) in &children {
        let first = &samples[0].fingerprint;
        if first.is_empty() || samples.iter().any(|s| s.fingerprint != *first) {
            agree = false;
            println!("FAILED {workload}: samples disagree on the simulated results");
        }
    }
    let all = || children.values().flatten();
    let attempted: u64 = all().map(|child| child.attempted).sum();
    let failed: u64 = all().map(|child| child.failed).sum();
    println!(
        "\n{attempted} operations attempted, {failed} failed; simulated results {}",
        if agree {
            "agree across samples"
        } else {
            "DISAGREE"
        }
    );
    if rounds == 0 {
        return Ok(failed == 0 && agree);
    }

    let file = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "workloads",
            Json::obj(ALL.iter().map(|workload| {
                let name = workload.name();
                let end_to_end = END_TO_END.iter().map(|m| {
                    let values = untraced(name, m.name);
                    (
                        m.name,
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    )
                });
                let per_layer = traced(name)
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)));
                let entry = Json::obj([
                    ("fingerprint", Json::Str(traced(name).fingerprint.clone())),
                    ("end_to_end", Json::obj(end_to_end)),
                    ("per_layer", Json::obj(per_layer)),
                ]);
                (name, entry)
            })),
        ),
    ]);
    let path = match out {
        Some(path) => path.into(),
        None => crate::out_dir().join(format!("run-{seed}.json")),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{file}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(failed == 0 && agree)
}

/// Rewrites `reference/<workload>.fp` from this build's simulator at the
/// default seed. Only a change that means to alter simulated results
/// runs this — in a benchmark change of its own, before the change.
pub fn record() -> Result<bool, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    for workload in ALL {
        let cfg = workload.config(DEFAULT_SEED);
        let mut lines = String::new();
        for (label, jobs) in [("canary", workload.jobs() / 4), ("full", workload.jobs())] {
            let (run, _) = run_once(&cfg, workload.inputs(jobs, DEFAULT_SEED), jobs, false);
            let problems = verdict(&run, "");
            if !problems.is_empty() {
                return Err(format!(
                    "{} {label}: {}",
                    workload.name(),
                    problems.join("; ")
                ));
            }
            lines += &format!("{label} {}\n", run.fingerprint());
        }
        let path = dir.join(format!("{}.fp", workload.name()));
        std::fs::write(&path, lines)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("recorded {}", path.display());
    }
    println!("rebuild to measure against the new references");
    Ok(true)
}
