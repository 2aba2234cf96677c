//! Whole-experiment host-speed benchmark of the DMR simulator. README.md
//! has the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one sample (the BENCHMARK.json command)
//! benchmark run   [--seed N] [--rounds R] [--out FILE]       every workload, R rounds, then a traced round
//! benchmark trace [--seed N]                                 the traced round alone
//! benchmark compare A.json B.json                            judge two run files by the bounds
//! benchmark record                                           rewrite reference/*.fp at the default seed
//! ```

mod calib;
mod compare;
mod json;
mod layers;
mod metrics;
mod orchestrate;
mod probes;
mod sample;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{result_line, END_TO_END, PER_LAYER};
use sample::{Spec, Tally};
use workloads::{Workload, DEFAULT_SEED};

/// Where span files and run files go: `out/` beside this crate's
/// manifest, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.0
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
}

/// One sample in this process. Prints each metric on a line of its own,
/// the fingerprint, any failure, and last the result object.
fn sample(flags: &Flags) -> Result<bool, String> {
    let name: String = flags.get("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
    let spec = Spec {
        workload,
        jobs: workload.jobs(),
        seed: flags.get("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flags.get("--seconds")?.unwrap_or(18.0),
    };
    let traced = flags.get::<u8>("--trace")?.unwrap_or(0) != 0;
    let mut tally = Tally::default();
    let (declared, values, fingerprint) = if traced {
        let (values, fingerprint) = layers::per_layer(&spec, &mut tally, &out_dir());
        (&PER_LAYER[..], values, fingerprint)
    } else {
        let sampled = sample::end_to_end(&spec, &mut tally);
        println!(
            "timed runs {}, bench.reruns {}, bench.cpu_over_wall {:.4}",
            sampled.runs, sampled.reruns, sampled.cpu_over_wall
        );
        println!(
            "jobs per wall second {:.1}, bench.host_speed {:.4}",
            sampled.jobs_per_wall_s, sampled.host_speed
        );
        (&END_TO_END[..], sampled.values, sampled.fingerprint)
    };
    for metric in declared {
        println!("{} {} {}", metric.name, values[metric.name], metric.unit);
    }
    println!("fingerprint {fingerprint}");
    for failure in &tally.failures {
        println!("FAILED {failure}");
    }
    println!(
        "{}",
        result_line(declared, &values, tally.attempted, tally.failed())
    );
    // A sample that printed its result exits 0 even when a check failed:
    // the failure is in the result (`correct`, `failed`) and on the
    // FAILED lines above it.
    Ok(true)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => first.clone(),
        _ => return sample(&Flags(args)),
    };
    let flags = Flags(args[1..].to_vec());
    let seed = flags.get("--seed")?.unwrap_or(DEFAULT_SEED);
    match command.as_str() {
        "run" => orchestrate::run(
            seed,
            flags.get("--rounds")?.unwrap_or(5),
            flags.get("--out")?,
        ),
        "trace" => orchestrate::run(seed, 0, None),
        "compare" => match &flags.0[..] {
            [a, b] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("compare takes two run files".into()),
        },
        "record" => orchestrate::record(),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
