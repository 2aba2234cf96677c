//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro <target> [seed]
//! repro --sweep [--smoke] [--threads N] [--seeds a,b,c]
//! repro --trace path.swf [--nodes N] [--check-prefix N]
//!       [--faults none|rare|harsh|trace:PATH] [--ckpt-interval S]
//! repro --hist [--jobs N] [--seed S]
//! repro --gen-swf N [--seed S] [--spacing S]
//! targets: fig1 table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!          fig12 table2 all quick
//! ```
//! `quick` runs a reduced-scale version of everything (CI-friendly);
//! `all` runs the full paper-scale evaluation. `--sweep` runs the
//! scenario registry (workload × cluster × policy × mode) in parallel and
//! prints one CSV row per (scenario, seed) cell; `--smoke` swaps in the
//! CI-sized registry. `--trace` replays a Standard Workload Format file
//! through the streaming bounded-memory driver, rigid vs malleable, and
//! prints the summary comparison (including P50/P95/P99 columns) as CSV;
//! `--check-prefix N` additionally replays the first `N` jobs with a
//! recorder attached and fails unless the run's streamed summary agrees
//! with the one computed from the recorded buffers; `--faults`
//! injects a node-failure load into the replay (a preset, or a scripted
//! `trace:PATH` incident file of `<t_s> fail|repair <node>` lines) and
//! `--ckpt-interval S` gives killed jobs periodic images to restart
//! from instead of requeueing from scratch. `--hist` prints ASCII
//! histograms of the waiting / execution / completion distributions.
//! `--gen-swf` writes a synthetic SWF trace to stdout for long-replay
//! smoke tests. A `--flag` the selected mode does not read is an error,
//! like a malformed value: one line on stderr, nothing on stdout, exit 2.

use dmr_bench::figures as f;
use dmr_bench::{scenario, sweep, PRELIM_JOB_COUNTS, PRODUCTION_JOB_COUNTS, SEED};

/// One usage line per mode. The `--words` of a mode's line are the flags
/// it reads ([`reject_unknown_flags`]); a target reads none.
const SWEEP_USAGE: &str = "--sweep [--smoke] [--threads N] [--seeds a,b,c]";
const TRACE_USAGE: &str = "--trace path.swf [--nodes N] [--check-prefix N] \
                           [--faults none|rare|harsh|trace:PATH] [--ckpt-interval S]";
const HIST_USAGE: &str = "--hist [--jobs N] [--seed S]";
const GEN_SWF_USAGE: &str = "--gen-swf N [--seed S] [--spacing S]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--sweep") {
        reject_unknown_flags(&args, SWEEP_USAGE);
        run_sweep(&args);
        return;
    }
    if let Some(path) = flag_value(&args, "--trace") {
        reject_unknown_flags(&args, TRACE_USAGE);
        run_trace(path, &args);
        return;
    }
    if args.iter().any(|a| a == "--hist") {
        reject_unknown_flags(&args, HIST_USAGE);
        let jobs = parsed_flag(&args, "--jobs").unwrap_or(50);
        let seed = parsed_flag(&args, "--seed").unwrap_or(SEED);
        println!("{}", f::hist_report(jobs, seed));
        return;
    }
    if let Some(n) = flag_value(&args, "--gen-swf") {
        reject_unknown_flags(&args, GEN_SWF_USAGE);
        let jobs: u32 = match n.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--gen-swf expects a positive job count, got `{n}`");
                std::process::exit(2);
            }
        };
        let seed = parsed_flag(&args, "--seed").unwrap_or(SEED);
        gen_swf(jobs, seed, positive_seconds(&args, "--spacing"));
        return;
    }
    reject_unknown_flags(&args, "<target> [seed]");
    let target = args.first().map(String::as_str).unwrap_or("quick");
    let seed: u64 = match args.get(1) {
        None => SEED,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("the seed after `{target}` must be a non-negative integer, got `{s}`");
            std::process::exit(2);
        }),
    };
    run(target, seed);
}

/// Exits 2 on the first `--flag` (or `--flag=value`) the selected mode's
/// usage line does not name: each mode looks up the flags it knows, so a
/// misspelt one would otherwise run with that setting silently absent.
fn reject_unknown_flags(args: &[String], usage: &str) {
    for arg in args {
        let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
        if name.starts_with("--") && !usage.split([' ', '[', ']']).any(|word| word == name) {
            eprintln!("unknown flag `{name}`; usage: repro {usage}");
            std::process::exit(2);
        }
    }
}

/// Parses `--flag v` into any `FromStr` type, exiting on malformed input.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| match v.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag} expects a number, got `{v}`");
            std::process::exit(2);
        }
    })
}

/// Parses `--flag S` as a finite, positive number of seconds. `nan` and
/// `inf` parse as `f64`, and NaN passes a `<= 0.0` check, so the test is
/// written the other way round.
fn positive_seconds(args: &[String], flag: &str) -> Option<f64> {
    flag_value(args, flag).map(|v| match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => s,
        _ => {
            eprintln!("{flag} expects a positive number of seconds, got `{v}`");
            std::process::exit(2);
        }
    })
}

/// Value of `--flag v` or `--flag=v`, if present. A flag given without a
/// value (e.g. `--seeds` as the last argument) is an error, not a silent
/// fallback to the default.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let prefix = format!("{flag}=");
    args.iter().enumerate().find_map(|(i, a)| {
        if let Some(v) = a.strip_prefix(&prefix) {
            Some(v)
        } else if a == flag {
            match args.get(i + 1) {
                Some(v) => Some(v.as_str()),
                None => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        } else {
            None
        }
    })
}

/// Parses `--faults none|rare|harsh|trace:PATH` into the preset load
/// plus an optional scripted trace (read and parsed from `PATH`, one
/// `<t_s> fail|repair <node>` event per line, the node one of the
/// machine's `nodes`). Absent flag → the zero-fault oracle default.
fn fault_flags(args: &[String], nodes: u32) -> (dmr_core::FaultLoad, Option<dmr_core::FaultTrace>) {
    use dmr_core::{FaultLoad, FaultTrace};
    match flag_value(args, "--faults") {
        None | Some("none") => (FaultLoad::None, None),
        Some("rare") => (FaultLoad::Rare, None),
        Some("harsh") => (FaultLoad::Harsh, None),
        Some(v) => {
            let Some(path) = v.strip_prefix("trace:") else {
                eprintln!("--faults expects none|rare|harsh|trace:PATH, got `{v}`");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read fault trace `{path}`: {e}");
                    std::process::exit(2);
                }
            };
            match FaultTrace::parse_for(&text, nodes) {
                Ok(trace) => (FaultLoad::None, Some(trace)),
                Err(e) => {
                    eprintln!("malformed fault trace `{path}`: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

fn run_sweep(args: &[String]) {
    let scenarios = if args.iter().any(|a| a == "--smoke") {
        scenario::smoke_registry()
    } else {
        scenario::registry()
    };
    let seeds: Vec<u64> = match flag_value(args, "--seeds") {
        Some(list) => {
            let parsed: Result<Vec<u64>, _> = list.split(',').map(str::parse).collect();
            match parsed {
                Ok(seeds) if !seeds.is_empty() => seeds,
                _ => {
                    eprintln!("--seeds expects a comma-separated list of integers, got `{list}`");
                    std::process::exit(2);
                }
            }
        }
        None => vec![SEED],
    };
    let threads = match flag_value(args, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--threads expects a positive integer, got `{v}`");
                std::process::exit(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let cells = sweep::run_sweep(&scenarios, &seeds, threads);
    print!("{}", sweep::csv_report(&cells));
    let past: u64 = cells.iter().map(|c| c.past_schedules).sum();
    if past > 0 {
        eprintln!("warning: {past} events were scheduled in the past and clamped");
        std::process::exit(1);
    }
}

/// Replays `path` (SWF) twice — rigid and malleable — through the
/// streaming bounded-memory driver and prints a two-row summary CSV.
/// With `--check-prefix N`, additionally replays the first `N` jobs with
/// a recorder attached and exits non-zero unless the streamed and the
/// buffered summaries are bit-identical.
fn run_trace(path: &str, args: &[String]) {
    use dmr_core::{ExperimentConfig, Simulation};
    use dmr_metrics::csv::write_summaries;
    use dmr_workload::SwfTrace;

    let nodes = match flag_value(args, "--nodes") {
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--nodes expects a positive integer, got `{v}`");
                std::process::exit(2);
            }
        },
        None => 20,
    };
    let (load, fault_trace) = fault_flags(args, nodes);
    // A run folds its summary in O(1) memory; the summary (including the
    // percentile columns) is bit-identical to one computed from buffered
    // outcomes, which `--check-prefix` verifies on demand.
    let mut cfg = ExperimentConfig::preliminary()
        .with_nodes(nodes)
        .with_faults(load);
    if let Some(s) = positive_seconds(args, "--ckpt-interval") {
        cfg = cfg.with_ckpt_interval(s);
    }
    // A trace replay has no randomness: two opens of the same file are
    // the same workload, so fixed vs flexible is a fair comparison.
    let mut results = Vec::new();
    for (label, cfg) in [("swf-fixed", cfg.as_fixed()), ("swf-flexible", cfg)] {
        let mut trace = match SwfTrace::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot open trace `{path}`: {e}");
                std::process::exit(2);
            }
        };
        let mut sim = Simulation::new(&cfg).source(&mut trace);
        if let Some(script) = fault_trace.clone() {
            sim = sim.faults(script);
        }
        let result = match sim.run() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        if result.summary.jobs == 0 {
            eprintln!("trace `{path}` contains no replayable jobs");
            std::process::exit(1);
        }
        eprintln!(
            "{label}: {} jobs, {} lines skipped, makespan {:.1} s, p99 completion {:.1} s",
            result.summary.jobs,
            trace.skipped_lines(),
            result.summary.makespan_s,
            result.summary.completion_q.p99_s
        );
        if !load.is_none() || fault_trace.is_some() {
            eprintln!(
                "{label}: {} node failures, {} requeues, {:.1} s lost work, \
                 goodput {:.4}, restart p95 {:.1} s",
                result.summary.failures,
                result.summary.requeues,
                result.summary.lost_work_s,
                result.summary.goodput_ratio,
                result.summary.restart_p95_s,
            );
        }
        results.push((label, result));
    }
    let rows: Vec<(&str, &dmr_metrics::WorkloadSummary)> = results
        .iter()
        .map(|(label, r)| (*label, &r.summary))
        .collect();
    let mut out = Vec::new();
    write_summaries(&mut out, &rows).expect("writing to memory cannot fail");
    print!("{}", String::from_utf8(out).expect("CSV is UTF-8"));
    if let Some(prefix) = parsed_flag::<u32>(args, "--check-prefix") {
        check_prefix(path, nodes, prefix);
    }
}

/// Replays the first `prefix` jobs of `path` with a recorder attached and
/// asserts that the run's streamed summary and the one
/// [`WorkloadSummary::compute`] derives from the recorded outcomes and
/// allocation series agree **bit-for-bit** — every f64 compared by raw
/// bits, not through rounded CSV formatting, so even sub-rounding
/// divergence fails the gate.
///
/// [`WorkloadSummary::compute`]: dmr_metrics::WorkloadSummary::compute
fn check_prefix(path: &str, nodes: u32, prefix: u32) {
    use dmr_core::{ExperimentConfig, Simulation};
    use dmr_metrics::{SeriesRecorder, WorkloadSummary};
    use dmr_workload::{Capped, SwfTrace};

    // Every f64 of the summary as raw bits (quantiles included), plus
    // the integer counters — byte-equal iff the summaries are.
    fn fingerprint(s: &WorkloadSummary) -> String {
        format!(
            "{:016x} {:016x} {:016x} {:016x} {:016x} \
             {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} \
             jobs={} reconf={}",
            s.makespan_s.to_bits(),
            s.utilization.to_bits(),
            s.avg_waiting_s.to_bits(),
            s.avg_execution_s.to_bits(),
            s.avg_completion_s.to_bits(),
            s.waiting_q.p50_s.to_bits(),
            s.waiting_q.p95_s.to_bits(),
            s.waiting_q.p99_s.to_bits(),
            s.execution_q.p50_s.to_bits(),
            s.execution_q.p95_s.to_bits(),
            s.execution_q.p99_s.to_bits(),
            s.completion_q.p50_s.to_bits(),
            s.completion_q.p95_s.to_bits(),
            s.completion_q.p99_s.to_bits(),
            s.jobs,
            s.reconfigurations,
        )
    }

    let cfg = ExperimentConfig::preliminary().with_nodes(nodes);
    let trace = match SwfTrace::open(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot reopen trace `{path}`: {e}");
            std::process::exit(2);
        }
    };
    let mut rec = SeriesRecorder::new();
    let result = Simulation::new(&cfg)
        .source(&mut Capped::new(trace, prefix))
        .sink(&mut rec)
        .run()
        .expect("the replay's configuration ran above");
    let (allocation, _, _, outcomes) = rec.into_parts();
    let buffered = WorkloadSummary::compute(&outcomes, &allocation, nodes);
    let prints = [fingerprint(&result.summary), fingerprint(&buffered)];
    if prints[0] == prints[1] {
        eprintln!(
            "prefix check ({prefix} jobs): streaming summary matches buffered path bit-for-bit"
        );
    } else {
        eprintln!(
            "prefix check FAILED ({prefix} jobs):\n  streamed: {}\n  buffered: {}",
            prints[0], prints[1]
        );
        std::process::exit(1);
    }
}

/// Writes a synthetic Standard Workload Format trace to stdout: `jobs`
/// records drawn from the Feitelson preliminary model, submit-sorted,
/// one line per job in the 18-field SWF v2.2 layout (unused fields -1).
///
/// The model's arrival process is tuned for testbed-sized workloads;
/// replayed at tens of thousands of jobs it buries the simulated cluster
/// under an ever-growing backlog (a scheduler stress test, quadratic in
/// queue depth). `spacing` overrides arrivals with a fixed inter-submit
/// gap in seconds, producing a steady-state trace whose replay cost is
/// linear in job count — what the long-trace streaming smoke wants.
fn gen_swf(jobs: u32, seed: u64, spacing: Option<f64>) {
    use dmr_core::WorkloadKind;
    use std::io::Write;

    let mut source = WorkloadKind::FsPreliminary.build(jobs, seed);
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    writeln!(out, "; Synthetic SWF trace: {jobs} jobs, seed {seed}").expect("stdout");
    writeln!(
        out,
        "; Generated by `repro --gen-swf` from the Feitelson FS model"
    )
    .expect("stdout");
    let mut id = 0u64;
    while let Some(job) = source.next_job() {
        let submit = match spacing {
            Some(s) => id as f64 * s,
            None => job.arrival_s,
        };
        id += 1;
        let runtime = job.steps as f64 * job.step_s;
        // Fields: job, submit, wait, run, alloc procs, cpu, mem,
        // req procs, req time, req mem, status, uid, gid, app, queue,
        // partition, prev job, think time.
        writeln!(
            out,
            "{} {:.0} -1 {:.0} {} -1 -1 {} {:.0} -1 1 -1 -1 -1 -1 -1 -1 -1",
            id,
            submit,
            runtime.max(1.0),
            job.submit_procs,
            job.submit_procs,
            job.walltime_s.max(1.0),
        )
        .expect("stdout");
    }
}

fn run(target: &str, seed: u64) {
    match target {
        "fig1" => println!("{}", f::fig1_report()),
        "table1" => println!("{}", f::table1_report()),
        "fig3" => println!("{}", f::fig3_report(&PRELIM_JOB_COUNTS, seed)),
        "fig4" => println!("{}", f::fig4(seed).render(72)),
        "fig5" => println!("{}", f::fig5(seed).render(72)),
        "fig6" => println!("{}", f::fig6(seed).render(72)),
        "fig7" => println!("{}", f::fig7_report(&PRELIM_JOB_COUNTS, seed)),
        "fig8" => println!("{}", f::fig8_report(100, seed)),
        "fig9" => println!("{}", f::fig9_report(&[10, 25, 50, 100], seed)),
        "fig10" | "fig11" | "table2" => {
            let pairs = f::production_summaries(&PRODUCTION_JOB_COUNTS, seed);
            match target {
                "fig10" => println!("{}", f::fig10_report(&pairs)),
                "fig11" => println!("{}", f::fig11_report(&pairs)),
                _ => println!("{}", f::table2_report(&pairs)),
            }
        }
        "fig12" => println!("{}", f::fig12(seed).render(72)),
        "ablations" => println!("{}", f::ablations_report(50, seed)),
        "all" => {
            println!("{}", f::fig1_report());
            println!("{}", f::table1_report());
            println!("{}", f::fig3_report(&PRELIM_JOB_COUNTS, seed));
            println!("{}", f::fig4(seed).render(72));
            println!("{}", f::fig5(seed).render(72));
            println!("{}", f::fig6(seed).render(72));
            println!("{}", f::fig7_report(&PRELIM_JOB_COUNTS, seed));
            println!("{}", f::fig8_report(100, seed));
            println!("{}", f::fig9_report(&[10, 25, 50, 100], seed));
            let pairs = f::production_summaries(&PRODUCTION_JOB_COUNTS, seed);
            println!("{}", f::fig10_report(&pairs));
            println!("{}", f::fig11_report(&pairs));
            println!("{}", f::table2_report(&pairs));
            println!("{}", f::fig12(seed).render(72));
            println!("{}", f::ablations_report(50, seed));
        }
        "quick" => {
            println!("{}", f::fig1_report());
            println!("{}", f::table1_report());
            println!("{}", f::fig3_report(&[10, 25, 50], seed));
            println!("{}", f::fig8_report(50, seed));
            let pairs = f::production_summaries(&[50], seed);
            println!("{}", f::fig10_report(&pairs));
            println!("{}", f::table2_report(&pairs));
        }
        other => {
            eprintln!("unknown target `{other}`");
            eprintln!(
                "targets: fig1 table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 \
                 fig10 fig11 fig12 table2 all quick"
            );
            for usage in [SWEEP_USAGE, TRACE_USAGE, HIST_USAGE, GEN_SWF_USAGE] {
                eprintln!("or: {usage}");
            }
            std::process::exit(2);
        }
    }
}
