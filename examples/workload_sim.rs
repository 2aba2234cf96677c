//! The production use-case (§IX): a mixed CG/Jacobi/N-body workload on
//! the full 65-node simulated cluster.
//!
//! ```text
//! cargo run --release --example workload_sim [jobs] [seed]
//! ```
//!
//! Prints a Table-II-style summary for the fixed and flexible runs of the
//! same workload.

use dmr::core::{compare_fixed_flexible, ExperimentConfig};
use dmr::metrics::csv::write_summaries;
use dmr::metrics::gain_pct;
use dmr::workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(50);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20170814);

    let specs = WorkloadGenerator::new(WorkloadConfig::real_mix(jobs), seed).generate();
    let mix: Vec<&str> = specs.iter().map(|s| s.app.name()).collect();
    println!(
        "workload: {jobs} jobs (CG {} / Jacobi {} / N-body {}), seed {seed}",
        mix.iter().filter(|n| **n == "CG").count(),
        mix.iter().filter(|n| **n == "Jacobi").count(),
        mix.iter().filter(|n| **n == "N-body").count(),
    );

    let cfg = ExperimentConfig::production();
    let (fixed, flexible) =
        compare_fixed_flexible(&cfg, &specs).expect("the production configuration is valid");

    let mut out = Vec::new();
    write_summaries(
        &mut out,
        &[("fixed", &fixed.summary), ("flexible", &flexible.summary)],
    )
    .expect("write summaries");
    print!("{}", String::from_utf8(out).expect("utf8"));

    println!(
        "\nmakespan gain {:+.2} %, waiting-time gain {:+.2} %, execution-time change {:+.2} %",
        gain_pct(fixed.summary.makespan_s, flexible.summary.makespan_s),
        gain_pct(fixed.summary.avg_waiting_s, flexible.summary.avg_waiting_s),
        -gain_pct(
            fixed.summary.avg_execution_s,
            flexible.summary.avg_execution_s
        ),
    );
}
