//! Quickstart: simulate a small malleable workload, fixed vs flexible.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a 25-job Flexible-Sleep workload with the Feitelson model,
//! runs it twice on a simulated 20-node cluster — once rigid, once
//! malleable under the Algorithm-1 policy — and prints the comparison the
//! paper's Figure 3 is made of.

use dmr::core::{ExperimentConfig, ExperimentResult, Simulation};
use dmr::metrics::{csv::sparkline, gain_pct, SeriesRecorder, StepSeries};
use dmr::workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    // 1. A workload: 25 FS jobs, sizes and runtimes from Feitelson '96.
    let jobs = WorkloadGenerator::new(WorkloadConfig::fs_preliminary(25), 42).generate();

    // 2. The testbed: 20 nodes, synchronous DMR checks (§VIII defaults).
    let cfg = ExperimentConfig::preliminary();

    // 3. Run both variants, each with a recorder attached for its
    //    allocation series.
    let run = |cfg: &ExperimentConfig| -> (ExperimentResult, StepSeries) {
        let mut rec = SeriesRecorder::new();
        let result = Simulation::new(cfg)
            .source(&mut jobs.iter())
            .sink(&mut rec)
            .run()
            .expect("the testbed configuration is valid");
        (result, rec.into_parts().0)
    };
    let (fixed, fixed_alloc) = run(&cfg.as_fixed());
    let (flexible, flexible_alloc) = run(&cfg);

    println!(
        "fixed    : makespan {:8.1} s  utilization {:5.1} %  avg wait {:7.1} s",
        fixed.summary.makespan_s,
        fixed.summary.utilization * 100.0,
        fixed.summary.avg_waiting_s
    );
    println!("flexible : makespan {:8.1} s  utilization {:5.1} %  avg wait {:7.1} s  ({} reconfigurations)",
        flexible.summary.makespan_s,
        flexible.summary.utilization * 100.0,
        flexible.summary.avg_waiting_s,
        flexible.summary.reconfigurations);
    println!(
        "gain     : {:+.2} % makespan, {:+.2} % waiting time",
        gain_pct(fixed.summary.makespan_s, flexible.summary.makespan_s),
        gain_pct(fixed.summary.avg_waiting_s, flexible.summary.avg_waiting_s)
    );
    println!();
    println!("allocated nodes over time:");
    println!(
        "  fixed    |{}|",
        sparkline(&fixed_alloc, fixed.end_time, 64)
    );
    println!(
        "  flexible |{}|",
        sparkline(&flexible_alloc, flexible.end_time, 64)
    );
}
