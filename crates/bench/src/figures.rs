//! One entry point per table/figure of the paper.

use dmr_cluster::{DiskModel, NetworkModel};
use dmr_core::config::EstimateMode;
use dmr_core::{compare_fixed_flexible, ExperimentConfig, ExperimentResult, Simulation};
use dmr_metrics::{csv::sparkline, gain_pct, SeriesRecorder, StepSeries, WorkloadSummary};
use dmr_workload::{JobSpec, WorkloadConfig, WorkloadGenerator};

use crate::report::{pct, secs, table};

/// A fixed-vs-flexible makespan comparison (Figures 3, 7, 10).
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    pub jobs: u32,
    pub fixed_s: f64,
    pub flexible_s: f64,
    pub gain_pct: f64,
}

/// Full summaries per workload size (Table II, Figure 11).
#[derive(Clone, Debug)]
pub struct SummaryPair {
    pub jobs: u32,
    pub fixed: WorkloadSummary,
    pub flexible: WorkloadSummary,
}

/// Fixed + flexible evolution traces (Figures 4, 5, 6, 12).
pub struct Evolution {
    pub label: String,
    /// Fixed, then flexible: each run's result and its allocated-node,
    /// running-job and completed-job series.
    pub runs: [(ExperimentResult, [StepSeries; 3]); 2],
}

/// Every figure runs a fixed, valid configuration.
const VALID: &str = "figure configurations are valid";

fn fs_workload(jobs: u32, seed: u64) -> Vec<JobSpec> {
    WorkloadGenerator::new(WorkloadConfig::fs_preliminary(jobs), seed).generate()
}

fn fs_micro_workload(jobs: u32, seed: u64) -> Vec<JobSpec> {
    WorkloadGenerator::new(WorkloadConfig::fs_micro_steps(jobs), seed).generate()
}

fn real_workload(jobs: u32, seed: u64) -> Vec<JobSpec> {
    WorkloadGenerator::new(WorkloadConfig::real_mix(jobs), seed).generate()
}

fn run(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> ExperimentResult {
    Simulation::new(cfg)
        .source(&mut jobs.iter())
        .run()
        .expect(VALID)
}

/// [`run`] with a [`SeriesRecorder`] attached.
fn recorded(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> (ExperimentResult, SeriesRecorder) {
    let mut rec = SeriesRecorder::new();
    let result = Simulation::new(cfg)
        .source(&mut jobs.iter())
        .sink(&mut rec)
        .run()
        .expect(VALID);
    (result, rec)
}

fn compare(cfg: &ExperimentConfig, jobs: &[JobSpec], n: u32) -> ComparisonRow {
    let (fixed, flexible) = compare_fixed_flexible(cfg, jobs).expect(VALID);
    ComparisonRow {
        jobs: n,
        fixed_s: fixed.summary.makespan_s,
        flexible_s: flexible.summary.makespan_s,
        gain_pct: gain_pct(fixed.summary.makespan_s, flexible.summary.makespan_s),
    }
}

fn comparison_table(title: &str, rows: &[ComparisonRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.jobs.to_string(),
                secs(r.fixed_s),
                secs(r.flexible_s),
                pct(r.gain_pct),
            ]
        })
        .collect();
    format!(
        "{title}\n{}",
        table(&["jobs", "fixed (s)", "flexible (s)", "gain"], &body)
    )
}

// ---------------------------------------------------------------------
// Figure 1 — C/R vs DMR reconfiguration cost (N-body, 48 -> {12,24,48})
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Fig1Row {
    pub from: u32,
    pub to: u32,
    pub dmr_spawn_s: f64,
    pub cr_spawn_s: f64,
    pub ratio: f64,
}

/// Figure 1: time of the non-solving (spawn + data) stage when resizing an
/// N-body job from 48 processes, under checkpoint/restart vs the DMR API.
/// The paper's labels are the C/R-to-DMR ratios (31.4×, 63.75×, 77×).
pub fn fig1() -> Vec<Fig1Row> {
    let net = NetworkModel::fdr10();
    let disk = DiskModel::gpfs();
    // N-body state: particles array; ~1 GiB at 48 ranks (§VII-B4 scale).
    let data: u64 = 1 << 30;
    [(48u32, 12u32), (48, 24), (48, 48)]
        .iter()
        .map(|&(from, to)| {
            let dmr = net.dmr_reconfigure_time(data, from, to).as_secs_f64();
            let cr = disk.cr_reconfigure_time(data, from, to).as_secs_f64();
            Fig1Row {
                from,
                to,
                dmr_spawn_s: dmr,
                cr_spawn_s: cr,
                ratio: cr / dmr,
            }
        })
        .collect()
}

pub fn fig1_report() -> String {
    let rows: Vec<Vec<String>> = fig1()
        .iter()
        .map(|r| {
            vec![
                format!("{}-{}", r.from, r.to),
                format!("{:.2}", r.dmr_spawn_s),
                format!("{:.2}", r.cr_spawn_s),
                format!("{:.1}x", r.ratio),
            ]
        })
        .collect();
    format!(
        "Figure 1: spawning stage, C/R vs DMR (N-body)\n{}",
        table(
            &["procs (init-resized)", "DMR (s)", "C/R (s)", "C/R / DMR"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Table I — application configuration (input parameters)
// ---------------------------------------------------------------------

pub fn table1_report() -> String {
    use dmr_workload::generator::table1;
    use dmr_workload::AppClass;
    let rows: Vec<Vec<String>> = [
        AppClass::Fs,
        AppClass::Cg,
        AppClass::Jacobi,
        AppClass::Nbody,
    ]
    .iter()
    .map(|&app| {
        let (steps, m, data) = table1(app);
        vec![
            app.name().to_string(),
            steps.to_string(),
            m.min_procs.to_string(),
            m.max_procs.to_string(),
            m.preferred.map_or("-".into(), |p| p.to_string()),
            m.sched_period_s
                .map_or("-".into(), |p| format!("{p} seconds")),
            format!("{:.1} GiB", data as f64 / (1u64 << 30) as f64),
        ]
    })
    .collect();
    format!(
        "Table I: configuration parameters for the applications\n{}",
        table(
            &[
                "app",
                "iterations",
                "min",
                "max",
                "preferred",
                "sched period",
                "data"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------
// Figures 3/7 — FS workloads, synchronous / asynchronous
// ---------------------------------------------------------------------

/// Figure 3: fixed vs flexible FS workloads (synchronous scheduling).
pub fn fig3(job_counts: &[u32], seed: u64) -> Vec<ComparisonRow> {
    let cfg = ExperimentConfig::preliminary();
    job_counts
        .iter()
        .map(|&n| compare(&cfg, &fs_workload(n, seed), n))
        .collect()
}

pub fn fig3_report(job_counts: &[u32], seed: u64) -> String {
    comparison_table(
        "Figure 3: fixed vs flexible workloads (synchronous)",
        &fig3(job_counts, seed),
    )
}

/// Figure 7: the same comparison under asynchronous action selection.
pub fn fig7(job_counts: &[u32], seed: u64) -> Vec<ComparisonRow> {
    let cfg = ExperimentConfig::preliminary().asynchronous();
    job_counts
        .iter()
        .map(|&n| compare(&cfg, &fs_workload(n, seed), n))
        .collect()
}

pub fn fig7_report(job_counts: &[u32], seed: u64) -> String {
    comparison_table(
        "Figure 7: fixed vs flexible workloads (asynchronous)",
        &fig7(job_counts, seed),
    )
}

// ---------------------------------------------------------------------
// Figures 4/5/6/12 — evolution traces
// ---------------------------------------------------------------------

fn evolution(label: &str, cfg: &ExperimentConfig, jobs: &[JobSpec]) -> Evolution {
    let traced = |cfg: &ExperimentConfig| {
        let (result, rec) = recorded(cfg, jobs);
        let (allocation, running, completed, _) = rec.into_parts();
        (result, [allocation, running, completed])
    };
    Evolution {
        label: label.to_string(),
        runs: [traced(&cfg.as_fixed()), traced(cfg)],
    }
}

/// Figure 4: evolution of the 10-job FS workload.
pub fn fig4(seed: u64) -> Evolution {
    evolution(
        "Figure 4: 10-job workload evolution",
        &ExperimentConfig::preliminary(),
        &fs_workload(10, seed),
    )
}

/// Figure 5: evolution of the 25-job FS workload.
pub fn fig5(seed: u64) -> Evolution {
    evolution(
        "Figure 5: 25-job workload evolution",
        &ExperimentConfig::preliminary(),
        &fs_workload(25, seed),
    )
}

/// Figure 6: evolution of the 10-job workload under asynchronous
/// scheduling (the outdated-decision gaps).
pub fn fig6(seed: u64) -> Evolution {
    evolution(
        "Figure 6: 10-job workload, asynchronous scheduling",
        &ExperimentConfig::preliminary().asynchronous(),
        &fs_workload(10, seed),
    )
}

/// Figure 12: evolution of the 50-job production workload.
pub fn fig12(seed: u64) -> Evolution {
    evolution(
        "Figure 12: 50-job production workload evolution",
        &ExperimentConfig::production(),
        &real_workload(50, seed),
    )
}

impl Evolution {
    /// Terminal rendering: allocation and completed-job sparklines for
    /// both runs, over each run's own makespan.
    pub fn render(&self, width: usize) -> String {
        let mut out = format!("{}\n", self.label);
        for (name, (r, series)) in ["fixed", "flexible"].iter().zip(&self.runs) {
            out.push_str(&format!(
                "  {name:8} makespan {:>9.1}s  util {:>5.1}%\n",
                r.summary.makespan_s,
                r.summary.utilization * 100.0
            ));
            for (row, s) in ["alloc nodes", "running", "completed"].iter().zip(series) {
                let line = sparkline(s, r.end_time, width);
                out.push_str(&format!("    {row:11} |{line}|\n"));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Figure 8 — heterogeneous flexible/fixed mixes
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Fig8Row {
    pub flexible_ratio_pct: u32,
    pub makespan_s: f64,
}

/// Figure 8: 100-job FS workloads with 0–100 % flexible jobs.
pub fn fig8(jobs: u32, seed: u64) -> Vec<Fig8Row> {
    let cfg = ExperimentConfig::preliminary();
    [0u32, 25, 50, 75, 100]
        .iter()
        .map(|&ratio| {
            let mut wcfg = WorkloadConfig::fs_preliminary(jobs);
            wcfg.flexible_ratio = ratio as f64 / 100.0;
            let r = run(&cfg, &WorkloadGenerator::new(wcfg, seed).generate());
            Fig8Row {
                flexible_ratio_pct: ratio,
                makespan_s: r.summary.makespan_s,
            }
        })
        .collect()
}

pub fn fig8_report(jobs: u32, seed: u64) -> String {
    let rows = fig8(jobs, seed);
    let base = rows[0].makespan_s;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.flexible_ratio_pct),
                secs(r.makespan_s),
                pct(gain_pct(base, r.makespan_s)),
            ]
        })
        .collect();
    format!(
        "Figure 8: execution time vs rate of flexible jobs ({jobs} jobs)\n{}",
        table(&["flexible", "makespan (s)", "gain vs 0%"], &body)
    )
}

// ---------------------------------------------------------------------
// Figure 9 — checking-inhibitor periods on micro-step workloads
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// `None` = plain flexible (no inhibitor).
    pub period_s: Option<f64>,
    /// Per workload size: (jobs, flexible makespan, gain vs fixed %).
    pub cells: Vec<(u32, f64, f64)>,
}

/// Figure 9: micro-step (≈2 s) FS workloads under inhibitor periods
/// {off, 2, 5, 10, 20} seconds, gains relative to the fixed workload.
pub fn fig9(job_counts: &[u32], seed: u64) -> Vec<Fig9Row> {
    let periods: [Option<f64>; 5] = [None, Some(2.0), Some(5.0), Some(10.0), Some(20.0)];
    // Fixed baselines per size.
    let fixed_cfg = ExperimentConfig::preliminary().as_fixed();
    let baselines: Vec<(u32, f64, Vec<JobSpec>)> = job_counts
        .iter()
        .map(|&n| {
            let jobs = fs_micro_workload(n, seed);
            let fixed = run(&fixed_cfg, &jobs);
            (n, fixed.summary.makespan_s, jobs)
        })
        .collect();
    periods
        .iter()
        .map(|&period| {
            let cfg = ExperimentConfig::preliminary().with_inhibitor(period);
            let cells = baselines
                .iter()
                .map(|(n, fixed_s, jobs)| {
                    let r = run(&cfg, jobs);
                    (
                        *n,
                        r.summary.makespan_s,
                        gain_pct(*fixed_s, r.summary.makespan_s),
                    )
                })
                .collect();
            Fig9Row {
                period_s: period,
                cells,
            }
        })
        .collect()
}

pub fn fig9_report(job_counts: &[u32], seed: u64) -> String {
    let rows = fig9(job_counts, seed);
    let mut headers: Vec<String> = vec!["configuration".into()];
    for n in job_counts {
        headers.push(format!("{n} jobs"));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![match r.period_s {
                None => "Flexible".to_string(),
                Some(p) => format!("Sched {p:.0}"),
            }];
            for (_, makespan, gain) in &r.cells {
                row.push(format!("{} ({})", secs(*makespan), pct(*gain)));
            }
            row
        })
        .collect();
    format!(
        "Figure 9: inhibition periods on micro-step workloads (gain vs fixed)\n{}",
        table(&headers_ref, &body)
    )
}

// ---------------------------------------------------------------------
// Figures 10/11 + Table II — the production use case
// ---------------------------------------------------------------------

/// Shared computation for Figures 10, 11 and Table II.
pub fn production_summaries(job_counts: &[u32], seed: u64) -> Vec<SummaryPair> {
    let cfg = ExperimentConfig::production();
    job_counts
        .iter()
        .map(|&n| {
            let jobs = real_workload(n, seed);
            let (fixed, flexible) = compare_fixed_flexible(&cfg, &jobs).expect(VALID);
            SummaryPair {
                jobs: n,
                fixed: fixed.summary,
                flexible: flexible.summary,
            }
        })
        .collect()
}

pub fn fig10_report(pairs: &[SummaryPair]) -> String {
    let body: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            vec![
                p.jobs.to_string(),
                secs(p.fixed.makespan_s),
                secs(p.flexible.makespan_s),
                pct(gain_pct(p.fixed.makespan_s, p.flexible.makespan_s)),
            ]
        })
        .collect();
    format!(
        "Figure 10: production workload execution times\n{}",
        table(&["jobs", "fixed (s)", "flexible (s)", "gain"], &body)
    )
}

pub fn fig11_report(pairs: &[SummaryPair]) -> String {
    let body: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            vec![
                p.jobs.to_string(),
                secs(p.fixed.avg_waiting_s),
                secs(p.flexible.avg_waiting_s),
                pct(gain_pct(p.fixed.avg_waiting_s, p.flexible.avg_waiting_s)),
            ]
        })
        .collect();
    format!(
        "Figure 11: average job waiting time\n{}",
        table(&["jobs", "fixed (s)", "flexible (s)", "gain"], &body)
    )
}

pub fn table2_report(pairs: &[SummaryPair]) -> String {
    let mut headers: Vec<String> = vec!["measure".into()];
    for p in pairs {
        headers.push(format!("{} fixed", p.jobs));
        headers.push(format!("{} flex", p.jobs));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, f: &dyn Fn(&WorkloadSummary) -> String| {
        let mut r = vec![name.to_string()];
        for p in pairs {
            r.push(f(&p.fixed));
            r.push(f(&p.flexible));
        }
        rows.push(r);
    };
    row("utilization (%)", &|s| {
        format!("{:.2}", s.utilization * 100.0)
    });
    row("avg wait (s)", &|s| secs(s.avg_waiting_s));
    row("avg exec (s)", &|s| secs(s.avg_execution_s));
    row("avg completion (s)", &|s| secs(s.avg_completion_s));
    row("p50 completion (s)", &|s| secs(s.completion_q.p50_s));
    row("p95 completion (s)", &|s| secs(s.completion_q.p95_s));
    row("p99 completion (s)", &|s| secs(s.completion_q.p99_s));
    row("p95 wait (s)", &|s| secs(s.waiting_q.p95_s));
    format!(
        "Table II: summary of measures from all the workloads\n{}",
        table(&headers_ref, &rows)
    )
}

// ---------------------------------------------------------------------
// Histogram view — the tail distributions behind the percentile columns
// ---------------------------------------------------------------------

/// ASCII histograms of the waiting / execution / completion distributions
/// for a fixed-vs-flexible pair of runs on the preliminary FS workload —
/// the `repro --hist` view. The histograms are rebuilt from the outcomes
/// a [`SeriesRecorder`] kept, with the same [`dmr_metrics::LogHistogram`]
/// bins the run's own accumulator uses, so what this prints is exactly
/// what the P50/P95/P99 columns are read from.
pub fn hist_report(jobs: u32, seed: u64) -> String {
    use crate::report::ascii_histogram;
    use dmr_metrics::LogHistogram;

    let workload = fs_workload(jobs, seed);
    let cfg = ExperimentConfig::preliminary();
    type Dim = (&'static str, fn(&dmr_metrics::JobOutcome) -> f64);
    let dims: [Dim; 3] = [
        ("waiting", |o| o.waiting_s()),
        ("execution", |o| o.execution_s()),
        ("completion", |o| o.completion_s()),
    ];
    let mut out = format!("Job-time distributions ({jobs}-job FS workload, seed {seed})\n");
    for (name, cfg) in [("fixed", cfg.as_fixed()), ("flexible", cfg)] {
        let (_, rec) = recorded(&cfg, &workload);
        let outcomes = rec.into_parts().3;
        out.push_str(&format!("\n{name}:\n"));
        for (dim, value) in dims {
            let mut h = LogHistogram::new();
            for o in &outcomes {
                h.record_secs(value(o));
            }
            out.push_str(&format!(" {dim} time (s):\n"));
            out.push_str(&ascii_histogram(&h, 48));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_ratios_in_paper_band() {
        let rows = fig1();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.ratio > 20.0, "{}-{}: ratio {}", r.from, r.to, r.ratio);
        }
        // The paper's ratios grow with the resized process count.
        assert!(rows[0].ratio < rows[2].ratio);
    }

    #[test]
    fn fig3_small_scale_flexible_wins() {
        let rows = fig3(&[10, 25], crate::SEED);
        for r in &rows {
            assert!(r.fixed_s > 0.0 && r.flexible_s > 0.0);
            assert!(
                r.gain_pct > 0.0,
                "{} jobs: gain {} (fixed {}, flex {})",
                r.jobs,
                r.gain_pct,
                r.fixed_s,
                r.flexible_s
            );
        }
    }

    #[test]
    fn table1_lists_all_apps() {
        let t = table1_report();
        for name in ["FS", "CG", "Jacobi", "N-body"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }
}

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

/// One ablation configuration's outcome on the 50-job production mix.
#[derive(Clone, Debug)]
pub struct AblationRow {
    pub name: &'static str,
    pub makespan_s: f64,
    pub avg_wait_s: f64,
    pub utilization: f64,
}

/// Runs the flexible production workload under each ablated
/// configuration. The first row is the fixed baseline; the second the
/// full flexible system; the rest disable one mechanism each.
pub fn ablations(jobs: u32, seed: u64) -> Vec<AblationRow> {
    let workload = real_workload(jobs, seed);
    let base = ExperimentConfig::production();
    let variants: Vec<(&'static str, ExperimentConfig)> = vec![
        ("fixed (rigid)", base.as_fixed()),
        ("flexible (full system)", base),
        ("flexible, backfill off", {
            let mut c = base;
            c.backfill = false;
            c
        }),
        ("flexible, shrink boost off", {
            let mut c = base;
            c.shrink_boost = false;
            c
        }),
        ("flexible, oracle estimates", {
            let mut c = base;
            c.estimate_mode = EstimateMode::Actual;
            c
        }),
        ("flexible, asynchronous", base.asynchronous()),
        ("flexible, inhibitor off", base.with_inhibitor(None)),
        ("flexible, resizer timeout 0s", {
            let mut c = base.asynchronous();
            c.resizer_timeout_s = 0.0;
            c
        }),
    ];
    variants
        .into_iter()
        .map(|(name, cfg)| {
            let r = run(&cfg, &workload);
            AblationRow {
                name,
                makespan_s: r.summary.makespan_s,
                avg_wait_s: r.summary.avg_waiting_s,
                utilization: r.summary.utilization,
            }
        })
        .collect()
}

pub fn ablations_report(jobs: u32, seed: u64) -> String {
    let rows = ablations(jobs, seed);
    let baseline = rows[1].makespan_s;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                secs(r.makespan_s),
                pct(-gain_pct(baseline, r.makespan_s)),
                secs(r.avg_wait_s),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        })
        .collect();
    format!(
        "Ablations ({jobs}-job production mix; delta vs full flexible system)\n{}",
        table(
            &[
                "configuration",
                "makespan (s)",
                "vs flexible",
                "avg wait (s)",
                "util"
            ],
            &body
        )
    )
}
