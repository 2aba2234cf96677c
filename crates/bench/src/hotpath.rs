//! Scheduler hot-path throughput benchmark — the `BENCH_sched.json`
//! trajectory.
//!
//! Drives a synthetic churn workload (a full machine with a deep pending
//! queue, one completion + one submission + one scheduling pass per
//! round, a backfill pass every `bf_interval`-like 30 rounds) through
//! the scheduler once per [`Cell`] of a declarative table
//! ([`cell_table`]): the production path ([`SchedIndex::Arena`]) under
//! each backfill family, on the three-class machine and under node
//! failures, and — on the grid cells where it finishes in reasonable
//! time — the scan reference ([`SchedIndex::ScanReference`]). Cells that
//! differ only in `reference` execute the *identical* operation sequence
//! (the two paths are decision-identical, pinned by
//! `tests/index_equivalence.rs`), so their wall-clock ratio measures the
//! indices and memos alone.
//!
//! The document `repro --bench-json` maintains is **append-only**: every
//! invocation renders one *run* object ([`render_run`]) and splices it
//! into the existing `dmr-bench-sched/v2` document ([`append_run`]),
//! leaving every prior run byte-for-byte intact — the file is a perf
//! trajectory across PRs, not a snapshot. A legacy `dmr-bench-sched/v1`
//! snapshot is migrated verbatim as run 0. Runs committed before the
//! scheduler was cut down to two paths carry `"mode": "indexed"` and
//! `"incremental": "off"` cells, an `incremental_axis` block and an
//! arena-over-indexed speedup in the headline; nothing renders or
//! requires those any more, and the parser still reads them. [`validate_bench_json`] is the
//! schema gate the CI smoke step (and the unit tests) run against the
//! rendered document.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use dmr_cluster::{Cluster, FailOutcome, NodeId};
use dmr_core::MachineMix;
use dmr_sim::{SimTime, Span};
use dmr_slurm::{BackfillFamily, JobId, JobRequest, SchedIndex, Slurm, SlurmConfig};

/// Schema identifier embedded in (and required from) every document.
pub const SCHEMA: &str = "dmr-bench-sched/v2";

/// The previous single-run schema; documents carrying it are migrated
/// verbatim as run 0 of a v2 trajectory by [`append_run`].
pub const SCHEMA_V1: &str = "dmr-bench-sched/v1";

const DOC_PREFIX: &str = "{\"schema\": \"dmr-bench-sched/v2\",\n\"runs\": [\n";
/// Every document ends with these bytes, so appending a run is a pure
/// splice: strip the suffix, add `",\n" + run`, restore the suffix —
/// prior runs stay byte-identical (the CI trajectory invariant).
const DOC_SUFFIX: &str = "\n]}\n";

/// What one measurement runs: a grid cell and one setting per axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    pub nodes: u32,
    /// Pending jobs queued before the first round.
    pub depth: u32,
    /// The scan reference instead of the production path.
    pub reference: bool,
    pub family: BackfillFamily,
    /// The same churn on a three-class [`MachineMix::Hetero3`] cluster,
    /// driving the per-class free sets and class splits on every start. The
    /// churn jobs stay class-unconstrained, so the pass-elision memos
    /// keep firing and the measured contrast is the per-class
    /// bookkeeping alone.
    pub hetero: bool,
    /// A deterministic node failure every 10th round (kill-and-requeue
    /// when the node was serving a job) repaired five rounds later, so
    /// at most one node is down at a time and capacity recovers.
    pub faulty: bool,
}

impl Cell {
    /// The cell every axis is read against: the production path, EASY-1
    /// (the paper's configuration), uniform machine, no faults.
    pub fn base(nodes: u32, depth: u32) -> Cell {
        Cell {
            nodes,
            depth,
            reference: false,
            family: BackfillFamily::easy(1),
            hetero: false,
            faulty: false,
        }
    }

    /// `"arena"` or `"scan"` — the `mode` key of a rendered cell.
    pub fn mode(&self) -> &'static str {
        if self.reference {
            "scan"
        } else {
            "arena"
        }
    }

    /// `"uniform"` or `"hetero3"` — the `machine` key.
    pub fn machine(&self) -> &'static str {
        if self.hetero {
            "hetero3"
        } else {
            "uniform"
        }
    }

    /// `"off"` or `"on"` — the `faults` key.
    pub fn faults(&self) -> &'static str {
        if self.faulty {
            "on"
        } else {
            "off"
        }
    }
}

/// One measured [`Cell`].
#[derive(Clone, Debug)]
pub struct CellResult {
    pub cell: Cell,
    pub rounds: u32,
    /// Scheduling events processed: submissions + completions + passes +
    /// job starts.
    pub events: u64,
    pub jobs_started: u64,
    pub peak_queue_depth: u64,
    /// Scheduling + backfill passes that executed / that returned via the
    /// O(1) elision path — reported per cell so the memos' win is
    /// attributable, not inferred (the reference never elides).
    pub passes_run: u64,
    pub passes_elided: u64,
    pub elapsed_s: f64,
}

impl CellResult {
    pub fn events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.elapsed_s)
    }

    pub fn jobs_per_sec(&self) -> f64 {
        ratio(self.jobs_started as f64, self.elapsed_s)
    }

    /// Fraction of passes answered by the O(1) elision path.
    pub fn elision_rate(&self) -> f64 {
        ratio(
            self.passes_elided as f64,
            (self.passes_run + self.passes_elided) as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The benchmark grid: `(cluster nodes, pending queue depth)` cells,
/// ending with the headline 65,536-node / 100k-deep scenario.
pub fn grid(smoke: bool) -> Vec<(u32, u32)> {
    if smoke {
        vec![(64, 100), (65_536, 100_000)]
    } else {
        vec![
            (64, 100),
            (256, 1_000),
            (1024, 4_000),
            (4096, 1_000),
            (4096, 10_000),
            (16_384, 40_000),
            (65_536, 100_000),
        ]
    }
}

/// Everything a run measures, one group per [`grid`] cell (a group is
/// what one best-of-N measurement interleaves). Every group opens with
/// its [`Cell::base`]. The 4096×10k mid-scale cell and the 65,536×100k
/// headline cell (smoke: the headline cell only) carry the axes: the
/// machine and fault twins *adjacent* to the base cell — their gates are
/// ratios against it, and back-to-back measurements compare better than
/// the two ends of a sweep — then the deeper backfill families. The scan
/// reference recomputes every pending priority per pass — O(queue) work
/// per round — so it runs up to 4096×10k and not beyond.
pub fn cell_table(smoke: bool) -> Vec<Vec<Cell>> {
    let mut table = Vec::new();
    for (nodes, depth) in grid(smoke) {
        let base = Cell::base(nodes, depth);
        let with_axes =
            (nodes, depth) == (65_536, 100_000) || (!smoke && (nodes, depth) == (4096, 10_000));
        let mut group = vec![base];
        if with_axes {
            group.push(Cell {
                hetero: true,
                ..base
            });
            group.push(Cell {
                faulty: true,
                ..base
            });
        }
        if nodes <= 4096 && depth <= 10_000 {
            group.push(Cell {
                reference: true,
                ..base
            });
        }
        if with_axes {
            group.extend(
                [
                    BackfillFamily::easy(8),
                    BackfillFamily::easy(64),
                    BackfillFamily::Conservative,
                ]
                .map(|family| Cell { family, ..base }),
            );
        }
        table.push(group);
    }
    table
}

/// Rounds of churn per cell. The smoke count is chosen so the headline
/// cell's timed section is long enough (≥ tens of milliseconds) for the
/// within-run ratios to be stable: at 30 rounds a sample sat under 10 ms
/// and run-to-run noise alone swung a gate across its bar.
pub fn rounds(smoke: bool) -> u32 {
    if smoke {
        150
    } else {
        300
    }
}

/// Runs one cell.
///
/// The churn loop mirrors the driver's steady state: the machine starts
/// full (one running job per 64th of the cluster), the queue starts
/// `depth` deep with mixed widths, and every round completes the oldest
/// running job, submits a replacement, and runs the event-driven
/// scheduling pass; every 30th round runs the periodic backfill pass
/// (Slurm's `bf_interval` at one round per second).
pub fn run_cell(cell: &Cell, rounds: u32) -> CellResult {
    let Cell { nodes, depth, .. } = *cell;
    let mut cfg = SlurmConfig::for_cluster(nodes);
    if cell.reference {
        cfg.sched_index = SchedIndex::ScanReference;
    }
    cfg.backfill_family = cell.family;
    // Steady-state churn would grow the terminal-record table without
    // bound; the streaming driver prunes it, so the bench does too.
    cfg.retain_completed = false;
    let cluster = if cell.hetero {
        Cluster::with_classes(MachineMix::Hetero3.table(nodes, 16))
    } else {
        Cluster::new(nodes, 16)
    };
    let mut s = Slurm::new(cluster, cfg);

    let width = (nodes / 64).max(1);
    let mut running: VecDeque<_> = VecDeque::new();
    for i in 0..nodes / width {
        s.submit(
            JobRequest::rigid(format!("run{i}"), width)
                .with_expected_runtime(Span::from_secs(600 + (u64::from(i) * 37) % 600)),
            SimTime::ZERO,
        );
    }
    for start in s.schedule(SimTime::ZERO) {
        running.push_back(start.id);
    }
    for i in 0..depth {
        s.submit(
            JobRequest::rigid(format!("pend{i}"), 1 + (i * 7) % (width * 4))
                .with_expected_runtime(Span::from_secs(120 + (u64::from(i) * 13) % 900)),
            SimTime::from_secs(1 + u64::from(i) % 100),
        );
    }

    let mut events: u64 = 0;
    let mut jobs_started: u64 = 0;
    let mut pending = u64::from(depth);
    let mut peak = pending;
    let mut down: VecDeque<NodeId> = VecDeque::new();
    let t0 = Instant::now();
    for r in 0..rounds {
        let now = SimTime::from_secs(1000 + u64::from(r));
        if let Some(id) = running.pop_front() {
            s.complete(id, now);
            events += 1;
        }
        if cell.faulty && r % 10 == 3 {
            // Deterministic victim walk; most hits land on busy nodes
            // (the machine runs full), exercising kill-and-requeue.
            let node = NodeId((r / 10 * 17 + 1) % nodes);
            let outcome = s.fail_node(node);
            if let FailOutcome::Busy(owner) = outcome {
                let victim = JobId(owner);
                running.retain(|&id| id != victim);
                if s.requeue_failed(victim, now).is_some() {
                    pending += 1;
                }
            }
            if outcome != FailOutcome::Skipped {
                down.push_back(node);
                events += 1;
            }
        }
        if cell.faulty && r % 10 == 8 {
            if let Some(node) = down.pop_front() {
                s.repair_node(node);
                events += 1;
            }
        }
        let i = depth + r;
        s.submit(
            JobRequest::rigid(format!("churn{r}"), 1 + (i * 7) % (width * 4))
                .with_expected_runtime(Span::from_secs(120 + (u64::from(i) * 13) % 900)),
            now,
        );
        pending += 1;
        events += 2; // the submission and the scheduling pass itself
        let mut started = s.schedule(now);
        if r % 30 == 29 {
            events += 1;
            started.extend(s.backfill_pass(now));
        }
        for start in started {
            running.push_back(start.id);
            jobs_started += 1;
            pending -= 1;
            events += 1;
        }
        peak = peak.max(pending);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let stats = s.incremental_stats();

    CellResult {
        cell: *cell,
        rounds,
        events,
        jobs_started,
        peak_queue_depth: peak,
        passes_run: stats.sched_passes_run + stats.backfill_passes_run,
        passes_elided: stats.sched_passes_elided + stats.backfill_passes_elided,
        elapsed_s,
    }
}

/// Measurement repeats per cell; the fastest repeat is kept. The timed
/// churn sections are tens of milliseconds, short enough that
/// scheduler-interference noise alone used to swing the CI gates across
/// their bars — and interference is one-sided (contention only ever
/// slows a run down), so best-of-N converges on the machine's true rate.
pub const REPEATS: u32 = 5;

/// Measures every cell of one group, *rep-major*: each repeat sweeps
/// all cells once before any cell repeats. Every within-run gate is a
/// ratio between cells of the same group (conservative/easy1,
/// hetero/uniform, faulty/calm); a cell-major order would let a burst
/// of machine interference land entirely on one side of a ratio and
/// swing the gate, while interleaving spreads any burst across all
/// sides. Each repeat also *rotates* its starting cell: slow-changing
/// bias (frequency scaling, a neighbour spinning up) penalises whatever
/// runs late in a sweep, and without rotation the same cell sits in the
/// same slot every repeat — a bias best-of-N can never average away,
/// which showed up as the last-listed hetero cell reading 15-25% slow
/// against its uniform twin measured first. The fastest repeat per cell
/// is kept.
fn best_cells(group: &[Cell], rounds: u32) -> Vec<CellResult> {
    let mut best: Vec<Option<CellResult>> = group.iter().map(|_| None).collect();
    for rep in 0..REPEATS as usize {
        for k in 0..group.len() {
            let idx = (k + rep) % group.len();
            let next = run_cell(&group[idx], rounds);
            match &mut best[idx] {
                Some(b) => {
                    debug_assert_eq!(next.events, b.events, "repeats diverged");
                    if next.elapsed_s < b.elapsed_s {
                        *b = next;
                    }
                }
                None => best[idx] = Some(next),
            }
        }
    }
    best.into_iter().flatten().collect()
}

/// Runs the whole [`cell_table`], reporting progress through `progress`
/// (one line per finished cell; `repro` points this at stderr).
pub fn run_grid(smoke: bool, mut progress: impl FnMut(&CellResult)) -> Vec<CellResult> {
    let mut out = Vec::new();
    for group in cell_table(smoke) {
        for cell in best_cells(&group, rounds(smoke)) {
            progress(&cell);
            out.push(cell);
        }
    }
    out
}

/// Full-precision JSON number. The old `{v:.3}` rendering truncated
/// sub-millisecond `elapsed_s` values to `0.000`, destroying every
/// derived rate for fast cells; Rust's shortest-roundtrip `Display` for
/// `f64` never uses an exponent, so the output is a valid JSON number
/// that parses back to the identical bits.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The within-run axes: block name, the base cell's name on that axis,
/// the axis cell's name, and what picks the axis cell. A block renders
/// as `"<block>": {.., "<base>_events_per_sec", "<axis>_events_per_sec",
/// "<axis>_vs_<base>"}`; `repro` gates the ratios (conservative against
/// its own history instead, hetero3 ≥ 0.8, faulty ≥ 0.7).
type Axis = (&'static str, &'static str, &'static str, fn(&Cell) -> bool);
const AXES: [Axis; 3] = [
    ("backfill_axis", "easy1", "conservative", |c| {
        c.family == BackfillFamily::Conservative
    }),
    ("hetero_axis", "uniform", "hetero", |c| c.hetero),
    ("fault_axis", "calm", "faulty", |c| c.faulty),
];

/// The last production cell `pick` selects and the base cell of the same
/// grid cell — the two sides of an axis ratio. `None` when the run
/// measured no such pair.
fn axis_pair(
    cells: &[CellResult],
    pick: impl Fn(&Cell) -> bool,
) -> Option<(&CellResult, &CellResult)> {
    let axis = cells
        .iter()
        .rev()
        .find(|c| !c.cell.reference && pick(&c.cell))?;
    let base = Cell::base(axis.cell.nodes, axis.cell.depth);
    Some((axis, cells.iter().find(|c| c.cell == base)?))
}

/// Renders one grid run as a v2 *run* object (the element
/// [`append_run`] splices into the trajectory document).
///
/// The headline block is the base cell of the last grid cell (the
/// 65,536-node / 100k-pending scenario) — the events-per-second figure
/// `repro`'s cross-run gate reads through [`run_cell_lookup`] — with
/// the fraction of its passes the memos elided. Every cell carries
/// `"incremental": "on"`: committed runs hold `"off"` twins, and one
/// format lets [`run_cell_lookup`] tell them apart in old and new runs
/// alike.
pub fn render_run(cells: &[CellResult], smoke: bool, label: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"label\": \"{}\",", label.replace('"', "'"));
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"nodes\": {}, \"queue_depth\": {}, \"mode\": \"{}\", \"backfill\": \"{}\", \
             \"incremental\": \"on\", \"machine\": \"{}\", \"faults\": \"{}\", \"rounds\": {}, \
             \"events\": {}, \"jobs_started\": {}, \"peak_queue_depth\": {}, \
             \"passes_run\": {}, \"passes_elided\": {}, \
             \"elapsed_s\": {}, \"events_per_sec\": {}, \"jobs_per_sec\": {}}}",
            c.cell.nodes,
            c.cell.depth,
            c.cell.mode(),
            c.cell.family.label(),
            c.cell.machine(),
            c.cell.faults(),
            c.rounds,
            c.events,
            c.jobs_started,
            c.peak_queue_depth,
            c.passes_run,
            c.passes_elided,
            json_f64(c.elapsed_s),
            json_f64(c.events_per_sec()),
            json_f64(c.jobs_per_sec()),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let is_base = |c: &&CellResult| c.cell == Cell::base(c.cell.nodes, c.cell.depth);
    let (nodes, depth, eps, elided) =
        cells
            .iter()
            .rev()
            .find(is_base)
            .map_or((0, 0, 0.0, 0.0), |c| {
                (
                    c.cell.nodes,
                    c.cell.depth,
                    c.events_per_sec(),
                    c.elision_rate(),
                )
            });
    let _ = write!(
        out,
        "  \"headline\": {{\"nodes\": {nodes}, \"queue_depth\": {depth}, \
         \"arena_events_per_sec\": {}, \"elision_rate\": {}}}",
        json_f64(eps),
        json_f64(elided),
    );
    for (block, base_name, axis_name, pick) in AXES {
        if let Some((axis, base)) = axis_pair(cells, pick) {
            let _ = write!(
                out,
                ",\n  \"{block}\": {{\"nodes\": {}, \"queue_depth\": {}, \
                 \"{base_name}_events_per_sec\": {}, \"{axis_name}_events_per_sec\": {}, \
                 \"{axis_name}_vs_{base_name}\": {}}}",
                axis.cell.nodes,
                axis.cell.depth,
                json_f64(base.events_per_sec()),
                json_f64(axis.events_per_sec()),
                json_f64(ratio(axis.events_per_sec(), base.events_per_sec())),
            );
        }
    }
    out.push_str("\n}");
    out
}

/// Splices `run` (a [`render_run`] object) into `existing`, returning
/// the new document:
///
/// * no existing document → a fresh v2 document with one run;
/// * an existing v1 snapshot → migrated **byte-verbatim** as run 0, the
///   new run appended after it;
/// * an existing v2 trajectory → the new run appended; every byte before
///   the document suffix is preserved exactly.
pub fn append_run(existing: Option<&str>, run: &str) -> Result<String, String> {
    let base = match existing.map(str::trim_end) {
        None | Some("") => return Ok(format!("{DOC_PREFIX}{run}{DOC_SUFFIX}")),
        Some(_) => {
            let doc = existing.expect("checked above");
            // The v2-trajectory test must come first: a trajectory that
            // *contains* a migrated v1 run as run 0 still carries the v1
            // schema marker in its bytes, and treating it as a legacy
            // snapshot would re-wrap the whole document on every append.
            if doc.starts_with(DOC_PREFIX) {
                let Some(stripped) = doc.strip_suffix(DOC_SUFFIX) else {
                    return Err("existing document has an unrecognised suffix".into());
                };
                return Ok(format!("{stripped},\n{run}{DOC_SUFFIX}"));
            } else if doc.contains(SCHEMA_V1) {
                // Legacy single-run snapshot: the whole object becomes
                // run 0, its bytes untouched.
                doc.trim_end().to_string()
            } else {
                return Err("existing document is not a v2 trajectory".into());
            }
        }
    };
    Ok(format!("{DOC_PREFIX}{base},\n{run}{DOC_SUFFIX}"))
}

/// Number of runs in a rendered document (label count; the migrated v1
/// run carries no label, so it is counted via its v1 schema marker).
pub fn run_count(doc: &str) -> usize {
    doc.matches("\"label\"").count() + doc.matches(SCHEMA_V1).count()
}

/// The **last** occurrence of `"key": <number>` in a rendered document.
/// The axis blocks and the headline are rendered once per run, so this
/// reads the last run that carried the key.
fn last_number(doc: &str, key: &str) -> Option<f64> {
    let (_, rest) = doc.rsplit_once(&format!("\"{key}\": "))?;
    rest.split(['}', ','])
        .next()
        .and_then(|v| v.trim().parse::<f64>().ok())
}

/// The last `backfill_axis.conservative_vs_easy1` ratio. `None` when no
/// run carried the backfill-depth axis (every pre-axis document).
pub fn backfill_ratio(doc: &str) -> Option<f64> {
    last_number(doc, "conservative_vs_easy1")
}

/// The last `hetero_axis.hetero_vs_uniform` ratio — the
/// heterogeneous-machine acceptance gate (per-class free sets and
/// timelines must keep the production path within 0.8x of the uniform
/// cell).
pub fn hetero_ratio(doc: &str) -> Option<f64> {
    last_number(doc, "hetero_vs_uniform")
}

/// The last `fault_axis.faulty_vs_calm` ratio — the fault-injection
/// acceptance gate (kill-and-requeue plus repair churn must keep the
/// production path within 0.7x of the calm cell).
pub fn fault_ratio(doc: &str) -> Option<f64> {
    last_number(doc, "faulty_vs_calm")
}

/// The last `elision_rate` — the fraction of headline-cell passes the
/// memos answered in O(1) (in the `headline` block; in the
/// `incremental_axis` block of runs that still measured an on/off pair).
pub fn elision_rate(doc: &str) -> Option<f64> {
    last_number(doc, "elision_rate")
}

/// One cell parsed back out of a trajectory document — the cross-run
/// comparison view `repro`'s regression gates read.
///
/// Cells from pre-axis runs carry defaults for the keys their renderer
/// predates (`backfill` → `"easy1"`, `incremental` → `"on"`), and the
/// lossy v1 `{:.3}` rendering is repaired on parse: a stored
/// `"elapsed_s": 0.000` next to a non-zero `events_per_sec` becomes
/// `events / events_per_sec`, so cross-run reports never divide by zero.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryCell {
    pub nodes: u32,
    pub queue_depth: u32,
    pub mode: String,
    pub backfill: String,
    pub incremental: String,
    /// Machine axis (`"uniform"` / `"hetero3"`); pre-hetero cells carry
    /// the `"uniform"` default.
    pub machine: String,
    /// Fault axis (`"off"` / `"on"`); pre-fault cells carry the `"off"`
    /// default.
    pub faults: String,
    pub events: u64,
    /// Wall-clock seconds, repaired from `events / events_per_sec` when
    /// the stored value is the lossy v1 zero.
    pub elapsed_s: f64,
    pub events_per_sec: f64,
}

/// The byte range of the run labelled `label` in a trajectory document:
/// from its `"label"` line to the next run's (or the document's end).
/// The migrated v1 run carries no label and is addressed as `"v1"`.
pub fn run_fragment<'a>(doc: &'a str, label: &'a str) -> Option<&'a str> {
    if label == "v1" {
        let start = doc.find(SCHEMA_V1)?;
        let end = doc[start..]
            .find("\"label\"")
            .map_or(doc.len(), |i| start + i);
        return Some(&doc[start..end]);
    }
    let pat = format!("\"label\": \"{label}\"");
    let start = doc.find(&pat)?;
    let rest = &doc[start + pat.len()..];
    let end = rest.find("\"label\"").map_or(rest.len(), |i| i);
    Some(&rest[..end])
}

/// Label of the last full (non-smoke) run in a trajectory document —
/// the baseline of the cross-run gates that compare a family against its
/// own committed history rather than against another family.
pub fn last_full_run(doc: &str) -> Option<&str> {
    doc.split("\"label\": \"")
        .skip(1)
        .filter_map(|run| {
            let (label, rest) = run.split_once('"')?;
            let (_, smoke) = rest.split_once("\"smoke\": ")?;
            smoke.starts_with("false").then_some(label)
        })
        .last()
}

fn cell_value<'a>(cell: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let (_, rest) = cell.split_once(&pat)?;
    rest.split([',', '}'])
        .next()
        .map(|v| v.trim().trim_matches('"'))
}

/// Parses every measurement cell in a document fragment (typically one
/// [`run_fragment`]), applying the pre-axis defaults and the v1
/// zero-elapsed repair described on [`TrajectoryCell`]. Headline/axis
/// objects are skipped (they carry no `mode`).
pub fn trajectory_cells(fragment: &str) -> Vec<TrajectoryCell> {
    let mut out = Vec::new();
    for piece in fragment.split("{\"nodes\": ").skip(1) {
        let cell = piece.split('}').next().unwrap_or("");
        let Some(mode) = cell_value(cell, "mode") else {
            continue;
        };
        let (Some(depth), Some(events), Some(elapsed), Some(eps)) = (
            cell_value(cell, "queue_depth").and_then(|v| v.parse::<u32>().ok()),
            cell_value(cell, "events").and_then(|v| v.parse::<u64>().ok()),
            cell_value(cell, "elapsed_s").and_then(|v| v.parse::<f64>().ok()),
            cell_value(cell, "events_per_sec").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        let nodes = piece
            .split([',', '}'])
            .next()
            .and_then(|v| v.trim().parse::<u32>().ok());
        let Some(nodes) = nodes else { continue };
        let elapsed_s = if elapsed == 0.0 && eps > 0.0 {
            events as f64 / eps
        } else {
            elapsed
        };
        out.push(TrajectoryCell {
            nodes,
            queue_depth: depth,
            mode: mode.to_string(),
            backfill: cell_value(cell, "backfill").unwrap_or("easy1").to_string(),
            incremental: cell_value(cell, "incremental").unwrap_or("on").to_string(),
            machine: cell_value(cell, "machine").unwrap_or("uniform").to_string(),
            faults: cell_value(cell, "faults").unwrap_or("off").to_string(),
            events,
            elapsed_s,
            events_per_sec: eps,
        });
    }
    out
}

/// Looks up one production-side cell of one labelled run (uniform
/// machine, no faults, `"incremental": "on"`) — the cross-run regression
/// gates' accessor: `repro` compares the fresh headline cell against the
/// same cell of a named prior run.
pub fn run_cell_lookup(
    doc: &str,
    label: &str,
    nodes: u32,
    depth: u32,
    mode: &str,
    backfill: &str,
) -> Option<TrajectoryCell> {
    trajectory_cells(run_fragment(doc, label)?)
        .into_iter()
        .find(|c| {
            c.nodes == nodes
                && c.queue_depth == depth
                && c.mode == mode
                && c.backfill == backfill
                && c.incremental == "on"
                && c.machine == "uniform"
                && c.faults == "off"
        })
}

/// Structural schema gate for a rendered document: required keys present,
/// braces balanced, every ratio a run carries a number in range.
/// Deliberately minimal — it guards the CI artifact against shape
/// regressions, not against perf regressions (those need comparable
/// hardware).
pub fn validate_bench_json(doc: &str) -> Result<(), String> {
    for key in [
        "\"schema\"",
        "\"runs\"",
        "\"label\"",
        "\"smoke\"",
        "\"cells\"",
        "\"headline\"",
        "\"events_per_sec\"",
        "\"jobs_per_sec\"",
        "\"peak_queue_depth\"",
    ] {
        if !doc.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !doc.starts_with(DOC_PREFIX) {
        return Err(format!("document does not open a {SCHEMA} trajectory"));
    }
    let opens = doc.matches('{').count();
    let closes = doc.matches('}').count();
    if opens != closes {
        return Err(format!("unbalanced braces: {opens} vs {closes}"));
    }
    // Every axis is optional (older runs lack it) but must be well-formed
    // where present; so must the elision rate.
    for (block, base_name, axis_name, _) in AXES {
        if doc.contains(&format!("\"{block}\"")) {
            let key = format!("{axis_name}_vs_{base_name}");
            let ratio = last_number(doc, &key).ok_or(format!("{key} is not a number"))?;
            if !ratio.is_finite() || ratio < 0.0 {
                return Err(format!("{key} {ratio} out of range"));
            }
        }
    }
    if doc.contains("\"elision_rate\"") {
        let rate = elision_rate(doc).ok_or("elision_rate is not a number")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("elision_rate {rate} out of range"));
        }
    }
    Ok(())
}

/// Runs the grid and renders one run object — what `repro --bench-json`
/// splices into `BENCH_sched.json` via [`append_run`].
pub fn bench_run(smoke: bool, label: &str, progress: impl FnMut(&CellResult)) -> String {
    render_run(&run_grid(smoke, progress), smoke, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Cell = Cell {
        nodes: 16,
        depth: 20,
        reference: false,
        family: BackfillFamily::Easy { reservations: 1 },
        hetero: false,
        faulty: false,
    };

    /// The tiny cell on the production path and on the scan reference.
    fn tiny_cells() -> [CellResult; 2] {
        [false, true].map(|reference| run_cell(&Cell { reference, ..TINY }, 5))
    }

    fn tiny_doc() -> String {
        append_run(None, &render_run(&tiny_cells(), true, "t0")).unwrap()
    }

    /// A run as committed before the scheduler was cut down to two paths:
    /// `indexed` and `"incremental": "off"` cells, the indexed rate in the
    /// headline and an `incremental_axis` block.
    const OLD_RUN: &str = "{\n  \"label\": \"old\",\n  \"smoke\": false,\n  \"cells\": [\n    \
        {\"nodes\": 16, \"queue_depth\": 20, \"mode\": \"arena\", \"backfill\": \"conservative\", \
        \"incremental\": \"off\", \"machine\": \"uniform\", \"faults\": \"off\", \"rounds\": 5, \
        \"events\": 20, \"jobs_started\": 5, \"peak_queue_depth\": 21, \"passes_run\": 5, \
        \"passes_elided\": 0, \"elapsed_s\": 0.002, \"events_per_sec\": 10000, \"jobs_per_sec\": 2500},\n    \
        {\"nodes\": 16, \"queue_depth\": 20, \"mode\": \"arena\", \"backfill\": \"conservative\", \
        \"incremental\": \"on\", \"machine\": \"uniform\", \"faults\": \"off\", \"rounds\": 5, \
        \"events\": 20, \"jobs_started\": 5, \"peak_queue_depth\": 21, \"passes_run\": 4, \
        \"passes_elided\": 1, \"elapsed_s\": 0.001, \"events_per_sec\": 20000, \"jobs_per_sec\": 5000},\n    \
        {\"nodes\": 16, \"queue_depth\": 20, \"mode\": \"indexed\", \"backfill\": \"easy1\", \
        \"incremental\": \"on\", \"machine\": \"uniform\", \"faults\": \"off\", \"rounds\": 5, \
        \"events\": 20, \"jobs_started\": 5, \"peak_queue_depth\": 21, \"passes_run\": 4, \
        \"passes_elided\": 1, \"elapsed_s\": 0.004, \"events_per_sec\": 5000, \"jobs_per_sec\": 1250}\n  ],\n  \
        \"headline\": {\"nodes\": 16, \"queue_depth\": 20, \"arena_events_per_sec\": 20000, \
        \"indexed_events_per_sec\": 5000},\n  \
        \"incremental_axis\": {\"nodes\": 16, \"queue_depth\": 20, \"conservative_on_vs_off\": 2, \
        \"conservative_vs_easy1\": 0.9, \"elision_rate\": 0.2}\n}";

    #[test]
    fn last_full_run_skips_smoke_runs() {
        let cells = tiny_cells();
        let doc = append_run(None, &render_run(&cells, true, "s0")).unwrap();
        assert_eq!(last_full_run(&doc), None);
        let doc = append_run(Some(&doc), &render_run(&cells, false, "f1")).unwrap();
        let doc = append_run(Some(&doc), &render_run(&cells, false, "f2")).unwrap();
        let doc = append_run(Some(&doc), &render_run(&cells, true, "s3")).unwrap();
        assert_eq!(last_full_run(&doc), Some("f2"));
    }

    #[test]
    fn identical_operation_sequences_on_both_paths() {
        let [arena, scan] = tiny_cells();
        assert_eq!(arena.events, scan.events);
        assert_eq!(arena.jobs_started, scan.jobs_started);
        assert_eq!(arena.peak_queue_depth, scan.peak_queue_depth);
        assert_eq!(scan.passes_elided, 0, "the reference never elides");
        assert!(scan.passes_run > 0);
    }

    #[test]
    fn rendered_document_validates() {
        let doc = tiny_doc();
        validate_bench_json(&doc).unwrap();
        assert!(doc.contains("\"mode\": \"arena\""));
        assert!(doc.contains("\"mode\": \"scan\""));
        assert!(doc.contains("\"incremental\": \"on\""));
        assert_eq!(run_count(&doc), 1);
        // The headline block carries the elision rate, and nothing
        // renders the retired keys.
        let (_, headline) = doc.rsplit_once("\"headline\"").unwrap();
        assert!(headline.contains("\"elision_rate\""));
        assert!((0.0..=1.0).contains(&elision_rate(&doc).unwrap()));
        for retired in ["indexed", "incremental_axis", "\"incremental\": \"off\""] {
            assert!(!doc.contains(retired), "{retired}");
        }
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let doc = tiny_doc();
        assert!(validate_bench_json(&doc.replace("headline", "nope")).is_err());
        assert!(
            validate_bench_json(&doc.replace("\"elision_rate\": ", "\"elision_rate\": x")).is_err()
        );
        assert!(
            validate_bench_json(&doc[..doc.len() - 3]).is_err(),
            "unbalanced"
        );
        assert!(validate_bench_json("{}").is_err());
    }

    #[test]
    fn append_preserves_prior_runs_byte_for_byte() {
        let cells = tiny_cells();
        let doc1 = append_run(None, &render_run(&cells, true, "t0")).unwrap();
        let doc2 = append_run(Some(&doc1), &render_run(&cells, true, "t1")).unwrap();
        let kept = doc1.len() - DOC_SUFFIX.len();
        assert_eq!(&doc2[..kept], &doc1[..kept], "prior bytes rewritten");
        assert_eq!(run_count(&doc2), 2);
        validate_bench_json(&doc2).unwrap();
    }

    #[test]
    fn runs_from_before_the_two_path_scheduler_still_read() {
        // Old run first, fresh run appended: the document validates, the
        // old bytes survive, and the lookup never hands a cross-run gate
        // the `"incremental": "off"` twin that comes first in the old run.
        let old = append_run(None, OLD_RUN).unwrap();
        validate_bench_json(&old).unwrap();
        let doc = append_run(Some(&old), &render_run(&tiny_cells(), true, "new")).unwrap();
        validate_bench_json(&doc).unwrap();
        assert!(doc.contains(OLD_RUN));
        let cons = run_cell_lookup(&doc, "old", 16, 20, "arena", "conservative").unwrap();
        assert_eq!(
            (cons.incremental.as_str(), cons.events_per_sec),
            ("on", 20000.0)
        );
        assert!(run_cell_lookup(&doc, "old", 16, 20, "indexed", "easy1").is_some());
        assert!(run_cell_lookup(&doc, "new", 16, 20, "arena", "easy1").is_some());
        // The scrapers read the last run that carried a key: the fresh
        // headline's elision rate, the old run's conservative ratio.
        assert_ne!(elision_rate(&doc), Some(0.2));
        assert_eq!(backfill_ratio(&doc), Some(0.9));
    }

    #[test]
    fn committed_trajectory_validates() {
        let doc = include_str!("../../../BENCH_sched.json");
        validate_bench_json(doc).unwrap();
        // Its conservative gate baseline is an elided-pass cell, not the
        // from-scratch twin recorded beside it.
        let label = last_full_run(doc).expect("a committed full run");
        let cons = run_cell_lookup(doc, label, 65_536, 100_000, "arena", "conservative").unwrap();
        assert_eq!(cons.incremental, "on");
        assert!(run_cell_lookup(
            doc,
            "pr7-slotset-backfill",
            65_536,
            100_000,
            "arena",
            "easy1"
        )
        .is_some());
    }

    #[test]
    fn append_over_a_migrated_v1_run_does_not_rewrap() {
        // A trajectory that carries the migrated v1 snapshot as run 0
        // still contains the v1 schema marker; appending to it must take
        // the v2 path (extend before the suffix), not wrap the whole
        // document as a new run 0 again.
        let v1 = "{\n  \"schema\": \"dmr-bench-sched/v1\",\n  \"smoke\": false,\n  \
                  \"cells\": [],\n  \"headline\": {\"speedup_vs_scan\": 11.274}\n}\n";
        let doc1 = append_run(Some(v1), &render_run(&tiny_cells(), true, "t1")).unwrap();
        let doc2 = append_run(Some(&doc1), &render_run(&tiny_cells(), true, "t2")).unwrap();
        let kept = doc1.len() - DOC_SUFFIX.len();
        assert_eq!(&doc2[..kept], &doc1[..kept], "prior bytes rewritten");
        assert_eq!(
            doc2.matches(DOC_PREFIX).count(),
            1,
            "document wrapped twice"
        );
        assert_eq!(run_count(&doc2), 3);
        validate_bench_json(&doc2).unwrap();
    }

    #[test]
    fn v1_snapshot_migrates_verbatim_as_run_zero() {
        let v1 = "{\n  \"schema\": \"dmr-bench-sched/v1\",\n  \"smoke\": false,\n  \
                  \"cells\": [],\n  \"headline\": {\"speedup_vs_scan\": 11.274}\n}\n";
        let doc = append_run(Some(v1), &render_run(&tiny_cells(), true, "t1")).unwrap();
        assert!(
            doc.contains(v1.trim_end()),
            "v1 bytes must survive untouched"
        );
        assert_eq!(run_count(&doc), 2);
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn elapsed_is_rendered_at_full_precision() {
        // The v1 renderer printed `{v:.3}`, flattening fast cells to
        // `"elapsed_s": 0.000` and zeroing every derived rate.
        assert_eq!(json_f64(0.000123456789), "0.000123456789");
        assert_eq!(json_f64(39645.391), "39645.391");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    #[test]
    fn table_ends_with_the_headline_group() {
        for smoke in [true, false] {
            let table = cell_table(smoke);
            assert_eq!(table.len(), grid(smoke).len());
            for (group, (nodes, depth)) in table.iter().zip(grid(smoke)) {
                assert_eq!(group[0], Cell::base(nodes, depth));
                assert!(group.iter().all(|c| (c.nodes, c.depth) == (nodes, depth)));
            }
            // The headline group measures every axis against its base
            // cell, twins adjacent, and no scan cell at that scale.
            let last = table.last().unwrap();
            assert_eq!(last[0], Cell::base(65_536, 100_000));
            assert!(last[1].hetero && last[2].faulty);
            let families: Vec<_> = last.iter().map(|c| c.family.label()).collect();
            assert_eq!(
                families,
                ["easy1", "easy1", "easy1", "easy8", "easy64", "conservative"]
            );
            assert!(last.iter().all(|c| !c.reference));
            assert!(table[0].iter().any(|c| c.reference));
        }
        let axes = |smoke| cell_table(smoke).iter().filter(|g| g.len() > 2).count();
        assert_eq!((axes(true), axes(false)), (1, 2));
    }

    #[test]
    fn every_axis_lands_in_the_rendered_run() {
        let mut cells = tiny_cells().to_vec();
        let axis_cells = [
            Cell {
                hetero: true,
                ..TINY
            },
            Cell {
                faulty: true,
                ..TINY
            },
            Cell {
                family: BackfillFamily::easy(8),
                ..TINY
            },
            Cell {
                family: BackfillFamily::easy(64),
                ..TINY
            },
            Cell {
                family: BackfillFamily::Conservative,
                ..TINY
            },
        ];
        cells.extend(axis_cells.iter().map(|cell| run_cell(cell, 50)));
        let doc = append_run(None, &render_run(&cells, true, "axes")).unwrap();
        validate_bench_json(&doc).unwrap();
        for key in [
            "\"backfill\": \"easy8\"",
            "\"backfill\": \"easy64\"",
            "\"backfill\": \"conservative\"",
            "\"machine\": \"hetero3\"",
            "\"faults\": \"on\"",
            "\"backfill_axis\"",
            "\"hetero_axis\"",
            "\"fault_axis\"",
            "\"easy1_events_per_sec\"",
            "\"uniform_events_per_sec\"",
            "\"calm_events_per_sec\"",
        ] {
            assert!(doc.contains(key), "{key}");
        }
        // Each ratio is its axis cell over the base cell — which stays
        // the 5-round cell `tiny_cells` measured first, not an axis cell
        // that happens to come last.
        let parsed = trajectory_cells(run_fragment(&doc, "axes").unwrap());
        let eps = |pick: &dyn Fn(&TrajectoryCell) -> bool| {
            let picked: Vec<_> = parsed
                .iter()
                .filter(|c| c.mode == "arena" && pick(c))
                .collect();
            assert_eq!(picked.len(), 1);
            picked[0].events_per_sec
        };
        let base = eps(&|c| c.backfill == "easy1" && c.machine == "uniform" && c.faults == "off");
        for (got, axis) in [
            (backfill_ratio(&doc), eps(&|c| c.backfill == "conservative")),
            (hetero_ratio(&doc), eps(&|c| c.machine == "hetero3")),
            (fault_ratio(&doc), eps(&|c| c.faults == "on")),
        ] {
            let (got, want) = (got.expect("ratio present"), axis / base);
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{got} vs {want}"
            );
        }
        assert_eq!(last_number(&doc, "arena_events_per_sec"), Some(base));
        // Cross-run lookup stays pinned to the uniform, calm twin.
        let cell = run_cell_lookup(&doc, "axes", 16, 20, "arena", "easy1").unwrap();
        assert_eq!(
            (cell.machine.as_str(), cell.faults.as_str()),
            ("uniform", "off")
        );
    }

    #[test]
    fn axis_cells_run_the_same_churn_shape() {
        // Same submission/completion churn in every family and on the
        // three-class machine; the set of backfilled jobs may
        // legitimately differ (deeper reservations can refuse a start
        // EASY-1 would have allowed), so only the shape is pinned here.
        for family in [8, 64]
            .map(BackfillFamily::easy)
            .into_iter()
            .chain([BackfillFamily::Conservative])
        {
            let deep = run_cell(&Cell { family, ..TINY }, 5);
            assert_eq!(deep.cell.family.label(), family.label());
            assert!(deep.events > 0 && deep.jobs_started > 0, "{family:?}");
        }
        let hetero = run_cell(
            &Cell {
                hetero: true,
                ..TINY
            },
            5,
        );
        assert!(hetero.events > 0 && hetero.jobs_started > 0);
    }

    #[test]
    fn pre_axis_documents_still_validate() {
        // A trajectory whose runs predate the axes has none of their
        // blocks; the validator must keep accepting it.
        let doc = tiny_doc();
        for (block, ..) in AXES {
            assert!(!doc.contains(block), "{block}");
        }
        assert_eq!(backfill_ratio(&doc), None);
        assert_eq!(hetero_ratio(&doc), None);
        assert_eq!(fault_ratio(&doc), None);
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn faulty_churn_requeues_and_survives() {
        // Enough rounds for several failure/repair cycles on the tiny
        // cell; the run must keep starting jobs and stay deterministic.
        let faulty = Cell {
            faulty: true,
            ..TINY
        };
        let a = run_cell(&faulty, 50);
        assert!(a.events > 0 && a.jobs_started > 0);
        let b = run_cell(&faulty, 50);
        assert_eq!(a.events, b.events, "faulty churn nondeterministic");
        assert_eq!(a.jobs_started, b.jobs_started);
        // The injection actually changes the schedule vs the calm twin.
        assert_ne!(a.events, run_cell(&TINY, 50).events, "faults were a no-op");
    }

    #[test]
    fn trajectory_parser_repairs_the_lossy_v1_elapsed() {
        // A migrated v1 cell: `{v:.3}` flattened a sub-millisecond
        // elapsed to 0.000 while events_per_sec kept the real rate.
        let v1 = "{\n  \"schema\": \"dmr-bench-sched/v1\",\n  \"smoke\": false,\n  \"cells\": [\n    \
                  {\"nodes\": 64, \"queue_depth\": 100, \"mode\": \"indexed\", \"rounds\": 300, \
                  \"events\": 1172, \"jobs_started\": 262, \"peak_queue_depth\": 141, \
                  \"elapsed_s\": 0.000, \"events_per_sec\": 2500058.662, \"jobs_per_sec\": 558886.834}\n  ],\n  \
                  \"headline\": {\"speedup_vs_scan\": 11.274}\n}\n";
        let doc = append_run(Some(v1), &render_run(&tiny_cells(), true, "t1")).unwrap();
        let cells = trajectory_cells(run_fragment(&doc, "v1").unwrap());
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(
            (c.nodes, c.queue_depth, c.mode.as_str()),
            (64, 100, "indexed")
        );
        // Pre-axis defaults.
        assert_eq!(c.backfill, "easy1");
        assert_eq!(c.incremental, "on");
        // The repair: elapsed re-derived from events / events_per_sec.
        assert!(c.elapsed_s > 0.0, "zero elapsed must be repaired");
        assert!((c.elapsed_s - 1172.0 / 2500058.662).abs() < 1e-12);
        // Labelled lookup finds the v2 run's cells with stored elapsed.
        let fresh = run_cell_lookup(&doc, "t1", 16, 20, "arena", "easy1")
            .expect("fresh cell found by label");
        assert!(fresh.elapsed_s > 0.0 && fresh.events_per_sec > 0.0);
        assert_eq!(
            run_cell_lookup(&doc, "no-such-run", 16, 20, "arena", "easy1"),
            None
        );
    }
}
