//! Standard Workload Format (SWF) trace replay.
//!
//! The SWF is the archive format of the Parallel Workloads Archive: one
//! job per line, 18 whitespace-separated numeric fields, `;` comment
//! lines. Replaying real traces is how elastic-HPC evaluations ground
//! their claims, and the format's fields map directly onto [`JobSpec`]:
//! submit time → arrival, run time → step structure, allocated (or
//! requested) processors → submitted size, requested time → walltime.
//!
//! SWF jobs are rigid — the trace says nothing about malleability — so
//! every replayed job enters the flexible world the same way: the FS
//! application class (scalability model), at most [`MAX_STEPS`]
//! reconfiguring points, [`DATA_BYTES`] redistributed per resize, and
//! the envelope `[max(1, procs / 4), 2 · procs]` around its submitted
//! size. Arrivals are rebased so the first accepted job arrives at
//! t = 0 (traces often start at a large epoch offset). [`SwfMapping`]
//! picks only which jobs are flexible. The parser streams line by line:
//! arbitrarily long traces replay in O(1) memory.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Cursor};
use std::path::Path;

use crate::source::WorkloadSource;
use crate::spec::{AppClass, JobSpec, MalleabilitySpec};

/// The first time in seconds a record may not carry: the simulator's
/// clock counts microseconds in a `u64`, and its pending order keys a
/// submit time below 2^63 µs (about 292 000 years).
const MAX_TIME_S: f64 = (1u64 << 63) as f64 / 1e6;

/// The most reconfiguring points a replayed job gets: a job runs
/// `min(MAX_STEPS, ceil(runtime_s))` steps (at least one), so its checks
/// never outnumber its seconds. Table I's 25 FS iterations.
pub const MAX_STEPS: u32 = 25;

/// Bytes a replayed job redistributes on each reconfiguration: the 1 GB
/// of the §VIII FS jobs.
pub const DATA_BYTES: u64 = 1 << 30;

/// Which replayed jobs are flexible; everything else about a replayed
/// job is fixed (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct SwfMapping {
    /// Fraction of replayed jobs marked flexible (deterministic
    /// round-robin assignment, not sampled).
    pub flexible_ratio: f64,
}

impl Default for SwfMapping {
    /// All jobs flexible.
    fn default() -> Self {
        SwfMapping {
            flexible_ratio: 1.0,
        }
    }
}

/// Streaming SWF trace replayer; see the module docs.
pub struct SwfTrace<R> {
    reader: R,
    /// The one line buffer every record is read into.
    line: String,
    mapping: SwfMapping,
    emitted: u32,
    /// Submit instant of the first accepted job (normalization base).
    first_submit: Option<f64>,
    /// Arrivals are clamped monotone (SWF traces are submit-sorted, but
    /// the format does not enforce it).
    last_arrival: f64,
    skipped: u64,
}

impl SwfTrace<BufReader<File>> {
    /// Opens a trace file with the default [`SwfMapping`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_reader(
            BufReader::new(File::open(path)?),
            SwfMapping::default(),
        ))
    }
}

impl SwfTrace<Cursor<&'static str>> {
    /// Replays an in-memory trace (embedded fixtures, tests).
    pub fn from_static(trace: &'static str, mapping: SwfMapping) -> Self {
        Self::from_reader(Cursor::new(trace), mapping)
    }
}

impl<R: BufRead> SwfTrace<R> {
    /// Streams SWF records from any buffered reader.
    pub fn from_reader(reader: R, mapping: SwfMapping) -> Self {
        SwfTrace {
            reader,
            line: String::new(),
            mapping,
            emitted: 0,
            first_submit: None,
            last_arrival: 0.0,
            skipped: 0,
        }
    }

    /// Lines that were neither comments nor parseable job records (and
    /// records rejected for a `nan`, infinite or 2^63 µs and later time,
    /// a non-positive runtime or size, or a size beyond `u32`). Read errors also land
    /// here and end the stream.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped
    }

    /// Parses one record line into `(submit_s, runtime_s, procs,
    /// walltime_s)`, or `None` if it is not a usable job.
    fn parse_record(line: &str) -> Option<(f64, f64, u32, f64)> {
        // Fields (SWF v2.2): 0 job, 1 submit, 2 wait, 3 run, 4 allocated
        // procs, 7 requested procs, 8 requested time. Anything shorter
        // than the requested-time field is malformed. Each `nth` skips
        // the fields between the previous one taken and the next.
        let mut f = line.split_whitespace();
        let submit: f64 = f.nth(1)?.parse().ok()?;
        let runtime: f64 = f.nth(1)?.parse().ok()?;
        let allocated: i64 = f.next()?.parse().ok()?;
        let requested: i64 = f.nth(2)?.parse().ok()?;
        let req_time: f64 = f.next()?.parse().ok()?;
        // `f64` parsing accepts `nan` and `inf`: a record carrying one is
        // as unusable as one carrying a word. So is a time the simulator's
        // clock cannot hold, like a size beyond `u32` below.
        let fits = |t: f64| t.is_finite() && t < MAX_TIME_S;
        if !(fits(submit) && fits(runtime) && fits(req_time)) {
            return None;
        }
        // Unknown values are -1 in SWF; prefer the allocation, fall back
        // to the request.
        let procs = if allocated > 0 { allocated } else { requested };
        if runtime <= 0.0 || procs <= 0 || submit < 0.0 {
            return None;
        }
        // The fallback keeps under the clock's bound too: the largest
        // `f64` below it, for a run time past 2^63 µs / 2.5.
        let walltime = if req_time > 0.0 {
            req_time
        } else {
            (runtime * 2.5).min(f64::from_bits(MAX_TIME_S.to_bits() - 1))
        };
        Some((submit, runtime, u32::try_from(procs).ok()?, walltime))
    }

    /// Maps one accepted record onto the next [`JobSpec`].
    fn emit(&mut self, (submit, runtime, procs, walltime): (f64, f64, u32, f64)) -> JobSpec {
        let base = *self.first_submit.get_or_insert(submit);
        let arrival_s = (submit - base).max(0.0).max(self.last_arrival);
        self.last_arrival = arrival_s;
        let steps = MAX_STEPS.min(runtime.ceil() as u32).max(1);
        let job = JobSpec {
            index: self.emitted,
            arrival_s,
            submit_procs: procs,
            steps,
            step_s: runtime / steps as f64,
            walltime_s: walltime.max(runtime),
            data_bytes: DATA_BYTES,
            app: AppClass::Fs,
            flexible: ratio_slot(self.emitted, self.mapping.flexible_ratio),
            gpu: false,
            malleability: MalleabilitySpec {
                min_procs: (procs / 4).max(1),
                max_procs: procs.saturating_mul(2),
                preferred: None,
                factor: 2,
                sched_period_s: None,
            },
        };
        self.emitted += 1;
        job
    }
}

/// Deterministic fraction bookkeeping: job `emitted` is flexible iff the
/// running count of flexible jobs would otherwise fall behind `ratio`.
fn ratio_slot(emitted: u32, ratio: f64) -> bool {
    (((emitted + 1) as f64) * ratio).floor() > ((emitted as f64) * ratio).floor()
}

impl<R: BufRead> WorkloadSource for SwfTrace<R> {
    fn name(&self) -> &'static str {
        "swf"
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(_) => {
                    self.skipped += 1;
                    return None;
                }
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue;
            }
            let Some(record) = Self::parse_record(trimmed) else {
                self.skipped += 1;
                continue;
            };
            return Some(self.emit(record));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_jobs;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: TestCluster
; UnixStartTime: 1000000000
1 100 5 300 4 -1 -1 4 600 -1 1 1 1 1 1 -1 -1 -1
2 130 0 60 -1 -1 -1 8 120 -1 1 2 1 1 1 -1 -1 -1
this line is garbage
3 130 0 -1 4 -1 -1 4 600 -1 0 3 1 1 1 -1 -1 -1
4 250 2 1 1 -1 -1 1 -1 -1 1 4 1 1 1 -1 -1 -1
";

    #[test]
    fn parses_comments_fallbacks_and_skips_garbage() {
        let mut src = SwfTrace::from_static(SAMPLE, SwfMapping::default());
        let jobs = collect_jobs(&mut src);
        // Job 3 has runtime -1 (killed before start) and the garbage line
        // is unparseable: 2 skips, 3 replayed jobs.
        assert_eq!(jobs.len(), 3);
        assert_eq!(src.skipped_lines(), 2);
        // Normalized arrivals: 100 → 0, 130 → 30, 250 → 150.
        assert_eq!(jobs[0].arrival_s, 0.0);
        assert_eq!(jobs[1].arrival_s, 30.0);
        assert_eq!(jobs[2].arrival_s, 150.0);
        // Job 2: allocated -1 falls back to requested 8 procs.
        assert_eq!(jobs[1].submit_procs, 8);
        // Job 4: requested time -1 falls back to 2.5 × runtime, floored
        // at the runtime itself.
        assert!(jobs[2].walltime_s >= 1.0);
        // Indices are dense emission order.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i as u32);
        }
    }

    /// The parser this one replaced — a fresh `String` per line
    /// (`BufRead::lines`) and the fields collected into a `Vec` — kept as
    /// the oracle for the accept / skip decisions. Returns what
    /// `collect_jobs` and `skipped_lines` would have.
    fn reference(trace: &[u8], mapping: SwfMapping) -> (Vec<JobSpec>, u64) {
        fn record(line: &str) -> Option<(f64, f64, u32, f64)> {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() < 9 {
                return None;
            }
            let submit: f64 = f[1].parse().ok()?;
            let runtime: f64 = f[3].parse().ok()?;
            let allocated: i64 = f[4].parse().ok()?;
            let requested: i64 = f[7].parse().ok()?;
            let req_time: f64 = f[8].parse().ok()?;
            if [submit, runtime, req_time].iter().any(|x| !x.is_finite()) {
                return None;
            }
            let procs = if allocated > 0 { allocated } else { requested };
            if runtime <= 0.0 || procs <= 0 || submit < 0.0 || procs > i64::from(u32::MAX) {
                return None;
            }
            let walltime = if req_time > 0.0 {
                req_time
            } else {
                runtime * 2.5
            };
            Some((submit, runtime, procs as u32, walltime))
        }
        let mut state = SwfTrace::from_reader(io::empty(), mapping);
        let mut jobs = Vec::new();
        for line in trace.lines() {
            let Ok(line) = line else {
                state.skipped += 1;
                break;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue;
            }
            match record(trimmed) {
                Some(r) => jobs.push(state.emit(r)),
                None => state.skipped += 1,
            }
        }
        (jobs, state.skipped)
    }

    #[test]
    fn buffer_reusing_parser_matches_the_reference_job_for_job() {
        // Every way a line can be rejected or survive: short by one
        // field, exactly nine fields, a non-number in each field read
        // (1, 3, 4, 7, 8) and in fields that are not (0, 2, 5, 6, 9),
        // zero / negative sizes and times, tabs and leading blanks.
        const HOSTILE: &str = "\
1 10 0 50 2 -1 -1 2
2 20 0 50 2 -1 -1 2 100
3 x 0 50 2 -1 -1 2 100 -1
4 30 0 x 2 -1 -1 2 100 -1
5 30 0 50 x -1 -1 2 100 -1
6 30 0 50 2 -1 -1 x 100 -1
7 30 0 50 2 -1 -1 2 x -1
x 40 y 50 2 z w 2 100 v
9 50 0 0 2 -1 -1 2 100
10 50 0 50 0 -1 -1 0 100
11 50 0 50 -1 -1 -1 -1 100
12 -5 0 50 2 -1 -1 2 100
 \t13\t60  0 1.5 3 -1 -1 9 0 -1 \t
   \t
;14 70 0 50 2 -1 -1 2 100
15 1e2 0 5e1 2 -1 -1 2 1e3 -1
16 nan 0 50 2 -1 -1 2 100 -1
17 inf 0 50 2 -1 -1 2 100 -1
18 80 0 nan 2 -1 -1 2 100 -1
19 80 0 inf 2 -1 -1 2 100 -1
20 80 0 NaN 2 -1 -1 2 100 -1
21 80 0 -inf 2 -1 -1 2 100 -1
22 80 0 50 2 -1 -1 2 infinity -1
23 80 0 50 2 -1 -1 2 nan -1
24 80 0 50 4294967297 -1 -1 2 100 -1
25 80 0 50 -1 -1 -1 4294967296 100 -1
26 90 0 50 4294967295 -1 -1 2 100 -1";
        let crlf = SAMPLE.replace('\n', "\r\n");
        let mut invalid_utf8 = SAMPLE.as_bytes().to_vec();
        invalid_utf8.extend_from_slice(b"5 300 0 10 \xff 1 1 1 10\n6 400 0 10 1 -1 -1 1 10\n");
        let traces: [(&str, &[u8]); 6] = [
            (
                "tiny.swf",
                include_bytes!("../../../tests/fixtures/tiny.swf"),
            ),
            ("SAMPLE", SAMPLE.as_bytes()),
            ("no trailing newline", SAMPLE.trim_end().as_bytes()),
            ("CRLF endings", crlf.as_bytes()),
            ("hostile lines", HOSTILE.as_bytes()),
            ("read error mid-stream", &invalid_utf8),
        ];
        let half = SwfMapping {
            flexible_ratio: 0.5,
        };
        for (what, trace) in traces {
            for mapping in [SwfMapping::default(), half] {
                let (want, want_skipped) = reference(trace, mapping);
                let mut src = SwfTrace::from_reader(trace, mapping);
                let got = collect_jobs(&mut src);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
                assert_eq!(src.skipped_lines(), want_skipped, "{what}");
            }
        }
        // The cases above did exercise both verdicts.
        assert_eq!(reference(HOSTILE.as_bytes(), half).0.len(), 5);
        assert_eq!(reference(HOSTILE.as_bytes(), half).1, 20);
        // The undecodable line ends the stream: SAMPLE's three jobs and
        // two skips, one more skip, and job 6 never replayed.
        let (jobs, skipped) = reference(&invalid_utf8, half);
        assert_eq!((jobs.len(), skipped), (3, 3));
    }

    #[test]
    fn non_finite_numbers_and_oversized_sizes_are_skipped() {
        // A NaN first submit would rebase every arrival to 0, an infinite
        // or NaN runtime would make 0 µs steps, and 2^32 + 1 processors
        // would wrap to 1. A run time of 1e300 s or a submit at 1e13 s
        // (both past 2^63 µs) is past what the clock holds, as is a
        // requested time of 1e13 s.
        const TRACE: &str = "\
1 nan 0 50 2 -1 -1 2 100
2 100 0 50 2 -1 -1 2 100
3 130 0 inf 2 -1 -1 2 100
4 160 0 nan 2 -1 -1 2 100
5 190 0 50 4294967297 -1 -1 2 100
6 200 0 1e300 2 -1 -1 2 100
7 1e13 0 50 2 -1 -1 2 100
8 210 0 50 2 -1 -1 2 1e13
9 220 0 50 2 -1 -1 2 100
";
        let mut src = SwfTrace::from_static(TRACE, SwfMapping::default());
        let jobs = collect_jobs(&mut src);
        assert_eq!(src.skipped_lines(), 7);
        let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival_s).collect();
        assert_eq!(arrivals, [0.0, 120.0]);
        for j in &jobs {
            assert_eq!((j.submit_procs, j.steps, j.step_s), (2, 25, 2.0));
        }
    }

    #[test]
    fn runtime_is_preserved_through_the_step_structure() {
        let jobs = collect_jobs(&mut SwfTrace::from_static(SAMPLE, SwfMapping::default()));
        // 300 s over min(25, 300) = 25 steps of 12 s.
        assert_eq!(jobs[0].steps, 25);
        assert!((jobs[0].step_s * jobs[0].steps as f64 - 300.0).abs() < 1e-9);
        // A 1 s job cannot have 25 reconfiguring points: steps = 1.
        assert_eq!(jobs[2].steps, 1);
        assert_eq!(jobs[2].step_s, 1.0);
    }

    #[test]
    fn envelope_is_a_quarter_to_twice_the_submitted_size() {
        let jobs = collect_jobs(&mut SwfTrace::from_static(SAMPLE, SwfMapping::default()));
        let envelope = |j: &JobSpec| (j.malleability.min_procs, j.malleability.max_procs);
        assert_eq!(envelope(&jobs[0]), (1, 8)); // 4 procs
        assert_eq!(envelope(&jobs[1]), (2, 16)); // 8 procs
        assert_eq!(envelope(&jobs[2]), (1, 2)); // 1 proc
        assert!(jobs
            .iter()
            .all(|j| j.app == AppClass::Fs && j.data_bytes == DATA_BYTES));
    }

    #[test]
    fn flexible_fraction_is_deterministic() {
        let mapping = SwfMapping {
            flexible_ratio: 0.5,
        };
        let jobs = collect_jobs(&mut SwfTrace::from_static(SAMPLE, mapping));
        let flex: Vec<bool> = jobs.iter().map(|j| j.flexible).collect();
        assert_eq!(flex, vec![false, true, false]);
    }

    /// One mutation of a valid record line, drawn by `rng`: a truncated
    /// line, a field dropped or duplicated, an out-of-order submit, a
    /// size past `u32` or past a 16-node machine, or a time at or about
    /// 2^63 µs in the submit, run or requested-time field. The flag says
    /// whether the line must be rejected: an allocated size past `u32`
    /// (a positive allocation is always the size taken), or a time at or
    /// past 2^63 µs.
    fn mutate(line: &str, rng: &mut rand::rngs::StdRng) -> (String, bool) {
        use rand::RngExt;
        let mut f: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let mut pick = |n: u64| rng.random_range(0..n) as usize;
        let edge = [
            "9223372036854.775808",
            "9223372036854.775",
            "9.3e12",
            "9223372036854",
        ];
        let mut rejected = false;
        match pick(7) {
            0 => return (line[..pick(line.len() as u64 + 1)].to_owned(), false),
            1 => drop(f.remove(pick(f.len() as u64))),
            2 => {
                let at = pick(f.len() as u64);
                f.insert(at, f[at].clone());
            }
            3 => f[1] = pick(100).to_string(),
            4 => {
                let size = (u32::MAX as u64 + 1 + pick(1 << 40) as u64).to_string();
                let field = [4, 7][pick(2)];
                f[field] = size;
                rejected = field == 4;
            }
            5 => f[[4, 7][pick(2)]] = (17 + pick(100_000)).to_string(),
            _ => {
                let time = pick(4);
                f[[1, 3, 8][pick(3)]] = edge[time].to_owned();
                rejected = time == 0 || time == 2;
            }
        }
        (f.join(" "), rejected)
    }

    /// Seeded mutations of a valid trace, fed to the parser as they
    /// come: no panic, every record either emitted or counted in
    /// `skipped_lines`, every line that must be rejected among the
    /// skipped, and every emitted job finite, in arrival order, its times
    /// under 2^63 µs and its envelope `[procs / 4, 2 · procs]`.
    #[test]
    fn generated_malformed_traces_parse_within_the_documented_bounds() {
        use rand::{RngExt, SeedableRng};
        let valid = include_str!("../../../tests/fixtures/tiny.swf");
        let half = SwfMapping {
            flexible_ratio: 0.5,
        };
        let (mut emitted, mut skipped, mut hostile) = (0, 0, 0);
        for seed in 0..200 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut trace = String::new();
            let (mut records, mut rejected) = (0, 0);
            for line in valid.lines().cycle().take(60) {
                let record = !line.starts_with(';') && !line.trim().is_empty();
                let line = if record && rng.random_range(0..3) == 0 {
                    let (line, must_reject) = mutate(line, &mut rng);
                    rejected += usize::from(must_reject);
                    line
                } else {
                    line.to_owned()
                };
                let kept = line.trim();
                records += usize::from(!kept.is_empty() && !kept.starts_with(';'));
                trace.push_str(&line);
                trace.push('\n');
            }
            hostile += rejected;
            for mapping in [SwfMapping::default(), half] {
                let mut src = SwfTrace::from_reader(trace.as_bytes(), mapping);
                let jobs = collect_jobs(&mut src);
                let at = format!("seed {seed} {mapping:?}");
                assert_eq!(jobs.len() + src.skipped_lines() as usize, records, "{at}");
                assert!(src.skipped_lines() as usize >= rejected, "{at}");
                let mut last = 0.0;
                for (i, j) in jobs.iter().enumerate() {
                    let runtime = j.step_s * f64::from(j.steps);
                    let times = [j.arrival_s, j.step_s, runtime, j.walltime_s];
                    assert!(
                        times.iter().all(|t| t.is_finite() && *t >= 0.0),
                        "{at}: {j:?}"
                    );
                    assert!(
                        j.arrival_s >= last && j.arrival_s < MAX_TIME_S,
                        "{at}: {j:?}"
                    );
                    assert!(j.step_s > 0.0 && runtime < MAX_TIME_S, "{at}: {j:?}");
                    assert!(
                        j.walltime_s >= runtime && (1..=25).contains(&j.steps),
                        "{at}: {j:?}"
                    );
                    assert!(j.walltime_s < MAX_TIME_S, "{at}: {j:?}");
                    let m = j.malleability;
                    assert_eq!(m.min_procs, (j.submit_procs / 4).max(1), "{at}: {j:?}");
                    assert_eq!(m.max_procs, j.submit_procs.saturating_mul(2), "{at}: {j:?}");
                    assert_eq!(j.index as usize, i);
                    last = j.arrival_s;
                }
                emitted += jobs.len();
                skipped += src.skipped_lines();
            }
        }
        // Both verdicts were exercised, many times over, and so were the
        // sizes and times that must be rejected.
        assert!(
            emitted > 10_000 && skipped > 1_000 && hostile > 100,
            "{emitted} emitted, {skipped} skipped, {hostile} must-reject lines"
        );
    }
}
