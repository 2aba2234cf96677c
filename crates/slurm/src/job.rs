//! Job identity, lifecycle and bookkeeping.

use std::fmt;

use dmr_cluster::ClassConstraint;
use dmr_sim::{SimTime, Span};

/// Batch-job identifier, unique within one [`crate::slurm::Slurm`]
/// instance.
///
/// The raw value packs an arena address: the low 32 bits are the slot in
/// the scheduler's job arena and the high 32 bits a
/// generation counter bumped each time the slot is recycled, so a stale
/// id from a pruned job can never alias a live one. Ids are therefore
/// *not* monotonic in submission order once slots recycle — ordering-
/// sensitive comparisons use [`Job::seq`] instead.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The raw id, used as the cluster allocation owner tag.
    pub fn owner_tag(self) -> u64 {
        self.0
    }

    /// Builds an id from an arena address.
    pub(crate) fn pack(generation: u32, slot: u32) -> JobId {
        JobId(((generation as u64) << 32) | slot as u64)
    }

    /// Arena slot (low 32 bits). Public so callers keeping side tables
    /// about jobs (e.g. the simulation driver's per-job run state) can
    /// use the same dense addressing.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// Arena generation (high 32 bits); see [`JobId::slot`].
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Lifecycle states (a subset of Slurm's, sufficient for the paper's
/// protocol: the expand workflow only inspects Pending/Running).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    Pending,
    Running,
    Completed,
    Cancelled,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Cancelled)
    }
}

/// Inter-job dependencies. The only kind the framework needs is the
/// resizer-job relation: "job B exists to expand job A" (Slurm's
/// `--dependency=expand:A`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dependency {
    /// This job is a resizer for the given original job; it is pending
    /// only while that job runs: the job's end cancels it at that
    /// instant, and so does a submission for a job that is not running.
    ExpandOf(JobId),
}

/// The malleability envelope a flexible job registers with the RMS
/// (min / max / preferred / factor — the DMR API arguments of §V-A).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ResizeEnvelope {
    pub min: u32,
    pub max: u32,
    pub preferred: Option<u32>,
    /// Resizes move to `current * factor^k` or `current / factor^k`.
    pub factor: u32,
}

impl ResizeEnvelope {
    /// Largest expansion target reachable from `current` towards `bound`
    /// given `free` spare nodes, or `None` if no step is possible.
    ///
    /// Targets are constrained to the factor chain `current * factor^k`
    /// (the "homogeneous distributions" of §VI-B) and to the envelope
    /// maximum.
    pub fn max_procs_to(&self, current: u32, bound: u32, free: u32) -> Option<u32> {
        if self.factor < 2 || current == 0 {
            return None;
        }
        let bound = bound.min(self.max);
        let mut best = None;
        let mut t = current.checked_mul(self.factor)?;
        while t <= bound && t - current <= free {
            best = Some(t);
            t = t.checked_mul(self.factor)?;
        }
        best
    }

    /// Whether `target` is reachable from `current` by shrinking along the
    /// factor chain without violating the envelope minimum.
    pub fn can_shrink_to(&self, current: u32, target: u32) -> bool {
        if target >= current || target < self.min || self.factor < 2 || target == 0 {
            return false;
        }
        let mut t = current;
        while t > target {
            if !t.is_multiple_of(self.factor) {
                return false;
            }
            t /= self.factor;
        }
        t == target
    }

    /// The shrink targets (descending) reachable from `current`, one
    /// factor step at a time, without allocating. An envelope at its
    /// floor yields nothing.
    pub fn shrink_steps(&self, current: u32) -> impl Iterator<Item = u32> {
        let (factor, min) = (self.factor, self.min);
        std::iter::successors(Some(current), move |&t| {
            (factor >= 2 && t.is_multiple_of(factor)).then(|| t / factor)
        })
        .skip(1)
        .take_while(move |&t| t >= min && t != 0)
    }

    /// All shrink targets (descending) reachable from `current`:
    /// [`ResizeEnvelope::shrink_steps`], collected.
    pub fn shrink_chain(&self, current: u32) -> Vec<u32> {
        self.shrink_steps(current).collect()
    }
}

/// A job's name: text a caller already has, or a stem and a number that
/// [`fmt::Display`] joins as `stem-number` (`fs-17`, `resizer-of-3`).
/// The scheduler stores names and never reads them, so the simulation
/// driver, which submits a job per arrival, names each without formatting
/// a string it would only throw away; whoever wants the text renders it.
/// A name *is* its text: `Debug` prints that, quoted, whichever way the
/// name was given.
#[derive(Clone)]
pub enum JobName {
    Text(Box<str>),
    /// Rendered as `{stem}-{index}`.
    Indexed(&'static str, u64),
}

impl From<String> for JobName {
    fn from(text: String) -> Self {
        JobName::Text(text.into_boxed_str())
    }
}

impl From<&str> for JobName {
    fn from(text: &str) -> Self {
        JobName::Text(text.into())
    }
}

impl fmt::Debug for JobName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

impl fmt::Display for JobName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobName::Text(text) => f.write_str(text),
            JobName::Indexed(stem, index) => write!(f, "{stem}-{index}"),
        }
    }
}

/// The backfill estimate of a job submitted without one (the part a
/// partition's `DefaultTime` plays in Slurm): ten minutes.
pub const DEFAULT_EXPECTED_RUNTIME: Span = Span(600 * dmr_sim::time::MICROS_PER_SEC);

/// Everything a submission provides (a condensed `sbatch`).
#[derive(Clone, Debug)]
pub struct JobRequest {
    pub name: JobName,
    /// Nodes requested at submission.
    pub nodes: u32,
    /// Runtime estimate used for backfill reservations.
    /// [`DEFAULT_EXPECTED_RUNTIME`] when `None`.
    pub expected_runtime: Option<Span>,
    pub dependency: Option<Dependency>,
    /// Malleability envelope; `None` marks a rigid job.
    pub resize: Option<ResizeEnvelope>,
    /// Which machine classes the job may be placed on (Slurm
    /// `--constraint`). Defaults to [`ClassConstraint::Any`], which on a
    /// uniform cluster is the only meaningful value.
    pub constraint: ClassConstraint,
}

impl JobRequest {
    /// A rigid job with defaults — the common case in mixed workloads.
    pub fn rigid(name: impl Into<JobName>, nodes: u32) -> Self {
        JobRequest {
            name: name.into(),
            nodes,
            expected_runtime: None,
            dependency: None,
            resize: None,
            constraint: ClassConstraint::Any,
        }
    }

    /// A malleable job with the given envelope.
    pub fn flexible(name: impl Into<JobName>, nodes: u32, resize: ResizeEnvelope) -> Self {
        JobRequest {
            resize: Some(resize),
            ..JobRequest::rigid(name, nodes)
        }
    }

    pub fn with_expected_runtime(mut self, estimate: Span) -> Self {
        self.expected_runtime = Some(estimate);
        self
    }

    /// Restricts placement to the classes eligible under `constraint`.
    pub fn with_constraint(mut self, constraint: ClassConstraint) -> Self {
        self.constraint = constraint;
        self
    }
}

/// A job record inside the scheduler.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: JobId,
    /// Submission sequence number: strictly monotonic in submission
    /// order, the scheduler's stable tie-break. ([`JobId`] values stop
    /// being monotonic once arena slots recycle, so every ordering-
    /// sensitive comparison uses this instead.)
    pub seq: u64,
    /// Nodes detached from this (resizer) job mid-expand-protocol and
    /// awaiting reattachment to the original job; `0` when not detached.
    /// Cancelling a detached resizer must *not* free its nodes — that is
    /// protocol step 3.
    pub detached_nodes: u32,
    pub name: JobName,
    pub state: JobState,
    /// Current node request (updated by shrink/expand protocol steps).
    pub requested_nodes: u32,
    /// Backfill estimate of the remaining-runtime-from-start.
    pub expected_runtime: Span,
    pub dependency: Option<Dependency>,
    /// Set by the policy when this pending job triggered a shrink; grants
    /// maximum priority (§IV-3).
    pub boosted: bool,
    pub resize: Option<ResizeEnvelope>,
    /// Machine-class placement constraint (copied from the request;
    /// resizer jobs inherit their original job's).
    pub constraint: ClassConstraint,
    pub submit_time: SimTime,
    pub start_time: Option<SimTime>,
    pub end_time: Option<SimTime>,
    /// Number of completed reconfigurations (accounting).
    pub reconfigurations: u32,
}

impl Job {
    /// The record a submission of `req` at `now` opens: pending, not
    /// boosted, never started. [`DEFAULT_EXPECTED_RUNTIME`] stands in for
    /// a missing runtime estimate.
    pub fn submitted(id: JobId, seq: u64, req: JobRequest, now: SimTime) -> Self {
        Job {
            id,
            seq,
            detached_nodes: 0,
            name: req.name,
            state: JobState::Pending,
            requested_nodes: req.nodes,
            expected_runtime: req.expected_runtime.unwrap_or(DEFAULT_EXPECTED_RUNTIME),
            dependency: req.dependency,
            boosted: false,
            resize: req.resize,
            constraint: req.constraint,
            submit_time: now,
            start_time: None,
            end_time: None,
            reconfigurations: 0,
        }
    }

    pub fn is_resizer(&self) -> bool {
        matches!(self.dependency, Some(Dependency::ExpandOf(_)))
    }

    /// Waiting time: submission to start (only meaningful once started).
    pub fn waiting_time(&self) -> Option<Span> {
        self.start_time.map(|s| s.since(self.submit_time))
    }

    /// Execution time: start to end.
    pub fn execution_time(&self) -> Option<Span> {
        match (self.start_time, self.end_time) {
            (Some(s), Some(e)) => Some(e.since(s)),
            _ => None,
        }
    }

    /// Completion time: submission to end (waiting + execution, the
    /// user-visible latency the paper argues malleability improves).
    pub fn completion_time(&self) -> Option<Span> {
        self.end_time.map(|e| e.since(self.submit_time))
    }

    /// Estimated end for backfill purposes.
    pub fn expected_end(&self) -> Option<SimTime> {
        self.start_time.map(|s| s + self.expected_runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(min: u32, max: u32) -> ResizeEnvelope {
        ResizeEnvelope {
            min,
            max,
            preferred: None,
            factor: 2,
        }
    }

    #[test]
    fn max_procs_to_walks_factor_chain() {
        let e = env(1, 32);
        // From 4 with plenty free: 8, 16, 32 are reachable; best is 32.
        assert_eq!(e.max_procs_to(4, 32, 100), Some(32));
        // Bounded by target bound.
        assert_eq!(e.max_procs_to(4, 20, 100), Some(16));
        // Bounded by free nodes: delta to 8 is 4, to 16 is 12.
        assert_eq!(e.max_procs_to(4, 32, 5), Some(8));
        // No step possible.
        assert_eq!(e.max_procs_to(4, 32, 3), None);
        assert_eq!(e.max_procs_to(4, 7, 100), None);
    }

    #[test]
    fn max_procs_respects_envelope_max() {
        let e = env(1, 16);
        assert_eq!(e.max_procs_to(4, 32, 100), Some(16));
    }

    #[test]
    fn shrink_chain_and_membership() {
        let e = env(2, 32);
        assert_eq!(e.shrink_chain(32), vec![16, 8, 4, 2]);
        assert!(e.can_shrink_to(32, 8));
        assert!(!e.can_shrink_to(32, 1), "below min");
        assert!(!e.can_shrink_to(32, 12), "not on factor chain");
        assert!(!e.can_shrink_to(8, 8), "no-op is not a shrink");
        assert!(!e.can_shrink_to(8, 16), "growth is not a shrink");
    }

    #[test]
    fn shrink_chain_handles_odd_sizes() {
        let e = env(1, 32);
        assert_eq!(e.shrink_chain(12), vec![6, 3]);
        assert_eq!(e.shrink_chain(7), Vec::<u32>::new());
    }

    #[test]
    fn degenerate_factor_yields_nothing() {
        let e = ResizeEnvelope {
            min: 1,
            max: 32,
            preferred: None,
            factor: 1,
        };
        assert_eq!(e.max_procs_to(4, 32, 100), None);
        assert!(e.shrink_chain(8).is_empty());
    }

    #[test]
    fn names_render_the_same_from_text_and_from_parts() {
        let parts = JobRequest::rigid(JobName::Indexed("fs", 17), 4);
        assert_eq!(parts.name.to_string(), "fs-17");
        assert_eq!(JobRequest::rigid("fs-17", 4).name.to_string(), "fs-17");
        let owned = JobRequest::rigid(format!("{}-{}", "fs", 17), 4);
        assert_eq!(owned.name.to_string(), "fs-17");
        assert_eq!(format!("{:?}", parts.name), format!("{:?}", owned.name));
        // A resizer is named after the raw id of the job it expands.
        let original = JobId::pack(3, 9);
        assert_eq!(
            JobName::Indexed("resizer-of", original.0).to_string(),
            format!("resizer-of-{original}")
        );
    }

    #[test]
    fn accounting_spans() {
        let mut j = Job {
            id: JobId(1),
            seq: 0,
            detached_nodes: 0,
            name: "t".into(),
            state: JobState::Pending,
            requested_nodes: 4,
            expected_runtime: Span::from_secs(100),
            dependency: None,
            boosted: false,
            resize: None,
            constraint: ClassConstraint::Any,
            submit_time: SimTime::from_secs(10),
            start_time: None,
            end_time: None,
            reconfigurations: 0,
        };
        assert_eq!(j.waiting_time(), None);
        j.start_time = Some(SimTime::from_secs(25));
        j.end_time = Some(SimTime::from_secs(75));
        assert_eq!(j.waiting_time(), Some(Span::from_secs(15)));
        assert_eq!(j.execution_time(), Some(Span::from_secs(50)));
        assert_eq!(j.completion_time(), Some(Span::from_secs(65)));
        assert_eq!(
            j.expected_end(),
            Some(SimTime::from_secs(125)),
            "start + estimate"
        );
    }
}
