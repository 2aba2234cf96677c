//! The unified error type of the DMR stack.
//!
//! The substrate layers each speak their own dialect —
//! [`AllocError`] from the cluster model, [`MpiError`] from the
//! thread-backed MPI substrate, [`ExpandError`] from the Slurm
//! malleability protocol. Code that drives all three (the workload
//! driver here, the runtime↔RMS bridge in the umbrella crate) previously
//! had to pattern-match each enum separately. [`DmrError`] wraps them
//! behind one `std::error::Error` with intent-revealing queries such as
//! [`DmrError::queued_resizer`], so cross-layer callers branch on what an
//! error *means* for the reconfiguration protocol rather than on which
//! layer produced it.

use dmr_cluster::AllocError;
use dmr_mpi::MpiError;
use dmr_slurm::{ExpandError, JobId};

/// Any failure surfaced by the DMR stack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DmrError {
    /// The cluster model refused an allocation request.
    Alloc(AllocError),
    /// The MPI substrate failed (peer exited, type mismatch, bad rank).
    Mpi(MpiError),
    /// The Slurm expansion protocol failed or deferred.
    Expand(ExpandError),
    /// A fault-injection layer deliberately killed the operation — not a
    /// structural failure of the protocol or the request. Injected
    /// failures are always worth retrying (with backoff); structural
    /// ones only when [`DmrError::is_transient`] says so.
    Injected(InjectedFault),
    /// A scripted faultload names a node the machine does not have (the
    /// message says which event and which machine); the run was refused
    /// before anything ran.
    FaultScript(String),
    /// The experiment configuration cannot be run (a machine too small
    /// for its class mix, a backfill interval that rounds to zero, no
    /// workload source); the run was refused before anything ran.
    Config(String),
}

/// What the fault-injection layer killed (see [`DmrError::Injected`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectedFault {
    /// The `MPI_Comm_spawn` leg of a resize negotiation.
    Spawn,
    /// A compute node went down mid-run.
    Node,
}

impl DmrError {
    /// If this error is the expansion protocol's *deferral* signal —
    /// "the resizer job is queued with maximum priority, wait or abort"
    /// (§V-B1) — returns the queued resizer's id.
    ///
    /// This is the one failure the reconfiguration protocol treats as
    /// control flow rather than as an error: synchronous mode aborts the
    /// resizer immediately, asynchronous mode arms a timeout and waits.
    pub fn queued_resizer(&self) -> Option<JobId> {
        match self {
            DmrError::Expand(ExpandError::Queued { resizer }) => Some(*resizer),
            _ => None,
        }
    }

    /// Whether retrying the same operation later could succeed without
    /// any other intervention (resources were busy, not invalid).
    /// Injected failures are transient by definition — the fault, not
    /// the request, was the problem.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DmrError::Alloc(AllocError::Insufficient { .. })
                | DmrError::Expand(ExpandError::Queued { .. })
                | DmrError::Injected(_)
        )
    }

    /// Whether this failure was manufactured by the fault-injection
    /// layer (as opposed to a structural failure of the request or the
    /// protocol). Recovery code branches here: injected failures retry
    /// under backoff, structural ones surface.
    pub fn is_injected(&self) -> bool {
        matches!(self, DmrError::Injected(_))
    }

    /// Shorthand for the injected spawn-path failure a killed resize
    /// negotiation reports.
    pub fn injected_spawn() -> Self {
        DmrError::Injected(InjectedFault::Spawn)
    }
}

impl std::fmt::Display for DmrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmrError::Alloc(e) => write!(f, "cluster allocation: {e}"),
            DmrError::Mpi(e) => write!(f, "mpi: {e}"),
            DmrError::Expand(e) => write!(f, "expansion protocol: {e}"),
            DmrError::Injected(InjectedFault::Spawn) => {
                write!(f, "injected fault: spawn path killed")
            }
            DmrError::Injected(InjectedFault::Node) => {
                write!(f, "injected fault: node down")
            }
            DmrError::FaultScript(e) => write!(f, "fault script: {e}"),
            DmrError::Config(e) => write!(f, "configuration: {e}"),
        }
    }
}

impl std::error::Error for DmrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DmrError::Alloc(e) => Some(e),
            DmrError::Mpi(e) => Some(e),
            DmrError::Expand(e) => Some(e),
            DmrError::Injected(_) | DmrError::FaultScript(_) | DmrError::Config(_) => None,
        }
    }
}

impl From<AllocError> for DmrError {
    fn from(e: AllocError) -> Self {
        DmrError::Alloc(e)
    }
}

impl From<MpiError> for DmrError {
    fn from(e: MpiError) -> Self {
        DmrError::Mpi(e)
    }
}

impl From<ExpandError> for DmrError {
    fn from(e: ExpandError) -> Self {
        DmrError::Expand(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn converts_from_every_layer() {
        let a: DmrError = AllocError::Insufficient {
            requested: 8,
            free: 2,
        }
        .into();
        let m: DmrError = MpiError::InvalidRank { rank: 9, size: 4 }.into();
        let x: DmrError = ExpandError::InvalidTarget { current: 4, to: 2 }.into();
        assert!(matches!(a, DmrError::Alloc(_)));
        assert!(matches!(m, DmrError::Mpi(_)));
        assert!(matches!(x, DmrError::Expand(_)));
    }

    #[test]
    fn queued_resizer_is_surfaced() {
        let rj = JobId(7);
        let e: DmrError = ExpandError::Queued { resizer: rj }.into();
        assert_eq!(e.queued_resizer(), Some(rj));
        assert!(e.is_transient());
        let e: DmrError = ExpandError::NotRunning(JobId(1)).into();
        assert_eq!(e.queued_resizer(), None);
        assert!(!e.is_transient());
    }

    #[test]
    fn injected_faults_classify_as_injected_and_transient() {
        let e = DmrError::injected_spawn();
        assert!(e.is_injected());
        assert!(e.is_transient(), "injected failures are retryable");
        assert!(e.to_string().contains("injected"));
        let n = DmrError::Injected(InjectedFault::Node);
        assert!(n.is_injected());
        // Structural failures are never "injected".
        let s: DmrError = ExpandError::InvalidTarget { current: 4, to: 2 }.into();
        assert!(!s.is_injected());
        let q: DmrError = ExpandError::Queued { resizer: JobId(3) }.into();
        assert!(!q.is_injected() && q.is_transient());
    }

    #[test]
    fn display_and_source_chain() {
        let e: DmrError = AllocError::UnknownOwner(3).into();
        assert!(e.to_string().contains("owner 3"));
        assert!(e.source().is_some());
        // Works as a boxed error object.
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().starts_with("cluster allocation"));
    }
}
