//! The error a run of the DMR stack returns.
//!
//! [`crate::Simulation::run`] refuses a configuration or a fault script
//! before anything runs; the live MPI substrate's [`MpiError`] is
//! wrapped for the runtime↔RMS bridge of the umbrella crate. The
//! expansion protocol's deferral is control flow, not an error: the
//! driver and the bridge match [`dmr_slurm::ExpandError::Queued`]
//! directly.

use dmr_mpi::MpiError;

/// Any failure surfaced by the DMR stack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DmrError {
    /// The MPI substrate failed (peer exited, type mismatch, bad rank).
    Mpi(MpiError),
    /// A scripted faultload names a node the machine does not have (the
    /// message says which event and which machine); the run was refused
    /// before anything ran.
    FaultScript(String),
    /// The experiment configuration cannot be run (a machine too small
    /// for its class mix, a backfill interval that rounds to zero, a
    /// duration that is NaN, infinite or negative, no workload source);
    /// the run was refused before anything ran.
    Config(String),
}

impl std::fmt::Display for DmrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmrError::Mpi(e) => write!(f, "mpi: {e}"),
            DmrError::FaultScript(e) => write!(f, "fault script: {e}"),
            DmrError::Config(e) => write!(f, "configuration: {e}"),
        }
    }
}

impl std::error::Error for DmrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DmrError::Mpi(e) => Some(e),
            DmrError::FaultScript(_) | DmrError::Config(_) => None,
        }
    }
}

impl From<MpiError> for DmrError {
    fn from(e: MpiError) -> Self {
        DmrError::Mpi(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let e: DmrError = MpiError::InvalidRank { rank: 9, size: 4 }.into();
        assert!(matches!(e, DmrError::Mpi(_)));
        assert!(e.to_string().starts_with("mpi: "));
        assert!(e.source().is_some());
        let c = DmrError::Config("no workload source attached".into());
        assert!(c.source().is_none());
        // Works as a boxed error object.
        let boxed: Box<dyn Error> = Box::new(c);
        assert!(boxed.to_string().starts_with("configuration: "));
    }
}
