//! # dmr-cluster — the hardware model
//!
//! Models the machine the paper ran on (MareNostrum 3: 65 compute nodes of
//! two 8-core Xeon E5-2670, InfiniBand FDR10, a shared parallel filesystem)
//! as three independent pieces:
//!
//! * [`cluster::Cluster`] — node inventory and allocation bookkeeping. This
//!   is what the Slurm layer (`dmr-slurm`) allocates from.
//! * [`network::NetworkModel`] — transfer-time estimates for point-to-point
//!   messages, block redistribution between process sets, and
//!   `MPI_Comm_spawn` launch costs.
//! * [`disk::DiskModel`] — shared-filesystem cost model used by the
//!   checkpoint/restart baseline (Figure 1).
//!
//! The models are deliberately simple, first-order (latency + bandwidth)
//! approximations: the paper's evaluation quantities are scheduling-level
//! outcomes, and these models only need to charge *plausible, consistently
//! ordered* costs for reconfiguration events.

pub mod classes;
pub mod cluster;
pub mod disk;
pub mod faults;
pub mod freeset;
pub mod network;
pub mod node;
mod owners;
pub mod power;

pub use classes::{ClassConstraint, ClassId, ClassTable, MachineClass, MAX_CLASSES};
pub use cluster::{AllocError, Cluster, FailOutcome};
pub use disk::DiskModel;
pub use faults::{FaultEvent, FaultLoad, FaultProcess, FaultRates, FaultSource, FaultTrace};
pub use freeset::FreeSet;
pub use network::NetworkModel;
pub use node::{NodeId, NodeState};
pub use power::PowerMeter;
