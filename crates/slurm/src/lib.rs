//! # dmr-slurm — a Slurm-like workload manager with malleability support
//!
//! Implements the resource-management half of the paper: a batch scheduler
//! in the image of Slurm 15.08 as configured on the testbed (§VII-A):
//!
//! * **job lifecycle** — submit / pending / running / completed / cancelled,
//!   with per-job accounting (submit, start, end) ([`job`]);
//! * **queue order** — boosted jobs first (the max-priority boost of a
//!   job a shrink makes room for, §IV-3, or requeued after a failure),
//!   then submission order: Slurm's `priority/multifactor` at the default
//!   weights the paper runs (§VII-A), where age alone weighs in;
//! * **backfill families** — the `sched/backfill` behaviour as a
//!   selectable [`slotset::BackfillFamily`] over a slot-set free-resource
//!   timeline ([`slotset::SlotSet`]): EASY-k (reservations for the first
//!   `k` blocked jobs; `k = 1` is the paper's configuration) and
//!   conservative (every blocked job planned)
//!   ([`slurm::Slurm::backfill_pass`]);
//! * **the malleability protocol** (§III) — expansion through a *resizer
//!   job* (submit B depending on A → update B to 0 nodes → cancel B →
//!   update A to N_A+N_B) and shrinking through a node-releasing update
//!   ([`slurm::Slurm::expand_protocol`] et al.);
//! * **the pluggable reconfiguration-policy layer** (§IV) — a
//!   [`policy::ResizePolicy`] trait object installed in the scheduler
//!   decides expand / shrink / no-action from the global system state;
//!   ships with [`policy::Algorithm1`] (the paper's procedure),
//!   [`policy::UtilizationTarget`], [`policy::FairShare`] and
//!   [`policy::EnergyAware`], selected by [`policy::PolicyKind`]
//!   ([`policy`]).
//!
//! The crate is time-agnostic: every operation takes `now: SimTime` from
//! the caller, so the same scheduler drives the discrete-event simulations
//! in `dmr-core` and the unit tests here.

pub mod arena;
pub(crate) mod index;
pub mod job;
pub(crate) mod need;
pub mod policy;
pub mod slotset;
pub mod slurm;

pub use arena::JobMap;
pub use job::{Dependency, Job, JobId, JobName, JobRequest, JobState, ResizeEnvelope};
pub use policy::{
    Algorithm1, EnergyAware, FairShare, Hold, PolicyKind, ResizeAction, ResizePolicy,
    UtilizationTarget,
};
pub use slotset::BackfillFamily;
pub use slurm::{ExpandError, IncrementalStats, JobStart, Slurm, SlurmConfig};
