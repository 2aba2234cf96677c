//! # dmr-core — the DMR framework glued together
//!
//! This crate is the paper's contribution in executable form: the
//! co-operation between a malleable application (through the DMR API), the
//! programming-model runtime, and the Slurm-like resource manager, driven
//! over virtual time by the `dmr-sim` engine.
//!
//! * [`model`] — application scalability models ([`model::SpeedupCurve`]),
//!   bound to each arriving [`dmr_workload::JobSpec`] by its application
//!   class.
//! * [`config`] — experiment configuration: cluster size, synchronous vs
//!   asynchronous scheduling (§VIII-B/C), the checking inhibitor override
//!   (§VIII-E), cost-model knobs.
//! * [`driver`] — the discrete-event driver: job arrivals streamed one at
//!   a time from a [`dmr_workload::WorkloadSource`] (a materialized list
//!   streams as `&mut specs.iter()`), backfilled starts, per-step DMR
//!   checks against the Algorithm-1 policy, the resizer-job expansion
//!   protocol with timeout, ACK-style shrinks, spawn + redistribution
//!   costs, and full metric collection.
//! * [`result`] — what an experiment returns: a
//!   [`dmr_metrics::WorkloadSummary`] plus the driver's own scalars.
//! * [`error`] — the unified [`error::DmrError`] wrapping the substrate
//!   layers' error enums (cluster allocation, MPI, the Slurm expansion
//!   protocol) behind one `std::error::Error`.
//!
//! A run is [`Simulation::new`]`(&cfg).source(..)`, optionally
//! `.faults(..)` and `.sink(..)`, then `.run()`, which returns
//! `Result<ExperimentResult, DmrError>`; an attached
//! [`dmr_metrics::SeriesRecorder`] keeps the evolution series behind the
//! paper's timeline figures and the per-job outcomes.
//! [`compare_fixed_flexible`] runs one workload rigid and malleable.

pub mod config;
pub mod driver;
pub mod error;
pub mod model;
pub mod result;

pub use config::{ExperimentConfig, MachineMix, ScheduleMode};
pub use dmr_cluster::{FaultLoad, FaultTrace};
pub use dmr_metrics::MetricsSink;
pub use dmr_slurm::{BackfillFamily, PolicyKind};
pub use dmr_workload::{WorkloadKind, WorkloadSource};
pub use driver::{compare_fixed_flexible, run_experiment_with_sink, Simulation};
pub use error::{DmrError, InjectedFault};
pub use model::{curve_for, SpeedupCurve};
pub use result::{CheckStats, ExperimentResult, FaultStats, PowerStats, RunStats};
