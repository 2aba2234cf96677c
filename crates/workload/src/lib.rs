//! # dmr-workload — Feitelson '96 statistical workload model
//!
//! The paper generates its workloads "using the statistical model proposed by
//! Feitelson, which characterizes rigid jobs based on observations from logs
//! of actual cluster workloads" (§VII-C), with four knobs: number of jobs,
//! job size (a "complex discrete distribution"), runtime (hyper-exponential,
//! correlated with size), and Poisson inter-arrival times. This crate
//! implements that model:
//!
//! * [`size::SizeModel`] — discrete job-size distribution with the
//!   characteristic emphasis on powers of two and on small/serial jobs.
//! * [`runtime::RuntimeModel`] — two-stage hyper-exponential runtimes whose
//!   long-branch probability grows with job size (bigger jobs run longer).
//! * [`arrival::ArrivalModel`] — Poisson arrival process.
//! * [`generator::WorkloadGenerator`] — puts it together and emits
//!   [`spec::JobSpec`]s, including the app class mix and flexible-job ratio
//!   used in §VIII-D and §IX.
//!
//! Beyond the paper's model, the crate ships a *streaming* workload layer
//! ([`source::WorkloadSource`]): demand is pulled one job at a time, so
//! consumers never materialize a workload. Four source families exist —
//! the Feitelson model ([`source::Feitelson`], bit-for-bit the generator
//! above), Standard Workload Format trace replay ([`swf::SwfTrace`]), and
//! two adversarial synthetics, which are one Poisson source of FS bodies
//! whose rate is a square wave ([`source::WorkloadKind::Burst`] load
//! spikes) or a sine ([`source::WorkloadKind::Diurnal`] day/night
//! arrivals). The `Copy` selector [`source::WorkloadKind`] carries the
//! synthetic choices through configuration structs.
//!
//! All sampling flows from a caller-provided seed; the same seed yields the
//! same workload (the paper likewise fixes its shuffle seed).

pub mod arrival;
pub mod generator;
pub mod runtime;
pub mod size;
pub mod source;
pub mod spec;
pub mod swf;
mod synthetic;

pub use arrival::ArrivalModel;
pub use generator::{WorkloadConfig, WorkloadGenerator};
pub use runtime::RuntimeModel;
pub use size::SizeModel;
pub use source::{Capped, Feitelson, GpuShare, WorkloadKind, WorkloadSource};
pub use spec::{AppClass, JobSpec, MalleabilitySpec};
pub use swf::{SwfMapping, SwfTrace};
