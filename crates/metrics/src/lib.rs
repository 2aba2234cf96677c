//! # dmr-metrics — measurement and reporting
//!
//! Computes the quantities the paper's evaluation reports:
//!
//! * [`series::StepSeries`] — event-driven step functions over virtual time
//!   (allocated nodes, running jobs, completed jobs) with exact integrals;
//!   these regenerate the evolution charts (Figures 4, 5, 6, 12).
//!   [`series::OnlineSeries`] is its O(1)-memory streaming twin (the
//!   running integral, bit-identical to the buffered one).
//! * [`hist::LogHistogram`] — streaming log-bucketed duration histograms
//!   (HDR-style fixed bins) behind the P50/P95/P99 tail columns
//!   ([`hist::Quantiles`]).
//! * [`summary::WorkloadSummary`] — makespan, average *and percentile*
//!   waiting / execution / completion times and the resource-utilization
//!   rate (Table II, Figures 3, 7, 8, 9, 10, 11).
//! * [`sink::MetricsSink`] — the trait the `dmr-core` driver feeds
//!   per-event, with the buffered [`sink::SeriesRecorder`] and the
//!   bounded-memory [`sink::OnlineAccumulator`] implementations (the
//!   latter folds only what the summary reads: the allocation integral
//!   and the three duration histograms).
//! * [`summary::gain_pct`] — the "Gain" percentage printed on the paper's
//!   bar charts.
//! * [`csv`] — plain CSV writers for external plotting.

pub mod csv;
pub mod hist;
pub mod series;
pub mod sink;
pub mod summary;

pub use hist::{LogHistogram, Quantiles};
pub use series::{OnlineSeries, StepSeries};
pub use sink::{MetricsSink, OnlineAccumulator, SeriesRecorder};
pub use summary::{gain_pct, JobOutcome, WorkloadSummary};
