//! Streaming workload sources.
//!
//! A [`WorkloadSource`] hands out one [`JobSpec`] at a time in
//! non-decreasing arrival order, so consumers (the `dmr-core` driver)
//! never have to materialize a whole workload: a million-job trace replay
//! keeps O(1) jobs in flight on the arrival path. Selection travels as the
//! small `Copy` [`WorkloadKind`] (mirroring `dmr_slurm::PolicyKind`), so
//! experiment and scenario configurations stay plain data; trace replay —
//! which needs a file — enters through [`crate::swf::SwfTrace`] directly.

use crate::generator::{WorkloadConfig, WorkloadGenerator};
use crate::spec::JobSpec;

/// A pull-based stream of jobs, ordered by arrival time.
///
/// Implementations must yield jobs with non-decreasing
/// [`JobSpec::arrival_s`] and unique, dense [`JobSpec::index`] values
/// (0-based emission order); consumers may clamp stragglers defensively
/// but are entitled to assume sorted input.
pub trait WorkloadSource {
    /// Short machine-friendly name of the source family (CSV labelling).
    fn name(&self) -> &'static str;

    /// The next job, or `None` once the workload is exhausted.
    fn next_job(&mut self) -> Option<JobSpec>;
}

/// A materialized workload streams from an iterator over its specs
/// (`&mut specs.iter()`), one clone per pulled job.
impl WorkloadSource for std::slice::Iter<'_, JobSpec> {
    fn name(&self) -> &'static str {
        "slice"
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        self.next().cloned()
    }
}

/// The Feitelson '96 statistical model as a [`WorkloadSource`].
///
/// This wraps [`WorkloadGenerator`] and is pinned *bit-for-bit* to its
/// output: the model draws every job body first and only then draws the
/// arrival process from the same RNG stream. It materializes the
/// generator's output and streams from that buffer, although that draw
/// order does not force it: the sequence can be produced one job at a
/// time, bit for bit, with two cursors on the stream — bodies drawn on
/// demand from one, arrivals from a clone advanced past every body draw
/// when the source is built; the generation would then run inside the
/// consumer's run instead of ahead of it. The adversarial synthetics
/// ([`crate::burst::Burst`], [`crate::diurnal::Diurnal`]) and trace replay
/// ([`crate::swf::SwfTrace`]) already generate in O(1) memory.
pub struct Feitelson {
    jobs: std::vec::IntoIter<JobSpec>,
    name: &'static str,
}

impl Feitelson {
    /// Streams the workload `WorkloadGenerator::new(cfg, seed)` generates.
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Self {
        Feitelson {
            jobs: WorkloadGenerator::new(cfg, seed).generate().into_iter(),
            name: "feitelson",
        }
    }

    /// As [`Feitelson::new`] with an explicit source name (scenario CSVs
    /// distinguish the preset configurations by name).
    pub fn named(name: &'static str, cfg: WorkloadConfig, seed: u64) -> Self {
        Feitelson {
            name,
            ..Feitelson::new(cfg, seed)
        }
    }
}

impl WorkloadSource for Feitelson {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        self.jobs.next()
    }
}

/// Caps any source at `limit` jobs (e.g. replaying only the head of a
/// long trace in a smoke scenario).
pub struct Capped<S> {
    inner: S,
    left: u32,
}

impl<S: WorkloadSource> Capped<S> {
    /// At most `limit` jobs from `inner`.
    pub fn new(inner: S, limit: u32) -> Self {
        Capped { inner, left: limit }
    }
}

impl<S: WorkloadSource> WorkloadSource for Capped<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next_job()
    }
}

/// Tags a deterministic share of an inner source's jobs as GPU-demanding.
///
/// Job `i` (by [`JobSpec::index`]) is tagged iff
/// `(i + 1) * permille / 1000 > i * permille / 1000` — the Bresenham
/// spread, which distributes `permille`-per-thousand tags evenly across
/// the stream with no RNG involved. The inner source's random streams are
/// untouched, so `permille = 0` reproduces the inner workload
/// *bit-for-bit* (the class-demand axis is purely additive).
pub struct GpuShare<S> {
    inner: S,
    permille: u32,
}

impl<S: WorkloadSource> GpuShare<S> {
    /// Tags `permille` jobs per thousand of `inner` (clamped to 1000).
    pub fn new(inner: S, permille: u32) -> Self {
        GpuShare {
            inner,
            permille: permille.min(1000),
        }
    }
}

impl<S: WorkloadSource> WorkloadSource for GpuShare<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        let mut job = self.inner.next_job()?;
        let (i, p) = (job.index as u64, self.permille as u64);
        job.gpu = (i + 1) * p / 1000 > i * p / 1000;
        Some(job)
    }
}

/// Selector for the built-in synthetic sources — plain `Copy` data with
/// parameters embedded, mirroring `dmr_slurm::PolicyKind`, so scenario
/// grids and experiment configs can carry it by value. [`SwfTrace`]
/// replay needs a reader and is constructed directly instead.
///
/// [`SwfTrace`]: crate::swf::SwfTrace
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum WorkloadKind {
    /// §VIII FS-only preliminary mix (20-node testbed scale).
    FsPreliminary,
    /// §VIII-E micro-step FS variant (inhibitor stress).
    FsMicroSteps,
    /// §IX CG/Jacobi/N-body production mix (65-node scale).
    RealMix,
    /// [`WorkloadKind::RealMix`] with a class-demand axis: `permille` jobs
    /// per thousand are tagged GPU-demanding via [`GpuShare`]'s Bresenham
    /// rule. `permille = 0` is bit-identical to `RealMix` (the tag wrapper
    /// never touches the generator's RNG streams).
    RealMixGpu {
        /// GPU-demanding jobs per thousand, evenly spread (0..=1000).
        permille: u32,
    },
    /// Adversarial load spikes: Poisson arrivals whose rate multiplies by
    /// `intensity` during the first `burst_len_s` seconds of every
    /// `period_s`-second window.
    Burst {
        /// Mean inter-arrival gap outside bursts, seconds.
        mean_interarrival_s: f64,
        /// Length of one calm+burst cycle, seconds.
        period_s: f64,
        /// Burst window at the start of each cycle, seconds.
        burst_len_s: f64,
        /// Arrival-rate multiplier inside the burst window (> 1).
        intensity: f64,
    },
    /// Day/night pattern: arrival rate modulated by a sine of period
    /// `period_s` and relative `amplitude` (0 = flat Poisson, towards 1 =
    /// near-silent troughs).
    Diurnal {
        /// Mean inter-arrival gap at the sine midpoint, seconds.
        mean_interarrival_s: f64,
        /// Period of one day/night cycle, seconds.
        period_s: f64,
        /// Relative modulation depth in `[0, 1)`.
        amplitude: f64,
    },
}

impl WorkloadKind {
    /// [`WorkloadKind::Burst`] with default spike parameters: 10 s mean
    /// gap, 10-minute cycles opening with a 60-second 8× spike.
    pub fn burst() -> Self {
        WorkloadKind::Burst {
            mean_interarrival_s: 10.0,
            period_s: 600.0,
            burst_len_s: 60.0,
            intensity: 8.0,
        }
    }

    /// [`WorkloadKind::RealMixGpu`] with the default class-demand mix:
    /// 250 ‰ (one job in four) GPU-demanding.
    pub fn real_gpu() -> Self {
        WorkloadKind::RealMixGpu { permille: 250 }
    }

    /// [`WorkloadKind::Diurnal`] with default parameters: 10 s mean gap
    /// modulated at 90 % depth over a one-hour "day".
    pub fn diurnal() -> Self {
        WorkloadKind::Diurnal {
            mean_interarrival_s: 10.0,
            period_s: 3600.0,
            amplitude: 0.9,
        }
    }

    /// Stable family name (scenario ids, sweep CSV `workload` column).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::FsPreliminary => "fs",
            WorkloadKind::FsMicroSteps => "fs-micro",
            WorkloadKind::RealMix => "real",
            WorkloadKind::RealMixGpu { .. } => "real-gpu",
            WorkloadKind::Burst { .. } => "burst",
            WorkloadKind::Diurnal { .. } => "diurnal",
        }
    }

    /// Name plus parameters — unique per parameterization, so two tunings
    /// of the same adversarial generator stay distinguishable in scenario
    /// names and CSV keys (the scenario registry keys rows by this, the
    /// same way it uses `PolicyKind::label`).
    pub fn label(self) -> String {
        match self {
            WorkloadKind::FsPreliminary | WorkloadKind::FsMicroSteps | WorkloadKind::RealMix => {
                self.name().into()
            }
            WorkloadKind::RealMixGpu { permille } => format!("real-gpu-{permille}"),
            WorkloadKind::Burst {
                mean_interarrival_s,
                period_s,
                burst_len_s,
                intensity,
            } => format!("burst-m{mean_interarrival_s}-p{period_s}-b{burst_len_s}-x{intensity}"),
            WorkloadKind::Diurnal {
                mean_interarrival_s,
                period_s,
                amplitude,
            } => format!("diurnal-m{mean_interarrival_s}-p{period_s}-a{amplitude}"),
        }
    }

    /// Instantiates the source this selector describes: `jobs` jobs,
    /// deterministic in `seed`.
    pub fn build(self, jobs: u32, seed: u64) -> Box<dyn WorkloadSource> {
        match self {
            WorkloadKind::FsPreliminary => Box::new(Feitelson::named(
                "fs",
                WorkloadConfig::fs_preliminary(jobs),
                seed,
            )),
            WorkloadKind::FsMicroSteps => Box::new(Feitelson::named(
                "fs-micro",
                WorkloadConfig::fs_micro_steps(jobs),
                seed,
            )),
            WorkloadKind::RealMix => Box::new(Feitelson::named(
                "real",
                WorkloadConfig::real_mix(jobs),
                seed,
            )),
            WorkloadKind::RealMixGpu { permille } => Box::new(GpuShare::new(
                Feitelson::named("real-gpu", WorkloadConfig::real_mix(jobs), seed),
                permille,
            )),
            WorkloadKind::Burst {
                mean_interarrival_s,
                period_s,
                burst_len_s,
                intensity,
            } => Box::new(crate::burst::Burst::new(
                crate::burst::BurstConfig {
                    jobs,
                    mean_interarrival_s,
                    period_s,
                    burst_len_s,
                    intensity,
                    ..crate::burst::BurstConfig::default()
                },
                seed,
            )),
            WorkloadKind::Diurnal {
                mean_interarrival_s,
                period_s,
                amplitude,
            } => Box::new(crate::diurnal::Diurnal::new(
                crate::diurnal::DiurnalConfig {
                    jobs,
                    mean_interarrival_s,
                    period_s,
                    amplitude,
                    ..crate::diurnal::DiurnalConfig::default()
                },
                seed,
            )),
        }
    }
}

/// Drains a source into a vector (tests and small tools; defeats the
/// purpose of streaming for large workloads).
pub fn collect_jobs(source: &mut dyn WorkloadSource) -> Vec<JobSpec> {
    std::iter::from_fn(|| source.next_job()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feitelson_source_streams_the_generator_output_verbatim() {
        let cfg = WorkloadConfig::fs_preliminary(40);
        let materialized = WorkloadGenerator::new(cfg.clone(), 42).generate();
        let mut src = Feitelson::new(cfg, 42);
        let streamed = collect_jobs(&mut src);
        assert_eq!(streamed.len(), materialized.len());
        for (s, m) in streamed.iter().zip(&materialized) {
            assert_eq!(s.index, m.index);
            assert_eq!(s.arrival_s, m.arrival_s);
            assert_eq!(s.submit_procs, m.submit_procs);
            assert_eq!(s.step_s, m.step_s);
            assert_eq!(s.walltime_s, m.walltime_s);
        }
    }

    #[test]
    fn kind_names_and_labels_are_stable_and_unique() {
        let kinds = [
            WorkloadKind::FsPreliminary,
            WorkloadKind::FsMicroSteps,
            WorkloadKind::RealMix,
            WorkloadKind::real_gpu(),
            WorkloadKind::burst(),
            WorkloadKind::diurnal(),
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
        // Parameterizations stay distinguishable.
        let a = WorkloadKind::burst();
        let b = WorkloadKind::Burst {
            mean_interarrival_s: 5.0,
            period_s: 600.0,
            burst_len_s: 60.0,
            intensity: 8.0,
        };
        assert_eq!(a.name(), b.name());
        assert_ne!(a.label(), b.label());
    }

    #[test]
    fn every_kind_builds_a_deterministic_sorted_source() {
        for kind in [
            WorkloadKind::FsPreliminary,
            WorkloadKind::FsMicroSteps,
            WorkloadKind::RealMix,
            WorkloadKind::real_gpu(),
            WorkloadKind::burst(),
            WorkloadKind::diurnal(),
        ] {
            let a = collect_jobs(kind.build(30, 7).as_mut());
            let b = collect_jobs(kind.build(30, 7).as_mut());
            assert_eq!(a.len(), 30, "{kind:?}");
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.index, i as u32, "{kind:?}");
                assert_eq!(x.arrival_s, y.arrival_s, "{kind:?}");
                assert_eq!(x.submit_procs, y.submit_procs, "{kind:?}");
            }
            for w in a.windows(2) {
                assert!(w[1].arrival_s >= w[0].arrival_s, "{kind:?} not sorted");
            }
        }
    }

    #[test]
    fn gpu_share_spreads_tags_evenly_without_touching_the_stream() {
        // permille = 0 is bit-identical to the plain mix.
        let plain = collect_jobs(WorkloadKind::RealMix.build(60, 11).as_mut());
        let zero = collect_jobs(
            WorkloadKind::RealMixGpu { permille: 0 }
                .build(60, 11)
                .as_mut(),
        );
        assert_eq!(plain.len(), zero.len());
        for (p, z) in plain.iter().zip(&zero) {
            assert_eq!(p.arrival_s.to_bits(), z.arrival_s.to_bits());
            assert_eq!(p.step_s.to_bits(), z.step_s.to_bits());
            assert_eq!(p.submit_procs, z.submit_procs);
            assert!(!z.gpu);
        }
        // Non-zero permille only flips the tag, never the bodies.
        let tagged = collect_jobs(
            WorkloadKind::RealMixGpu { permille: 250 }
                .build(60, 11)
                .as_mut(),
        );
        for (p, t) in plain.iter().zip(&tagged) {
            assert_eq!(p.arrival_s.to_bits(), t.arrival_s.to_bits());
            assert_eq!(p.submit_procs, t.submit_procs);
        }
        // Bresenham: exactly floor(n * p / 1000) tags over any prefix.
        let n_gpu = tagged.iter().filter(|j| j.gpu).count();
        assert_eq!(n_gpu, 60 * 250 / 1000);
        for (i, j) in tagged.iter().enumerate() {
            let (i, p) = (i as u64, 250u64);
            assert_eq!(j.gpu, (i + 1) * p / 1000 > i * p / 1000);
        }
    }

    #[test]
    fn capped_source_stops_early() {
        let mut src = Capped::new(Feitelson::new(WorkloadConfig::fs_preliminary(50), 3), 10);
        assert_eq!(collect_jobs(&mut src).len(), 10);
        assert!(src.next_job().is_none());
    }
}
