//! Multifactor job priority.
//!
//! Slurm's `priority/multifactor` plug-in combines weighted factors (age,
//! job size, fair-share, QOS, nice). The paper enables it with default
//! values (§VII-A); defaults make age and job size the active terms, and
//! the reconfiguration policy adds one more input: an explicit max-priority
//! boost for the queued job a shrink is making room for (§IV-3).

use dmr_sim::{SimTime, Span};

use crate::job::Job;

/// Weights for the priority factors. Factor values are normalised to
/// `[0, 1]` then scaled by their weight, mirroring Slurm's fixed-point
/// arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct MultifactorConfig {
    /// Weight of the age factor.
    pub weight_age: u64,
    /// Age at which the age factor saturates.
    pub max_age: Span,
    /// Weight of the job-size factor (larger jobs score higher, Slurm's
    /// default favours big jobs to fight starvation).
    pub weight_size: u64,
    /// Total nodes used to normalise the size factor.
    pub total_nodes: u32,
}

impl MultifactorConfig {
    /// Slurm defaults: `priority/multifactor` with default weights leaves
    /// every factor at zero except what ages naturally — queue order
    /// degenerates to submission order (the paper enables the plug-in
    /// "configured with default values", §VII-A). We keep a pure age
    /// weight so ordering is explicit and deterministic.
    pub fn with_total_nodes(total_nodes: u32) -> Self {
        MultifactorConfig {
            weight_age: 1000,
            max_age: Span::from_secs(24 * 3600),
            weight_size: 0,
            total_nodes: total_nodes.max(1),
        }
    }

    /// Size-aware variant (non-default in Slurm): favours wide jobs, which
    /// packs better — kept as an ablation configuration.
    pub fn size_weighted(total_nodes: u32) -> Self {
        MultifactorConfig {
            weight_size: 1000,
            ..MultifactorConfig::with_total_nodes(total_nodes)
        }
    }

    /// Priority of `job` at instant `now`. Boosted jobs sort above every
    /// non-boosted job regardless of factors.
    pub fn priority(&self, job: &Job, now: SimTime) -> u64 {
        if job.boosted {
            return u64::MAX;
        }
        let age = now.since(job.submit_time);
        let age_norm = if self.max_age.is_zero() {
            1.0
        } else {
            (age.as_secs_f64() / self.max_age.as_secs_f64()).min(1.0)
        };
        let size_norm = (job.requested_nodes as f64 / self.total_nodes as f64).min(1.0);
        let score = self.weight_age as f64 * age_norm + self.weight_size as f64 * size_norm;
        job.base_priority.saturating_add(score.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobState};

    fn job(id: u64, nodes: u32, submit: u64) -> Job {
        Job {
            id: JobId(id),
            seq: id,
            detached_nodes: 0,
            name: format!("j{id}").into(),
            state: JobState::Pending,
            requested_nodes: nodes,
            time_limit: None,
            expected_runtime: Span::from_secs(60),
            dependency: None,
            base_priority: 0,
            boosted: false,
            resize: None,
            constraint: dmr_cluster::ClassConstraint::Any,
            submit_time: SimTime::from_secs(submit),
            start_time: None,
            end_time: None,
            reconfigurations: 0,
        }
    }

    #[test]
    fn older_jobs_rank_higher() {
        let cfg = MultifactorConfig::with_total_nodes(64);
        let old = job(1, 4, 0);
        let young = job(2, 4, 1000);
        let now = SimTime::from_secs(2000);
        assert!(cfg.priority(&old, now) > cfg.priority(&young, now));
    }

    #[test]
    fn bigger_jobs_rank_higher_at_same_age() {
        let cfg = MultifactorConfig::size_weighted(64);
        let big = job(1, 32, 0);
        let small = job(2, 2, 0);
        let now = SimTime::from_secs(100);
        assert!(cfg.priority(&big, now) > cfg.priority(&small, now));
    }

    #[test]
    fn age_factor_saturates() {
        let cfg = MultifactorConfig::with_total_nodes(64);
        let j = job(1, 4, 0);
        let p1 = cfg.priority(&j, SimTime::from_secs(24 * 3600));
        let p2 = cfg.priority(&j, SimTime::from_secs(48 * 3600));
        assert_eq!(p1, p2);
    }

    #[test]
    fn boost_dominates_everything() {
        let cfg = MultifactorConfig::with_total_nodes(64);
        let mut small_young = job(1, 1, 1_000_000);
        small_young.boosted = true;
        let big_old = job(2, 64, 0);
        let now = SimTime::from_secs(2_000_000);
        assert!(cfg.priority(&small_young, now) > cfg.priority(&big_old, now));
    }

    #[test]
    fn base_priority_adds() {
        let cfg = MultifactorConfig::with_total_nodes(64);
        let mut a = job(1, 4, 0);
        let b = job(2, 4, 0);
        a.base_priority = 10_000;
        let now = SimTime::from_secs(50);
        assert!(cfg.priority(&a, now) > cfg.priority(&b, now));
    }
}
