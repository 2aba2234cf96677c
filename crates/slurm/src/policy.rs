//! The pluggable reconfiguration-policy layer.
//!
//! The paper describes Algorithm 1 as a *plug-in* to the RMS (§IV): the
//! scheduler owns the mechanism — envelopes, the resizer-job protocol,
//! priority boosts, node accounting — while the decision procedure is
//! swappable. This module realises that split:
//!
//! * [`ResizePolicy`] — the plug-in interface. A policy is a pure decision
//!   function over the scheduler's public state; every side effect (the
//!   §IV-3 priority boost, the §III protocols) stays in the mechanism.
//! * [`Hold`] — what a policy may promise about its "no action" verdicts,
//!   so a caller can skip consultations whose answer is known
//!   ([`Algorithm1`] without a preference and [`EnergyAware`] grant one).
//! * [`PolicyKind`] — a `Copy` selector carried by
//!   [`crate::slurm::SlurmConfig`], so experiment configurations stay
//!   plain data.
//! * [`Algorithm1`] — the paper's decision procedure, bit-for-bit the
//!   behaviour the driver test-suite pins down.
//! * [`UtilizationTarget`] — expand/shrink to hold cluster utilization
//!   inside a band.
//! * [`FairShare`] — aging-weighted: only queued jobs that have waited
//!   long enough trigger shrinks, but then the shrink is sized to the
//!   cumulative demand of every starved job, not just the first.

use dmr_sim::SimTime;

use crate::job::{JobId, JobState, ResizeEnvelope};
use crate::slurm::Slurm;

/// The verdict returned to the runtime through the DMR API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResizeAction {
    /// Keep the current size.
    NoAction,
    /// Grow to `to` processes (the caller drives the resizer-job
    /// protocol).
    Expand { to: u32 },
    /// Shrink to `to` processes. `beneficiary` is the queued job the
    /// released nodes are destined for; the scheduler boosts it to
    /// maximum priority when the decision is returned.
    Shrink { to: u32, beneficiary: Option<JobId> },
}

impl ResizeAction {
    pub fn is_action(self) -> bool {
        !matches!(self, ResizeAction::NoAction)
    }
}

/// When a policy's "no action" for one job provably repeats: a promise
/// that, whenever the job is at the size the hold was granted at —
/// including after a resize away and back — [`ResizePolicy::decide`]
/// answers [`ResizeAction::NoAction`] in every scheduler state where
/// [`Hold::stands`]. The conditions read only the
/// free count, the queued count and one bit scan of the need view, so a
/// caller can test them at every step boundary for far less than a
/// consultation costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hold {
    /// The hold breaks once this many nodes are free (`u32::MAX`: never).
    pub expand_at: u32,
    /// The hold breaks while a queued job needs more than the free nodes
    /// and at most `reach` more (0: no queued job can break it).
    pub reach: u32,
    /// `Some(q)`: the hold stands only while whether anything is queued
    /// equals `q`.
    pub queued: Option<bool>,
}

impl Hold {
    /// Whether the hold's conditions stand in `slurm`'s current state.
    pub fn stands(&self, slurm: &Slurm) -> bool {
        let free = slurm.cluster().free_nodes();
        if free >= self.expand_at {
            return false;
        }
        if self
            .queued
            .is_some_and(|q| q != (slurm.queued_count() != 0))
        {
            return false;
        }
        self.reach == 0
            || slurm
                .min_queued_need_above(free)
                .is_none_or(|need| need > free.saturating_add(self.reach))
    }
}

/// A reconfiguration decision procedure — the paper's RMS plug-in.
///
/// Implementations read the scheduler through `&Slurm` only; the
/// scheduler guarantees that `job` exists, is running, and carries a
/// malleability envelope before the plug-in is consulted, and applies
/// the beneficiary priority boost itself afterwards. Policies therefore
/// never mutate scheduler state.
pub trait ResizePolicy: Send {
    /// Short machine-friendly name (used in sweep CSV output).
    fn name(&self) -> &'static str;

    /// Decide the resize action for running flexible job `job`.
    fn decide(&self, slurm: &Slurm, job: JobId, now: SimTime) -> ResizeAction;

    /// The conditions under which [`ResizePolicy::decide`] answers "no
    /// action" for running flexible job `job` at its current size, in any
    /// scheduler state (see [`Hold`]), or `None` when the policy cannot
    /// say cheaply. The default promises nothing.
    fn hold(&self, _slurm: &Slurm, _job: JobId) -> Option<Hold> {
        None
    }

    /// How many currently idle nodes the policy wants powered down to
    /// their off state (S5). The driver consults this once per
    /// reconfiguration cycle and applies the verdict through the
    /// cluster's power-management API, charging a wake-up latency
    /// before the nodes serve work again. The default (0) keeps
    /// power-agnostic policies exactly as they were.
    fn idle_power_down(&self, _slurm: &Slurm, _now: SimTime) -> u32 {
        0
    }
}

/// Policy selector carried by scheduler / experiment configurations.
///
/// Keeping the selector `Copy` (parameters embedded) lets
/// [`crate::slurm::SlurmConfig`] and downstream experiment configs remain
/// plain data; [`PolicyKind::build`] instantiates the trait object.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum PolicyKind {
    /// The paper's Algorithm 1 (§IV).
    #[default]
    Algorithm1,
    /// Hold allocated-node utilization inside `[low, high]` (fractions).
    UtilizationTarget { low: f64, high: f64 },
    /// Aging-weighted shrinks: queued jobs older than `age_threshold_s`
    /// seconds trigger demand-sized shrinks.
    FairShare { age_threshold_s: f64 },
    /// Energy-first: consolidate flexible jobs onto the efficient end of
    /// the machine and power idle nodes (beyond `reserve`) down to S5.
    EnergyAware { reserve: u32 },
}

impl PolicyKind {
    /// [`PolicyKind::UtilizationTarget`] with the default band.
    pub fn utilization_target() -> Self {
        PolicyKind::UtilizationTarget {
            low: 0.55,
            high: 0.85,
        }
    }

    /// [`PolicyKind::FairShare`] with the default aging threshold.
    pub fn fair_share() -> Self {
        PolicyKind::FairShare {
            age_threshold_s: 120.0,
        }
    }

    /// [`PolicyKind::EnergyAware`] with the default idle reserve.
    pub fn energy_aware() -> Self {
        PolicyKind::EnergyAware { reserve: 2 }
    }

    /// Stable name (matches [`ResizePolicy::name`] of the built policy).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Algorithm1 => "algorithm1",
            PolicyKind::UtilizationTarget { .. } => "utilization-target",
            PolicyKind::FairShare { .. } => "fair-share",
            PolicyKind::EnergyAware { .. } => "energy-aware",
        }
    }

    /// Name plus parameters — unique per parameterization, so two
    /// differently-tuned instances of the same policy stay
    /// distinguishable in scenario names and sweep CSV keys.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Algorithm1 => "algorithm1".into(),
            PolicyKind::UtilizationTarget { low, high } => {
                format!("utilization-target-{low}-{high}")
            }
            PolicyKind::FairShare { age_threshold_s } => {
                format!("fair-share-{age_threshold_s}")
            }
            PolicyKind::EnergyAware { reserve } => {
                format!("energy-aware-{reserve}")
            }
        }
    }

    /// Instantiates the policy this selector describes.
    pub fn build(self) -> Box<dyn ResizePolicy> {
        match self {
            PolicyKind::Algorithm1 => Box::new(Algorithm1),
            PolicyKind::UtilizationTarget { low, high } => {
                Box::new(UtilizationTarget { low, high })
            }
            PolicyKind::FairShare { age_threshold_s } => Box::new(FairShare { age_threshold_s }),
            PolicyKind::EnergyAware { reserve } => Box::new(EnergyAware { reserve }),
        }
    }
}

/// Envelope of a job the mechanism has already validated.
fn envelope_of(slurm: &Slurm, job: JobId) -> ResizeEnvelope {
    slurm
        .job(job)
        .and_then(|j| j.resize)
        .expect("scheduler consults the policy only for flexible running jobs")
}

// ---------------------------------------------------------------------
// Algorithm 1
// ---------------------------------------------------------------------

/// Algorithm 1 of the paper (§IV). Three scheduling-freedom modes are
/// realised by one decision procedure:
///
/// 1. **Request an action** — a job may "strongly suggest" an action by
///    setting its envelope bounds (e.g. `min > current` forces an expand
///    attempt); the RMS still owns the final verdict.
/// 2. **Preferred number of nodes** — if a preference is given: equal to
///    the current size ⇒ no action; alone in the system ⇒ expand to the
///    maximum; otherwise try to expand/shrink towards the preference.
/// 3. **Wide optimization** — everything else: expand when nothing queued
///    could use the nodes anyway, shrink when that lets a queued job start
///    (the scheduler then boosts it to maximum priority).
#[derive(Clone, Copy, Default, Debug)]
pub struct Algorithm1;

impl ResizePolicy for Algorithm1 {
    fn name(&self) -> &'static str {
        "algorithm1"
    }

    fn decide(&self, slurm: &Slurm, job: JobId, _now: SimTime) -> ResizeAction {
        let env = envelope_of(slurm, job);
        let current = slurm.nodes_of(job);
        let free = slurm.cluster().free_nodes();

        if let Some(pref) = env.preferred {
            if slurm.queued_count() == 0 && slurm.running_count() == 1 {
                // Line 2-4: alone in the system — expand to the job max.
                match env.max_procs_to(current, env.max, free) {
                    Some(t) => ResizeAction::Expand { to: t },
                    None => ResizeAction::NoAction,
                }
            } else if pref == current {
                // §IV-2: "If the desired size corresponds to the current
                // size, the RMS will return no action."
                ResizeAction::NoAction
            } else if pref > current {
                // Line 6-8: try to expand towards the preference.
                match env.max_procs_to(current, pref, free) {
                    Some(t) => ResizeAction::Expand { to: t },
                    None => wide_optimization(slurm, current, free, env),
                }
            } else if env.can_shrink_to(current, pref) {
                // Line 10-12: shrink exactly to the preference.
                ResizeAction::Shrink {
                    to: pref,
                    beneficiary: None,
                }
            } else {
                wide_optimization(slurm, current, free, env)
            }
        } else {
            wide_optimization(slurm, current, free, env)
        }
    }

    /// Without a preference the verdict is lines 13–24's alone: no
    /// action exactly while no queued job is within the deepest shrink's
    /// reach and one factor step does not fit the free nodes.
    fn hold(&self, slurm: &Slurm, job: JobId) -> Option<Hold> {
        let env = envelope_of(slurm, job);
        if env.preferred.is_some() {
            return None;
        }
        let current = slurm.nodes_of(job);
        Some(Hold {
            expand_at: expand_threshold(env, current),
            reach: shrink_reach(env, current),
            queued: None,
        })
    }
}

/// The fewest free nodes with which [`ResizeEnvelope::max_procs_to`]
/// towards the envelope maximum finds a step from `current` — the growth
/// of one factor step — or `u32::MAX` when that step leaves the envelope.
fn expand_threshold(env: ResizeEnvelope, current: u32) -> u32 {
    if env.factor < 2 || current == 0 {
        return u32::MAX;
    }
    match current.checked_mul(env.factor) {
        Some(t) if t <= env.max => t - current,
        _ => u32::MAX,
    }
}

/// The nodes the deepest step of `current`'s shrink chain releases — the
/// most [`shrink_for_first_blocked`] can offer a queued job (0 at the
/// envelope floor).
fn shrink_reach(env: ResizeEnvelope, current: u32) -> u32 {
    env.shrink_steps(current)
        .last()
        .map_or(0, |to| current - to)
}

/// Lines 13–24 of Algorithm 1.
fn wide_optimization(slurm: &Slurm, current: u32, free: u32, env: ResizeEnvelope) -> ResizeAction {
    // Line 15: can another job run with my resources? Find the first
    // queued job, in priority order, that a feasible shrink would admit,
    // and shrink as little as necessary (keeping the most processes that
    // still releases enough). Jobs that already fit in the free nodes
    // start on their own at the next scheduling cycle and are skipped;
    // greedily expanding into "their" nodes afterwards is deliberate — a
    // later check releases the nodes again if someone needs them, and
    // idling them would be worse (this mirrors the paper's observation
    // that the RMS, not the policy, owns final placement).
    if let Some(shrink) = shrink_for_first_blocked(slurm, current, free, env) {
        return shrink;
    }
    // Lines 19–24: the queue is empty, or nothing queued can be helped —
    // expand so this job finishes (and releases everything) sooner.
    match env.max_procs_to(current, env.max, free) {
        Some(t) => ResizeAction::Expand { to: t },
        None => ResizeAction::NoAction,
    }
}

/// The minimal shrink admitting the first queued job that is blocked on
/// nodes, if any (Algorithm 1 lines 15–18 without the expand fallback) —
/// the one beneficiary search [`Algorithm1`], [`UtilizationTarget`] and
/// [`EnergyAware`] share.
///
/// Shrinking to the deepest step of the chain releases `reach` nodes, so
/// the beneficiary is the first queued job requesting more than `free`
/// and at most `free + reach`. A job already at its envelope floor has
/// an empty chain (`reach` 0) and returns before the queue is looked at
/// — the common case on an overloaded machine. Otherwise the scheduler's
/// need view answers in O(distinct needs in range), whatever the queue
/// depth.
fn shrink_for_first_blocked(
    slurm: &Slurm,
    current: u32,
    free: u32,
    env: ResizeEnvelope,
) -> Option<ResizeAction> {
    let reach = shrink_reach(env, current);
    let (beneficiary, req) = slurm.first_queued_needing(free, reach)?;
    let missing = req - free;
    let to = env
        .shrink_steps(current)
        .find(|to| current - to >= missing)?;
    Some(ResizeAction::Shrink {
        to,
        beneficiary: Some(beneficiary),
    })
}

// ---------------------------------------------------------------------
// UtilizationTarget
// ---------------------------------------------------------------------

/// Hold cluster utilization inside a band.
///
/// * Allocated fraction below `low` — expand towards the envelope
///   maximum (idle nodes are wasted capacity).
/// * Allocated fraction above `high` with jobs queued — shrink minimally
///   so the highest-priority blocked job can start (pressure relief).
/// * Inside the band — no action; reconfigurations are not free, so a
///   healthy cluster is left alone. This is the main behavioural contrast
///   with [`Algorithm1`], which reconfigures opportunistically.
#[derive(Clone, Copy, Debug)]
pub struct UtilizationTarget {
    pub low: f64,
    pub high: f64,
}

impl ResizePolicy for UtilizationTarget {
    fn name(&self) -> &'static str {
        "utilization-target"
    }

    fn decide(&self, slurm: &Slurm, job: JobId, now: SimTime) -> ResizeAction {
        let env = envelope_of(slurm, job);
        let current = slurm.nodes_of(job);
        let free = slurm.cluster().free_nodes();
        let total = slurm.cluster().total_nodes().max(1);
        let util = slurm.allocated_nodes() as f64 / total as f64;

        if util < self.low {
            // A grow must not consume the planned backfill hole of the
            // first blocked queued job.
            return match env.max_procs_to(current, env.max, free) {
                Some(t) if !slurm.grow_steals_backfill_hole(job, t, now) => {
                    ResizeAction::Expand { to: t }
                }
                _ => ResizeAction::NoAction,
            };
        }
        if util > self.high {
            if let Some(shrink) = shrink_for_first_blocked(slurm, current, free, env) {
                return shrink;
            }
        }
        ResizeAction::NoAction
    }
}

// ---------------------------------------------------------------------
// EnergyAware
// ---------------------------------------------------------------------

/// Energy-first decision procedure.
///
/// * Jobs queued — behave like [`Algorithm1`]'s pressure-relief move
///   (the minimal shrink admitting the first blocked job) but never
///   expand: extra width is extra watts while others wait.
/// * Empty queue — consolidate: honour a shrink-side preference, or
///   take the *deepest* envelope step towards the minimum. Released
///   nodes are the highest ids, which under the efficient-first class
///   layout belong to the least efficient classes — exactly the nodes
///   [`ResizePolicy::idle_power_down`] then asks to power down to S5
///   (everything idle beyond the `reserve` warm pool).
/// * The one expand this policy issues (towards an explicit envelope
///   preference, queue empty) is guarded by
///   [`Slurm::grow_steals_backfill_hole`].
#[derive(Clone, Copy, Debug)]
pub struct EnergyAware {
    /// Idle nodes kept up (C-state, not S5) as a warm pool for new
    /// arrivals; everything idle beyond this is a power-down candidate.
    pub reserve: u32,
}

impl ResizePolicy for EnergyAware {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn decide(&self, slurm: &Slurm, job: JobId, now: SimTime) -> ResizeAction {
        let env = envelope_of(slurm, job);
        let current = slurm.nodes_of(job);
        let free = slurm.cluster().free_nodes();

        if slurm.queued_count() != 0 {
            return shrink_for_first_blocked(slurm, current, free, env)
                .unwrap_or(ResizeAction::NoAction);
        }
        if let Some(pref) = env.preferred {
            if pref > current {
                return match env.max_procs_to(current, pref, free) {
                    Some(t) if !slurm.grow_steals_backfill_hole(job, t, now) => {
                        ResizeAction::Expand { to: t }
                    }
                    _ => ResizeAction::NoAction,
                };
            }
            if pref < current && env.can_shrink_to(current, pref) {
                return ResizeAction::Shrink {
                    to: pref,
                    beneficiary: None,
                };
            }
            return ResizeAction::NoAction;
        }
        match env.shrink_steps(current).last() {
            Some(to) => ResizeAction::Shrink {
                to,
                beneficiary: None,
            },
            None => ResizeAction::NoAction,
        }
    }

    /// With jobs queued the verdict is the beneficiary search alone, so
    /// no action holds while nobody queued is within the deepest shrink's
    /// reach. At the envelope floor, with no preference above the current
    /// size, both branches answer no action whatever the queue holds.
    fn hold(&self, slurm: &Slurm, job: JobId) -> Option<Hold> {
        let env = envelope_of(slurm, job);
        let current = slurm.nodes_of(job);
        let reach = shrink_reach(env, current);
        let anywhere = reach == 0 && env.preferred.is_none_or(|pref| pref <= current);
        Some(Hold {
            expand_at: u32::MAX,
            reach,
            queued: (!anywhere).then_some(true),
        })
    }

    fn idle_power_down(&self, slurm: &Slurm, _now: SimTime) -> u32 {
        if slurm.queued_count() != 0 {
            return 0;
        }
        slurm.cluster().free_nodes().saturating_sub(self.reserve)
    }
}

// ---------------------------------------------------------------------
// FairShare
// ---------------------------------------------------------------------

/// Aging-weighted decision procedure.
///
/// Queued jobs accrue age from submission; only jobs whose wait exceeds
/// `age_threshold_s` ("starved" jobs) may trigger a shrink — fresh
/// arrivals wait their fair share while running jobs keep their
/// allocation. When starved jobs exist the shrink is sized to their
/// *cumulative* node demand (deepest feasible step on the factor chain),
/// so a long queue drains faster than under [`Algorithm1`]'s minimal
/// one-beneficiary shrinks. With an empty queue it expands like
/// Algorithm 1; with a fresh (non-starved) queue it holds steady instead
/// of greedily expanding into nodes the aging queue will soon claim.
#[derive(Clone, Copy, Debug)]
pub struct FairShare {
    pub age_threshold_s: f64,
}

impl ResizePolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn decide(&self, slurm: &Slurm, job: JobId, now: SimTime) -> ResizeAction {
        let env = envelope_of(slurm, job);
        let current = slurm.nodes_of(job);
        let free = slurm.cluster().free_nodes();
        let pending = slurm.pending_queue(now);

        if pending.is_empty() {
            return match env.max_procs_to(current, env.max, free) {
                Some(t) => ResizeAction::Expand { to: t },
                None => ResizeAction::NoAction,
            };
        }

        // Longest-waiting first; the stable sort keeps queue order among
        // equal waits.
        let mut aged: Vec<(JobId, f64, u32)> = pending
            .iter()
            .filter_map(|&id| {
                let j = slurm.job(id)?;
                let waited = now.since(j.submit_time).as_secs_f64();
                Some((id, waited, j.requested_nodes))
            })
            .collect();
        aged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let starved: Vec<&(JobId, f64, u32)> = aged
            .iter()
            .filter(|(_, waited, _)| *waited >= self.age_threshold_s)
            .collect();
        if starved.is_empty() {
            // Fresh queue: hold steady, let the scheduler place them.
            return ResizeAction::NoAction;
        }

        // The oldest starved job blocked on nodes is the beneficiary; the
        // shrink depth covers the cumulative starved demand if the factor
        // chain allows it.
        let demand: u32 = starved.iter().map(|(_, _, req)| req).sum();
        let cumulative_missing = demand.saturating_sub(free);
        let beneficiary = starved
            .iter()
            .find(|(_, _, req)| req.saturating_sub(free) > 0);
        let Some(&&(bene, _, req)) = beneficiary else {
            // Everything starved already fits in the free nodes.
            return ResizeAction::NoAction;
        };
        let first_missing = req.saturating_sub(free);
        // Deepest step still bounded below by what the beneficiary needs:
        // prefer covering the full starved demand, fall back to the
        // minimal admitting step.
        let deep = env
            .shrink_steps(current)
            .filter(|to| current - to >= first_missing)
            .min_by_key(|to| {
                let released = current - to;
                if released >= cumulative_missing {
                    // Covers everything: prefer the *largest* remaining
                    // size among full-coverage steps.
                    (0u32, u32::MAX - to)
                } else {
                    // Partial coverage: prefer deeper (more released).
                    (1u32, u32::MAX - released)
                }
            });
        match deep {
            Some(to) => ResizeAction::Shrink {
                to,
                beneficiary: Some(bene),
            },
            None => ResizeAction::NoAction,
        }
    }
}

// ---------------------------------------------------------------------
// The mechanism half: Slurm consults its installed policy.
// ---------------------------------------------------------------------

impl Slurm {
    /// Consults the installed [`ResizePolicy`] for running job `id`.
    ///
    /// The mechanism half of the split lives here: validity guards (the
    /// policy only ever sees running flexible jobs — rigid jobs never
    /// move, the framework being "compatible with unmodified non-malleable
    /// applications", §II) and the §IV-3 side effect of a
    /// wide-optimization shrink — the triggering queued job gets maximum
    /// priority (Algorithm 1 line 18) unless the ablation knob disables
    /// it.
    pub fn decide_resize(&mut self, id: JobId, now: SimTime) -> ResizeAction {
        let Some(job) = self.job(id) else {
            return ResizeAction::NoAction;
        };
        if job.state != JobState::Running {
            return ResizeAction::NoAction;
        }
        if job.resize.is_none() {
            return ResizeAction::NoAction;
        }
        let decision = self.policy.decide(self, id, now);

        if let ResizeAction::Shrink {
            beneficiary: Some(b),
            ..
        } = decision
        {
            if self.config.shrink_boost {
                self.boost(b);
            }
        }
        decision
    }

    /// The installed policy's [`Hold`] for running flexible job `id` at
    /// its current size ([`ResizePolicy::hold`]); `None` for any other
    /// job, and from a policy that grants none.
    pub fn resize_hold(&self, id: JobId) -> Option<Hold> {
        let job = self.job(id)?;
        if job.state != JobState::Running || job.resize.is_none() {
            return None;
        }
        self.policy.hold(self, id)
    }

    /// Consults the installed policy's power verdict
    /// ([`ResizePolicy::idle_power_down`]): how many idle nodes to power
    /// down to S5 right now. 0 for power-agnostic policies.
    pub fn decide_power_down(&self, now: SimTime) -> u32 {
        self.policy.idle_power_down(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRequest, ResizeEnvelope};
    use crate::slurm::SlurmConfig;
    use dmr_cluster::Cluster;
    use dmr_sim::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn env(min: u32, max: u32, pref: Option<u32>) -> ResizeEnvelope {
        ResizeEnvelope {
            min,
            max,
            preferred: pref,
            factor: 2,
        }
    }

    fn slurm(nodes: u32) -> Slurm {
        Slurm::with_cluster(Cluster::new(nodes, 16))
    }

    fn slurm_with_policy(nodes: u32, policy: PolicyKind) -> Slurm {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        cfg.policy = policy;
        Slurm::new(Cluster::new(nodes, 16), cfg)
    }

    #[test]
    fn rigid_job_gets_no_action() {
        let mut s = slurm(16);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        s.schedule(t(0));
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::NoAction);
    }

    #[test]
    fn alone_with_preference_expands_to_max() {
        let mut s = slurm(64);
        let a = s.submit(JobRequest::flexible("a", 8, env(2, 32, Some(8))), t(0));
        s.schedule(t(0));
        // Only job in the system: expand to the envelope max even though
        // the preference is satisfied (Algorithm 1 line 2).
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 32 });
    }

    #[test]
    fn preference_equal_and_not_alone_is_no_action() {
        let mut s = slurm(64);
        let a = s.submit(JobRequest::flexible("a", 8, env(2, 32, Some(8))), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::NoAction);
    }

    #[test]
    fn shrinks_exactly_to_preference() {
        let mut s = slurm(64);
        let a = s.submit(JobRequest::flexible("a", 32, env(2, 32, Some(8))), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        assert_eq!(
            s.decide_resize(a, t(1)),
            ResizeAction::Shrink {
                to: 8,
                beneficiary: None
            }
        );
    }

    #[test]
    fn expands_towards_preference_when_possible() {
        let mut s = slurm(64);
        let a = s.submit(JobRequest::flexible("a", 2, env(2, 32, Some(8))), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 8 });
    }

    #[test]
    fn wide_expands_when_queue_empty() {
        let mut s = slurm(20);
        let a = s.submit(JobRequest::flexible("a", 4, env(1, 16, None)), t(0));
        s.schedule(t(0));
        // 16 free, chain 8, 16 both reachable: best is 16.
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 16 });
    }

    #[test]
    fn wide_expand_bounded_by_free_nodes() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::flexible("a", 4, env(1, 16, None)), t(0));
        let _b = s.submit(JobRequest::rigid("b", 2), t(0));
        s.schedule(t(0));
        // 4 free: 8 reachable (delta 4), 16 not.
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 8 });
    }

    #[test]
    fn wide_shrinks_minimally_for_queued_job_and_boosts_it() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::flexible("a", 8, env(1, 16, None)), t(0));
        s.schedule(t(0));
        let q = s.submit(JobRequest::rigid("q", 5), t(1));
        s.schedule(t(1)); // q cannot start: needs 5, 2 free
        let action = s.decide_resize(a, t(2));
        // Shrink chain from 8: [4, 2, 1]; need to release >= 3 → to=4.
        assert_eq!(
            action,
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q)
            }
        );
        assert!(s.job(q).unwrap().boosted, "beneficiary must be boosted");
    }

    #[test]
    fn wide_expands_when_queued_job_cannot_be_helped() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::flexible("a", 4, env(4, 16, None)), t(0));
        s.schedule(t(0));
        // Queued job needs 10; even shrinking to min=4 releases 0 extra.
        let _q = s.submit(JobRequest::rigid("q", 10), t(1));
        s.schedule(t(1));
        // 6 free: expand to 8 (delta 4 <= 6); 16 unreachable.
        assert_eq!(s.decide_resize(a, t(2)), ResizeAction::Expand { to: 8 });
    }

    #[test]
    fn startable_pending_job_is_not_a_shrink_trigger() {
        let mut s = slurm(20);
        let a = s.submit(JobRequest::flexible("a", 8, env(1, 16, None)), t(0));
        s.schedule(t(0));
        // This job fits in the 12 free nodes; policy must skip it and
        // expand instead (it will start on its own).
        let _q = s.submit(JobRequest::rigid("q", 2), t(1));
        match s.decide_resize(a, t(2)) {
            ResizeAction::Expand { .. } => {}
            other => panic!("expected expand, got {other:?}"),
        }
    }

    #[test]
    fn saturated_job_gets_no_action() {
        let mut s = slurm(40);
        let a = s.submit(JobRequest::flexible("a", 16, env(1, 16, None)), t(0));
        s.schedule(t(0));
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::NoAction);
    }

    #[test]
    fn pending_job_itself_gets_no_action() {
        let mut s = slurm(4);
        let hog = s.submit(JobRequest::rigid("hog", 4), t(0));
        s.schedule(t(0));
        let p = s.submit(JobRequest::flexible("p", 2, env(1, 4, None)), t(1));
        assert_eq!(s.decide_resize(p, t(2)), ResizeAction::NoAction);
        let _ = hog;
    }

    #[test]
    fn preferred_job_blocked_from_preference_falls_to_wide() {
        // Preference is 8 but only 2 nodes free → cannot expand to
        // preferred; wide optimization finds a queued job to help.
        let mut s = slurm(10);
        let a = s.submit(JobRequest::flexible("a", 4, env(2, 32, Some(8))), t(0));
        let _b = s.submit(JobRequest::rigid("b", 4), t(0));
        s.schedule(t(0));
        let q = s.submit(JobRequest::rigid("q", 4), t(1));
        s.schedule(t(1));
        // a holds 4, b holds 4, 2 free. q needs 4, missing 2. Shrink chain
        // from 4: [2]; 4-2=2 >= 2 → shrink to 2 for q.
        assert_eq!(
            s.decide_resize(a, t(2)),
            ResizeAction::Shrink {
                to: 2,
                beneficiary: Some(q)
            }
        );
    }

    // -----------------------------------------------------------------
    // PolicyKind plumbing
    // -----------------------------------------------------------------

    #[test]
    fn policy_kind_names_are_stable() {
        assert_eq!(PolicyKind::Algorithm1.name(), "algorithm1");
        assert_eq!(
            PolicyKind::utilization_target().name(),
            "utilization-target"
        );
        assert_eq!(PolicyKind::fair_share().name(), "fair-share");
        for kind in [
            PolicyKind::Algorithm1,
            PolicyKind::utilization_target(),
            PolicyKind::fair_share(),
        ] {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn policy_labels_distinguish_parameterizations() {
        let a = PolicyKind::UtilizationTarget {
            low: 0.4,
            high: 0.7,
        };
        let b = PolicyKind::utilization_target();
        assert_eq!(a.name(), b.name());
        assert_ne!(a.label(), b.label());
        assert_eq!(
            PolicyKind::fair_share().label(),
            "fair-share-120".to_string()
        );
    }

    #[test]
    fn installed_policy_is_swappable() {
        let mut s = slurm(64);
        assert_eq!(s.policy_name(), "algorithm1");
        s.set_policy(PolicyKind::fair_share().build());
        assert_eq!(s.policy_name(), "fair-share");
    }

    // -----------------------------------------------------------------
    // UtilizationTarget
    // -----------------------------------------------------------------

    #[test]
    fn utilization_below_band_expands() {
        let mut s = slurm_with_policy(20, PolicyKind::utilization_target());
        let a = s.submit(JobRequest::flexible("a", 4, env(1, 16, None)), t(0));
        s.schedule(t(0));
        // 4/20 allocated = 0.2 < 0.55 → expand to the envelope max.
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 16 });
    }

    #[test]
    fn utilization_inside_band_holds_steady() {
        let mut s = slurm_with_policy(10, PolicyKind::utilization_target());
        let a = s.submit(JobRequest::flexible("a", 4, env(1, 16, None)), t(0));
        let _b = s.submit(JobRequest::rigid("b", 3), t(0));
        s.schedule(t(0));
        // 7/10 = 0.7 inside [0.55, 0.85] → no action, even though
        // Algorithm 1 would expand into the 3 free nodes.
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::NoAction);
    }

    #[test]
    fn utilization_above_band_shrinks_for_blocked_job() {
        let mut s = slurm_with_policy(10, PolicyKind::utilization_target());
        let a = s.submit(JobRequest::flexible("a", 8, env(1, 16, None)), t(0));
        let _b = s.submit(JobRequest::rigid("b", 1), t(0));
        s.schedule(t(0));
        let q = s.submit(JobRequest::rigid("q", 4), t(1));
        s.schedule(t(1)); // q blocked: needs 4, 1 free
                          // 9/10 = 0.9 > 0.85 → shrink minimally: chain [4, 2, 1], missing
                          // 3 → to=4 releases 4 ≥ 3.
        assert_eq!(
            s.decide_resize(a, t(2)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q)
            }
        );
        assert!(s.job(q).unwrap().boosted, "mechanism still boosts");
    }

    // -----------------------------------------------------------------
    // FairShare
    // -----------------------------------------------------------------

    #[test]
    fn fair_share_ignores_fresh_queue() {
        let mut s = slurm_with_policy(10, PolicyKind::fair_share());
        let a = s.submit(JobRequest::flexible("a", 8, env(1, 16, None)), t(0));
        s.schedule(t(0));
        let _q = s.submit(JobRequest::rigid("q", 5), t(1));
        s.schedule(t(1));
        // q has waited 1 s < 120 s: no shrink yet (Algorithm 1 would
        // shrink immediately).
        assert_eq!(s.decide_resize(a, t(2)), ResizeAction::NoAction);
    }

    #[test]
    fn fair_share_helps_starved_job() {
        let mut s = slurm_with_policy(10, PolicyKind::fair_share());
        let a = s.submit(JobRequest::flexible("a", 8, env(1, 16, None)), t(0));
        s.schedule(t(0));
        let q = s.submit(JobRequest::rigid("q", 5), t(1));
        s.schedule(t(1));
        // After 200 s the queued job is starved; shrink chain from 8 is
        // [4, 2, 1]; missing 3, cumulative demand also 3 → to=4.
        assert_eq!(
            s.decide_resize(a, t(201)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q)
            }
        );
        assert!(s.job(q).unwrap().boosted);
    }

    #[test]
    fn fair_share_sizes_shrink_to_cumulative_demand() {
        let mut s = slurm_with_policy(18, PolicyKind::fair_share());
        let a = s.submit(JobRequest::flexible("a", 16, env(1, 16, None)), t(0));
        s.schedule(t(0));
        let q1 = s.submit(JobRequest::rigid("q1", 6), t(1));
        let _q2 = s.submit(JobRequest::rigid("q2", 6), t(2));
        s.schedule(t(2));
        // 2 free; both starved at t=300: demand 12, cumulative missing 10.
        // Chain from 16: [8, 4, 2, 1]. to=4 releases 12 ≥ 10 (full
        // coverage); to=8 releases only 8. FairShare digs to 4 where
        // Algorithm 1 would stop at 8.
        assert_eq!(
            s.decide_resize(a, t(300)),
            ResizeAction::Shrink {
                to: 4,
                beneficiary: Some(q1)
            }
        );
    }

    #[test]
    fn fair_share_expands_on_empty_queue() {
        let mut s = slurm_with_policy(20, PolicyKind::fair_share());
        let a = s.submit(JobRequest::flexible("a", 4, env(1, 16, None)), t(0));
        s.schedule(t(0));
        assert_eq!(s.decide_resize(a, t(1)), ResizeAction::Expand { to: 16 });
    }
}
