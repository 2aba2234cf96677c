//! The backfill pass (`sched/backfill`): EASY-k — indexed, or the walk
//! while a resizer or class-constrained job is pending — and
//! conservative, with the reservations both hold. Every walk of the
//! pending order is a cursor over the pending index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::successors;

use dmr_cluster::ClassConstraint;
use dmr_sim::{SimTime, Span};

use crate::arena::JobArena;
use crate::index::PendingKey;
use crate::job::{Job, JobId};
use crate::need::NeedBucket;
use crate::slotset::BackfillFamily;

use super::{JobStart, Slurm};

/// Running state of one EASY backfill pass. [`Slurm`] keeps it between
/// passes so that `reservations`, `stairs` and `candidates` are filled
/// into the buffers the last pass left: a pass allocates nothing but the
/// starts it returns (`started` leaves with the caller).
#[derive(Default)]
pub(super) struct EasyPass {
    /// Reservations the family grants (`k >= 1`).
    k: u32,
    /// The pass built the aggregate timeline ([`Slurm::build_timelines`]).
    aggregate: bool,
    started: Vec<JobStart>,
    /// `(shadow, spare)` of the blocked jobs holding a reservation.
    reservations: Vec<(SimTime, u32)>,
    /// The harmless check of the indexed pass, solved for the estimate.
    stairs: ShadowStairs,
    /// What the indexed pass still has to look at: `(key, need, whether
    /// the job stands for the rest of its need bucket)`, smallest key
    /// first (see [`ShadowStairs::candidates`]).
    candidates: BinaryHeap<Reverse<(PendingKey, u32, bool)>>,
    /// Refusal records for the elision memo (see [`BfMemo`](super::pass::BfMemo)).
    watermark: u32,
    fitting_refused: bool,
}

impl EasyPass {
    /// Readies the state for a pass granting `k` reservations.
    fn begin(&mut self, k: u32, aggregate: bool) {
        debug_assert!(self.started.is_empty(), "the last pass kept its starts");
        self.k = k;
        self.aggregate = aggregate;
        self.reservations.clear();
        self.candidates.clear();
        self.watermark = u32::MAX;
        self.fitting_refused = false;
    }
}

/// What [`Slurm::easy_visit`] did with one pending job.
enum EasyVisit {
    Started,
    Refused,
    /// Backfill is off and the job is the blocked head: strict
    /// priority-FIFO ends the pass here.
    Stop,
}

/// The harmless check of an EASY pass, solved for the runtime estimate:
/// a job requesting `n` nodes delays no reservation holder iff it ends by
/// the earliest shadow time among the reservations it does not fit
/// beside, `min { shadow_r : spare_r < n }`. Sorted by spare with a
/// running minimum of the shadows, that is one binary search per `n`.
#[derive(Default)]
struct ShadowStairs {
    /// `(spare, earliest shadow among reservations with at most that
    /// spare)`, ascending by spare.
    steps: Vec<(u32, SimTime)>,
    now: SimTime,
}

impl ShadowStairs {
    /// Solves the check for `reservations` as they stand at `now`.
    fn rebuild(&mut self, reservations: &[(SimTime, u32)], now: SimTime) {
        self.now = now;
        self.steps.clear();
        let by_spare = reservations.iter().map(|&(shadow, spare)| (spare, shadow));
        self.steps.extend(by_spare);
        self.steps.sort_unstable();
        let mut earliest = SimTime(u64::MAX);
        for step in &mut self.steps {
            earliest = earliest.min(step.1);
            step.1 = earliest;
        }
    }

    /// The longest runtime estimate a job requesting `need` nodes can
    /// have and still be harmless; `None` when any estimate is. (A
    /// shadow of `u64::MAX` — a reservation nothing can honour — admits
    /// every estimate too: `now + d` saturates there.)
    fn longest_harmless(&self, need: u32) -> Option<Span> {
        let beside = self.steps.partition_point(|&(spare, _)| spare < need);
        let (_, latest_end) = *self.steps.get(beside.checked_sub(1)?)?;
        (latest_end != SimTime(u64::MAX)).then(|| Span(latest_end.0.saturating_sub(self.now.0)))
    }

    /// What the pass has to look at among the jobs of `bucket` (all
    /// requesting `need` nodes) behind `after`, as entries of its
    /// candidate heap: `(key, need, whether the job stands for the rest
    /// of its bucket)`, reversed so the smallest key pops first.
    fn candidates<'a>(
        &self,
        need: u32,
        bucket: &'a NeedBucket,
        after: PendingKey,
        jobs: &'a JobArena,
    ) -> impl Iterator<Item = Reverse<(PendingKey, u32, bool)>> + 'a {
        bucket
            .candidates(after, self.longest_harmless(need), jobs)
            .map(move |(key, head)| Reverse((key, need, head)))
    }
}

impl Slurm {
    /// Earliest instant at which `need` nodes will be free, judging by
    /// running jobs' expected ends, plus the spare ("extra") nodes at that
    /// instant. This is the EASY backfill reservation for the top blocked
    /// job.
    fn reservation_for(&self, need: u32, now: SimTime) -> (SimTime, u32) {
        let mut free = self.cluster.free_nodes();
        for (end, nodes) in self.running_index.iter() {
            free += nodes;
            if free >= need {
                return (end.max(now), free - need);
            }
        }
        // Estimates never free enough nodes (can happen transiently while
        // resizer nodes are detached): no backfill headroom.
        (SimTime(u64::MAX), 0)
    }

    /// The periodic backfill pass (Slurm's backfill thread), dispatched
    /// on [`SlurmConfig::backfill_family`](super::SlurmConfig::backfill_family):
    ///
    /// * [`BackfillFamily::Easy`] — the first `k` blocked jobs get
    ///   shadow-time reservations (the first from the running index, the
    ///   deeper ones from the slot-set timeline); lower-priority jobs
    ///   jump ahead only if they delay none of them. `k = 1` is classic
    ///   EASY. The pass does not walk the queue: once the reservations
    ///   are held it visits, per requested node count that still fits,
    ///   only the jobs short enough to delay none of them — the walk's
    ///   decisions exactly, at a cost independent of the queue depth.
    ///   The walk remains the fallback whenever a resizer or
    ///   class-constrained job is pending.
    /// * [`BackfillFamily::Conservative`] — every blocked job gets a slot
    ///   planned in the timeline; a job starts now only if its whole
    ///   expected runtime fits under every plan.
    ///
    /// A pass whose memo is still valid — same family and knobs, a
    /// later-or-equal instant (the *same* instant if the pass refused a
    /// fitting job on a timeline's say-so; an indexed EASY-1 pass asks
    /// no timeline, so its refusals repeat at any later one) and no
    /// invalidating mutation since — is elided in O(1): it would start
    /// nothing and leave no observable state, bit-for-bit like running
    /// it.
    pub fn backfill_pass(&mut self, now: SimTime) -> Vec<JobStart> {
        if self.incr.bf_memo.as_ref().is_some_and(|m| {
            (if m.fitting_refused && !m.easy1 {
                m.at == now
            } else {
                m.at <= now
            }) && m.family == self.config.backfill_family
                && m.backfill_on == self.config.backfill
                && m.window == self.config.bf_max_job_test
        }) {
            self.incr.bf_elided += 1;
            return Vec::new();
        }
        self.incr.bf_runs += 1;
        match self.config.backfill_family {
            BackfillFamily::Easy { reservations } => {
                self.backfill_pass_easy(now, reservations.max(1))
            }
            BackfillFamily::Conservative => self.backfill_pass_conservative(now),
        }
    }

    /// EASY-k: up to `k` blocked jobs hold `(shadow, spare)`
    /// reservations; a fitting lower-priority job starts only if, for
    /// every reservation, it either ends by the shadow time or fits in
    /// the spare nodes (which it then consumes). The first reservation
    /// is a prefix walk of the running index
    /// ([`Slurm::reservation_for`]); deeper ones are
    /// hole queries (one scan) on the slot-set timeline, which only a
    /// pass with `k >= 2` therefore builds. A reservation is planned into
    /// the timeline only while a later one of the same pass can still
    /// see it.
    ///
    /// Every pending job goes through the same [`Slurm::easy_visit`]
    /// step; what differs is which jobs are offered to it. The walk
    /// ([`Slurm::easy_walk`]) offers all of them, in scheduling order, and
    /// is the fallback. The indexed pass ([`Slurm::easy_indexed`]) runs
    /// whenever its preconditions hold: the walk until `k` reservations
    /// are held, then only the jobs that can pass the harmless check.
    fn backfill_pass_easy(&mut self, now: SimTime, k: u32) -> Vec<JobStart> {
        // The need view holds the whole pending set, and "fits" is
        // "requests at most the free count", only while no resizer and no
        // class-constrained job is pending.
        let indexed =
            self.pending_index.pending_resizers() == 0 && self.pending_index.constrained() == 0;
        let mut pass = self.easy_pass(now, k, indexed);
        if pass.started.is_empty() {
            let easy1 = indexed && k == 1;
            self.bf_memoize(now, pass.watermark, pass.fitting_refused, easy1);
        }
        let started = std::mem::take(&mut pass.started);
        self.easy = pass;
        started
    }

    /// One EASY pass with the chosen body behind the shared prologue
    /// (the timelines the pass will query built at `now`), run in the
    /// state [`Slurm`] keeps — the caller puts it back.
    fn easy_pass(&mut self, now: SimTime, k: u32, indexed: bool) -> EasyPass {
        let mut pass = std::mem::take(&mut self.easy);
        pass.begin(k, self.build_timelines(now, k >= 2));
        if indexed {
            self.easy_indexed(now, &mut pass);
        } else {
            self.easy_walk(now, &mut pass, u32::MAX);
        }
        pass
    }

    /// One pending job's turn in an EASY pass: start it if it fits and
    /// delays no reservation holder, give it a reservation if it is
    /// blocked and fewer than `k` are held, otherwise record the refusal.
    fn easy_visit(&mut self, id: JobId, now: SimTime, pass: &mut EasyPass) -> EasyVisit {
        let job = &self.jobs[id];
        self.incr.bf_examined += 1;
        let need = job.requested_nodes;
        let constraint = job.constraint;
        let dur = job.expected_runtime;
        if self.cluster.can_allocate_in(need, constraint) {
            // With no reservation held yet this is vacuously harmless.
            let est_end = now + dur;
            let harmless = pass
                .reservations
                .iter()
                .all(|&(shadow, spare)| est_end <= shadow || need <= spare);
            if !harmless {
                // A fitting job refused by the harmless check: not a
                // time-invariant refusal (see [`BfMemo`]).
                pass.fitting_refused = true;
                return EasyVisit::Refused;
            }
            for r in pass.reservations.iter_mut() {
                if est_end > r.0 {
                    r.1 -= need;
                }
            }
            pass.started.push(self.start_job(id, now));
            self.plan_start(id, now, est_end, need, pass.aggregate);
            return EasyVisit::Started;
        }
        pass.watermark = pass.watermark.min(need);
        if pass.reservations.is_empty() && !self.config.backfill {
            return EasyVisit::Stop;
        }
        if (pass.reservations.len() as u32) < pass.k {
            let (shadow, spare) = if constraint != ClassConstraint::Any {
                self.constrained_hole(constraint, need, dur, now)
            } else if pass.reservations.is_empty() {
                self.reservation_for(need, now)
            } else {
                self.hole_reservation(need, dur, now)
            };
            let seen_later = (pass.reservations.len() as u32) + 1 < pass.k;
            if seen_later && shadow != SimTime(u64::MAX) {
                let until = shadow + dur;
                self.timeline.get_mut().plan(shadow, until, need);
                if let Some(c) = self.sole_eligible_class(constraint) {
                    self.class_timelines.get_mut().sets[c].plan(shadow, until, need);
                }
            }
            pass.reservations.push((shadow, spare));
        }
        EasyVisit::Refused
    }

    /// The EASY walk: the pending jobs in scheduling order, each offered
    /// to [`Slurm::easy_visit`], until the queue ends, the visit stops the
    /// pass or `held` reservations are; the key it stopped at in the last
    /// case. It steps the pending-index cursor, as `schedule` does: the
    /// only mid-walk mutation, a start of the job being visited, removes
    /// a key the cursor has passed.
    fn easy_walk(&mut self, now: SimTime, pass: &mut EasyPass, held: u32) -> Option<PendingKey> {
        let mut cursor = None;
        while let Some(at) = self.pending_index.step(cursor) {
            cursor = Some(at);
            if let EasyVisit::Stop = self.easy_visit(at.key.id, now, pass) {
                return None;
            }
            if pass.reservations.len() as u32 >= held {
                return Some(at.key);
            }
        }
        None
    }

    /// The indexed EASY pass: the walk's decisions without the walk.
    ///
    /// **Phase 1** is the walk itself ([`Slurm::easy_walk`]) until `k`
    /// reservations are held (or the queue ends): O(starts + k).
    ///
    /// **Phase 2** covers the rest of the queue, where no reservation
    /// can be added any more: a job `(need n, estimate d)` starts iff
    /// `n <= free` and it is harmless, and it is harmless iff it ends by
    /// `latest_end(n) = min { shadow_r : spare_r < n }` ([`ShadowStairs`]
    /// — unbounded when `n` fits beside every reservation). So per need
    /// bucket `<= free` only the estimate prefix `now + d <=
    /// latest_end(n)` is enumerated, or, for an unbounded need, only its
    /// first job, replaced by the next after each start. The candidates
    /// are merged in scheduling order and each one takes the walk's own
    /// [`Slurm::easy_visit`] step against the *current* free count and
    /// spares. Both only shrink during a pass, so the candidates found
    /// with the initial values are a superset of the jobs the walk
    /// would start and every decision is the walk's — with one catch: a
    /// start can consume the spare that kept a need unbounded, and then
    /// the need's short jobs behind its first must join the candidates.
    ///
    /// A fruitless pass saw a constant free count, so its memo inputs
    /// are two seeks: every queued need above it was a capacity refusal,
    /// every need at or below it a harmless-check refusal.
    fn easy_indexed(&mut self, now: SimTime, pass: &mut EasyPass) {
        let Some(cursor) = self.easy_walk(now, pass, pass.k) else {
            return;
        };
        let free = self.cluster.free_nodes();
        pass.stairs.rebuild(&pass.reservations, now);
        for (need, bucket) in self.pending_index.needs_upto(free) {
            let found = pass.stairs.candidates(need, bucket, cursor, &self.jobs);
            pass.candidates.extend(found);
        }
        // Nothing queued requests fewer nodes than this for the rest of
        // the pass (nothing is submitted during one).
        let smallest = self
            .pending_index
            .needs_upto(free)
            .next()
            .map(|(need, _)| need);
        while let Some(Reverse((key, need, bucket_head))) = pass.candidates.pop() {
            // A start took the nodes this candidate needed: the walk
            // would record a capacity refusal, which only a fruitless
            // pass keeps — and in a fruitless pass nothing took any.
            if need > self.cluster.free_nodes() {
                continue;
            }
            let started = matches!(self.easy_visit(key.id, now, pass), EasyVisit::Started);
            let free = self.cluster.free_nodes();
            if started {
                if smallest.is_some_and(|need| need > free) {
                    break;
                }
                pass.stairs.rebuild(&pass.reservations, now);
            }
            // The bucket's first job is dealt with: the next one takes
            // its place — or, if a start has meanwhile consumed the spare
            // that let this need run beside every reservation, the short
            // jobs behind it do.
            if bucket_head && need <= free {
                if let Some(bucket) = self.pending_index.need_bucket(need) {
                    let found = pass.stairs.candidates(need, bucket, key, &self.jobs);
                    pass.candidates.extend(found);
                }
            }
        }
        if pass.started.is_empty() {
            pass.watermark = self.pending_index.min_need_above(free).unwrap_or(u32::MAX);
            pass.fitting_refused = smallest.is_some();
        }
    }

    /// Conservative backfill: walk the queue in priority order; a job
    /// whose whole expected runtime fits under the planned occupancy
    /// starts now, every other job gets the earliest hole planned into
    /// the timeline — so no start can delay any blocked job's plan. The
    /// timeline is built for the pass and dropped with its plans.
    ///
    /// The walk stops after
    /// [`SlurmConfig::bf_max_job_test`](super::SlurmConfig::bf_max_job_test)
    /// blocked jobs (Slurm's own conservative-depth cap): a job deeper
    /// than the window may not start anyway — the untested blocked jobs
    /// between it and the window would have no plans protecting them.
    fn backfill_pass_conservative(&mut self, now: SimTime) -> Vec<JobStart> {
        let aggregate = self.build_timelines(now, true);
        let window = self.config.bf_max_job_test.max(1);
        let mut started = Vec::new();
        let mut planned = false;
        let mut tested: u32 = 0;
        // Refusal records for the elision memo (see [`BfMemo`]).
        let mut watermark = u32::MAX;
        let mut fitting_refused = false;
        // The cursor survives the starts below (see `easy_walk`).
        let mut cursor = None;
        while let Some(at) = self.pending_index.step(cursor) {
            cursor = Some(at);
            let id = at.key.id;
            let job = &self.jobs[id];
            self.incr.bf_examined += 1;
            let need = job.requested_nodes;
            let dur = job.expected_runtime;
            let fits = self.cluster.can_allocate_in(need, job.constraint);
            if !fits && !planned && !self.config.backfill {
                watermark = watermark.min(need);
                break;
            }
            tested += 1;
            if tested > window {
                break;
            }
            // A class-constrained job with a single eligible class plans
            // against that class's timeline (the aggregate would lend it
            // capacity its class never has); the plan still goes into
            // the aggregate too so unconstrained jobs cannot double-book
            // the same global window.
            let sole = self.sole_eligible_class(job.constraint);
            let avail = self
                .cluster
                .usable_in(sole.map_or(ClassConstraint::Any, ClassConstraint::Class));
            if avail < need {
                // Can never run on current estimates; nothing to plan.
                // (A start needs `fits`, i.e. free >= need > avail >=
                // free — so the watermark rule covers this refusal too.)
                watermark = watermark.min(need);
                continue;
            }
            let cap = i64::from(avail - need);
            let hole = match sole {
                Some(c) => self.class_timeline(c, now).earliest_hole(now, cap, dur),
                None => self.timeline.borrow().earliest_hole(now, cap, dur),
            };
            match hole {
                Some(hole) if hole.at == now && fits => {
                    started.push(self.start_job(id, now));
                    self.plan_start(id, now, hole.until, need, aggregate);
                }
                Some(hole) => {
                    // A fitting job whose hole is not at `now` is a
                    // time-sensitive refusal: occupancy decay alone can
                    // open its hole. A non-fitting one cannot start
                    // while `free < need`, whatever its hole does.
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                    // Committed where the scan stopped, in the timeline
                    // that answered; the aggregate copies a class plan.
                    match sole {
                        Some(c) => {
                            self.class_timelines.get_mut().sets[c].plan_hole(hole, need);
                            self.timeline.get_mut().plan(hole.at, hole.until, need);
                        }
                        None => self.timeline.get_mut().plan_hole(hole, need),
                    }
                    planned = true;
                }
                None => {
                    if fits {
                        fitting_refused = true;
                    } else {
                        watermark = watermark.min(need);
                    }
                }
            }
        }
        if started.is_empty() {
            self.bf_memoize(now, watermark, fitting_refused, false);
        }
        started
    }

    /// Whether growing running job `id` to `to` nodes would steal the
    /// backfill hole of the first blocked pending job. Grow-happy
    /// policies
    /// ([`PolicyKind::UtilizationTarget`](crate::policy::PolicyKind::UtilizationTarget),
    /// [`PolicyKind::EnergyAware`](crate::policy::PolicyKind::EnergyAware))
    /// consult this before returning an expand verdict; with
    /// [`SlurmConfig::backfill`](super::SlurmConfig::backfill) off there is
    /// no hole to steal.
    ///
    /// The check recomputes the blocked head's reservation — a pass
    /// keeps none behind — so the verdict is the same whatever passes
    /// ran or were elided. A
    /// grow steals the hole when its extra nodes exceed the
    /// reservation's spare count while the grown job is still expected
    /// to run at the shadow time.
    pub fn grow_steals_backfill_hole(&self, id: JobId, to: u32, now: SimTime) -> bool {
        if !self.config.backfill {
            return false;
        }
        let current = self.nodes_of(id);
        if to <= current {
            return false;
        }
        let delta = to - current;
        // The first blocked queued job. With no class constraint pending,
        // "blocked" is "requests more than the free count": one need-view
        // query. Otherwise walk the order by cursor.
        let blocked = if self.pending_index.constrained() == 0 {
            self.first_queued_needing(self.cluster.free_nodes(), u32::MAX)
                .map(|(pid, _)| &self.jobs[pid])
        } else {
            let index = &self.pending_index;
            let order = successors(index.step(None), |&at| index.step(Some(at)));
            order.map(|at| &self.jobs[at.key.id]).find(|j| {
                !j.is_resizer()
                    && !self
                        .cluster
                        .can_allocate_in(j.requested_nodes, j.constraint)
            })
        };
        let Some(j) = blocked else {
            return false;
        };
        let (need, constraint, dur) = (j.requested_nodes, j.constraint, j.expected_runtime);
        let (shadow, spare) = if constraint != ClassConstraint::Any {
            self.build_timelines(now, false);
            self.constrained_hole(constraint, need, dur, now)
        } else {
            self.reservation_for(need, now)
        };
        if shadow == SimTime(u64::MAX) {
            return false;
        }
        let grown_end = self.jobs.get(id).and_then(Job::expected_end).unwrap_or(now);
        delta > spare && grown_end > shadow
    }

    /// A deeper EASY-k reservation: the earliest timeline hole fitting
    /// `need` nodes for `dur`, with the spare count taken against the
    /// occupancy peak inside the window (so backfilling against this
    /// reservation can never overdraw it).
    pub(super) fn hole_reservation(&self, need: u32, dur: Span, now: SimTime) -> (SimTime, u32) {
        let avail = self.cluster.usable_in(ClassConstraint::Any);
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.timeline.borrow();
        match tl.earliest_hole(now, cap, dur) {
            Some(hole) => {
                let peak = tl.max_in(hole.at, hole.until);
                (hole.at, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRequest, JobState};
    use crate::slurm::tests::{slurm, t};
    use dmr_cluster::FailOutcome;

    /// Three running jobs end at one instant: the reservation counts
    /// their nodes smallest first (ties by id), so the spare it reports
    /// is the one that order gives — also after an estimate refresh
    /// re-keys one of them away and back.
    #[test]
    fn jobs_ending_together_free_their_nodes_smallest_first() {
        let mut s = slurm(6);
        let est = |req: JobRequest| req.with_expected_runtime(Span::from_secs(100));
        let [_a, b, _c] = [3, 1, 2].map(|n| s.submit(est(JobRequest::rigid("r", n)), t(0)));
        assert_eq!(s.schedule(t(0)).len(), 3);
        let spares = |s: &Slurm| [1, 2, 4, 6].map(|need| s.reservation_for(need, t(1)));
        // Sizes 1, 2, 3 free 1, 3, 6 nodes (in id order 3, 4, 6).
        let together = [0, 1, 2, 0].map(|spare| (t(100), spare));
        assert_eq!(spares(&s), together);
        s.set_expected_runtime(b, Span::from_secs(200));
        let b_later = [(t(100), 1), (t(100), 0), (t(100), 1), (t(200), 0)];
        assert_eq!(spares(&s), b_later);
        s.set_expected_runtime(b, Span::from_secs(100));
        assert_eq!(spares(&s), together);
        s.check_invariants().unwrap();
    }

    #[test]
    fn blocked_top_job_reserves_and_small_jobs_backfill() {
        let mut s = slurm(10);
        // One long-running hog of 8 nodes.
        let hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        assert_eq!(s.job(hog).unwrap().state, JobState::Running);
        // Big job can't start (needs 6, 2 free); short job behind it can
        // backfill because it ends before the hog releases nodes.
        let big = s.submit(
            JobRequest::rigid("big", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let small = s.submit(
            JobRequest::rigid("small", 2).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        assert!(s.schedule(t(3)).is_empty(), "FIFO pass must not backfill");
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, small);
        assert_eq!(s.job(big).unwrap().state, JobState::Pending);
    }

    #[test]
    fn backfill_refuses_jobs_that_would_delay_reservation() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(100)),
            t(0),
        );
        s.schedule(t(0));
        let _big = s.submit(
            JobRequest::rigid("big", 10).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        // 2 free; this job fits but runs for 1000 s, past the shadow time
        // (t=100) and the reservation needs all 10 nodes (extra = 0).
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(1000)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert!(started.is_empty(), "{started:?}");
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
    }

    #[test]
    fn no_backfill_means_strict_fifo() {
        let mut s = slurm(10);
        s.config.backfill = false;
        let _hog = s.submit(JobRequest::rigid("hog", 8), t(0));
        s.schedule(t(0));
        let _big = s.submit(JobRequest::rigid("big", 6), t(1));
        let _small = s.submit(JobRequest::rigid("small", 2), t(2));
        assert!(s.schedule(t(3)).is_empty());
        assert!(s.backfill_pass(t(3)).is_empty(), "backfill disabled");
    }

    /// A need that fits beside every reservation is represented in the
    /// indexed pass by its first job alone. When an earlier start consumes
    /// that spare, the first job stops qualifying — but the need's short
    /// jobs behind it still end by the shadow time and must start.
    #[test]
    fn a_need_that_stops_fitting_beside_the_reservation_keeps_its_short_jobs() {
        let mut s = slurm(10);
        let _hog = s.submit(
            JobRequest::rigid("hog", 7).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        s.schedule(t(0));
        let long = Span::from_secs(5000);
        // Shadow t=1000 with 2 spare nodes; 3 free now.
        let _blocked = s.submit(JobRequest::rigid("blocked", 8), t(1));
        let wide = s.submit(
            JobRequest::rigid("wide", 2).with_expected_runtime(long),
            t(2),
        );
        let slim = s.submit(
            JobRequest::rigid("slim", 1).with_expected_runtime(long),
            t(3),
        );
        let short = s.submit(
            JobRequest::rigid("short", 1).with_expected_runtime(Span::from_secs(100)),
            t(4),
        );
        // `wide` runs in the spare nodes and uses them up, so `slim`
        // would now delay `blocked`; `short` is over before it matters.
        let started: Vec<JobId> = s.backfill_pass(t(5)).iter().map(|j| j.id).collect();
        assert_eq!(started, vec![wide, short]);
        assert_eq!(s.job(slim).unwrap().state, JobState::Pending);
        assert_eq!(s.incremental_stats().backfill_jobs_examined, 4);
        s.check_invariants().unwrap();
    }

    /// A pass that walks — conservative, or EASY while a class-constrained
    /// job is pending — steps a cursor over the pending index. A start
    /// removes the key the cursor stands on, and the walk goes on with the
    /// next one.
    #[test]
    fn a_walk_goes_on_with_the_next_job_after_each_start() {
        for family in [BackfillFamily::easy(1), BackfillFamily::Conservative] {
            let mut s = slurm(10);
            s.config.backfill_family = family;
            let hog = JobRequest::rigid("hog", 6).with_expected_runtime(Span::from_secs(1000));
            s.submit(hog, t(0));
            s.schedule(t(0));
            s.submit(JobRequest::rigid("blocked", 8), t(1));
            let short = JobRequest::rigid("short", 1).with_expected_runtime(Span::from_secs(100));
            let pinned = short.clone().with_constraint(ClassConstraint::Class(0));
            let [a, b, c] = [short.clone(), pinned, short].map(|req| s.submit(req, t(2)));
            let started: Vec<JobId> = s.backfill_pass(t(5)).iter().map(|j| j.id).collect();
            assert_eq!(started, [a, b, c], "{family:?}");
            assert_eq!(s.incremental_stats().backfill_jobs_examined, 4);
            s.check_invariants().unwrap();
        }
    }

    #[test]
    fn a_pass_on_a_full_machine_examines_only_the_reservation_holders() {
        for k in [1, 2] {
            let mut s = slurm(8);
            s.config.backfill_family = BackfillFamily::easy(k);
            s.submit(JobRequest::rigid("hog", 8), t(0));
            s.schedule(t(0));
            for need in [4, 1, 2, 1, 3] {
                s.submit(JobRequest::rigid("queued", need), t(1));
            }
            assert!(s.backfill_pass(t(2)).is_empty());
            let stats = s.incremental_stats();
            assert_eq!(stats.backfill_jobs_examined, u64::from(k));
            // The memo is the walk's all the same: every queued need is a
            // capacity refusal, the smallest is the watermark.
            let memo = s.incr.bf_memo.as_ref().expect("fruitless pass memoised");
            assert_eq!((memo.watermark, memo.fitting_refused), (1, false));
        }
    }

    /// A 10-node machine with one 8-node hog until t=1000, then (in
    /// priority order) a blocked 6-node job, a blocked 10-node job, a
    /// *long* 2-node job and a *short* 2-node job. The families disagree
    /// exactly where they should.
    fn family_fixture(family: BackfillFamily) -> (Slurm, [JobId; 4]) {
        let mut s = slurm(10);
        s.config.backfill_family = family;
        let _hog = s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(995)),
            t(0),
        );
        s.schedule(t(0));
        let blocked1 = s.submit(
            JobRequest::rigid("blocked1", 6).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        let blocked2 = s.submit(
            JobRequest::rigid("blocked2", 10).with_expected_runtime(Span::from_secs(100)),
            t(2),
        );
        let long_small = s.submit(
            JobRequest::rigid("long-small", 2).with_expected_runtime(Span::from_secs(5000)),
            t(3),
        );
        let short_small = s.submit(
            JobRequest::rigid("short-small", 2).with_expected_runtime(Span::from_secs(100)),
            t(4),
        );
        (s, [blocked1, blocked2, long_small, short_small])
    }

    #[test]
    fn easy1_lets_a_long_job_backfill_past_a_deep_blocked_job() {
        // Classic EASY: only blocked1 holds a reservation (shadow t=1000,
        // 4 extra nodes), so the long 2-node job jumps ahead even though
        // it will still be running when blocked2 could have started.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(1));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, long_small);
        assert_eq!(s.job(short_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn easy_k_protects_deeper_reservations() {
        // With two reservations, blocked2 holds the hole after blocked1's
        // plan ([t=1100, t=1200), zero spare), which the 5000 s job would
        // delay — it is refused. The short job ends before every shadow
        // time and still backfills.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::easy(2));
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn conservative_gives_every_blocked_job_a_plan() {
        // Conservative: blocked1 and blocked2 get planned slots, the long
        // job would overlap blocked2's plan (occupancy 10 > cap 8 inside
        // its window) and is only planned for later — the short job fits
        // entirely under the plans and starts.
        let (mut s, [blocked1, blocked2, long_small, short_small]) =
            family_fixture(BackfillFamily::Conservative);
        let started = s.backfill_pass(t(5));
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, short_small);
        assert_eq!(s.job(long_small).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked1).unwrap().state, JobState::Pending);
        assert_eq!(s.job(blocked2).unwrap().state, JobState::Pending);
        s.check_invariants().unwrap();
    }

    #[test]
    fn conservative_plans_see_the_jobs_started_earlier_in_the_pass() {
        // Plans and starts alternate inside one pass: blocked1 planned,
        // short1 started, blocked2 planned, short2 started. Each start
        // goes into the pass's timeline the moment it happens, so
        // blocked2's hole query ran over a profile holding short1, and
        // what the pass leaves in its scratch is the hog, both starts
        // and both plans.
        let mut s = slurm(12);
        s.config.backfill_family = BackfillFamily::Conservative;
        let runtime = |secs| Span::from_secs(secs);
        s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(runtime(1000)),
            t(0),
        );
        s.schedule(t(0));
        let mut submit = |name: &str, nodes, secs| {
            s.submit(
                JobRequest::rigid(name, nodes).with_expected_runtime(runtime(secs)),
                t(1),
            )
        };
        let blocked1 = submit("blocked1", 6, 100);
        let short1 = submit("short1", 2, 50);
        let blocked2 = submit("blocked2", 12, 100);
        let short2 = submit("short2", 2, 80);
        let started = s.backfill_pass(t(5));
        let ids: Vec<JobId> = started.iter().map(|j| j.id).collect();
        assert_eq!(ids, [short1, short2]);
        for blocked in [blocked1, blocked2] {
            assert_eq!(s.job(blocked).unwrap().state, JobState::Pending);
        }
        let mut profile = vec![(t(5), 12), (t(55), 10), (t(85), 8)];
        profile.extend([(t(1000), 6), (t(1100), 12), (t(1200), 0)]);
        assert_eq!(s.timeline.borrow().slots(), profile);
        s.check_invariants().unwrap();
        // The next pass builds the same profile from the running jobs
        // alone and plans the two blocked jobs where they were.
        assert!(s.backfill_pass(t(6)).is_empty());
        profile[0].0 = t(6);
        assert_eq!(s.timeline.borrow().slots(), profile);
    }

    #[test]
    fn easy1_drive_never_builds_the_timeline() {
        // The default family takes its one reservation from the running
        // index: whatever the drive does — blocked heads, the resize
        // protocol, an estimate refresh, a cancel, a kill-and-requeue,
        // the hole guard — no pass ever builds the aggregate timeline:
        // the scratch is as empty at the end as `Slurm::new` left it.
        let mut s = slurm(10);
        let a = s.submit(
            JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(500)),
            t(0),
        );
        let b = s.submit(
            JobRequest::rigid("b", 4).with_expected_runtime(Span::from_secs(300)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 2);
        let head = s.submit(JobRequest::rigid("head", 8), t(1));
        let tiny = s.submit(
            JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        let started = s.backfill_pass(t(3));
        assert_eq!(started.len(), 1, "tiny backfills under head's reservation");
        s.check_invariants().unwrap();
        s.complete(tiny, t(8));
        s.expand_protocol(a, 6, t(10)).unwrap();
        s.check_invariants().unwrap();
        assert!(s.backfill_pass(t(12)).is_empty());
        assert!(s.incr.bf_memo.is_some(), "fruitless pass memoised");
        s.set_expected_runtime(a, Span::from_secs(2000));
        s.shrink_protocol(a, 2, t(20)).unwrap();
        s.check_invariants().unwrap();
        assert!(
            s.grow_steals_backfill_hole(a, 6, t(21)),
            "head holds the hole"
        );
        let doomed = s.submit(JobRequest::rigid("doomed", 9), t(22));
        assert!(s.backfill_pass(t(25)).is_empty());
        s.cancel(doomed, t(26));
        let node = s.cluster().nodes_of(b.owner_tag())[0];
        assert_eq!(s.fail_node(node), FailOutcome::Busy(b.owner_tag()));
        let b2 = s.requeue_failed(b, t(30)).expect("b was running");
        s.check_invariants().unwrap();
        assert_eq!(s.schedule(t(30))[0].id, b2, "the requeued job is boosted");
        s.backfill_pass(t(31));
        s.complete(a, t(40));
        s.complete(b2, t(50));
        assert_eq!(s.schedule(t(50))[0].id, head);
        s.check_invariants().unwrap();
        assert_eq!(s.running_count(), 1);
        let scratch = s.timeline.borrow();
        assert_eq!(scratch.max_in(SimTime::ZERO, SimTime(u64::MAX)), 0);
    }

    #[test]
    fn easy_k_plans_only_the_reservations_a_later_one_can_see() {
        // Three blocked jobs under `k = 3`: the first two reservations
        // are planned into the timeline (the second and third hole
        // queries must see them), the third is not — nothing of this
        // pass would ever look at it.
        let mut s = slurm(10);
        s.config.backfill_family = BackfillFamily::easy(3);
        s.submit(
            JobRequest::rigid("hog", 8).with_expected_runtime(Span::from_secs(995)),
            t(0),
        );
        s.schedule(t(0));
        for (i, need) in [6, 10, 7].into_iter().enumerate() {
            s.submit(
                JobRequest::rigid(format!("blocked{i}"), need)
                    .with_expected_runtime(Span::from_secs(100)),
                t(1 + i as u64),
            );
        }
        let pass = s.easy_pass(t(5), 3, false);
        assert_eq!(pass.reservations.len(), 3);
        // The hog, then blocked0 and blocked1 back to back; blocked2's
        // hole behind them, [1195, 1295), is nowhere.
        assert_eq!(
            s.timeline.borrow().slots(),
            [(t(5), 8), (t(995), 6), (t(1095), 10), (t(1195), 0)]
        );
        assert_eq!(pass.reservations[2].0, t(1195));
        assert!(s.backfill_pass(t(5)).is_empty());
        s.check_invariants().unwrap();
    }

    /// What the deleted `Indexed` walking twin pinned, without a knob: the
    /// memo inputs `easy_indexed` derives by two seeks — the watermark and
    /// whether a fitting job was refused — are the ones `easy_walk`
    /// records job by job, and both bodies start the same jobs against
    /// the same reservations. Twin production schedulers take one random
    /// op sequence; at every pass one runs the walk and the other the
    /// indexed body inside the same prologue and epilogue. (The model
    /// scheduler of `tests/common/model.rs` never memoises, so it cannot
    /// see an over-liberal memo until the one state where the elided pass
    /// would have started something.)
    #[test]
    fn indexed_easy_body_matches_the_walk_in_starts_reservations_and_memo_inputs() {
        for k in [1, 2, 8] {
            let (mut fruitless, mut fruitful, mut phase2) = (0, 0, 0);
            for seed in 1..=6u64 {
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut twins = [slurm(24), slurm(24)];
                let mut serial = 0u64;
                let mut submit = |twins: &mut [Slurm; 2], need: u64, secs: u64, now| {
                    serial += 1;
                    let req = JobRequest::rigid(format!("j{serial}"), need as u32)
                        .with_expected_runtime(Span::from_secs(secs));
                    twins.each_mut().map(|s| s.submit(req.clone(), now))[0]
                };
                // A full machine, then a queue deep enough that every
                // pass still has jobs behind its `k` reservation holders.
                for _ in 0..8 {
                    submit(&mut twins, 3, 200 + next() % 900, t(0));
                }
                let mut running: Vec<JobId> = Vec::new();
                for s in &mut twins {
                    running = s.schedule(t(0)).iter().map(|j| j.id).collect();
                }
                let mut pending: Vec<JobId> = (0..60)
                    .map(|_| submit(&mut twins, 1 + next() % 12, 20 + next() % 1500, t(1)))
                    .collect();
                for round in 0..120u64 {
                    let now = t(100 + round * 7);
                    let pick = |v: &[JobId], r: u64| {
                        (!v.is_empty()).then(|| v[(r % v.len() as u64) as usize])
                    };
                    match next() % 8 {
                        0 | 1 => pending.push(submit(
                            &mut twins,
                            1 + next() % 12,
                            20 + next() % 1500,
                            now,
                        )),
                        2 | 3 => {
                            if let Some(id) = pick(&running, next()) {
                                running.retain(|&r| r != id);
                                twins.iter_mut().for_each(|s| s.complete(id, now));
                            }
                        }
                        4 => {
                            if let Some(id) = pick(&pending, next()) {
                                pending.retain(|&p| p != id);
                                twins.iter_mut().for_each(|s| s.cancel(id, now));
                            }
                        }
                        5 => {
                            if let Some(id) = pick(&pending, next()) {
                                twins.iter_mut().for_each(|s| s.boost(id));
                            }
                        }
                        6 => {
                            let all: Vec<JobId> = pending.iter().chain(&running).copied().collect();
                            if let Some(id) = pick(&all, next()) {
                                let est = Span::from_secs(10 + next() % 2000);
                                twins
                                    .iter_mut()
                                    .for_each(|s| s.set_expected_runtime(id, est));
                            }
                        }
                        _ if next() % 4 == 0 => {
                            let on = twins[0].config.backfill;
                            twins.iter_mut().for_each(|s| s.config.backfill = !on);
                        }
                        _ => {}
                    }
                    let [walk, fast] = &mut twins;
                    let mut started = Vec::new();
                    if next() % 2 == 0 {
                        started = walk.schedule(now);
                        assert_eq!(started, fast.schedule(now));
                    }
                    assert_eq!(fast.pending_index.pending_resizers(), 0);
                    let (w, f) = (walk.easy_pass(now, k, false), fast.easy_pass(now, k, true));
                    let what = format!("k {k} seed {seed} round {round}");
                    assert_eq!(w.started, f.started, "{what}");
                    assert_eq!(w.reservations, f.reservations, "{what}");
                    if w.started.is_empty() {
                        // Only a fruitless pass memoises.
                        assert_eq!(
                            (w.watermark, w.fitting_refused),
                            (f.watermark, f.fitting_refused),
                            "{what}: memo inputs"
                        );
                        fruitless += 1;
                    } else {
                        fruitful += 1;
                    }
                    phase2 += u32::from(f.reservations.len() as u32 == k);
                    for j in started.iter().chain(&w.started) {
                        pending.retain(|&p| p != j.id);
                        running.push(j.id);
                    }
                    walk.check_invariants().unwrap();
                    fast.check_invariants().unwrap();
                }
            }
            assert!(
                fruitless > 20 && fruitful > 20 && phase2 > 100,
                "k {k}: {fruitless} fruitless, {fruitful} fruitful, {phase2} reached phase 2"
            );
        }
    }
}
