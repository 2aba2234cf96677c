//! Reconfiguring points and the expansion protocol.
//!
//! At each step boundary a flexible job calls the DMR API. Synchronous
//! mode (`dmr_check_status`) decides *and applies* on the spot, paying the
//! runtime↔RMS round trip; asynchronous mode (`dmr_icheck_status`) applies
//! the decision negotiated at the previous boundary and plans the next
//! one, hiding the communication cost behind computation (§V-A, §VIII-C).
//! Both variants consult the scheduler through
//! [`dmr_slurm::Slurm::decide_resize`], so the verdict comes from
//! whichever [`dmr_slurm::ResizePolicy`] the experiment installed — the
//! driver is policy-agnostic.
//!
//! Most synchronous checks change nothing: the job pays the check pause
//! and computes on. That pause end has no handler in the driver. The
//! next segment is handed to the engine as a *relay*
//! ([`dmr_sim::Engine::schedule_relayed`]) — "the pause ends at `now +
//! pause`, `SegmentDone` fires one segment later" — and the engine steps
//! over the pause end on its own, counting it as an event (the run loop
//! samples the sink there, nothing else) and ranking the `SegmentDone`
//! exactly as if a pause-end handler had scheduled it.
//! [`Ev::ReconfigDone`] is left for the pauses something happens after:
//! an expansion's spawn + redistribution, a shrink's drain.
//!
//! Most of those checks need not even be asked. A consultation that
//! answers "no action" also takes the policy's [`dmr_slurm::Hold`]: the
//! conditions — a free count below a threshold, nobody queued within
//! reach of the deepest shrink — under which the answer provably repeats
//! at the job's current size. The job's next `SegmentDone` is then marked
//! claimable ([`dmr_sim::Engine::mark_claimable`]). When it falls due, the
//! *held path* ([`Driver::on_due_segment`]) tests the hold and the
//! boundary's other inputs (no expansion retry armed; asynchronously, no
//! plan, grant or queued resizer; steps left after this one), and if all
//! are clear it does what the handler would do, minus the consultation:
//! the same segment bookkeeping ([`super::RunState::close_segment`]) and
//! the same next-segment plan ([`Driver::after_check`]), then re-keys the
//! due event in place to the next segment's end — behind the check pause
//! as a relay in synchronous mode. No handler runs and nothing is popped
//! or pushed, yet the event count, every sequence number and every sink
//! sample are those of the handled boundary. A boundary that fails any
//! test is handed to its handler unchanged.
//!
//! Expansion failures flow through [`DmrError`]: the only variant that is
//! protocol control-flow rather than a genuine error is the *deferral*
//! signal ([`DmrError::queued_resizer`]) — synchronous mode aborts the
//! queued resizer immediately (the paper's zero-wait degenerate),
//! asynchronous mode keeps computing under a timeout (§V-B1).

use dmr_sim::{SimTime, Span};
use dmr_slurm::{JobId, ResizeAction};

use super::events::Ev;
use super::Driver;
use crate::config::{EstimateMode, ScheduleMode};
use crate::error::DmrError;

impl Driver<'_, '_> {
    /// One reconfiguring point: dispatch to the configured check variant.
    pub(crate) fn check_point(&mut self, job: JobId, now: SimTime) {
        match self.cfg.mode {
            ScheduleMode::Synchronous => self.check_sync(job, now),
            ScheduleMode::Asynchronous => self.check_async(job, now),
        }
    }

    /// Arms the checking inhibitor: checks before `now + period` are
    /// swallowed (coalesced into one compute segment).
    fn arm_inhibitor(&mut self, job: JobId, idx: usize, now: SimTime) {
        if let Some(p) = self.inhibitor_period(idx) {
            let rs = self.running.get_mut(job).expect("running");
            rs.next_check_at = now + Span::from_secs_f64(p);
        }
    }

    /// Attempts the four-step expansion protocol towards `to` processes.
    /// On success the spawn + redistribution charge is scheduled (after
    /// `pause`) and `true` is returned. On deferral the queued resizer is
    /// either awaited under the §V-B1 timeout (`wait_on_queue`, the
    /// asynchronous path) or aborted on the spot (the synchronous path).
    fn try_expand(
        &mut self,
        job: JobId,
        to: u32,
        now: SimTime,
        pause: Span,
        wait_on_queue: bool,
    ) -> bool {
        let (idx, procs) = {
            let rs = &self.running[job];
            (rs.spec_idx, rs.procs)
        };
        let data = self.jobs[idx].spec.data_bytes;
        // Injected spawn-path failure (faultload): the negotiation dies
        // before the protocol runs; the job degrades gracefully to its
        // old size and a backoff retry is scheduled. Classified as
        // [`DmrError::is_injected`], never as a structural failure.
        if self.inject_resize_failure(job, to, now) {
            return false;
        }
        match self
            .slurm
            .expand_protocol(job, to, now)
            .map_err(DmrError::from)
        {
            Ok(_) => {
                let cost = self.cfg.network.spawn_time(to)
                    + self.cfg.network.redistribution_time(data, procs, to);
                let ev = self
                    .engine
                    .schedule_at(now + pause + cost, Ev::ReconfigDone { job });
                let rs = self.running.get_mut(job).expect("running");
                rs.pending_expand = Some(to);
                rs.inflight = Some(ev);
                true
            }
            Err(e) => {
                if let Some(resizer) = e.queued_resizer() {
                    if wait_on_queue {
                        let ev = self.engine.schedule_at(
                            now + Span::from_secs_f64(self.cfg.resizer_timeout_s),
                            Ev::RjTimeout { rj: resizer },
                        );
                        let rs = self.running.get_mut(job).expect("running");
                        rs.waiting_rj = Some((resizer, ev));
                        self.rj_to_orig.insert(resizer, job);
                    } else {
                        self.slurm.abort_expand(resizer, now);
                    }
                }
                false
            }
        }
    }

    /// `dmr_check_status`: decide and apply at this reconfiguring point.
    /// Every non-inhibited call costs [`crate::ExperimentConfig::check_overhead_s`]
    /// — the runtime↔RMS round trip the inhibitor exists to amortise.
    fn check_sync(&mut self, job: JobId, now: SimTime) {
        let idx = self.running[job].spec_idx;
        self.arm_inhibitor(job, idx, now);
        let pause = self.check_pause();
        // An expansion retry whose backoff expired takes precedence over
        // a fresh policy consultation (the decision was already made; the
        // injected failure merely delayed it).
        let action = match self
            .running
            .get_mut(job)
            .and_then(|rs| rs.retry_expand.take())
        {
            Some(to) => ResizeAction::Expand { to },
            None => self.consult(job, idx, now),
        };
        match action {
            ResizeAction::NoAction => self.pause_then_continue(job, now, pause),
            ResizeAction::Expand { to } => {
                if !self.try_expand(job, to, now, pause, false) {
                    // Deferred or failed: the action aborts immediately
                    // (the paper's timeout degenerates to zero here).
                    self.pause_then_continue(job, now, pause);
                }
            }
            ResizeAction::Shrink { to, .. } => self.schedule_shrink(job, to, now, pause),
        }
    }

    /// `dmr_icheck_status`: apply the action planned at the *previous*
    /// boundary, then plan the next one. The communication overhead hides
    /// behind computation, but decisions can be stale (§VIII-C).
    fn check_async(&mut self, job: JobId, now: SimTime) {
        let (idx, procs, granted, planned, waiting, retry) = {
            let rs = self.running.get_mut(job).expect("running");
            (
                rs.spec_idx,
                rs.procs,
                rs.granted_expand.take(),
                rs.planned.take(),
                rs.waiting_rj.is_some(),
                rs.retry_expand.take(),
            )
        };
        self.arm_inhibitor(job, idx, now);
        let data = self.jobs[idx].spec.data_bytes;
        let mut applying = false;

        if let Some(newp) = granted {
            // A queued resizer delivered mid-segment; spawn + redistribute
            // now.
            let cost = self.cfg.network.spawn_time(newp)
                + self.cfg.network.redistribution_time(data, procs, newp);
            let ev = self
                .engine
                .schedule_at(now + cost, Ev::ReconfigDone { job });
            let rs = self.running.get_mut(job).expect("running");
            rs.pending_expand = Some(newp);
            rs.inflight = Some(ev);
            applying = true;
        } else if let Some(plan) = planned.or(retry.map(|to| ResizeAction::Expand { to })) {
            match plan {
                ResizeAction::Expand { to } if to > procs => {
                    applying = self.try_expand(job, to, now, Span::ZERO, true);
                }
                ResizeAction::Shrink { to, .. } if to < procs => {
                    self.schedule_shrink(job, to, now, Span::ZERO);
                    applying = true;
                }
                _ => {}
            }
        }

        if !applying {
            // Plan the next boundary's action (free of charge: the call
            // overlaps the next compute step). One in-flight negotiation
            // at a time.
            if !waiting && self.running[job].waiting_rj.is_none() {
                let a = self.consult(job, idx, now);
                let rs = self.running.get_mut(job).expect("running");
                rs.planned = a.is_action().then_some(a);
            }
            self.pause_then_continue(job, now, self.check_pause());
        }
    }

    /// What a check point costs the job: the runtime↔RMS round trip
    /// ([`crate::ExperimentConfig::check_overhead_s`]) in synchronous
    /// mode; nothing in asynchronous mode, where the negotiation overlaps
    /// the next step.
    fn check_pause(&self) -> Span {
        match self.cfg.mode {
            ScheduleMode::Synchronous => Span::from_secs_f64(self.cfg.check_overhead_s),
            ScheduleMode::Asynchronous => Span::ZERO,
        }
    }

    /// One full consultation of the installed policy at `job`'s check
    /// point. A "no action" also takes the policy's hold for the job's
    /// current size — unless the inhibitor gates the job's checks: a held
    /// boundary is exactly one step, never a coalesced run of them.
    fn consult(&mut self, job: JobId, idx: usize, now: SimTime) -> ResizeAction {
        self.checks.consulted += 1;
        let action = self.slurm.decide_resize(job, now);
        if action == ResizeAction::NoAction && self.inhibitor_period(idx).is_none() {
            let hold = self.slurm.resize_hold(job);
            let rs = self.running.get_mut(job).expect("running");
            rs.hold = hold.map(|hold| (hold, rs.procs));
        }
        action
    }

    /// Resumes compute after a check that changed nothing and cost
    /// `pause`. A pause end would be an event whose handler does nothing
    /// but begin the next segment, so it is left to the engine as a relay
    /// (see [`dmr_sim::Engine`]): the segment is planned now, as of the
    /// pause end, and its `SegmentDone` is ranked as if it had been
    /// scheduled from there.
    pub(crate) fn pause_then_continue(&mut self, job: JobId, now: SimTime, pause: Span) {
        let (at, then, steps) = self.after_check(job, now, pause);
        let event = Ev::SegmentDone { job, steps };
        let ev = match then {
            Some(then) => self.engine.schedule_relayed(at, then, event),
            None => self.engine.schedule_at(at, event),
        };
        self.track_segment(job, ev);
    }

    /// Where `job`'s next segment ends after a check at `now` that changed
    /// nothing and cost `pause`, as `(at, then, steps)`: its `SegmentDone`
    /// is due at `at`, or — with `then` — is relayed at the pause end `at`
    /// and fires `then` later. Planned as of the pause end
    /// ([`Driver::plan_segment`]: steps, slowest-class factor). The
    /// handled check and the held path both place the segment here.
    fn after_check(&self, job: JobId, now: SimTime, pause: Span) -> (SimTime, Option<Span>, u32) {
        let resume = now + pause;
        let (duration, steps) = self
            .plan_segment(job, resume)
            .expect("a job at a reconfiguring point has steps left");
        if pause.is_zero() {
            (resume + duration, None, steps)
        } else {
            (resume, Some(duration), steps)
        }
    }

    /// A claimable `SegmentDone` fell due ([`dmr_sim::Step::Due`]): the
    /// held path if the boundary's check is known to change nothing, the
    /// event's handler otherwise.
    pub(crate) fn on_due_segment(&mut self, now: SimTime) {
        let Ev::SegmentDone { job, steps } = *self.engine.due_event() else {
            unreachable!("only segment ends are marked claimable");
        };
        if !self.pass_held(job, steps, now) {
            let ev = self.engine.fire_due();
            self.handle(now, ev);
        }
    }

    /// The held path (see the module docs): passes `job`'s boundary after
    /// `steps` more steps at `now` and claims the due event for the next
    /// segment, or returns `false` having changed nothing.
    fn pass_held(&mut self, job: JobId, steps: u32, now: SimTime) -> bool {
        let Some(rs) = self.running.get(job) else {
            return false;
        };
        let Some((hold, size)) = rs.hold else {
            return false;
        };
        // Plans, grants and waiting resizers exist only in asynchronous
        // mode.
        if size != rs.procs
            || rs.retry_expand.is_some()
            || rs.planned.is_some()
            || rs.granted_expand.is_some()
            || rs.waiting_rj.is_some()
            || rs.steps_done + steps >= self.jobs[rs.spec_idx].spec.steps
            || !hold.stands(&self.slurm)
        {
            return false;
        }
        debug_assert_eq!(self.slurm.nodes_of(job), size, "{job:?} resized unseen");
        let rs = self.running.get_mut(job).expect("running");
        rs.close_segment(steps, now, self.cfg.ckpt_interval_s);
        let (at, then, next) = self.after_check(job, now, self.check_pause());
        debug_assert_eq!(next, steps, "the claimed event names the next segment");
        match then {
            Some(then) => self.engine.claim_relayed(at, then),
            None => self.engine.claim_at(at),
        }
        self.checks.held += 1;
        true
    }

    /// A reconfiguration completed: adopt the new process set and resume
    /// compute.
    pub(crate) fn on_reconfig_done(&mut self, job: JobId, now: SimTime) {
        let Some(rs) = self.running.get_mut(job) else {
            return;
        };
        rs.inflight = None;
        if let Some(to) = rs.pending_shrink.take() {
            self.finish_shrink(job, to, now);
        } else if let Some(to) = rs.pending_expand.take() {
            rs.set_procs(to, &self.jobs[rs.spec_idx]);
            // A completed expansion refills the injected-failure retry
            // budget for any future target.
            rs.retry_attempt = 0;
            self.update_estimate(job, now);
            self.begin_segment(job, now);
        } else {
            debug_assert!(false, "ReconfigDone for {job:?} with no resize pending");
        }
    }

    /// A queued resizer job finally started (asynchronous path): complete
    /// protocol steps 2–4 now; the application applies the grant (spawn +
    /// redistribution) at its next reconfiguring point.
    pub(crate) fn on_rj_started(&mut self, rj: JobId, orig: JobId, now: SimTime) {
        self.rj_to_orig.remove(rj);
        match self.slurm.finish_expand(rj, now) {
            Ok((_, nodes)) => {
                let cancel = if let Some(rs) = self.running.get_mut(orig) {
                    rs.granted_expand = Some(nodes);
                    rs.waiting_rj.take().map(|(_, ev)| ev)
                } else {
                    None
                };
                if let Some(ev) = cancel {
                    self.engine.cancel(ev);
                }
            }
            Err(_) => {
                // Original vanished between scheduling and wiring; the
                // scheduler's dependency hygiene already reclaimed nodes.
            }
        }
    }

    pub(crate) fn on_rj_timeout(&mut self, rj: JobId, now: SimTime) {
        self.slurm.abort_expand(rj, now);
        if let Some(orig) = self.rj_to_orig.remove(rj) {
            if let Some(rs) = self.running.get_mut(orig) {
                rs.waiting_rj = None;
            }
        }
    }

    /// Refreshes the runtime estimate the backfill scheduler plans with
    /// after a reconfiguration changed this job's speed.
    pub(crate) fn update_estimate(&mut self, job: JobId, now: SimTime) {
        if self.cfg.estimate_mode == EstimateMode::Walltime {
            // Slurm only knows the submitted walltime; nobody updates it
            // after a reconfiguration either.
            return;
        }
        let rs = &self.running[job];
        let sim = &self.jobs[rs.spec_idx];
        let remaining = sim
            .remaining_time(rs.procs, rs.steps_done)
            .mul_f64(self.cfg.estimate_padding);
        let elapsed = self
            .slurm
            .job(job)
            .and_then(|j| j.start_time)
            .map(|s| now.since(s))
            .unwrap_or(Span::ZERO);
        self.slurm.set_expected_runtime(job, elapsed + remaining);
    }
}
