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
//! boundary's other inputs (the job is [`Phase::Computing`] — no plan,
//! awaited resizer or grant, which exist only asynchronously — with no
//! expansion retry armed and steps left after this one), and if all
//! are clear it does what the handler would do, minus the consultation:
//! the same segment bookkeeping ([`super::RunState::close_segment`]) and
//! the same next-segment plan ([`Driver::after_check`]), then re-keys the
//! due event in place to the next segment's end — behind the check pause
//! as a relay in synchronous mode. No handler runs and nothing is popped
//! or pushed, yet the event count, every sequence number and every sink
//! sample are those of the handled boundary. A boundary that fails any
//! test is handed to its handler unchanged.
//!
//! Every reconfiguration begins in one place ([`Driver::begin_reconfig`]):
//! a growth is charged the `MPI_Comm_spawn` of the new ranks plus the data
//! redistribution, a shrink the redistribution alone, and the
//! [`Ev::ReconfigDone`] that ends it carries the size to adopt.
//!
//! Each handler here moves the job to its next [`Phase`], through
//! [`super::RunState::enter`], which checks the move.
//!
//! Of the expansion protocol's failures, the only one that is protocol
//! control flow rather than a genuine error is the *deferral* signal
//! ([`dmr_slurm::ExpandError::Queued`]) — synchronous mode aborts the
//! queued resizer immediately (the paper's zero-wait degenerate),
//! asynchronous mode keeps computing under a timeout (§V-B1). A job
//! awaits at most one queued resizer: the job's [`Phase::Awaiting`] names
//! the resizer and its timeout, the resizer's [`Ev::RjTimeout`] names the
//! job, and while it waits the job plans nothing and drops an expansion
//! retry that falls due — the queued resizer already carries the
//! expansion.

use dmr_sim::{EventId, SimTime, Span};
use dmr_slurm::{ExpandError, JobId, ResizeAction};

use super::events::Ev;
use super::{Driver, Phase};
use crate::config::{EstimateMode, ScheduleMode, ESTIMATE_PADDING, NETWORK};

impl Driver<'_, '_> {
    /// Arms the checking inhibitor: checks before `now + period` are
    /// swallowed (coalesced into one compute segment).
    fn arm_inhibitor(&mut self, job: JobId, now: SimTime) {
        if let Some(p) = self.inhibitor_period(&self.specs[job].1.spec) {
            let rs = self.running.get_mut(job).expect("running");
            rs.next_check_at = now + Span::from_secs_f64(p);
        }
    }

    /// Starts `job`'s reconfiguration to `to` processes at `at`; it adopts
    /// the new size at the [`Ev::ReconfigDone`] one resize cost later. A
    /// growth pays the `MPI_Comm_spawn` of the new ranks and the data
    /// redistribution; a shrink only the redistribution, the drain of the
    /// leaving ranks.
    fn begin_reconfig(&mut self, job: JobId, to: u32, at: SimTime) {
        let procs = self.running[job].procs;
        let redistribute =
            NETWORK.redistribution_time(self.specs[job].1.spec.data_bytes, procs, to);
        let cost = if to > procs {
            NETWORK.spawn_time(to) + redistribute
        } else {
            redistribute
        };
        let done = self
            .engine
            .schedule_at(at + cost, Ev::ReconfigDone { job, to });
        self.enter(job, Phase::Reconfiguring { done });
    }

    /// Moves `job` to `phase` ([`super::RunState::enter`]).
    pub(crate) fn enter(&mut self, job: JobId, phase: Phase) {
        self.running.get_mut(job).expect("running").enter(phase);
    }

    /// Attempts the four-step expansion protocol towards `to` processes.
    /// On success the reconfiguration begins after `pause`. On deferral
    /// the error names the queued resizer, which the caller either awaits
    /// under the §V-B1 timeout (the asynchronous path) or aborts on the
    /// spot (the synchronous path); on failure it names none.
    fn try_expand(
        &mut self,
        job: JobId,
        to: u32,
        now: SimTime,
        pause: Span,
    ) -> Result<(), Option<JobId>> {
        // Injected spawn-path failure (faultload): the negotiation dies
        // before the protocol runs; the job degrades gracefully to its
        // old size and a backoff retry is scheduled.
        if self.inject_resize_failure(job, to, now) {
            return Err(None);
        }
        match self.slurm.expand_protocol(job, to, now) {
            Ok(_) => {
                self.begin_reconfig(job, to, now + pause);
                Ok(())
            }
            Err(ExpandError::Queued { resizer }) => Err(Some(resizer)),
            Err(_) => Err(None),
        }
    }

    /// One reconfiguring point. Synchronous mode (`dmr_check_status`)
    /// decides and applies here, and every non-inhibited call costs
    /// [`crate::config::CHECK_OVERHEAD_S`] — the runtime↔RMS
    /// round trip the inhibitor exists to amortise. Asynchronous mode
    /// (`dmr_icheck_status`) applies what the *previous* boundary
    /// negotiated and plans the next one: the overhead hides behind
    /// computation, but decisions can be stale (§VIII-C).
    pub(crate) fn check_point(&mut self, job: JobId, now: SimTime) {
        let sync = self.cfg.mode == ScheduleMode::Synchronous;
        let rs = self.running.get_mut(job).expect("running");
        let (procs, phase, retry) = (rs.procs, rs.phase, rs.retry_expand.take());
        self.arm_inhibitor(job, now);
        let pause = self.check_pause;
        // A grant goes first, then a plan, then an expansion retry whose
        // backoff expired (the decision was already made; the injected
        // failure merely delayed it), then — synchronously — a fresh
        // consultation. A retry that falls due while a resizer is awaited
        // is dropped: the queued resizer already carries the expansion.
        let action = match phase {
            Phase::Granted { to, .. } => return self.begin_reconfig(job, to, now),
            Phase::Awaiting { rj, timeout, .. } => {
                let awaiting = |seg| Phase::Awaiting { seg, rj, timeout };
                return self.pause_then_continue(job, now, pause, awaiting);
            }
            Phase::Planned { action, .. } => action,
            _ => match retry {
                Some(to) => ResizeAction::Expand { to },
                None if sync => self.consult(job, now),
                None => ResizeAction::NoAction,
            },
        };
        // Synchronous mode applies even a target the job already has.
        let awaited = match action {
            ResizeAction::Expand { to } if sync || to > procs => {
                match self.try_expand(job, to, now, pause) {
                    Ok(()) => return,
                    // Asynchronously the job computes on while its resizer
                    // waits, under the §V-B1 timeout.
                    Err(Some(rj)) if !sync => {
                        let at = now + self.resizer_timeout;
                        Some((rj, self.engine.schedule_at(at, Ev::RjTimeout { job })))
                    }
                    // Synchronously the action aborts at once (the paper's
                    // timeout degenerates to zero here).
                    Err(Some(rj)) => {
                        self.slurm.abort_expand(rj, now);
                        None
                    }
                    Err(None) => None,
                }
            }
            ResizeAction::Shrink { to, .. } if sync || to < procs => {
                return self.begin_reconfig(job, to, now + pause)
            }
            _ => None,
        };
        // Asynchronously, plan the next boundary's action (free of charge:
        // the call overlaps the next compute step) unless a resizer is
        // awaited.
        let plan = match awaited {
            None if !sync => self.consult(job, now),
            _ => ResizeAction::NoAction,
        };
        self.pause_then_continue(job, now, pause, |seg| match (awaited, plan) {
            (Some((rj, timeout)), _) => Phase::Awaiting { seg, rj, timeout },
            (None, ResizeAction::NoAction) => Phase::Computing { seg },
            (None, action) => Phase::Planned { seg, action },
        });
    }

    /// One full consultation of the installed policy at `job`'s check
    /// point. A "no action" also takes the policy's hold for the job's
    /// current size — unless the inhibitor gates the job's checks: a held
    /// boundary is exactly one step, never a coalesced run of them.
    fn consult(&mut self, job: JobId, now: SimTime) -> ResizeAction {
        self.checks.consulted += 1;
        let action = self.slurm.decide_resize(job, now);
        if action == ResizeAction::NoAction
            && self.inhibitor_period(&self.specs[job].1.spec).is_none()
        {
            let hold = self.slurm.resize_hold(job);
            let rs = self.running.get_mut(job).expect("running");
            rs.hold = hold.map(|hold| (hold, rs.procs));
        }
        action
    }

    /// Resumes compute after a check that reconfigured nothing and cost
    /// `pause`, entering the phase `next` makes of the segment's
    /// `SegmentDone`. A pause end would be an event whose handler does
    /// nothing but begin the next segment, so it is left to the engine as
    /// a relay (see [`dmr_sim::Engine`]): the segment is planned now, as
    /// of the pause end, and its `SegmentDone` is ranked as if it had been
    /// scheduled from there.
    pub(crate) fn pause_then_continue(
        &mut self,
        job: JobId,
        now: SimTime,
        pause: Span,
        next: impl FnOnce(EventId) -> Phase,
    ) {
        let (at, then, steps) = self.after_check(job, now, pause);
        let event = Ev::SegmentDone { job, steps };
        let seg = match then {
            Some(then) => self.engine.schedule_relayed(at, then, event),
            None => self.engine.schedule_at(at, event),
        };
        self.mark_if_held(job, seg);
        self.enter(job, next(seg));
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
    pub(crate) fn on_due_segment(&mut self, job: JobId, steps: u32, now: SimTime) {
        if !self.pass_held(job, steps, now) {
            let ev = self.engine.fire_due();
            self.handle(now, ev);
        }
    }

    /// The held path (see the module docs): passes `job`'s boundary after
    /// `steps` more steps at `now` and claims the due event for the next
    /// segment, or returns `false` having changed nothing.
    fn pass_held(&mut self, job: JobId, steps: u32, now: SimTime) -> bool {
        let rs = &self.running[job];
        let (Phase::Computing { .. }, Some((hold, size)), None) =
            (rs.phase, rs.hold, rs.retry_expand)
        else {
            return false;
        };
        if size != rs.procs
            || rs.steps_done + steps >= self.specs[job].1.spec.steps
            || !hold.stands(&self.slurm)
        {
            return false;
        }
        debug_assert_eq!(self.slurm.nodes_of(job), size, "{job:?} resized unseen");
        let rs = self.running.get_mut(job).expect("running");
        rs.close_segment(steps, now, self.cfg.ckpt_interval_s);
        let (at, then, next) = self.after_check(job, now, self.check_pause);
        debug_assert_eq!(next, steps, "the claimed event names the next segment");
        match then {
            Some(then) => self.engine.claim_relayed(at, then),
            None => self.engine.claim_at(at),
        }
        self.checks.held += 1;
        true
    }

    /// A reconfiguration to `to` processes completed: adopt the new
    /// process set and resume compute. A shrink inverts the expansion
    /// order (the ACK workflow): the data drained off the leaving ranks
    /// first, and only now does the scheduler release their nodes and run
    /// a pass, so that the queued job the shrink was decided for — boosted
    /// whenever the policy names a beneficiary — can start on them.
    pub(crate) fn on_reconfig_done(&mut self, job: JobId, to: u32, now: SimTime) {
        let rs = self.running.get_mut(job).expect("a reconfiguring job runs");
        rs.enter(Phase::Resuming);
        let grows = to > rs.procs;
        if grows {
            rs.set_procs(to, &self.specs[job].1);
            // A completed expansion refills the injected-failure retry
            // budget for any future target.
            rs.retry_attempt = 0;
        } else if self.slurm.shrink_protocol(job, to, now).is_ok() {
            rs.set_procs(to, &self.specs[job].1);
        }
        self.update_estimate(job, now);
        self.begin_segment(job, now);
        if !grows {
            self.request_schedule();
        }
    }

    /// A queued resizer job finally started (asynchronous path): complete
    /// protocol steps 2–4 now; the application applies the grant (spawn +
    /// redistribution) at its next reconfiguring point.
    pub(crate) fn on_rj_started(&mut self, started: JobId, orig: JobId, now: SimTime) {
        // `Err`: the original vanished between scheduling and wiring; the
        // scheduler's dependency hygiene already reclaimed the nodes.
        let Ok((_, nodes)) = self.slurm.finish_expand(started, now) else {
            return;
        };
        let Phase::Awaiting { seg, rj, timeout } = self.running[orig].phase else {
            debug_assert!(false, "{orig:?} got a resizer it does not await");
            return;
        };
        debug_assert_eq!(rj, started, "{orig:?} awaited another resizer");
        self.enter(orig, Phase::Granted { seg, to: nodes });
        self.engine.cancel(timeout);
    }

    /// `job`'s resizer was queued too long: cancel it; the job computes on
    /// at its size.
    pub(crate) fn on_rj_timeout(&mut self, job: JobId, now: SimTime) {
        let Phase::Awaiting { seg, rj, .. } = self.running[job].phase else {
            debug_assert!(false, "{job:?} timed out a resizer it does not await");
            return;
        };
        self.enter(job, Phase::Computing { seg });
        self.slurm.abort_expand(rj, now);
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
        let sim = &self.specs[job].1;
        let remaining = sim
            .remaining_time(rs.procs, rs.steps_done)
            .mul_f64(ESTIMATE_PADDING);
        let elapsed = self
            .slurm
            .job(job)
            .and_then(|j| j.start_time)
            .map(|s| now.since(s))
            .unwrap_or(Span::ZERO);
        self.slurm.set_expected_runtime(job, elapsed + remaining);
    }
}
