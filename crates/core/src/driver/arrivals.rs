//! Job arrivals, scheduling cycles, compute segments and completion.
//!
//! This is the rigid-job half of the lifecycle — submit, start, compute,
//! finish — which flexible jobs share; they merely punctuate their
//! compute with the reconfiguring points handled in [`super::reconfig`].
//!
//! A pulled job waits in [`Driver::next_arrival`] until its
//! [`Ev::Arrival`] submits it. From then until it completes, its spec and
//! arrival sequence number live in [`Driver::specs`] under its scheduler
//! id, and once started its progress in [`Driver::running`].

use dmr_cluster::ClassConstraint;
use dmr_sim::{EventId, SimTime, Span};
use dmr_slurm::{JobId, JobName, JobRequest, ResizeEnvelope};

use super::events::Ev;
use super::{Driver, Phase, RunState};
use crate::config::{EstimateMode, ESTIMATE_PADDING, WAKE_LATENCY_S};
use crate::model::SimJob;

impl Driver<'_, '_> {
    /// Schedules the run's first arrival ([`Driver::pull_arrival`]),
    /// marked claimable: each arrival's handler re-keys it to its
    /// successor's instant.
    ///
    /// Arrivals are scheduled in the engine's *early* tie-break class,
    /// which a claim keeps: historically every arrival was scheduled
    /// before the run began and therefore always popped before
    /// same-instant run events; streaming must preserve that order
    /// bit-for-bit.
    pub(crate) fn schedule_first_arrival(&mut self) {
        if let Some(at) = self.pull_arrival() {
            let arrival = self.engine.schedule_at_early(at, Ev::Arrival);
            self.engine.mark_claimable(arrival);
        }
    }

    /// Pulls the next job from the source (if any), binds it to its
    /// application's speedup curve and returns its arrival instant; the
    /// job waits in [`Driver::next_arrival`]. Exactly one arrival event is
    /// in flight at any time, so arbitrarily long workloads occupy O(1)
    /// event-queue space.
    fn pull_arrival(&mut self) -> Option<SimTime> {
        debug_assert!(self.next_arrival.is_none(), "one arrival in flight");
        let job = self.source.next_job().map(SimJob::from_spec)?;
        // Sources yield arrival-sorted jobs; clamp stragglers so virtual
        // time never runs backwards.
        let at = SimTime::from_secs_f64(job.spec.arrival_s.max(0.0)).max(self.last_arrival);
        self.last_arrival = at;
        self.next_arrival = Some(job);
        Some(at)
    }

    /// The due [`Ev::Arrival`] submits the job it stands for, then is
    /// re-keyed in place to its successor's instant, or taken from the
    /// engine when the source is dry.
    pub(crate) fn on_arrival(&mut self, now: SimTime) {
        let sim = self.next_arrival.take().expect("an arrival is in flight");
        let spec = &sim.spec;
        // A GPU-demanding job becomes class-constrained — but only when
        // the machine actually has a GPU class; on uniform clusters the
        // tag is ignored (the request would otherwise never start).
        let table = self.slurm.cluster().table();
        let constraint = if spec.gpu && table.has_gpu_class() {
            ClassConstraint::GpuRequired
        } else {
            ClassConstraint::Any
        };
        // Submissions larger than the machine — or, for constrained jobs,
        // larger than their eligible classes — can never start; clamp
        // like a real site's partition limit would.
        let capacity = match constraint {
            ClassConstraint::Any => self.cfg.nodes,
            _ => (0..table.num_classes())
                .filter(|&c| constraint.allows(c, table.class(c)))
                .map(|c| table.class_nodes(c))
                .sum(),
        };
        let submit_procs = spec.submit_procs.min(capacity);
        let est = match self.cfg.estimate_mode {
            EstimateMode::Walltime => Span::from_secs_f64(spec.walltime_s),
            EstimateMode::Actual => sim
                .remaining_time(submit_procs, 0)
                .mul_f64(ESTIMATE_PADDING),
        };
        let name = JobName::Indexed(spec.app.name(), spec.index.into());
        let req = if self.is_flexible(spec) {
            JobRequest::flexible(
                name,
                submit_procs,
                ResizeEnvelope {
                    min: spec.malleability.min_procs.min(submit_procs),
                    max: spec.malleability.max_procs.min(capacity),
                    preferred: spec.malleability.preferred,
                    factor: spec.malleability.factor.max(2),
                },
            )
            .with_expected_runtime(est)
        } else {
            JobRequest::rigid(name, submit_procs).with_expected_runtime(est)
        };
        let id = self.slurm.submit(req.with_constraint(constraint), now);
        self.specs.insert(id, (self.arrived, sim));
        self.arrived += 1;
        // Demand arrived while nodes are suspended: start them waking.
        // Requests coalesce onto one in-flight wake event; capacity is
        // placeable again once [`Ev::NodeWake`] fires.
        if !self.wake_pending && self.slurm.cluster().off_nodes() > 0 {
            self.wake_pending = true;
            self.engine
                .schedule_at(now + Span::from_secs_f64(WAKE_LATENCY_S), Ev::NodeWake);
        }
        // The job is in the system: pull its successor from the source.
        // The claim draws the sequence number a push of a new arrival
        // would draw here.
        match self.pull_arrival() {
            Some(at) => self.engine.claim_at(at),
            None => {
                self.engine.fire_due();
            }
        }
        self.request_schedule();
    }

    /// One event-driven scheduling cycle (FIFO pass); wires freshly
    /// started jobs (and resizer jobs) into the simulation.
    pub(crate) fn do_schedule(&mut self, now: SimTime) {
        let starts = self.slurm.schedule(now);
        self.wire_starts(starts, now);
        self.maybe_power_down(now);
    }

    pub(crate) fn wire_starts(&mut self, starts: Vec<dmr_slurm::JobStart>, now: SimTime) {
        for st in starts {
            match st.resizer_for {
                Some(orig) => self.on_rj_started(st.id, orig, now),
                None => {
                    let mut rs = RunState::new(&self.specs[st.id].1, st.held, now);
                    // A requeued incarnation resumes from its checkpoint
                    // image (zero steps when restarting from scratch) and
                    // closes the failure-to-restart latency window.
                    if let Some(info) = self.requeued.get(st.id) {
                        rs.steps_done = info.resume_steps;
                        rs.ckpt_steps = info.resume_steps;
                        self.restart_lat.push(now.since(info.failed_at).as_micros());
                    }
                    self.running.insert(st.id, rs);
                    self.begin_segment(st.id, now);
                }
            }
        }
    }

    /// Schedules the next compute segment of `job` from `now`, or
    /// completes the job if it has no step left.
    pub(crate) fn begin_segment(&mut self, job: JobId, now: SimTime) {
        let Some((duration, steps)) = self.plan_segment(job, now) else {
            self.complete_job(job, now);
            return;
        };
        let seg = self
            .engine
            .schedule_at(now + duration, Ev::SegmentDone { job, steps });
        self.mark_if_held(job, seg);
        self.enter(job, Phase::Computing { seg });
    }

    /// Marks `job`'s segment end `seg` claimable when the job has a hold
    /// at its current size, so that the engine lets the driver try the
    /// held path first ([`Driver::on_due_segment`]). A job without one —
    /// every rigid job — pays one test.
    pub(crate) fn mark_if_held(&mut self, job: JobId, seg: EventId) {
        let rs = &self.running[job];
        if rs.hold.is_some_and(|(_, size)| size == rs.procs) {
            self.engine.mark_claimable(seg);
        }
    }

    /// The compute segment `job` would begin at `at`, as `(duration,
    /// steps)`: up to the next reconfiguring point for flexible jobs
    /// (respecting the checking inhibitor by coalescing inhibited
    /// iterations), or the whole remainder for rigid jobs. `None` when no
    /// step is left. Reads only what the job's own events change (its
    /// progress, size, node set and inhibitor gate), so a plan made for a
    /// later instant of a pause the job is in holds at that instant.
    pub(crate) fn plan_segment(&self, job: JobId, at: SimTime) -> Option<(Span, u32)> {
        let rs = &self.running[job];
        let spec = &self.specs[job].1.spec;
        let remaining = spec.steps.saturating_sub(rs.steps_done);
        if remaining == 0 {
            return None;
        }
        // Guard against sub-microsecond steps degenerating into zero-time
        // event loops.
        let step = rs.step.max(Span(1));
        let k = if !self.is_flexible(spec) {
            match self.cfg.ckpt_interval_s {
                // Periodic checkpointing cuts the monolithic rigid
                // segment at image instants so `on_segment_done` has
                // boundaries to take images at. The cut only regroups
                // steps — total compute time is the same integer-µs sum —
                // so summaries are unchanged when no failure lands. With
                // no fault source armed there is nothing an image could
                // ever be restored from, so the segment stays monolithic
                // and the interval knob is bit-invisible (`events`
                // included) — the zero-fault oracle.
                Some(interval_s) if self.faults_armed() => {
                    let per = step.as_secs_f64();
                    ((interval_s / per).ceil().max(1.0) as u32).min(remaining)
                }
                _ => remaining,
            }
        } else if self.inhibitor_period(spec).is_some() && at < rs.next_check_at {
            let gap = rs.next_check_at.since(at).as_secs_f64();
            let per = step.as_secs_f64();
            ((gap / per).ceil() as u32).clamp(1, remaining)
        } else {
            1
        };
        // Heterogeneous machines: the segment runs at the *slowest* class
        // the job's nodes span (stored when its allocation last changed),
        // scaled in exact integer microseconds. The neutral 1/1 factor
        // takes the historical expression verbatim, so uniform (and
        // single-class) runs stay bit-identical.
        let (num, den) = self.slurm.slowdown(job);
        let duration = if num == den {
            Span(step.as_micros().saturating_mul(k as u64))
        } else {
            let us = step.as_micros() as u128 * k as u128 * num as u128 / den as u128;
            Span(us.clamp(1, u64::MAX as u128) as u64)
        };
        Some((duration, k))
    }

    pub(crate) fn on_segment_done(&mut self, job: JobId, steps: u32, now: SimTime) {
        let rs = self.running.get_mut(job).expect("a computing job runs");
        debug_assert!(!matches!(rs.phase, Phase::Reconfiguring { .. }));
        rs.close_segment(steps, now, self.cfg.ckpt_interval_s);
        let spec = &self.specs[job].1.spec;
        if rs.steps_done >= spec.steps {
            self.complete_job(job, now);
        } else if self.is_flexible(spec) {
            self.check_point(job, now);
        } else {
            self.begin_segment(job, now);
        }
    }

    pub(crate) fn complete_job(&mut self, job: JobId, now: SimTime) {
        if let Some(rs) = self.running.remove(job) {
            self.drop_resizer(rs.phase);
        }
        // Fold the job's accounting into the metrics sink while the
        // scheduler record still exists, then let `complete` prune it.
        self.account_completion(job, now);
        self.slurm.complete(job, now);
        self.completed += 1;
        // Freed nodes: run a scheduling cycle.
        self.request_schedule();
    }
}
