//! The scheduling pass (`sched/builtin`), the cross-pass memos that
//! elide passes provably identical to the last one, and the reaping of
//! resizers whose job ended.

use dmr_sim::SimTime;

use crate::index::PendingKey;
use crate::job::{Dependency, JobId, JobState};
use crate::slotset::BackfillFamily;

use super::{JobStart, Slurm};

/// Memo of a backfill pass that started nothing, snapshotting everything
/// its decisions depended on. While it stays valid (see the invalidation
/// wiring in [`Slurm`]'s mutators) a repeat pass is provably identical —
/// it would again start nothing and leave no observable state — and is
/// elided in O(1).
#[derive(Debug)]
pub(super) struct BfMemo {
    /// Instant of the memoized pass. Capacity refusals are monotone in
    /// time (a start needs `free >= requested`, and the free count moves
    /// only at a mutation), so a memo holding nothing else is good at
    /// every `now >= at` until a mutation clears it.
    pub(super) at: SimTime,
    /// Smallest `requested_nodes` among the jobs the pass refused for
    /// lack of free nodes (`u32::MAX` when nothing was). A
    /// capacity-increasing event invalidates the memo only when the new
    /// free count reaches this watermark: below it, every refusal
    /// provably repeats (a start requires `free >= requested`).
    pub(super) watermark: u32,
    /// Whether the pass refused a *fitting* job (EASY harmless check /
    /// conservative hole not at `now`). Those refusals are **not**
    /// monotone in time — planned occupancy decays as running jobs
    /// overrun their estimates, so a hole can open with no mutation at
    /// all — and they depend on the running set. A memo carrying one is
    /// only reused at the exact memoized instant (unless `easy1` below)
    /// and dies at any capacity-increasing event.
    pub(super) fitting_refused: bool,
    /// The pass was an indexed EASY-1 pass, whose fitting refusals *are*
    /// monotone in time. Its one reservation never comes from a timeline:
    /// it is [`Slurm::reservation_for`]'s `(max(E, now), spare)`, with
    /// `E` and `spare` functions of the running index and the free count
    /// alone — no mutation, no change. Every fitting job it refused has
    /// `need > spare` (else it had started), which stays true, and an
    /// estimate `d` with `now + d > max(E, now)`; since `max(E, now') −
    /// now' <= max(E, now) − now` for `now' >= now`, `now' + d >
    /// max(E, now')` too. So each refusal repeats at every later instant
    /// until a mutation the invalidation wiring catches — a capacity
    /// event still drops the memo, as for any fitting refusal — and the
    /// memo is good at every `now >= at`. Not so for EASY-k >= 2, the
    /// conservative pass or a class-constrained reservation, which ask a
    /// timeline for holes.
    pub(super) easy1: bool,
    /// Config snapshot: the memo holds only while the pass would run the
    /// same algorithm with the same knobs.
    pub(super) family: BackfillFamily,
    pub(super) backfill_on: bool,
    pub(super) window: u32,
}

/// Cross-pass incremental-scheduling state (all of it soundness-gated:
/// every mutator either keeps a memo provably valid or clears it).
#[derive(Debug, Default)]
pub(super) struct IncrState {
    /// `Some(need)` after a [`Slurm::schedule`] pass that started nothing
    /// and broke at a dependency-satisfied head requesting `need` nodes.
    /// While free nodes stay below `need`, a repeat pass is provably
    /// identical and is elided.
    sched_block: Option<u32>,
    /// Memo of the last fruitless backfill pass (see [`BfMemo`]).
    pub(super) bf_memo: Option<BfMemo>,
    /// Instant [`Slurm::reap_dead_resizers`] last ran to completion with
    /// no dependency-relevant mutation since — dedupes the
    /// schedule-then-backfill double reap at one instant.
    pub(super) reaped_at: Option<SimTime>,
    sched_runs: u64,
    sched_elided: u64,
    pub(super) bf_runs: u64,
    pub(super) bf_elided: u64,
    pub(super) bf_examined: u64,
}

/// Pass counters of the incremental layer (see
/// [`Slurm::incremental_stats`]): how many scheduling / backfill passes
/// executed versus how many were elided as provable no-ops. Elision never
/// changes decisions, so these make the incremental win attributable —
/// benchmarks report them per cell instead of inferring the effect from
/// throughput alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// [`Slurm::schedule`] passes that ran the walk.
    pub sched_passes_run: u64,
    /// [`Slurm::schedule`] passes elided via the blocked-head watermark.
    pub sched_passes_elided: u64,
    /// [`Slurm::backfill_pass`] invocations that executed.
    pub backfill_passes_run: u64,
    /// [`Slurm::backfill_pass`] invocations elided via the pass memo.
    pub backfill_passes_elided: u64,
    /// Pending jobs the executed backfill passes evaluated (fit test,
    /// harmless check or plan) — the work a pass does, as opposed to how
    /// long the host took over it. The indexed EASY pass evaluates only
    /// jobs that can pass the harmless check; the walking passes (the
    /// conservative one, the EASY fallback) evaluate every pending job up
    /// to the end of their walk, as the model scheduler of
    /// `tests/common/model.rs` does on every pass — which is how the
    /// lockstep harness tells an indexed pass from a walked one.
    pub backfill_jobs_examined: u64,
}

impl Slurm {
    /// Clears every cross-pass decision memo. The catch-all for mutations
    /// whose effect on pass outcomes is not worth proving finer rules
    /// about.
    pub(super) fn incr_clear(&mut self) {
        self.incr.sched_block = None;
        self.incr.bf_memo = None;
    }

    /// A capacity-increasing event happened (completion, running-job
    /// cancellation, shrink): keep the watermark memos only while the new
    /// free count still cannot satisfy the smallest refused request —
    /// then every refusal in the memoized pass provably repeats. A
    /// backfill memo that refused a fitting job is always dropped: the
    /// changed running set may flip that refusal either way.
    pub(super) fn incr_capacity_freed(&mut self) {
        // The watermark rule compares *global* free capacity against the
        // blocked request — unsound for a class-constrained pending job,
        // whose class can gain nodes without the global count reaching
        // the watermark. Fall back to a full invalidation while any such
        // job is pending (never the case on uniform inventories).
        if self.pending_index.constrained() > 0 {
            self.incr_clear();
            return;
        }
        let free = self.cluster.free_nodes();
        if self.incr.sched_block.is_some_and(|need| free >= need) {
            self.incr.sched_block = None;
        }
        if self
            .incr
            .bf_memo
            .as_ref()
            .is_some_and(|m| m.fitting_refused || free >= m.watermark)
        {
            self.incr.bf_memo = None;
        }
    }

    pub(super) fn start_job(&mut self, id: JobId, now: SimTime) -> JobStart {
        let need = self.jobs[id].requested_nodes;
        let constraint = self.jobs[id].constraint;
        let held = self
            .cluster
            .allocate_in(need, id.owner_tag(), constraint)
            .expect("caller verified free nodes");
        let job = self.jobs.get_mut(id).expect("job exists");
        self.pending_index.remove(job);
        job.state = JobState::Running;
        job.start_time = Some(now);
        let end = now + job.expected_runtime;
        let resizer_for = job.dependency.map(|Dependency::ExpandOf(parent)| parent);
        self.running_index.insert(id, end, held);
        self.record_class_split(id);
        // A start changes the free count, the running set and (for
        // resizer parents) dependency satisfiability: every memo dies;
        // the persistent order keeps the started id as a tombstone.
        self.queue_cache_tombstone();
        self.incr_clear();
        self.incr.reaped_at = None;
        JobStart {
            id,
            held,
            resizer_for,
        }
    }

    pub(super) fn reap_dead_resizers(&mut self, now: SimTime) {
        // Per-instant memo: a schedule() immediately followed by a
        // backfill_pass() at the same instant reaps once. Any mutation
        // that can create candidates or change dependency state (submit,
        // start, complete, cancel) re-arms it.
        if self.incr.reaped_at == Some(now) {
            return;
        }
        // O(1) in the common case: completions push orphaned resizers
        // onto the candidate list; nothing queued means nothing to do.
        if !self.resizer_index.has_dead_candidates() {
            self.incr.reaped_at = Some(now);
            return;
        }
        for id in self.resizer_index.take_dead() {
            let Some(j) = self.jobs.get(id) else {
                continue;
            };
            if j.state != JobState::Pending || !j.is_resizer() {
                continue;
            }
            if self.dependency_satisfied(j) {
                // The parent was not running at registration but is now:
                // re-register so a later parent termination re-queues it.
                if let Some(Dependency::ExpandOf(parent)) = j.dependency {
                    self.resizer_index.register(parent, id, true);
                }
                continue;
            }
            self.cancel(id, now);
        }
        // Arm the memo last: the cancels above cleared it.
        self.incr.reaped_at = Some(now);
    }

    /// The event-driven scheduling pass (Slurm's `sched/builtin` reacting
    /// to submissions and completions): starts pending jobs in priority
    /// order and stops at the first that does not fit. Backfill around
    /// blocked jobs happens only in the periodic [`Slurm::backfill_pass`],
    /// mirroring Slurm's `bf_interval` architecture. Also reaps resizer
    /// jobs whose original job ended.
    pub fn schedule(&mut self, now: SimTime) -> Vec<JobStart> {
        // Watermark elision: a prior pass started nothing and broke at a
        // blocked head, and no mutation since could change any decision
        // (the memo is cleared by every mutation that can — see
        // `incr_clear` / `incr_capacity_freed` call sites; new
        // submissions sort last, so the head still blocks first), and the
        // reap is provably a no-op.
        if !self.resizer_index.has_dead_candidates() && self.incr.sched_block.is_some() {
            self.incr.sched_elided += 1;
            return Vec::new();
        }
        self.incr.sched_runs += 1;
        self.reap_dead_resizers(now);
        // The walk follows the pending index through a resumable cursor
        // instead of materialising the order, so a pass that starts `k`
        // of `n` pending jobs costs O(k log n). The only mid-walk
        // mutation, `start_job`, removes keys the cursor has passed.
        let mut started = Vec::new();
        let mut blocked = None;
        let mut cursor: Option<PendingKey> = None;
        while let Some(key) = self.pending_index.next_after(cursor) {
            cursor = Some(key);
            let job = &self.jobs[key.id];
            if !self.dependency_satisfied(job) {
                continue;
            }
            if self
                .cluster
                .can_allocate_in(job.requested_nodes, job.constraint)
            {
                started.push(self.start_job(key.id, now));
            } else {
                blocked = Some(job.requested_nodes);
                break;
            }
        }
        // Memoize only a fully fruitless pass: a pass that started jobs
        // may have flipped a skipped resizer's dependency mid-walk, and
        // `start_job` cleared the memos anyway.
        if started.is_empty() {
            self.incr.sched_block = blocked;
        }
        started
    }

    /// Records the memo of a fruitless backfill pass (see [`BfMemo`]).
    /// Not called after a pass that started jobs: `start_job` already
    /// cleared any previous memo.
    pub(super) fn bf_memoize(
        &mut self,
        now: SimTime,
        watermark: u32,
        fitting_refused: bool,
        easy1: bool,
    ) {
        self.incr.bf_memo = Some(BfMemo {
            at: now,
            watermark,
            fitting_refused,
            easy1,
            family: self.config.backfill_family,
            backfill_on: self.config.backfill,
            window: self.config.bf_max_job_test,
        });
    }

    /// Pass counters of the incremental layer: executed versus elided
    /// scheduling and backfill passes (see [`IncrementalStats`]).
    pub fn incremental_stats(&self) -> IncrementalStats {
        IncrementalStats {
            sched_passes_run: self.incr.sched_runs,
            sched_passes_elided: self.incr.sched_elided,
            backfill_passes_run: self.incr.bf_runs,
            backfill_passes_elided: self.incr.bf_elided,
            backfill_jobs_examined: self.incr.bf_examined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use crate::slurm::tests::{slurm, t};
    use dmr_sim::Span;

    #[test]
    fn fifo_start_in_submission_order() {
        let mut s = slurm(10);
        let a = s.submit(JobRequest::rigid("a", 4), t(0));
        let b = s.submit(JobRequest::rigid("b", 4), t(0));
        let started = s.schedule(t(0));
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].id, a);
        assert_eq!(started[1].id, b);
        assert_eq!(s.cluster().free_nodes(), 2);
    }

    /// A script whose backfill passes all refuse a *fitting* job: `a`
    /// holds 6 of 8 nodes until t = 1000 on its estimate (and overruns
    /// it), the head wants all 8, and the 2-node job behind it would
    /// run 2000 s — past any reservation the head can get. Passes at
    /// t = 10, 40 and 1500, then `a` completes and a pass at t = 1600.
    /// Returns what each pass started and the pass counters after each.
    fn refused_fitting_job_script(s: &mut Slurm) -> Vec<(Vec<JobStart>, u64, u64)> {
        let est = |secs| Span::from_secs(secs);
        let a = s.submit(
            JobRequest::rigid("a", 6).with_expected_runtime(est(1000)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 1);
        s.submit(
            JobRequest::rigid("head", 8).with_expected_runtime(est(500)),
            t(1),
        );
        s.submit(
            JobRequest::rigid("long", 2).with_expected_runtime(est(2000)),
            t(1),
        );
        assert!(s.schedule(t(1)).is_empty(), "the head blocks the queue");
        let mut passes = Vec::new();
        let mut pass = |s: &mut Slurm, at: u64| {
            let started = s.backfill_pass(t(at));
            let stats = s.incremental_stats();
            passes.push((
                started,
                stats.backfill_passes_run,
                stats.backfill_passes_elided,
            ));
            s.check_invariants().unwrap();
        };
        pass(s, 10);
        pass(s, 40);
        pass(s, 1500);
        s.complete(a, t(1600));
        pass(s, 1600);
        passes
    }

    #[test]
    fn an_easy1_memo_with_a_refused_fitting_job_survives_the_clock() {
        let mut s = slurm(8);
        let passes = refused_fitting_job_script(&mut s);
        let counters: Vec<(u64, u64)> = passes.iter().map(|p| (p.1, p.2)).collect();
        // One pass runs; the two later ones — the second past the
        // estimate the reservation rests on — are elided; the completion
        // drops the memo and the last pass runs, starting the head.
        assert_eq!(counters, vec![(1, 0), (1, 1), (1, 2), (2, 2)]);
        assert!(passes[..3].iter().all(|p| p.0.is_empty()));
        assert_eq!(passes[3].0.len(), 1);
        assert_eq!(passes[3].0[0].held, 8);
    }

    #[test]
    fn a_timeline_memo_with_a_refused_fitting_job_dies_with_its_instant() {
        for family in [BackfillFamily::easy(2), BackfillFamily::Conservative] {
            let mut s = slurm(8);
            s.config.backfill_family = family;
            let est = |secs| Span::from_secs(secs);
            s.submit(
                JobRequest::rigid("a", 6).with_expected_runtime(est(1000)),
                t(0),
            );
            s.schedule(t(0));
            s.submit(
                JobRequest::rigid("head", 8).with_expected_runtime(est(500)),
                t(1),
            );
            s.submit(
                JobRequest::rigid("long", 2).with_expected_runtime(est(2000)),
                t(1),
            );
            assert!(s.backfill_pass(t(10)).is_empty());
            let memo = s.incr.bf_memo.as_ref().expect("fruitless pass memoised");
            assert!(memo.fitting_refused && !memo.easy1, "{family:?}");
            // Same instant: the memo answers. Later: a hole may have
            // opened on the timeline, so the pass runs.
            assert!(s.backfill_pass(t(10)).is_empty());
            assert!(s.backfill_pass(t(40)).is_empty());
            let stats = s.incremental_stats();
            assert_eq!(
                (stats.backfill_passes_run, stats.backfill_passes_elided),
                (2, 1),
                "{family:?}"
            );
        }
    }

    /// Regression: a job submitted below a live memo's watermark must
    /// lower the watermark, or a completion freeing enough nodes for the
    /// new job (but not for the old refusals) would keep the memo and
    /// unsoundly elide the pass that should backfill it.
    #[test]
    fn submit_below_watermark_lowers_it() {
        let mut s = slurm(10);
        let _r1 = s.submit(
            JobRequest::rigid("r1", 6).with_expected_runtime(Span::from_secs(1000)),
            t(0),
        );
        let r2 = s.submit(
            JobRequest::rigid("r2", 4).with_expected_runtime(Span::from_secs(500)),
            t(0),
        );
        assert_eq!(s.schedule(t(0)).len(), 2);
        s.submit(
            JobRequest::rigid("big", 8).with_expected_runtime(Span::from_secs(100)),
            t(1),
        );
        s.schedule(t(1));
        assert!(s.backfill_pass(t(1)).is_empty(), "big cannot start");
        let small = s.submit(
            JobRequest::rigid("small", 3).with_expected_runtime(Span::from_secs(10)),
            t(2),
        );
        // Frees 4 nodes: enough for `small` (3), not for `big` (8). The
        // memo recorded watermark 8 at the pass; without the lowering
        // rule this completion would keep it and elide the next pass.
        s.complete(r2, t(3));
        let started = s.backfill_pass(t(3));
        assert_eq!(
            started.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![small],
            "small must backfill into the freed nodes"
        );
        assert_eq!(s.job(small).unwrap().state, JobState::Running);
    }

    /// Same-instant duplicate reap scans are skipped under incremental
    /// scheduling: `schedule` + `backfill_pass` at one instant perform
    /// one scan, and decisions are unchanged.
    #[test]
    fn same_instant_reap_is_memoised() {
        let mut s = slurm(10);
        let a = s.submit(
            JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(300)),
            t(0),
        );
        s.schedule(t(0));
        s.expand_protocol(a, 6, t(1)).unwrap();
        s.check_invariants().unwrap();
        // schedule() reaps, then backfill_pass() at the same instant
        // reuses the memo instead of rescanning.
        s.schedule(t(2));
        s.backfill_pass(t(2));
        s.check_invariants().unwrap();
        // The memo never crosses an instant: a later pass re-scans.
        s.schedule(t(40));
        s.check_invariants().unwrap();
    }
}
