//! Slot-set free-resource timeline: the future-occupancy step function
//! behind the backfill families.
//!
//! A single EASY reservation is a prefix walk of the running-jobs
//! end-time index (`Slurm::reservation_for`), and the default family asks
//! for nothing else. But the walk can only answer "when is the
//! *cluster-wide* free count ≥ need", which is not enough for planning
//! many jobs into the future (EASY-k, conservative backfill) or for a
//! job confined to one machine class. A pass that has such a question
//! builds the timeline below from that same index, queries and plans
//! into it, and leaves it behind — like Slurm's backfill thread, which
//! draws its free-resource map afresh every cycle. Nothing is maintained
//! between passes, so nothing is ever undone.
//!
//! [`SlotSet`] holds the *planned occupancy* `occ(t)` — the number of
//! nodes committed at instant `t` by running jobs and by the
//! reservations of the pass in flight — as the step function itself: two
//! parallel arrays holding the `s` slot boundaries in ascending order and
//! the occupancy of the half-open slot `[b_i, b_{i+1})` each one opens
//! (the last slot extends forever). The first boundary is the horizon.
//!
//! * [`SlotSet::rebuild`] — the timeline of a set of running
//!   commitments `(end, nodes)` at `now`, from one walk in end order:
//!   O(commitments), into the buffers of the previous pass;
//! * [`SlotSet::plan`] — add `nodes` over `[from, until)`: two binary
//!   searches, at most two inserts and an add over the contiguous
//!   covered range — O(log s) compares, an O(s) move;
//! * [`SlotSet::earliest_hole`] — first instant `t ≥ from` with
//!   `occ ≤ cap` throughout `[t, t + dur)`: a binary search, then one
//!   forward scan holding a candidate start until a blocker falls inside
//!   its window — O(s), each boundary visited once ([`SlotSet::max_in`]
//!   is the same scan over a bounded window). The [`Hole`] it returns
//!   keeps the slot the window starts in and the first boundary at or
//!   past its end;
//! * [`SlotSet::plan_hole`] — [`SlotSet::plan`] over a hole's window at
//!   those two indices: no search, at most two inserts (one where the
//!   hole opens on a boundary, as every hole a pass asks for at its own
//!   horizon does) and the add. The conservative pass commits each
//!   blocked job's plan this way into the timeline that answered; the
//!   aggregate's copy of a class plan, a start and an EASY-k
//!   reservation go through `plan`.
//!
//! **Why flat, and where that stops.** Every boundary is the end of a
//! running job, an endpoint of a plan of the pass in flight, or the
//! horizon, so `s ≤ running + 2 bf_max_job_test + 1`. Measured at the
//! start of a conservative pass the aggregate timeline holds 44
//! boundaries on average on the benchmark's `trace_mixed`; on the
//! largest churn cell of `dmr-bench`'s `benches/hotpath.rs` (65 536
//! nodes × 100 k pending) 32, growing to 531 over the 512-plan window
//! (bound ≈ 1 050; a hole starts on an existing boundary, so a plan
//! adds one). There a
//! contiguous scan beats the treap (lazy range-add, min / max
//! aggregates) this module used to keep: a micro-bench, since deleted
//! with the other simulator benches beside `benchmark/`, read a
//! `plan` into a 1 000-plan timeline at 0.08 µs, where the treap took
//! 2.2 µs over a plan and its removal, and a `rebuild` from 1 000
//! commitments at 1.8 µs (0.15 µs from 64). The array loses from the
//! tens of thousands of boundaries on (16 000 plans: a `plan` 29 µs
//! against the treap's 8.6 µs for the pair, a tight-cap `earliest_hole`
//! 10.8 µs against 0.13 µs), where no `Slurm` in this repository goes.
//! Should one, block the array (chunks carrying min / max / a lazy add)
//! rather than keep a second representation beside it.
//!
//! The free count at `t` is `avail − occ(t)` where `avail` is the free
//! plus the allocated node count (`Cluster::usable_in`); keeping the
//! *base* at the actual cluster free count makes detached resizer nodes and
//! overrunning jobs (expected end in the past, which occupy nothing)
//! come out right without special cases. Queries depend only on the
//! step function, never on which redundant boundaries happen to be
//! stored.
//!
//! [`BackfillFamily`] selects which backfill algorithm consumes it.

use dmr_sim::{SimTime, Span};

/// Which backfill algorithm [`crate::slurm::Slurm::backfill_pass`] runs.
///
/// All families share the FIFO head behaviour (start jobs in priority
/// order until one blocks); they differ in how many blocked jobs get a
/// planned start and in what lower-priority jobs may do around those
/// plans. `Easy { reservations: 1 }` (the default) is the paper's
/// `sched/backfill` configuration. Every family is held, pass by pass,
/// against the model scheduler of `tests/common/model.rs` (a walk of the
/// whole queue against reservations taken from a step function rebuilt
/// from the running jobs), driven in lockstep by
/// `tests/common/lockstep.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackfillFamily {
    /// EASY-k: the first `reservations` blocked jobs get a shadow-time
    /// reservation; lower-priority jobs may start only if they end
    /// before every shadow time or fit in the spare ("extra") nodes at
    /// it. `reservations: 1` is classic EASY (today's behaviour).
    Easy {
        /// Maximum number of concurrently held reservations per pass.
        reservations: u32,
    },
    /// Conservative backfill: *every* blocked job gets a slot planned in
    /// the free-resource timeline, and a job may start now only if doing
    /// so delays none of those plans (its whole expected runtime fits
    /// under the planned occupancy).
    Conservative,
}

impl Default for BackfillFamily {
    fn default() -> Self {
        BackfillFamily::Easy { reservations: 1 }
    }
}

impl BackfillFamily {
    /// EASY with `k` reservations (`k` is clamped to at least 1).
    pub fn easy(k: u32) -> Self {
        BackfillFamily::Easy {
            reservations: k.max(1),
        }
    }

    /// Short label for sweep CSVs and bench run entries.
    pub fn label(self) -> &'static str {
        match self {
            BackfillFamily::Easy { reservations: 1 } => "easy1",
            BackfillFamily::Easy { reservations: 8 } => "easy8",
            BackfillFamily::Easy { reservations: 64 } => "easy64",
            BackfillFamily::Easy { .. } => "easyk",
            BackfillFamily::Conservative => "conservative",
        }
    }
}

/// The free-resource timeline (see module docs).
#[derive(Clone, Debug)]
pub struct SlotSet {
    /// Slot boundaries, strictly ascending and never empty; the first is
    /// the horizon (the earliest represented instant), and every query
    /// and plan clamps to it.
    times: Vec<SimTime>,
    /// `occ[i]` is the occupancy on `[times[i], times[i + 1])`.
    occ: Vec<i64>,
    /// Changes made so far: a [`Hole`] is committed only to the timeline
    /// as it was found.
    #[cfg(debug_assertions)]
    edits: u64,
}

/// A window [`SlotSet::earliest_hole`] found, with the slots its scan
/// stopped at, for [`SlotSet::plan_hole`].
#[derive(Clone, Copy, Debug)]
pub struct Hole {
    /// The earliest start.
    pub at: SimTime,
    /// `at` plus the duration asked for (saturating).
    pub until: SimTime,
    /// The slot `at` lies in.
    slot: usize,
    /// The first boundary at or past `until` (the boundary count if
    /// none is); when the window is empty, the one after `slot`.
    end: usize,
    #[cfg(debug_assertions)]
    edits: u64,
}

impl SlotSet {
    /// An empty timeline: occupancy 0 everywhere from `origin` on.
    pub fn new(origin: SimTime) -> Self {
        SlotSet {
            times: vec![origin],
            occ: vec![0],
            #[cfg(debug_assertions)]
            edits: 0,
        }
    }

    /// Makes this the timeline of `commitments` — `(end, nodes)` pairs in
    /// ascending order of `end`, each holding its nodes over `[now, end)`
    /// — with the horizon at `now`, whatever it held before (the buffers
    /// are reused). A commitment ending at or before `now` occupies
    /// nothing. One walk records, per distinct end, the nodes released
    /// there; summed from the back those drops are the levels.
    pub fn rebuild(&mut self, now: SimTime, commitments: impl IntoIterator<Item = (SimTime, u32)>) {
        self.times.clear();
        self.occ.clear();
        self.times.push(now);
        self.occ.push(0);
        for (end, nodes) in commitments {
            let last = self.times.len() - 1;
            debug_assert!(end <= now || end >= self.times[last], "ends must ascend");
            if end <= now || nodes == 0 {
                continue;
            }
            if self.times[last] == end {
                self.occ[last] += i64::from(nodes);
            } else {
                self.times.push(end);
                self.occ.push(i64::from(nodes));
            }
        }
        let mut level = 0;
        for slot in self.occ.iter_mut().rev() {
            level += std::mem::replace(slot, level);
        }
        #[cfg(debug_assertions)]
        {
            self.edits += 1;
        }
    }

    /// Earliest represented instant (the `now` of the last
    /// [`SlotSet::rebuild`]).
    pub fn horizon(&self) -> SimTime {
        self.times[0]
    }

    /// Number of slots (boundaries) currently held.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the timeline holds only the horizon slot.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Index of the slot containing `t` (not before the horizon).
    fn slot_of(&self, t: SimTime) -> usize {
        self.times.partition_point(|&b| b <= t) - 1
    }

    /// True occupancy at instant `t` (clamped to the horizon).
    pub fn occupied_at(&self, t: SimTime) -> i64 {
        self.occ[self.slot_of(t.max(self.horizon()))]
    }

    /// Maximum occupancy over the window `[from, until)` (clamped to the
    /// horizon; an empty window reports the value at `from`).
    pub fn max_in(&self, from: SimTime, until: SimTime) -> i64 {
        let first = self.slot_of(from.max(self.horizon()));
        let inside = self.times[first + 1..].iter().take_while(|&&b| b < until);
        let peak = self.occ[first..=first + inside.count()].iter().max();
        *peak.expect("the window holds the slot of `from`")
    }

    /// Index of the boundary exactly at `t`, searched for (and, when
    /// absent, inserted with the value the step function already has
    /// there) at or after index `lo`. `t` must lie past `times[lo - 1]`.
    fn ensure_boundary(&mut self, lo: usize, t: SimTime) -> usize {
        let i = lo + self.times[lo..].partition_point(|&b| b < t);
        if self.times.get(i) != Some(&t) {
            self.times.insert(i, t);
            self.occ.insert(i, self.occ[i - 1]);
        }
        i
    }

    /// Commits `nodes` over `[from, until)` (clamped to the horizon).
    pub fn plan(&mut self, from: SimTime, until: SimTime, nodes: u32) {
        let from = from.max(self.horizon());
        if until <= from || nodes == 0 {
            return;
        }
        let lo = self.ensure_boundary(0, from);
        let hi = self.ensure_boundary(lo + 1, until);
        self.add(lo, hi, nodes);
    }

    /// Adds `nodes` to the slots `lo..hi`.
    fn add(&mut self, lo: usize, hi: usize, nodes: u32) {
        for v in &mut self.occ[lo..hi] {
            *v += i64::from(nodes);
        }
        #[cfg(debug_assertions)]
        {
            self.edits += 1;
        }
    }

    /// Commits `nodes` over the window of `hole` — what
    /// [`SlotSet::plan`] does from `hole.at` to `hole.until`, at the
    /// slots the scan that found the hole already walked: no search, and
    /// at most one boundary inserted at each end (none at the start when
    /// the hole opens on a boundary). The timeline must not have changed
    /// since the hole was found.
    pub fn plan_hole(&mut self, hole: Hole, nodes: u32) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            hole.edits, self.edits,
            "the timeline changed under {hole:?}"
        );
        if hole.until <= hole.at || nodes == 0 {
            return;
        }
        let (mut lo, mut hi) = (hole.slot, hole.end);
        if self.times[lo] != hole.at {
            lo += 1;
            self.times.insert(lo, hole.at);
            self.occ.insert(lo, self.occ[lo - 1]);
            hi += 1;
        }
        if self.times.get(hi) != Some(&hole.until) {
            self.times.insert(hi, hole.until);
            self.occ.insert(hi, self.occ[hi - 1]);
        }
        self.add(lo, hi, nodes);
    }

    /// Earliest `t >= from` such that `occ(s) <= cap` for every `s` in
    /// `[t, t + dur)`, or `None` when the occupancy never falls to `cap`.
    /// One forward scan from the slot containing `from`: while no
    /// candidate start is held it hunts the first boundary with
    /// occupancy `<= cap`; while one is held, a blocker (`> cap`) inside
    /// the candidate's window discards it, and the first boundary at or
    /// past the window's end — or the timeline running out — proves it.
    /// The [`Hole`] keeps the slots the scan stopped at, for
    /// [`SlotSet::plan_hole`].
    pub fn earliest_hole(&self, from: SimTime, cap: i64, dur: Span) -> Option<Hole> {
        if cap < 0 {
            return None;
        }
        let t = from.max(self.horizon());
        let first = self.slot_of(t);
        let mut cand = (self.occ[first] <= cap).then_some((t, first));
        let later = self.times[first + 1..].iter().zip(&self.occ[first + 1..]);
        let mut end = self.times.len();
        for (i, (&b, &v)) in (first + 1..).zip(later) {
            match cand {
                Some((c, _)) if b >= c + dur => {
                    end = i;
                    break;
                }
                Some(_) if v > cap => cand = None,
                None if v <= cap => cand = Some((b, i)),
                _ => {}
            }
        }
        cand.map(|(at, slot)| Hole {
            at,
            until: at + dur,
            slot,
            end,
            #[cfg(debug_assertions)]
            edits: self.edits,
        })
    }

    /// All slots as `(left boundary, occupancy)` in time order (test and
    /// debugging aid).
    pub fn slots(&self) -> Vec<(SimTime, i64)> {
        let pairs = std::iter::zip(&self.times, &self.occ);
        pairs.map(|(&b, &v)| (b, v)).collect()
    }

    /// Structural invariants: one occupancy per boundary, the horizon
    /// slot present, boundaries strictly increasing, nothing negative.
    pub fn validate(&self) -> Result<(), String> {
        let (boundaries, values) = (self.times.len(), self.occ.len());
        if boundaries == 0 || boundaries != values {
            return Err(format!("{boundaries} boundaries, {values} occupancies"));
        }
        if let Some(w) = self.times.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "slots out of order / overlapping: {:?} then {:?}",
                w[0], w[1]
            ));
        }
        if let Some(i) = self.occ.iter().position(|&occ| occ < 0) {
            return Err(format!(
                "negative occupancy {} at {:?}",
                self.occ[i], self.times[i]
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Brute-force model: occupancy per microsecond boundary map.
    #[derive(Default, Clone)]
    struct Model {
        steps: BTreeMap<u64, i64>,
        horizon: u64,
    }

    impl Model {
        fn occ(&self, at: u64) -> i64 {
            let at = at.max(self.horizon);
            self.steps.range(..=at).next_back().map_or(0, |(_, &v)| v)
        }

        fn plan(&mut self, from: u64, until: u64, nodes: u32) {
            let from = from.max(self.horizon);
            if until <= from {
                return;
            }
            let at_from = self.occ(from);
            let at_until = self.occ(until);
            self.steps.entry(from).or_insert(at_from);
            self.steps.entry(until).or_insert(at_until);
            for (_, v) in self.steps.range_mut(from..until) {
                *v += i64::from(nodes);
            }
        }

        /// Starts over at `now`: each commitment is a plan from there.
        fn rebuild(&mut self, now: u64, commitments: &[(u64, u32)]) {
            self.steps.clear();
            self.horizon = now;
            for &(end, nodes) in commitments {
                self.plan(now, end, nodes);
            }
        }

        fn max_in(&self, from: u64, until: u64) -> i64 {
            let from = from.max(self.horizon);
            let inside = self.steps.range(from..until.max(from)).map(|(_, &v)| v);
            inside.fold(self.occ(from), i64::max)
        }

        fn earliest_hole(&self, from: u64, cap: i64, dur: u64) -> Option<u64> {
            if cap < 0 {
                return None;
            }
            let mut starts: Vec<u64> = vec![from.max(self.horizon)];
            starts.extend(self.steps.keys().copied().filter(|&k| k > from));
            'outer: for s in starts {
                let end = s.saturating_add(dur);
                if self.occ(s) > cap {
                    continue;
                }
                for (&k, &v) in self.steps.range(s..end) {
                    if v > cap {
                        continue 'outer;
                    }
                    let _ = k;
                }
                return Some(s);
            }
            None
        }
    }

    /// Tiny deterministic generator for the randomized tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        /// `count` commitments around `now`, ascending by end, with the
        /// hostile shapes mixed in: an end repeated, at `now`, behind it,
        /// at `u64::MAX`, and a commitment of zero nodes.
        fn commitments(&mut self, now: u64, range: u64, count: u64) -> Vec<(u64, u32)> {
            let mut out: Vec<(u64, u32)> = Vec::new();
            for _ in 0..count {
                let mut end = now + 1 + self.next() % range;
                let mut nodes = (self.next() % 16) as u32 + 1;
                match self.next() % 12 {
                    0 => end = u64::MAX,
                    1 => end = now,
                    2 => end = now.saturating_sub(self.next() % 50),
                    3 => nodes = 0,
                    4 => end = out.last().map_or(end, |&(e, _)| e),
                    _ => {}
                }
                out.push((end, nodes));
            }
            out.sort_by_key(|&(end, _)| end);
            out
        }
    }

    #[test]
    fn occupancy_steps_where_plans_overlap() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(30), 2);
        tl.plan(t(20), t(40), 5);
        assert_eq!(tl.occupied_at(t(5)), 0);
        assert_eq!(tl.occupied_at(t(10)), 2);
        assert_eq!(tl.occupied_at(t(25)), 7);
        assert_eq!(tl.occupied_at(t(30)), 5);
        assert_eq!(tl.occupied_at(t(40)), 0);
        tl.validate().unwrap();
    }

    #[test]
    fn earliest_hole_finds_gaps_between_and_after_plans() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        // 10 nodes committed on [0, 100), 4 on [100, 200), 10 on [200, 300).
        tl.plan(SimTime::ZERO, t(100), 10);
        tl.plan(t(100), t(200), 4);
        tl.plan(t(200), t(300), 10);
        // cap 6: the [100, 200) valley fits a 50 s window but not 150 s.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 6, Span::from_secs(50))
                .map(|h| h.at),
            Some(t(100))
        );
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 6, Span::from_secs(150))
                .map(|h| h.at),
            Some(t(300))
        );
        // cap 10: everything fits immediately.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 10, Span::from_secs(1000))
                .map(|h| h.at),
            Some(SimTime::ZERO)
        );
        // cap below every slot: only the tail qualifies.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 0, Span::from_secs(1))
                .map(|h| h.at),
            Some(t(300))
        );
        // Negative cap can never fit.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, -1, Span::from_secs(1))
                .map(|h| h.at),
            None
        );
        // Zero-duration windows fit at any point at or under cap.
        assert_eq!(
            tl.earliest_hole(t(150), 6, Span::ZERO).map(|h| h.at),
            Some(t(150))
        );
    }

    /// One generated op sequence per round mixes the constructor, the
    /// mutation and every query of the public API against the
    /// brute-force [`Model`]: `rebuild` (which a round opens with, so
    /// every later op runs on a rebuilt timeline), `plan`,
    /// `earliest_hole`, `max_in` and `occupied_at`, with `validate()`
    /// after every op. The hostile shapes ride along: commitments with
    /// equal ends, ends at and behind `now`, zero nodes and
    /// `end = u64::MAX`, none at all; plans with `until = u64::MAX`,
    /// `from` behind the horizon, zero length and zero nodes. Most rounds
    /// are small and dense (boundaries collide); the wide ones rebuild
    /// from over 2 000 commitments and plan on top of them.
    #[test]
    fn randomized_ops_match_the_brute_force_model() {
        let mut rng = Lcg(0x5eed_d312);
        let mut peak_len = 0;
        for round in 0..62 {
            // (ops, time range, share of ops out of 16 that plan, most
            // commitments of a rebuild, one op-14 in how many rebuilds)
            let (ops, range, plan_share, most, rebuild_every) = if round < 60 {
                (160, 1_000, 5, 12, 1)
            } else {
                (6_000, 5_000_000, 10, 2_400, 64)
            };
            let mut tl = SlotSet::new(SimTime::ZERO);
            let mut model = Model::default();
            for step in 0..ops {
                let op = if step == 0 { 14 } else { rng.next() % 16 };
                if op < plan_share {
                    let mut from = model.horizon + rng.next() % range;
                    let mut until = from + 1 + rng.next() % (range * 2 / 5);
                    let mut nodes = (rng.next() % 16) as u32 + 1;
                    match rng.next() % 12 {
                        0 => until = u64::MAX,
                        1 => from = model.horizon.saturating_sub(rng.next() % 50),
                        2 => until = from,
                        3 => nodes = 0,
                        _ => {}
                    }
                    tl.plan(SimTime(from), SimTime(until), nodes);
                    model.plan(from, until, nodes);
                } else if op == 14 && (step == 0 || rng.next().is_multiple_of(rebuild_every)) {
                    // The opening rebuild is the widest; a later one may
                    // be empty, and `now` may move either way.
                    let count = if step == 0 { most } else { rng.next() % most };
                    let now = (model.horizon + rng.next() % 300).saturating_sub(rng.next() % 100);
                    let commitments = rng.commitments(now, range, count);
                    let timed = commitments.iter().map(|&(end, n)| (SimTime(end), n));
                    tl.rebuild(SimTime(now), timed);
                    model.rebuild(now, &commitments);
                } else {
                    let from = (model.horizon + rng.next() % (range * 6 / 5))
                        .saturating_sub(rng.next() % 100);
                    let cap = (rng.next() % 24) as i64 - 1;
                    let dur = match rng.next() % 8 {
                        0 => u64::MAX,
                        _ => rng.next() % (range / 2),
                    };
                    assert_eq!(
                        tl.earliest_hole(SimTime(from), cap, Span(dur))
                            .map(|h| h.at),
                        model.earliest_hole(from, cap, dur).map(SimTime),
                        "hole query diverged (round {round})"
                    );
                    let until = from.saturating_add(dur);
                    assert_eq!(
                        tl.max_in(SimTime(from), SimTime(until)),
                        model.max_in(from, until),
                        "window peak diverged (round {round})"
                    );
                }
                tl.validate().unwrap();
                assert_eq!(tl.horizon(), SimTime(model.horizon));
                peak_len = peak_len.max(tl.len());
                for probe in 0..8 {
                    let at = (model.horizon + probe * (range / 6 + 7)).saturating_sub(40);
                    assert_eq!(
                        tl.occupied_at(SimTime(at)),
                        model.occ(at),
                        "occ diverged at {at} (round {round})"
                    );
                }
                assert_eq!(tl.occupied_at(SimTime(u64::MAX)), model.occ(u64::MAX));
            }
            // Rebuilt from nothing, nothing of the round remains.
            tl.rebuild(SimTime(model.horizon), []);
            assert_eq!(tl.slots(), vec![(SimTime(model.horizon), 0)]);
        }
        assert!(peak_len >= 2_000, "widest timeline held {peak_len} slots");
    }

    /// Committing a hole where its scan stopped leaves the step function
    /// — boundary for boundary — that planning its window by search
    /// does, and the brute-force [`Model`]'s. Generated timelines (a
    /// rebuild, then plans) take a run of find-and-commit rounds with
    /// `from` anywhere, so holes start on a boundary, between two or past
    /// the last, and with zero durations, zero nodes and windows ending
    /// at `u64::MAX` mixed in.
    #[test]
    fn a_hole_planned_where_found_equals_a_plan_of_its_window() {
        let mut rng = Lcg(0x401e_5eed);
        let (mut between, mut empty, mut committed) = (0, 0, 0);
        for round in 0..200 {
            let now = rng.next() % 500;
            let count = rng.next() % 24;
            let commitments = rng.commitments(now, 2_000, count);
            let mut found = SlotSet::new(SimTime::ZERO);
            found.rebuild(
                SimTime(now),
                commitments.iter().map(|&(end, n)| (SimTime(end), n)),
            );
            let mut model = Model::default();
            model.rebuild(now, &commitments);
            for _ in 0..rng.next() % 6 {
                let from = now + rng.next() % 2_000;
                let (until, nodes) = (from + 1 + rng.next() % 800, (rng.next() % 8) as u32);
                found.plan(SimTime(from), SimTime(until), nodes);
                model.plan(from, until, nodes);
            }
            let mut searched = found.clone();
            for op in 0..40 {
                let from = now.saturating_sub(20) + rng.next() % 2_400;
                let cap = (rng.next() % 40) as i64 - 1;
                let dur = match rng.next() % 8 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.next() % 900,
                };
                let nodes = (rng.next() % 10) as u32;
                let hole = found.earliest_hole(SimTime(from), cap, Span(dur));
                let at = model.earliest_hole(from, cap, dur);
                assert_eq!(hole.map(|h| h.at.0), at, "round {round} op {op}");
                let Some(hole) = hole else { continue };
                between += usize::from(!found.times.contains(&hole.at));
                empty += usize::from(dur == 0);
                committed += usize::from(dur > 0 && nodes > 0);
                found.plan_hole(hole, nodes);
                searched.plan(hole.at, hole.until, nodes);
                model.plan(hole.at.0, hole.until.0, nodes);
                found.validate().unwrap();
                assert_eq!(found.slots(), searched.slots(), "round {round} op {op}");
                for (b, v) in found.slots() {
                    assert_eq!(v, model.occ(b.0), "round {round} op {op} at {b:?}");
                }
            }
        }
        assert!(
            between > 50 && empty > 50 && committed > 1_000,
            "{between} holes between boundaries, {empty} empty, {committed} committed"
        );
    }

    /// `now + expected_runtime` saturates to `u64::MAX`. A boundary
    /// lookup phrased as the range `[t, t + 1)` finds nothing there (the
    /// balanced tree this module once kept did that: every plan ending
    /// at `u64::MAX` added a duplicate boundary that failed `validate()`);
    /// searching for `t` itself has no such edge, and `rebuild` folds
    /// equal ends into one boundary wherever they fall.
    #[test]
    fn plans_ending_at_the_last_instant_share_one_boundary() {
        let end = SimTime(u64::MAX);
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), end, 2);
        tl.plan(t(20), end, 3);
        tl.validate().unwrap();
        assert_eq!(
            tl.slots(),
            vec![(t(0), 0), (t(10), 2), (t(20), 5), (end, 0)]
        );
        // Rebuilt at t = 5 from running commitments: the ones ending
        // before and at `now` hold nothing, the two that never end share
        // `end`.
        let overrun = [(t(3), 7), (t(5), 4)];
        tl.rebuild(
            t(5),
            overrun.into_iter().chain([(t(30), 1), (end, 2), (end, 3)]),
        );
        tl.validate().unwrap();
        assert_eq!(tl.slots(), vec![(t(5), 6), (t(30), 5), (end, 0)]);
        tl.plan(t(10), end, 4);
        tl.validate().unwrap();
        assert_eq!(
            tl.slots(),
            vec![(t(5), 6), (t(10), 10), (t(30), 9), (end, 0)]
        );
        for at in [SimTime::ZERO, t(5), t(29)] {
            assert!(tl.occupied_at(at) > 0);
        }
        assert_eq!(tl.occupied_at(end), 0);
    }

    #[test]
    fn max_in_reports_the_window_peak() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(20), 3);
        tl.plan(t(15), t(30), 4);
        assert_eq!(tl.max_in(SimTime::ZERO, t(10)), 0);
        assert_eq!(tl.max_in(SimTime::ZERO, t(16)), 7);
        assert_eq!(tl.max_in(t(12), t(14)), 3);
        assert_eq!(tl.max_in(t(25), t(100)), 4);
        // Empty window: the value at `from`.
        assert_eq!(tl.max_in(t(12), t(12)), 3);
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(BackfillFamily::default(), BackfillFamily::easy(1));
        assert_eq!(BackfillFamily::easy(0), BackfillFamily::easy(1));
        assert_eq!(BackfillFamily::easy(1).label(), "easy1");
        assert_eq!(BackfillFamily::easy(8).label(), "easy8");
        assert_eq!(BackfillFamily::easy(64).label(), "easy64");
        assert_eq!(BackfillFamily::easy(3).label(), "easyk");
        assert_eq!(BackfillFamily::Conservative.label(), "conservative");
    }
}
