//! Slot-set free-resource timeline: the future-occupancy step function
//! behind the backfill families.
//!
//! A single EASY reservation is a prefix walk of the running-jobs
//! end-time index, accumulating freed nodes until the blocked job fits
//! (`Slurm::reservation_for`) — at most min(running, need) entries, and
//! the default family asks for nothing else. But the walk can only answer
//! "when is the *cluster-wide* free count ≥ need", which is not enough
//! for planning many jobs into the future (EASY-k, conservative
//! backfill). Those families ask the timeline below, which the scheduler
//! builds the first time one of them runs.
//!
//! [`SlotSet`] maintains the *planned occupancy* `occ(t)` — the number of
//! nodes committed at instant `t` by running jobs (and, transiently,
//! by pass-local reservations) — as an ordered sequence of slots: each
//! slot is a half-open interval of sim-time `[b_i, b_{i+1})` carrying one
//! occupancy value, stored as its left boundary. The boundaries live in a
//! randomized balanced tree (a treap with lazy range-add and subtree
//! min/max occupancy aggregates), so the core operations are logarithmic
//! in the slot count `s`:
//!
//! * [`SlotSet::plan`] / [`SlotSet::unplan`] — add / remove `nodes` over
//!   `[from, until)`: split at most two slots, lazy-add over the covered
//!   range, and re-merge boundaries that became redundant — O(log s);
//! * [`SlotSet::earliest_hole`] — first instant `t ≥ from` with
//!   `occ ≤ cap` throughout `[t, t + dur)`: descend on the min-occupancy
//!   aggregate to candidate slots and on the max aggregate to the
//!   blockers that invalidate them — O(log s) per candidate visited;
//! * [`SlotSet::advance`] — garbage-collect every boundary behind the
//!   simulation clock while preserving the step function at and after
//!   `now`, so the structure holds O(active plans) slots regardless of
//!   how long the simulation runs.
//!
//! The free count at `t` is `avail − occ(t)` where `avail` is the free
//! node count plus every node held by a running job; keeping the *base*
//! at the actual cluster free count makes detached resizer nodes and
//! overrunning jobs (expected end in the past) come out right without
//! special cases. Queries are read-only (`&self`): descents carry the
//! accumulated lazy tags as a value instead of pushing them down.
//!
//! [`BackfillFamily`] selects which backfill algorithm consumes the
//! timeline; the legacy single-reservation walk survives as
//! [`BackfillFamily::LegacyReference`], the equivalence oracle pinned by
//! `tests/backfill_equivalence.rs` (the same pattern as
//! [`crate::slurm::SchedIndex::ScanReference`]).

use dmr_sim::{SimTime, Span};

/// Which backfill algorithm [`crate::slurm::Slurm::backfill_pass`] runs.
///
/// All families share the FIFO head behaviour (start jobs in priority
/// order until one blocks); they differ in how many blocked jobs get a
/// planned start and in what lower-priority jobs may do around those
/// plans. `Easy { reservations: 1 }` (the default) is bit-for-bit
/// identical to [`BackfillFamily::LegacyReference`] — pinned by
/// `tests/backfill_equivalence.rs` — only the cost differs.
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
    /// The pre-slot-set EASY implementation: one reservation derived by
    /// walking the running-jobs end-time index per pass. Kept as the
    /// equivalence oracle; it never consults the timeline.
    LegacyReference,
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
            BackfillFamily::LegacyReference => "legacy",
        }
    }
}

/// Sentinel child index ("no node").
const NIL: u32 = u32::MAX;

/// One slot boundary: the step function takes value `occ` on
/// `[time, next boundary)`. Stored values are relative to the lazy `add`
/// tags of the node itself and its ancestors (see [`SlotSet`] internals).
#[derive(Clone, Debug)]
struct Slot {
    time: SimTime,
    /// Occupancy of the interval starting here, excluding pending adds.
    occ: i64,
    /// Subtree min/max occupancy (same frame as `occ`: excluding this
    /// node's own `add` and every ancestor's).
    min: i64,
    max: i64,
    /// Lazy delta pending for the whole subtree *including this node*.
    add: i64,
    /// Heap priority (deterministic hash of an insertion counter).
    pri: u64,
    l: u32,
    r: u32,
}

/// The free-resource timeline (see module docs).
#[derive(Debug)]
pub struct SlotSet {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: u32,
    /// Earliest represented instant; there is always a boundary exactly
    /// here, and every query/mutation clamps to it.
    horizon: SimTime,
    /// Insertion counter feeding the deterministic priority hash.
    seq: u64,
    /// Intervals committed through [`SlotSet::plan_journaled`] and not
    /// yet rolled back. Retained between passes so the per-pass unwind
    /// list of the backfill families reuses its capacity instead of
    /// reallocating every pass.
    journal: Vec<(SimTime, SimTime, u32)>,
}

/// A saved copy of a [`SlotSet`]'s state (see [`SlotSet::save`]).
///
/// The conservative backfill pass plans hundreds of pass-local
/// reservations; unwinding them one [`SlotSet::unplan`] at a time costs
/// a treap operation each. A checkpoint instead captures the whole slot
/// arena up front — a capacity-reusing memcpy — and
/// [`SlotSet::restore`] puts it back in O(slots) flat copies, no tree
/// surgery. One checkpoint is retained per scheduler and reused across
/// passes, so steady-state saves allocate nothing.
#[derive(Debug, Default)]
pub struct SlotSetCheckpoint {
    slots: Vec<Slot>,
    free: Vec<u32>,
    root: u32,
    horizon: SimTime,
    seq: u64,
}

/// Running state of one [`SlotSet::earliest_hole`] traversal: the
/// candidate start currently surviving (its window, so far, holds), and
/// whether the search has proven it (a blocker at or past the window's
/// end, or the timeline running out).
struct HoleScan {
    cand: Option<SimTime>,
    done: bool,
}

/// `splitmix64` — deterministic, well-mixed treap priorities without an
/// RNG dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SlotSet {
    /// An empty timeline: occupancy 0 everywhere from `origin` on.
    pub fn new(origin: SimTime) -> Self {
        let mut s = SlotSet {
            slots: Vec::new(),
            free: Vec::new(),
            root: NIL,
            horizon: origin,
            seq: 0,
            journal: Vec::new(),
        };
        s.root = s.alloc(origin, 0);
        s
    }

    /// Earliest represented instant (the simulation clock of the last
    /// [`SlotSet::advance`]).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of slots (boundaries) currently held.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when the timeline holds only the horizon slot.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    fn alloc(&mut self, time: SimTime, occ: i64) -> u32 {
        let pri = splitmix64(self.seq);
        self.seq += 1;
        let slot = Slot {
            time,
            occ,
            min: occ,
            max: occ,
            add: 0,
            pri,
            l: NIL,
            r: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn release_subtree(&mut self, n: u32) {
        let mut stack = vec![n];
        while let Some(n) = stack.pop() {
            if n == NIL {
                continue;
            }
            let (l, r) = (self.slots[n as usize].l, self.slots[n as usize].r);
            stack.push(l);
            stack.push(r);
            self.free.push(n);
        }
    }

    /// Applies this node's pending delta to itself and forwards it to the
    /// children, so the node's stored fields become frame-exact.
    fn push_down(&mut self, n: u32) {
        let a = self.slots[n as usize].add;
        if a == 0 {
            return;
        }
        let (l, r) = {
            let s = &mut self.slots[n as usize];
            s.add = 0;
            s.occ += a;
            s.min += a;
            s.max += a;
            (s.l, s.r)
        };
        if l != NIL {
            self.slots[l as usize].add += a;
        }
        if r != NIL {
            self.slots[r as usize].add += a;
        }
    }

    fn pull_up(&mut self, n: u32) {
        let (l, r, occ) = {
            let s = &self.slots[n as usize];
            (s.l, s.r, s.occ)
        };
        let mut min = occ;
        let mut max = occ;
        for c in [l, r] {
            if c != NIL {
                let cs = &self.slots[c as usize];
                min = min.min(cs.min + cs.add);
                max = max.max(cs.max + cs.add);
            }
        }
        let s = &mut self.slots[n as usize];
        s.min = min;
        s.max = max;
    }

    /// Splits into `(times < key, times >= key)`.
    fn split(&mut self, n: u32, key: SimTime) -> (u32, u32) {
        if n == NIL {
            return (NIL, NIL);
        }
        self.push_down(n);
        if self.slots[n as usize].time < key {
            let r = self.slots[n as usize].r;
            let (a, b) = self.split(r, key);
            self.slots[n as usize].r = a;
            self.pull_up(n);
            (n, b)
        } else {
            let l = self.slots[n as usize].l;
            let (a, b) = self.split(l, key);
            self.slots[n as usize].l = b;
            self.pull_up(n);
            (a, n)
        }
    }

    /// Merges two trees; every time in `a` precedes every time in `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.slots[a as usize].pri >= self.slots[b as usize].pri {
            self.push_down(a);
            let r = self.slots[a as usize].r;
            let m = self.merge(r, b);
            self.slots[a as usize].r = m;
            self.pull_up(a);
            a
        } else {
            self.push_down(b);
            let l = self.slots[b as usize].l;
            let m = self.merge(a, l);
            self.slots[b as usize].l = m;
            self.pull_up(b);
            b
        }
    }

    /// True occupancy at instant `t` (clamped to the horizon).
    pub fn occupied_at(&self, t: SimTime) -> i64 {
        let t = t.max(self.horizon);
        let mut n = self.root;
        let mut acc = 0i64;
        let mut best = 0i64;
        while n != NIL {
            let s = &self.slots[n as usize];
            let frame = acc + s.add;
            if s.time <= t {
                best = s.occ + frame;
                n = s.r;
            } else {
                n = s.l;
            }
            acc = frame;
        }
        best
    }

    /// Time and true occupancy of the last boundary in subtree `n`.
    fn last_value(&self, mut n: u32, mut acc: i64) -> Option<(SimTime, i64)> {
        let mut best = None;
        while n != NIL {
            let s = &self.slots[n as usize];
            let frame = acc + s.add;
            best = Some((s.time, s.occ + frame));
            n = s.r;
            acc = frame;
        }
        best
    }

    fn first_time(&self, mut n: u32) -> Option<SimTime> {
        let mut best = None;
        while n != NIL {
            let s = &self.slots[n as usize];
            best = Some(s.time);
            n = s.l;
        }
        best
    }

    /// One in-order scan from `from` running the whole hole search as a
    /// state machine: while no candidate start is held, it hunts the
    /// first boundary with occupancy `<= cap`; while one is held, it
    /// hunts the blocker (`> cap`) that would invalidate it. A blocker
    /// inside the candidate's window discards the candidate and the hunt
    /// flips back; a blocker at or beyond the window's end proves the
    /// hole and stops. Phase-dependent aggregate pruning skips whole
    /// subtrees (`min > cap` while fit-hunting, `max <= cap` while
    /// blocker-hunting), and because this is a single traversal each
    /// slot is visited at most once per query — the loop of
    /// root-restarting descents it replaced paid a full root path per
    /// blocker hopped.
    fn hole_scan(&self, n: u32, from: SimTime, dur: Span, acc: i64, cap: i64, st: &mut HoleScan) {
        if n == NIL || st.done {
            return;
        }
        let s = &self.slots[n as usize];
        let frame = acc + s.add;
        // The phase cannot flip inside a pruned subtree: no fit means no
        // new candidate, no blocker means no invalidation.
        match st.cand {
            None if s.min + frame > cap => return,
            Some(_) if s.max + frame <= cap => return,
            _ => {}
        }
        if s.time >= from {
            self.hole_scan(s.l, from, dur, frame, cap, st);
            if st.done {
                return;
            }
            let v = s.occ + frame;
            match st.cand {
                None => {
                    if v <= cap {
                        st.cand = Some(s.time);
                    }
                }
                Some(c) => {
                    if v > cap {
                        if s.time.0 >= c.0.saturating_add(dur.0) {
                            st.done = true;
                            return;
                        }
                        st.cand = None;
                    }
                }
            }
        }
        self.hole_scan(s.r, from, dur, frame, cap, st);
    }

    /// Maximum occupancy over the window `[from, until)` (clamped to the
    /// horizon; an empty window reports the value at `from`).
    pub fn max_in(&self, from: SimTime, until: SimTime) -> i64 {
        let from = from.max(self.horizon);
        let mut best = self.occupied_at(from);
        self.boundary_max(self.root, from, until, 0, &mut best);
        best
    }

    fn boundary_max(&self, n: u32, from: SimTime, until: SimTime, acc: i64, best: &mut i64) {
        if n == NIL {
            return;
        }
        let s = &self.slots[n as usize];
        let frame = acc + s.add;
        if s.max + frame <= *best {
            return;
        }
        if s.time < from {
            self.boundary_max(s.r, from, until, frame, best);
        } else if s.time >= until {
            self.boundary_max(s.l, from, until, frame, best);
        } else {
            *best = (*best).max(s.occ + frame);
            self.boundary_max(s.l, from, until, frame, best);
            self.boundary_max(s.r, from, until, frame, best);
        }
    }

    /// Ensures a boundary exists exactly at `t` (carrying the value the
    /// step function already has there).
    fn ensure_boundary(&mut self, t: SimTime) {
        let (a, bc) = self.split(self.root, t);
        let (b, c) = self.split(bc, SimTime(t.0.saturating_add(1)));
        let b = if b == NIL {
            let carried = self.last_value(a, 0).map_or(0, |(_, v)| v);
            self.alloc(t, carried)
        } else {
            b
        };
        let ab = self.merge(a, b);
        self.root = self.merge(ab, c);
    }

    fn remove_boundary(&mut self, t: SimTime) {
        let (a, bc) = self.split(self.root, t);
        let (b, c) = self.split(bc, SimTime(t.0.saturating_add(1)));
        if b != NIL {
            self.release_subtree(b);
        }
        self.root = self.merge(a, c);
    }

    /// Drops boundary `t` if it carries the same occupancy as its
    /// predecessor (the slot-merge half of split/merge). The horizon
    /// boundary is never dropped.
    fn coalesce(&mut self, t: SimTime) {
        if t <= self.horizon || t.0 == u64::MAX {
            return;
        }
        let here = self.occupied_at(t);
        let before = self.occupied_at(SimTime(t.0 - 1));
        if here == before && self.has_boundary(t) {
            self.remove_boundary(t);
        }
    }

    fn has_boundary(&self, t: SimTime) -> bool {
        let mut n = self.root;
        while n != NIL {
            let s = &self.slots[n as usize];
            match t.cmp(&s.time) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => n = s.l,
                std::cmp::Ordering::Greater => n = s.r,
            }
        }
        false
    }

    fn range_apply(&mut self, from: SimTime, until: SimTime, delta: i64) {
        let (a, bc) = self.split(self.root, from);
        let (b, c) = self.split(bc, until);
        if b != NIL {
            let s = &mut self.slots[b as usize];
            s.add += delta;
            debug_assert!(s.min + s.add >= 0, "negative planned occupancy");
        }
        let ab = self.merge(a, b);
        self.root = self.merge(ab, c);
    }

    /// Commits `nodes` over `[from, until)` (clamped to the horizon).
    pub fn plan(&mut self, from: SimTime, until: SimTime, nodes: u32) {
        let from = from.max(self.horizon);
        if until <= from || nodes == 0 {
            return;
        }
        self.ensure_boundary(from);
        self.ensure_boundary(until);
        self.range_apply(from, until, i64::from(nodes));
    }

    /// [`SlotSet::plan`] plus a journal entry: the interval is recorded
    /// so one [`SlotSet::rollback_plans`] call reverts every temporary
    /// commitment of the current pass. The backfill families plan
    /// shadow-time reservations this way — the reservations steer the
    /// pass's hole queries but must not leak into the next pass, whose
    /// occupancy is re-derived from the running set alone.
    pub fn plan_journaled(&mut self, from: SimTime, until: SimTime, nodes: u32) {
        self.plan(from, until, nodes);
        self.journal.push((from, until, nodes));
    }

    /// Reverts, newest first, every interval recorded by
    /// [`SlotSet::plan_journaled`] since the last rollback. Plans are
    /// commutative interval adds, so the timeline is restored exactly no
    /// matter how the journaled intervals overlapped.
    pub fn rollback_plans(&mut self) {
        while let Some((from, until, nodes)) = self.journal.pop() {
            self.unplan(from, until, nodes);
        }
    }

    /// Journaled intervals not yet rolled back.
    #[cfg(test)]
    pub(crate) fn journaled(&self) -> usize {
        self.journal.len()
    }

    /// Copies the whole timeline into `into`, reusing its buffers. The
    /// caller may then mutate freely with [`SlotSet::plan`] /
    /// [`SlotSet::unplan`] and revert everything at once with
    /// [`SlotSet::restore`] — a flat memcpy either way, with no
    /// per-interval treap unwinding. Must not be called with journaled
    /// plans outstanding: restore would silently discard the journal's
    /// pairing with the tree state.
    pub fn save(&self, into: &mut SlotSetCheckpoint) {
        debug_assert!(self.journal.is_empty(), "checkpoint with live journal");
        into.slots.clone_from(&self.slots);
        into.free.clone_from(&self.free);
        into.root = self.root;
        into.horizon = self.horizon;
        into.seq = self.seq;
    }

    /// Restores the state captured by [`SlotSet::save`], discarding every
    /// mutation made since. The checkpoint is unchanged and may be
    /// restored again.
    pub fn restore(&mut self, from: &SlotSetCheckpoint) {
        self.slots.clone_from(&from.slots);
        self.free.clone_from(&from.free);
        self.root = from.root;
        self.horizon = from.horizon;
        self.seq = from.seq;
        self.journal.clear();
    }

    /// Reverts a [`SlotSet::plan`] of `nodes` over `[from, until)` and
    /// merges boundaries the revert made redundant.
    pub fn unplan(&mut self, from: SimTime, until: SimTime, nodes: u32) {
        let from = from.max(self.horizon);
        if until <= from || nodes == 0 {
            return;
        }
        self.ensure_boundary(from);
        self.ensure_boundary(until);
        self.range_apply(from, until, -i64::from(nodes));
        self.coalesce(until);
        self.coalesce(from);
    }

    /// Moves the horizon forward to `now`: every boundary strictly before
    /// `now` is dropped, preserving the step function at and after `now`.
    /// A `now` at or behind the horizon is a no-op.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.horizon {
            return;
        }
        let (a, b) = self.split(self.root, now);
        let carried = self.last_value(a, 0).map_or(0, |(_, v)| v);
        self.release_subtree(a);
        self.root = if self.first_time(b) == Some(now) {
            b
        } else {
            let n = self.alloc(now, carried);
            self.merge(n, b)
        };
        self.horizon = now;
    }

    /// Earliest `t >= from` such that `occ(s) <= cap` for every `s` in
    /// `[t, t + dur)`, or `None` when the occupancy never falls to `cap`.
    /// A single pruned in-order traversal (`hole_scan`) runs
    /// the candidate/blocker alternation to completion; the seed handles
    /// `from` itself lying mid-slot (its controlling boundary sits before
    /// `from`, where the scan never looks).
    pub fn earliest_hole(&self, from: SimTime, cap: i64, dur: Span) -> Option<SimTime> {
        if cap < 0 {
            return None;
        }
        let t = from.max(self.horizon);
        let mut st = HoleScan {
            cand: (self.occupied_at(t) <= cap).then_some(t),
            done: false,
        };
        self.hole_scan(
            self.root,
            SimTime(t.0.saturating_add(1)),
            dur,
            0,
            cap,
            &mut st,
        );
        st.cand
    }

    /// All slots as `(left boundary, occupancy)` in time order (test and
    /// debugging aid).
    pub fn slots(&self) -> Vec<(SimTime, i64)> {
        let mut out = Vec::with_capacity(self.len());
        self.collect(self.root, 0, &mut out);
        out
    }

    fn collect(&self, n: u32, acc: i64, out: &mut Vec<(SimTime, i64)>) {
        if n == NIL {
            return;
        }
        let s = &self.slots[n as usize];
        let frame = acc + s.add;
        self.collect(s.l, frame, out);
        out.push((s.time, s.occ + frame));
        self.collect(s.r, frame, out);
    }

    /// Structural invariants: slots sorted and disjoint (strictly
    /// increasing boundaries), the horizon slot present and first, no
    /// negative occupancy.
    pub fn validate(&self) -> Result<(), String> {
        let slots = self.slots();
        let Some(&(first, _)) = slots.first() else {
            return Err("timeline has no slots (horizon slot missing)".into());
        };
        if first != self.horizon {
            return Err(format!(
                "first slot at {:?} != horizon {:?}",
                first, self.horizon
            ));
        }
        for w in slots.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!(
                    "slots out of order / overlapping: {:?} then {:?}",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&(t, occ)) = slots.iter().find(|&&(_, occ)| occ < 0) {
            return Err(format!("negative occupancy {occ} at {t:?}"));
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
    #[derive(Default)]
    struct Model {
        steps: BTreeMap<u64, i64>,
        horizon: u64,
    }

    impl Model {
        fn occ(&self, at: u64) -> i64 {
            let at = at.max(self.horizon);
            self.steps.range(..=at).next_back().map_or(0, |(_, &v)| v)
        }

        fn apply(&mut self, from: u64, until: u64, delta: i64) {
            let from = from.max(self.horizon);
            if until <= from {
                return;
            }
            let at_from = self.occ(from);
            let at_until = self.occ(until);
            self.steps.entry(from).or_insert(at_from);
            self.steps.entry(until).or_insert(at_until);
            for (_, v) in self.steps.range_mut(from..until) {
                *v += delta;
            }
        }

        fn advance(&mut self, now: u64) {
            if now <= self.horizon {
                return;
            }
            let carried = self.occ(now);
            self.steps = self.steps.split_off(&now);
            self.steps.entry(now).or_insert(carried);
            self.horizon = now;
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
    }

    #[test]
    fn plan_and_unplan_round_trip_conserves_the_timeline() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(50), 4);
        tl.plan(t(20), t(80), 3);
        let before = tl.slots();
        tl.plan(t(30), t(60), 5);
        tl.unplan(t(30), t(60), 5);
        assert_eq!(tl.slots(), before, "plan+unplan must be a no-op");
        tl.validate().unwrap();
        // Full teardown returns to the empty timeline.
        tl.unplan(t(20), t(80), 3);
        tl.unplan(t(10), t(50), 4);
        assert_eq!(tl.slots(), vec![(SimTime::ZERO, 0)]);
        tl.validate().unwrap();
    }

    #[test]
    fn journaled_plans_roll_back_exactly() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(50), 4);
        let before = tl.slots();
        // Overlapping temporary reservations, as a backfill pass plans
        // them, including one extending the represented range.
        tl.plan_journaled(t(30), t(60), 5);
        tl.plan_journaled(t(20), t(90), 2);
        tl.plan_journaled(t(30), t(40), 1);
        assert_eq!(tl.occupied_at(t(35)), 4 + 5 + 2 + 1);
        tl.rollback_plans();
        assert_eq!(tl.slots(), before, "rollback must restore the pass state");
        tl.validate().unwrap();
        // The journal is drained: a second rollback is a no-op, and the
        // next pass's entries stand alone.
        tl.rollback_plans();
        assert_eq!(tl.slots(), before);
        tl.plan_journaled(t(15), t(25), 3);
        tl.rollback_plans();
        assert_eq!(tl.slots(), before);
        tl.validate().unwrap();
    }

    #[test]
    fn checkpoint_restore_reverts_arbitrary_mutation() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(50), 4);
        tl.plan(t(20), t(80), 3);
        let before = tl.slots();
        let mut ckpt = SlotSetCheckpoint::default();
        tl.save(&mut ckpt);
        // A conservative-pass-shaped burst of un-journaled plans,
        // including boundary churn from an interleaved unplan.
        for i in 0..64u64 {
            tl.plan(t(30 + i), t(60 + 2 * i), 1 + (i % 5) as u32);
        }
        tl.unplan(t(20), t(80), 3);
        assert_ne!(tl.slots(), before);
        tl.restore(&ckpt);
        assert_eq!(tl.slots(), before, "restore must revert every mutation");
        tl.validate().unwrap();
        // The checkpoint is reusable: mutate and restore again.
        tl.plan(t(5), t(95), 7);
        tl.restore(&ckpt);
        assert_eq!(tl.slots(), before);
        tl.validate().unwrap();
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
    fn advance_preserves_the_suffix_and_prunes_the_past() {
        let mut tl = SlotSet::new(SimTime::ZERO);
        tl.plan(t(10), t(30), 2);
        tl.plan(t(20), t(40), 5);
        tl.advance(t(25));
        assert_eq!(tl.horizon(), t(25));
        assert_eq!(tl.occupied_at(t(25)), 7);
        assert_eq!(tl.occupied_at(t(35)), 5);
        assert_eq!(tl.occupied_at(t(40)), 0);
        // Everything before now is clamped to the horizon value.
        assert_eq!(tl.occupied_at(t(1)), 7);
        tl.validate().unwrap();
        // Advancing past every plan empties the timeline.
        tl.advance(t(100));
        assert_eq!(tl.slots(), vec![(t(100), 0)]);
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
            tl.earliest_hole(SimTime::ZERO, 6, Span::from_secs(50)),
            Some(t(100))
        );
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 6, Span::from_secs(150)),
            Some(t(300))
        );
        // cap 10: everything fits immediately.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 10, Span::from_secs(1000)),
            Some(SimTime::ZERO)
        );
        // cap below every slot: only the tail qualifies.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, 0, Span::from_secs(1)),
            Some(t(300))
        );
        // Negative cap can never fit.
        assert_eq!(
            tl.earliest_hole(SimTime::ZERO, -1, Span::from_secs(1)),
            None
        );
        // Zero-duration windows fit at any point at or under cap.
        assert_eq!(tl.earliest_hole(t(150), 6, Span::ZERO), Some(t(150)));
    }

    #[test]
    fn randomized_ops_match_the_brute_force_model() {
        let mut rng = Lcg(0x5eed_d312);
        for round in 0..60 {
            let mut tl = SlotSet::new(SimTime::ZERO);
            let mut model = Model::default();
            let mut live: Vec<(u64, u64, u32)> = Vec::new();
            for _ in 0..120 {
                match rng.next() % 5 {
                    0 | 1 => {
                        let from = rng.next() % 1000;
                        let until = from + 1 + rng.next() % 400;
                        let nodes = (rng.next() % 16) as u32 + 1;
                        tl.plan(SimTime(from), SimTime(until), nodes);
                        model.apply(from, until, i64::from(nodes));
                        live.push((from, until, nodes));
                    }
                    2 => {
                        if !live.is_empty() {
                            let i = (rng.next() as usize) % live.len();
                            let (from, until, nodes) = live.swap_remove(i);
                            tl.unplan(SimTime(from), SimTime(until), nodes);
                            model.apply(from, until, -i64::from(nodes));
                        }
                    }
                    3 => {
                        let now = model.horizon + rng.next() % 300;
                        tl.advance(SimTime(now));
                        model.advance(now);
                        // Plans now partially behind the horizon unplan
                        // only their remaining suffix, like running jobs.
                        for e in live.iter_mut() {
                            e.0 = e.0.max(now);
                        }
                        live.retain(|&(from, until, _)| from < until);
                    }
                    _ => {
                        let from = model.horizon + rng.next() % 1200;
                        let cap = (rng.next() % 24) as i64;
                        let dur = rng.next() % 500;
                        assert_eq!(
                            tl.earliest_hole(SimTime(from), cap, Span(dur)),
                            model.earliest_hole(from, cap, dur).map(SimTime),
                            "hole query diverged (round {round})"
                        );
                    }
                }
                tl.validate().unwrap();
                for probe in 0..8 {
                    let at = model.horizon + probe * 173;
                    assert_eq!(
                        tl.occupied_at(SimTime(at)),
                        model.occ(at),
                        "occ diverged at {at} (round {round})"
                    );
                }
            }
        }
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
        assert_eq!(BackfillFamily::LegacyReference.label(), "legacy");
    }
}
