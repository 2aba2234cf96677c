//! Cancellable priority queue of timestamped events.
//!
//! Ordering is `(time, class, sequence)` where the sequence number is
//! assigned at insertion, so events scheduled for the same instant pop in
//! FIFO order within their class; the class lets a family of events
//! outrank same-instant events of the default class regardless of
//! insertion order. Cancellation tombstones the entry; dead entries are
//! skipped on pop, and the backing store is compacted whenever tombstones
//! outnumber live entries, so cancelled-event memory stays bounded at
//! twice the live set no matter how many timers a long run abandons.
//!
//! The store is a `BinaryHeap` of `(time, class, seq, slot)` entries;
//! payloads live in a slab — a `Vec` of slots plus a LIFO free list —
//! addressed by the entry's `slot`, so push, pop and cancel reach the
//! payload with one indexed load instead of hashing the sequence number.
//! A slot is freed the moment its event pops or is cancelled and is then
//! handed to the next push, which is why the slot alone cannot say
//! whether a stored entry (or an [`EventKey`]) is still live: the
//! tombstone of a cancelled event and the entry of the slot's next tenant
//! name the same slot. Two numbers kept in the slot decide. Its tenant's
//! *identity* — the sequence number drawn when the event was pushed,
//! which is what an [`EventKey`] carries — says whether a key still names
//! the tenant; the tenant's current *order* sequence number says whether
//! a stored entry is the tenant's live one. The two differ only for an
//! event that has been relayed. The slab never grows past the high-water
//! mark of simultaneously live events.
//!
//! # Relays
//!
//! [`EventQueue::push_relayed`] stores one event where a caller would
//! otherwise chain two: an event at a *first* instant whose only effect,
//! when handled, is to push the real event `delay` later. The queue keeps
//! the entry under the key the first event would have had — `(first,
//! CLASS_NORMAL, seq)`, `seq` drawn at the push. When that key surfaces
//! in [`EventQueue::pop`] the entry is *relayed*: re-keyed to its firing
//! instant with a fresh sequence number drawn at that moment, the moment
//! the first event's handler would have pushed the second, and sunk to
//! its new rank — in place: one sift instead of a pop and a push. Every
//! sequence number is therefore drawn exactly when the two-event chain
//! would have drawn it, and every event, relayed or not, pops in the
//! order it would have popped in.
//!
//! # Claims
//!
//! [`EventQueue::mark`] flags a pending event as one its owner may want
//! to *claim* when it falls due instead of receiving it. A marked event
//! at the head is reported as [`Step::Due`] and stays where it is; the
//! owner then either takes it ([`EventQueue::fire_due`]) or claims it
//! ([`EventQueue::claim`]): the entry is re-keyed in place to a later
//! instant — optionally relayed once more — in its own tie-break class,
//! with a sequence number drawn at that moment, exactly the number a
//! handler that popped the event and pushed it again would have drawn.
//! The payload, the slot, the key, the class and the mark stay. An
//! unmarked event pays one flag test for the feature.
//!
//! The workload driver (`dmr-core`) marks three events, each one that its
//! handler, as a rule, schedules again unchanged: a compute segment's end
//! whose check point the resize policy's hold has already answered (the
//! held path re-keys it to the next segment's end), the periodic backfill
//! tick (re-keyed one interval on after its pass, until the run's work is
//! done) and the one arrival in flight (re-keyed, still
//! [`CLASS_EARLY`], to the next job's arrival instant, until the source
//! runs dry). Each saves a pop, a push and a slot round trip per firing.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::{SimTime, Span};

/// Tie-break class popping *before* [`CLASS_NORMAL`] at the same instant.
///
/// Exists for event families that must win every same-instant tie no
/// matter when they were inserted — e.g. workload arrivals, which were
/// historically all scheduled before the simulation began (and therefore
/// always carried the smallest sequence numbers) and keep that ordering
/// guarantee now that they are scheduled one at a time, mid-run.
pub const CLASS_EARLY: u8 = 0;

/// Default tie-break class used by [`EventQueue::push`].
pub const CLASS_NORMAL: u8 = 1;

/// Opaque handle identifying a scheduled event, used for cancellation.
/// Carries the sequence number the event was pushed under — its identity
/// for as long as it is pending, relayed or not — and its payload slot; a
/// key whose slot has since been handed to another event misses on the
/// identity compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    id: u64,
    slot: u32,
}

/// Stored entry. The derived order compares `(time, class, seq)`; `seq`
/// is unique, so `slot` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    class: u8,
    seq: u64,
    slot: u32,
}

/// One payload slot: its latest tenant's identity, the sequence number of
/// that tenant's live entry, the delay it still has to be relayed by,
/// whether its owner may claim it when due, and its payload until it pops
/// or is cancelled.
struct Slot<E> {
    id: u64,
    seq: u64,
    relay: Option<Span>,
    claimable: bool,
    event: Option<E>,
}

/// What one step of the queue ([`crate::Engine::step`]) did with the
/// earliest live entry.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<E> {
    /// The event was due: it left the queue with its payload.
    Fired(SimTime, E),
    /// A relayed event reached its first instant (the one reported) and
    /// was re-keyed to its firing instant; it is still pending.
    Relayed(SimTime),
    /// A marked event is due at the instant reported. It is still at the
    /// head, and the next call must settle it: [`EventQueue::claim`] or
    /// [`EventQueue::fire_due`] ([`EventQueue::due`] shows its payload).
    Due(SimTime),
}

/// A time-ordered queue of events of type `E` supporting O(log n) push/pop
/// and O(1) cancellation (amortised: tombstones are drained lazily).
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    /// The sequence number of the entry [`EventQueue::step`] reported
    /// [`Step::Due`] until it is settled: what debug builds check a claim
    /// or a fire against.
    due: Option<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            due: None,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` at `time` in [`CLASS_NORMAL`], returning a key
    /// usable with [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        self.push_with_class(time, CLASS_NORMAL, event)
    }

    /// Schedules `event` at `time` in an explicit tie-break `class`
    /// (lower classes pop first at equal instants; FIFO within a class).
    pub fn push_with_class(&mut self, time: SimTime, class: u8, event: E) -> EventKey {
        let (entry, key) = self.admit(time, class, None, event);
        self.heap.push(Reverse(entry));
        key
    }

    /// Schedules `event` to fire at `first + delay`, ranked among the
    /// events of that instant as if a [`CLASS_NORMAL`] event due at
    /// `first` had been pushed now and had pushed `event` from its
    /// handler (see the module docs). The key stays valid for
    /// [`EventQueue::cancel`] on both sides of the relay.
    pub fn push_relayed(&mut self, first: SimTime, delay: Span, event: E) -> EventKey {
        let (entry, key) = self.admit(first, CLASS_NORMAL, Some(delay), event);
        self.heap.push(Reverse(entry));
        key
    }

    /// Draws a sequence number and a slot for a new tenant; the caller
    /// stores the returned entry.
    fn admit(
        &mut self,
        time: SimTime,
        class: u8,
        relay: Option<Span>,
        event: E,
    ) -> (Entry, EventKey) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tenant = Slot {
            id: seq,
            seq,
            relay,
            claimable: false,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.slots[slot as usize].event.is_none(),
                    "free slot occupied"
                );
                self.slots[slot as usize] = tenant;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(tenant);
                slot
            }
        };
        self.live += 1;
        let entry = Entry {
            time,
            class,
            seq,
            slot,
        };
        (entry, EventKey { id: seq, slot })
    }

    /// Number of heap slots currently backing the queue — live entries
    /// plus tombstones. Compaction keeps this at ≤ 2 × [`EventQueue::len`]
    /// after every operation; exposed so tests (and capacity telemetry)
    /// can observe the bound.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of payload slots backing the queue (occupied + vacant):
    /// the high-water mark of simultaneously live events — capacity
    /// telemetry, like [`EventQueue::heap_len`].
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Takes the payload out of `slot` and frees the slot. The caller
    /// established that the tenant is the event it means and is pending.
    fn vacate(&mut self, slot: u32) -> Option<E> {
        let event = self.slots[slot as usize].event.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event was still pending.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        if self.slots.get(key.slot as usize)?.id != key.id {
            return None;
        }
        let payload = self.vacate(key.slot)?;
        self.maybe_compact();
        Some(payload)
    }

    /// Marks a pending event as claimable: when it falls due, [`EventQueue::step`]
    /// reports [`Step::Due`] instead of firing it (see the module docs). The
    /// mark lasts until the event fires or is cancelled, claims included.
    /// A key that no longer names a pending event marks nothing.
    pub fn mark(&mut self, key: EventKey) {
        if let Some(slot) = self.slots.get_mut(key.slot as usize) {
            if slot.id == key.id && slot.event.is_some() {
                slot.claimable = true;
            }
        }
    }

    /// Time of the earliest live entry, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_head().map(|(t, _)| t)
    }

    /// `(time, class)` of the earliest live entry, if any — lets callers
    /// distinguish same-instant [`CLASS_EARLY`] arrivals from ordinary
    /// events without consuming anything (the driver's batch window
    /// test). An event awaiting its relay reports its first instant: it
    /// is what [`EventQueue::pop`] acts on next.
    pub fn peek_head(&mut self) -> Option<(SimTime, u8)> {
        self.settle_head();
        self.heap.peek().map(|Reverse(e)| (e.time, e.class))
    }

    /// Removes and returns the earliest live event, relaying on the way
    /// every event whose first instant comes before it. A due marked
    /// event fires like any other.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            match self.step()? {
                Step::Fired(time, event) => return Some((time, event)),
                Step::Due(_) => return Some(self.fire_due()),
                Step::Relayed(_) => {}
            }
        }
    }

    /// Acts on the earliest live entry: fires it, relays it if it is an
    /// event at its first instant, or reports it due if it is marked.
    /// `None` when the queue is empty.
    pub fn step(&mut self) -> Option<Step<E>> {
        debug_assert!(self.due.is_none(), "the due event was not settled");
        self.settle_head();
        let mut head = self.heap.peek_mut()?;
        let tenant = &mut self.slots[head.0.slot as usize];
        if let Some(delay) = tenant.relay.take() {
            // The sequence number is drawn here, not at the push: this
            // is the moment a handler at the first instant would have
            // pushed. Re-keyed in place, the entry sinks to its new rank
            // when the borrow of the head ends.
            let first = head.0.time;
            tenant.seq = self.next_seq;
            self.next_seq += 1;
            head.0.time = first + delay;
            head.0.seq = tenant.seq;
            return Some(Step::Relayed(first));
        }
        if tenant.claimable {
            self.due = Some(head.0.seq);
            return Some(Step::Due(head.0.time));
        }
        let Reverse(entry) = PeekMut::pop(head);
        let event = self
            .vacate(entry.slot)
            .expect("settle_head guarantees the head entry is live");
        self.maybe_compact();
        Some(Step::Fired(entry.time, event))
    }

    /// The payload of the event [`EventQueue::step`] just reported
    /// [`Step::Due`].
    pub fn due(&self) -> &E {
        let Reverse(head) = self.heap.peek().expect("an event is due");
        debug_assert_eq!(self.due, Some(head.seq), "the head is not the due event");
        let tenant = &self.slots[head.slot as usize];
        tenant.event.as_ref().expect("the due event is pending")
    }

    /// Takes the event [`EventQueue::step`] just reported [`Step::Due`]
    /// out of the queue, as a step would have fired it.
    pub fn fire_due(&mut self) -> (SimTime, E) {
        let head = self.heap.peek_mut().expect("an event is due");
        debug_assert_eq!(self.due, Some(head.0.seq), "the head is not the due event");
        self.due = None;
        let Reverse(entry) = PeekMut::pop(head);
        let event = self.vacate(entry.slot).expect("the due event is pending");
        self.maybe_compact();
        (entry.time, event)
    }

    /// Claims the event [`EventQueue::step`] just reported [`Step::Due`]:
    /// it stays pending, re-keyed in place to `at` in its own class under
    /// a sequence number drawn now, and — with `relay` — is relayed again
    /// there, to fire `relay` later. That is the rank the event would have
    /// had if it had fired and been pushed again in its class
    /// ([`EventQueue::push_with_class`]), or relayed, at this moment. `at`
    /// must not precede the due instant.
    pub fn claim(&mut self, at: SimTime, relay: Option<Span>) {
        let mut head = self.heap.peek_mut().expect("an event is due");
        debug_assert_eq!(self.due, Some(head.0.seq), "the head is not the due event");
        self.due = None;
        let tenant = &mut self.slots[head.0.slot as usize];
        debug_assert!(tenant.claimable && tenant.relay.is_none());
        debug_assert!(at >= head.0.time, "claimed into the past");
        tenant.seq = self.next_seq;
        self.next_seq += 1;
        tenant.relay = relay;
        // The new key ranks after the old one (a later instant, or the
        // same one and class under a later sequence number), so the entry
        // sinks to its rank when the borrow of the head ends.
        head.0.time = at;
        head.0.seq = tenant.seq;
    }

    /// Whether the stored entry still names a pending event: its slot's
    /// current tenant is keyed under this very sequence number (a
    /// tombstone whose slot was handed on fails the compare) and has not
    /// been taken.
    fn is_live(&self, entry: &Entry) -> bool {
        let slot = &self.slots[entry.slot as usize];
        slot.seq == entry.seq && slot.event.is_some()
    }

    /// Brings the earliest *live* entry to the head of the heap by
    /// dropping the tombstones before it.
    fn settle_head(&mut self) {
        while self.heap.peek().is_some_and(|Reverse(e)| !self.is_live(e)) {
            self.heap.pop();
        }
    }

    /// Rebuilds the heap from its live entries once tombstones outnumber
    /// them. Amortised O(1) per cancellation: a compaction touching `h`
    /// entries only happens after ≥ h/2 cancellations or pops, and the
    /// rebuilt heap pops in exactly the same `(time, class, seq)` order.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 2 * self.live {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|Reverse(e)| self.is_live(e));
            self.heap = BinaryHeap::from(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn early_class_beats_normal_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "normal-1");
        q.push_with_class(SimTime(5), CLASS_EARLY, "early-1");
        q.push(SimTime(5), "normal-2");
        q.push_with_class(SimTime(5), CLASS_EARLY, "early-2");
        // Earlier *times* still dominate any class.
        q.push(SimTime(1), "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["first", "early-1", "early-2", "normal-1", "normal-2"]
        );
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let k1 = q.push(SimTime(1), "x");
        q.push(SimTime(2), "y");
        assert_eq!(q.cancel(k1), Some("x"));
        assert_eq!(q.cancel(k1), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(2), "y")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let k = q.push(SimTime(1), 1);
        q.push(SimTime(9), 9);
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime(9)));
    }

    #[test]
    fn peek_head_exposes_the_class() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "normal");
        assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_NORMAL)));
        q.push_with_class(SimTime(5), CLASS_EARLY, "early");
        assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_EARLY)));
        q.pop();
        assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_NORMAL)));
    }

    #[test]
    fn len_tracks_live_only() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..10).map(|i| q.push(SimTime(i), i)).collect();
        for k in &keys[..4] {
            q.cancel(*k);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..1000).map(|i| q.push(SimTime(i), i)).collect();
        // Cancel almost everything: the store must shrink with the
        // live set instead of retaining a tombstone per cancellation.
        for k in &keys[..990] {
            q.cancel(*k);
        }
        assert_eq!(q.len(), 10);
        assert!(
            q.heap_len() <= 2 * q.len(),
            "store {} vs live {}",
            q.heap_len(),
            q.len()
        );
        // Pop order is unaffected by the rebuild.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (990..1000).collect::<Vec<_>>());
        assert_eq!(q.heap_len(), 0, "empty queue keeps no tombstones");
    }

    /// The two-event chain a relay replaces, done by hand: the event due
    /// at `first` pops, and its "handler" pushes `event` `delay` later.
    fn chain(q: &mut EventQueue<&'static str>, first: u64, delay: u64, event: &'static str) {
        let (t, marker) = q.pop().expect("the chain's first event is pending");
        assert_eq!((t, marker), (SimTime(first), "pause"));
        q.push(SimTime(first + delay), event);
    }

    #[test]
    fn relayed_event_ranks_as_if_pushed_at_its_first_instant() {
        // `b` is pushed between a's pause start and pause end, for the
        // instant a fires at. Chained, a is pushed at the pause end, after
        // b, and pops second; a relay must do the same although it was
        // pushed first.
        let mut chained = EventQueue::new();
        chained.push(SimTime(10), "pause");
        chained.push(SimTime(30), "b");
        chain(&mut chained, 10, 20, "a");
        let mut relayed = EventQueue::new();
        relayed.push_relayed(SimTime(10), Span(20), "a");
        relayed.push(SimTime(30), "b");
        assert_eq!(relayed.peek_head(), Some((SimTime(10), CLASS_NORMAL)));
        assert_eq!(relayed.step(), Some(Step::Relayed(SimTime(10))));
        assert_eq!(relayed.len(), 2, "a relay consumes nothing");
        for q in [&mut chained, &mut relayed] {
            assert_eq!(q.pop(), Some((SimTime(30), "b")));
            assert_eq!(q.pop(), Some((SimTime(30), "a")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn relayed_key_cancels_before_and_after_the_relay() {
        let mut q = EventQueue::new();
        let before = q.push_relayed(SimTime(5), Span(10), "before");
        let after = q.push_relayed(SimTime(6), Span(10), "after");
        assert_eq!(q.cancel(before), Some("before"));
        assert_eq!(q.step(), Some(Step::Relayed(SimTime(6))));
        assert_eq!(q.cancel(after), Some("after"));
        assert_eq!(q.cancel(after), None);
        assert!(q.is_empty());
        assert_eq!(q.step(), None);
        assert_eq!(q.heap_len(), 0);
    }

    #[test]
    fn relays_pushed_out_of_order_pop_in_key_order() {
        let mut q = EventQueue::new();
        q.push_relayed(SimTime(20), Span(5), "late");
        q.push_relayed(SimTime(10), Span(50), "early");
        q.push(SimTime(15), "plain");
        assert_eq!(q.heap_len(), 3);
        assert_eq!(q.step(), Some(Step::Relayed(SimTime(10))));
        assert_eq!(q.step(), Some(Step::Fired(SimTime(15), "plain")));
        assert_eq!(q.step(), Some(Step::Relayed(SimTime(20))));
        assert_eq!(q.pop(), Some((SimTime(25), "late")));
        assert_eq!(q.pop(), Some((SimTime(60), "early")));
    }

    #[test]
    fn a_claimed_event_ranks_as_if_fired_and_pushed_again() {
        // By hand: `a` fires at 10 and its handler pushes it for 30,
        // after `b` was pushed for that instant.
        let mut literal = EventQueue::new();
        literal.push(SimTime(10), "a");
        literal.push(SimTime(30), "b");
        let (_, a) = literal.pop().unwrap();
        literal.push(SimTime(30), a);
        let mut claimed = EventQueue::new();
        let key = claimed.push(SimTime(10), "a");
        claimed.mark(key);
        claimed.push(SimTime(30), "b");
        assert_eq!(claimed.step(), Some(Step::Due(SimTime(10))));
        assert_eq!(*claimed.due(), "a");
        claimed.claim(SimTime(30), None);
        assert_eq!((claimed.len(), claimed.heap_len()), (2, 2));
        // The mark survives the claim: `a` is due again, behind `b`.
        assert_eq!(claimed.step(), Some(Step::Fired(SimTime(30), "b")));
        assert_eq!(claimed.step(), Some(Step::Due(SimTime(30))));
        assert_eq!(claimed.fire_due(), (SimTime(30), "a"));
        assert_eq!(literal.pop(), Some((SimTime(30), "b")));
        assert_eq!(literal.pop(), Some((SimTime(30), "a")));
        assert_eq!(claimed.cancel(key), None, "fired");
        assert!(claimed.is_empty() && literal.is_empty());
    }

    #[test]
    fn a_claimed_early_event_keeps_its_class() {
        // `b` is pushed for 30 in the default class before `a`, an early
        // event, is claimed there: `a` still pops first, as an early
        // event pushed again at 30 would.
        let mut q = EventQueue::new();
        let key = q.push_with_class(SimTime(10), CLASS_EARLY, "a");
        q.mark(key);
        q.push(SimTime(30), "b");
        assert_eq!(q.step(), Some(Step::Due(SimTime(10))));
        q.claim(SimTime(30), None);
        assert_eq!(q.peek_head(), Some((SimTime(30), CLASS_EARLY)));
        assert_eq!(q.step(), Some(Step::Due(SimTime(30))));
        assert_eq!(q.fire_due(), (SimTime(30), "a"));
        assert_eq!(q.pop(), Some((SimTime(30), "b")));
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the head is not the due event")]
    fn a_claim_must_act_on_the_due_event() {
        // An early event pushed for the due instant overtakes the due
        // default-class event at the head; a claim would re-key it.
        let mut q = EventQueue::new();
        let key = q.push(SimTime(10), "due");
        q.mark(key);
        assert_eq!(q.step(), Some(Step::Due(SimTime(10))));
        q.push_with_class(SimTime(10), CLASS_EARLY, "early");
        q.claim(SimTime(20), None);
    }

    #[test]
    fn a_claim_can_relay_and_the_first_key_still_cancels() {
        let mut q = EventQueue::new();
        let key = q.push(SimTime(5), "seg");
        q.mark(key);
        assert_eq!(q.step(), Some(Step::Due(SimTime(5))));
        q.claim(SimTime(6), Some(Span(10)));
        assert_eq!(q.step(), Some(Step::Relayed(SimTime(6))));
        assert_eq!(q.peek_time(), Some(SimTime(16)));
        assert_eq!(q.cancel(key), Some("seg"));
        assert_eq!(q.step(), None);
        // The slot's next tenant is not marked through the stale key.
        q.push(SimTime(20), "plain");
        assert_eq!(q.slab_len(), 1);
        q.mark(key);
        assert_eq!(q.step(), Some(Step::Fired(SimTime(20), "plain")));
    }

    #[test]
    fn cancel_everything_releases_the_heap() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..64).map(|i| q.push(SimTime(1), i)).collect();
        for k in keys {
            q.cancel(k);
        }
        assert!(q.is_empty());
        assert_eq!(q.heap_len(), 0);
        assert_eq!(q.pop(), None::<(SimTime, i32)>);
    }
}
