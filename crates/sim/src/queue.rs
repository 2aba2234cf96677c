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
//! payloads live in a slab — a `Vec` of `{seq, Option<E>}` slots plus a
//! LIFO free list — addressed by the entry's `slot`, so push, pop and
//! cancel reach the payload with one indexed load instead of hashing the
//! sequence number. A slot is freed the moment its event pops or is
//! cancelled and is then handed to the next push, which is why the slot
//! alone cannot say whether a heap entry (or an [`EventKey`]) is still
//! live: the tombstone of a cancelled event and the entry of the slot's
//! next tenant name the same slot. The *sequence number* decides — it is
//! unique per push and stored in the slot by its current tenant, so an
//! entry or key is live iff `slots[slot].seq == seq` and the payload is
//! present. The slab never grows past the high-water mark of
//! simultaneously live events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
/// Carries the event's sequence number and its payload slot; a key whose
/// slot has since been handed to another event misses on the sequence
/// compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

/// Heap entry. The derived order compares `(time, class, seq)`; `seq` is
/// unique, so `slot` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    class: u8,
    seq: u64,
    slot: u32,
}

/// One payload slot: the sequence number of its latest tenant and that
/// tenant's payload until it pops or is cancelled.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        let tenant = Slot {
            seq,
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
        self.heap.push(Reverse(Entry {
            time,
            class,
            seq,
            slot,
        }));
        self.live += 1;
        EventKey { seq, slot }
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

    /// Takes the payload of event `seq` out of `slot` and frees the slot,
    /// if that event is still its live tenant.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        let event = entry.event.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event was still pending.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.take(key.seq, key.slot);
        if payload.is_some() {
            self.maybe_compact();
        }
        payload
    }

    /// Time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_head().map(|(t, _)| t)
    }

    /// `(time, class)` of the earliest live event, if any — lets callers
    /// distinguish same-instant [`CLASS_EARLY`] arrivals from ordinary
    /// events without consuming anything (the driver's batch window
    /// test).
    pub fn peek_head(&mut self) -> Option<(SimTime, u8)> {
        self.settle_head();
        self.heap.peek().map(|Reverse(e)| (e.time, e.class))
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle_head();
        let Reverse(entry) = self.heap.pop()?;
        let event = self
            .take(entry.seq, entry.slot)
            .expect("settle_head guarantees the head entry is live");
        self.maybe_compact();
        Some((entry.time, event))
    }

    /// Whether the heap entry still names a pending event: its slot's
    /// current tenant is that very event (a tombstone whose slot was
    /// handed on fails the `seq` compare) and has not been taken.
    fn is_live(&self, entry: &Entry) -> bool {
        let slot = &self.slots[entry.slot as usize];
        slot.seq == entry.seq && slot.event.is_some()
    }

    /// Brings the earliest *live* entry to the head of the heap by
    /// popping the tombstones in front of it.
    fn settle_head(&mut self) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if self.is_live(entry) {
                return;
            }
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
