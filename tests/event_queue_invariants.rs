//! Property tests for [`dmr::sim::EventQueue`]: time-ordered pops, FIFO
//! among same-instant events, and cancellation that never resurrects or
//! leaks entries — the invariants the whole discrete-event driver (and
//! therefore sweep determinism) rests on. A model property drives one
//! random op sequence — pushes in both event classes, tombstone
//! cancellations, relayed pushes, interleaved pops that trigger
//! compaction, marked events claimed in place when due — through the
//! queue and a sorted `Vec<(time, class, seq)>` reference, which plays
//! every relay out as the two events it stands for and every claim as a
//! pop and a push at the same moment, and requires every pop, peek and
//! live count to agree.

use dmr::sim::queue::{EventQueue, Step, CLASS_EARLY, CLASS_NORMAL};
use dmr::sim::{SimTime, Span};
use proptest::prelude::*;

/// Replays a random schedule: `ops` is a list of (time, cancel_hint)
/// pairs; every pair pushes an event, and `cancel_hint` (mod pushed so
/// far) optionally cancels an earlier one.
fn replay(ops: &[(u64, u64, bool)]) -> (Vec<(SimTime, usize)>, usize) {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut keys = Vec::new();
    let mut cancelled = std::collections::HashSet::new();
    for (seq, &(time, hint, do_cancel)) in ops.iter().enumerate() {
        keys.push(q.push(SimTime(time), seq));
        if do_cancel {
            let victim = (hint as usize) % keys.len();
            if q.cancel(keys[victim]).is_some() {
                cancelled.insert(victim);
            }
        }
    }
    let mut popped = Vec::new();
    while let Some((t, e)) = q.pop() {
        popped.push((t, e));
    }
    (popped, ops.len() - cancelled.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_are_time_ordered_and_fifo_within_ties(
        ops in proptest::collection::vec((0u64..50, 0u64..100, proptest::bool::ANY), 1..60),
    ) {
        let (popped, live) = replay(&ops);
        // Every live event pops exactly once; cancelled ones never do.
        prop_assert_eq!(popped.len(), live);
        for win in popped.windows(2) {
            let (t0, e0) = win[0];
            let (t1, e1) = win[1];
            // Non-decreasing time.
            prop_assert!(t0 <= t1, "went backwards: {:?} then {:?}", t0, t1);
            // FIFO among equal instants: insertion sequence must rise.
            if t0 == t1 {
                prop_assert!(e0 < e1, "tie at {:?} popped {} before {}", t0, e0, e1);
            }
        }
        // Each popped event carries the time it was pushed with.
        for &(t, e) in &popped {
            prop_assert_eq!(t, SimTime(ops[e].0));
        }
    }

    #[test]
    fn compaction_bounds_storage_and_preserves_pop_order(
        ops in proptest::collection::vec(
            (0u64..50, 0u64..100, proptest::bool::ANY, proptest::bool::ANY),
            1..120,
        ),
    ) {
        // Reference model: a plain list of (time, seq, alive) entries
        // that never compacts — pops take the minimum (time, seq)
        // alive entry, exactly the queue's CLASS_NORMAL contract.
        let mut model: Vec<(u64, usize, bool)> = Vec::new();
        let model_pop = |model: &mut Vec<(u64, usize, bool)>| -> Option<(SimTime, usize)> {
            let best = model
                .iter()
                .enumerate()
                .filter(|(_, &(_, _, alive))| alive)
                .min_by_key(|(_, &(time, seq, _))| (time, seq))
                .map(|(i, _)| i)?;
            model[best].2 = false;
            Some((SimTime(model[best].0), model[best].1))
        };

        let mut q: EventQueue<usize> = EventQueue::new();
        let mut keys = Vec::new();
        for (seq, &(time, hint, do_cancel, do_pop)) in ops.iter().enumerate() {
            keys.push(q.push(SimTime(time), seq));
            model.push((time, seq, true));
            if do_cancel {
                let victim = (hint as usize) % keys.len();
                if q.cancel(keys[victim]).is_some() {
                    model[victim].2 = false;
                }
            }
            if do_pop {
                prop_assert_eq!(q.pop(), model_pop(&mut model));
            }
            // The compaction bound: dead stored entries never
            // outnumber live ones, after every single operation.
            prop_assert!(
                q.heap_len() <= 2 * q.len(),
                "stored {} exceeds 2x live {} after op {}",
                q.heap_len(),
                q.len(),
                seq
            );
        }
        // Drain both to the end: order identical to the
        // never-compacting reference, bound maintained throughout.
        loop {
            let got = q.pop();
            prop_assert_eq!(got, model_pop(&mut model));
            prop_assert!(q.heap_len() <= 2 * q.len());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.heap_len(), 0, "drained queue retains tombstones");
    }

    #[test]
    fn len_tracks_live_entries_through_cancellation(
        ops in proptest::collection::vec((0u64..20, 0u64..100, proptest::bool::ANY), 1..40),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut keys = Vec::new();
        let mut live = 0usize;
        for (seq, &(time, hint, do_cancel)) in ops.iter().enumerate() {
            keys.push(q.push(SimTime(time), seq));
            live += 1;
            if do_cancel {
                let victim = (hint as usize) % keys.len();
                if q.cancel(keys[victim]).is_some() {
                    live -= 1;
                }
                // Double cancellation is a no-op.
                prop_assert!(q.cancel(keys[victim]).is_none());
            }
            prop_assert_eq!(q.len(), live);
            prop_assert_eq!(q.is_empty(), live == 0);
        }
    }

    /// The queue against the simplest thing that could be right: a `Vec`
    /// of live `(time, class, seq)` entries kept sorted, whose front is
    /// the next pop. One random op sequence — both event classes, times
    /// from the same instant to far in the future (and, after pops,
    /// before the last popped instant), cancellations of live, cancelled
    /// and already-popped keys, interleaved pops that trigger compaction
    /// — must produce the same pops, head peeks, cancel results and live
    /// counts, with the stored-entry bound holding after every step.
    ///
    /// A third of the pushes are relayed. The model has no relay: it
    /// does what a relay stands for, literally. A relayed push inserts a
    /// marker at the first instant under the sequence number of the
    /// push; when a pop reaches the marker the model removes it and
    /// inserts the event at the firing instant under a sequence number
    /// drawn *then*, and goes on popping. First instants near the front
    /// of the queue and firing instants far behind it make both sides of
    /// a relay long-lived, so cancellations hit relayed keys before and
    /// after their relay; first instants sometimes fall below the
    /// previous relayed push's.
    ///
    /// Every op pushes before it acts and frees at most one payload
    /// slot, so a slot freed by one op is re-tenanted by the next op's
    /// push: the keys kept in `dead` (popped or cancelled in an earlier
    /// op) all name a slot that now holds a different, live event.
    /// Cancelling one must miss and leave that tenant alone, marking one
    /// must not mark the tenant, and the slab must never outgrow the
    /// high-water mark of live events.
    ///
    /// Half the plain pushes and half the relayed ones are marked
    /// claimable, and one op in five steps the queue the way the engine
    /// does. A marked event that falls due is fired, claimed in place
    /// for a later instant (a zero-pause claim) or claimed relayed behind
    /// a pause. The model has no claim either: it pops the event and
    /// pushes it straight back — as a plain event, or as a marker — under
    /// a sequence number drawn at that moment. A claimed event keeps its
    /// first key, so cancellations reach it after its claims as well.
    #[test]
    fn queue_matches_a_sorted_vec_model(
        ops in proptest::collection::vec(
            (0u64..1 << 40, proptest::bool::ANY, proptest::bool::ANY, 0u64..100, 0u8..5, 0u8..3),
            1..150,
        ),
    ) {
        /// A model entry: its order key, the event it carries, and for a
        /// marker the delay to the event's firing instant.
        type Entry = ((SimTime, u8, u64), usize, Option<Span>);
        fn insert(model: &mut Vec<Entry>, entry: Entry) {
            let at = model.partition_point(|e| e.0 < entry.0);
            model.insert(at, entry);
        }
        /// The model's pop: markers in front of the first event are
        /// replaced by their events on the way.
        fn pop(model: &mut Vec<Entry>, next_seq: &mut u64) -> Option<(SimTime, usize)> {
            loop {
                if model.is_empty() {
                    return None;
                }
                let ((time, class, _), event, relay) = model.remove(0);
                let Some(delay) = relay else {
                    return Some((time, event));
                };
                insert(model, ((time + delay, class, *next_seq), event, None));
                *next_seq += 1;
            }
        }

        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model: Vec<Entry> = Vec::new();
        let mut next_seq = 0;
        let mut keys = Vec::new();
        let mut dead = Vec::new();
        let mut marked = std::collections::HashSet::new();
        let mut high_water = 0;
        for (event, &(time, near, early, hint, action, kind)) in ops.iter().enumerate() {
            // Half the pushes share a handful of instants, so ties
            // (where class and insertion order decide) are common.
            let near_time = SimTime(time % 8);
            let time = if near { near_time } else { SimTime(time) };
            if kind == 0 {
                // Relayed: often due soon and firing far out, or tying
                // with the plain pushes at both ends.
                let first = if hint % 4 == 0 { time } else { near_time };
                let delay = Span(if hint % 3 == 0 { time.0 % 8 } else { time.0 });
                keys.push(q.push_relayed(first, delay, event));
                insert(&mut model, ((first, CLASS_NORMAL, next_seq), event, Some(delay)));
            } else {
                let class = if early { CLASS_EARLY } else { CLASS_NORMAL };
                keys.push(q.push_with_class(time, class, event));
                insert(&mut model, ((time, class, next_seq), event, None));
            }
            next_seq += 1;
            if kind == 2 || (kind == 0 && hint % 2 == 1) {
                q.mark(keys[event]);
                marked.insert(event);
            }
            high_water = high_water.max(model.len());
            match action {
                0 => {
                    let victim = (hint as usize) % keys.len();
                    let at = model.iter().position(|&(_, e, _)| e == victim);
                    prop_assert_eq!(q.cancel(keys[victim]), at.map(|i| model.remove(i).1));
                    prop_assert_eq!(q.cancel(keys[victim]), None, "double cancel");
                    if at.is_some() {
                        dead.push(keys[victim]);
                    }
                }
                1 => {
                    let want = pop(&mut model, &mut next_seq);
                    prop_assert_eq!(q.pop(), want);
                    dead.extend(want.map(|(_, e)| keys[e]));
                }
                2 => {
                    // One engine step after another until something is
                    // handed out or falls due: the model's next pop.
                    let want = pop(&mut model, &mut next_seq);
                    let got = loop {
                        match q.step() {
                            Some(Step::Relayed(_)) => {}
                            Some(Step::Fired(t, e)) => break Some((t, e, false)),
                            Some(Step::Due(t)) => break Some((t, *q.due(), true)),
                            None => break None,
                        }
                    };
                    prop_assert_eq!(got.map(|(t, e, _)| (t, e)), want);
                    if let Some((t, e, due)) = got {
                    prop_assert_eq!(due, marked.contains(&e), "marks diverged at op {}", event);
                    match (due, hint % 3) {
                        (true, 1) => {
                            // Claimed in place: the model fired it and
                            // pushes it again, now.
                            let at = t + Span(time.0 % 8);
                            q.claim(at, None);
                            insert(&mut model, ((at, CLASS_NORMAL, next_seq), e, None));
                            next_seq += 1;
                        }
                        (true, 2) => {
                            // Claimed behind a pause, relayed again.
                            let (pause, delay) = (Span(hint % 8), Span(time.0 % 16));
                            q.claim(t + pause, Some(delay));
                            insert(&mut model, ((t + pause, CLASS_NORMAL, next_seq), e, Some(delay)));
                            next_seq += 1;
                        }
                        (true, _) => {
                            prop_assert_eq!(q.fire_due(), (t, e));
                            dead.push(keys[e]);
                        }
                        (false, _) => dead.push(keys[e]),
                    }
                    }
                }
                3 if !dead.is_empty() => {
                    // A stale key whose slot has a new tenant: the model
                    // is untouched, so the checks below (and the final
                    // drain) prove the tenant stayed live — and unmarked
                    // unless its own push marked it.
                    let stale = dead[(hint as usize) % dead.len()];
                    prop_assert_eq!(q.cancel(stale), None, "stale key hit a reused slot");
                    q.mark(stale);
                }
                _ => {}
            }
            // A marker at the front shows as what it is: an entry due at
            // its first instant.
            let head = model.first().map(|&((t, c, _), _, _)| (t, c));
            prop_assert_eq!(q.peek_head(), head, "heads diverged at op {}", event);
            prop_assert_eq!(q.len(), model.len(), "live counts diverged at op {}", event);
            prop_assert!(
                q.slab_len() <= high_water,
                "slab {} outgrew the live high-water mark {} after op {}",
                q.slab_len(),
                high_water,
                event
            );
            prop_assert!(
                q.heap_len() <= 2 * q.len(),
                "stored {} exceeds 2x live {} after op {}",
                q.heap_len(),
                q.len(),
                event
            );
        }
        while let Some(want) = pop(&mut model, &mut next_seq) {
            prop_assert_eq!(q.pop(), Some(want));
            prop_assert!(q.heap_len() <= 2 * q.len());
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
}

/// Regression for the kill-and-requeue stale-event path: when a node
/// failure kills a running job, the driver cancels the dead
/// incarnation's pending completion *and* the timeout of any resizer it
/// was waiting on, then schedules the requeued incarnation's events.
/// Neither tombstone may ever fire, cancel a second time, or disturb
/// the surviving events.
#[test]
fn killed_jobs_stale_events_never_fire() {
    let mut q: EventQueue<&'static str> = EventQueue::new();
    // The doomed incarnation: a completion far out and a resize
    // timeout before it; an unrelated job's completion in between.
    let completion = q.push(SimTime(900), "victim-completion");
    let resize = q.push(SimTime(300), "victim-resize-timeout");
    let other = q.push(SimTime(500), "other-completion");
    // The failure lands at t=100: cancel both victim events.
    assert_eq!(q.cancel(completion), Some("victim-completion"));
    assert_eq!(q.cancel(resize), Some("victim-resize-timeout"));
    // Double-cancel is inert; the tombstoned keys stay dead.
    assert!(q.cancel(completion).is_none());
    assert!(q.cancel(resize).is_none());
    // The requeued incarnation schedules a fresh completion.
    let requeued = q.push(SimTime(1200), "requeue-completion");
    // Only live events pop, in time order — no stale firing.
    assert_eq!(q.pop(), Some((SimTime(500), "other-completion")));
    assert_eq!(q.pop(), Some((SimTime(1200), "requeue-completion")));
    assert_eq!(q.pop(), None);
    // Cancelling an already-popped key is a no-op that cannot
    // resurrect or corrupt anything.
    assert!(q.cancel(requeued).is_none());
    assert!(q.cancel(other).is_none());
    assert!(q.is_empty());
    assert_eq!(q.heap_len(), 0, "queue retains tombstones after drain");
}

/// A cancelled event's heap entry outlives its payload slot: the slot is
/// handed to the next push while the tombstone still sits in the heap —
/// here at its very head. The tombstone names the slot but not the new
/// tenant's sequence number, so `peek_head` and `pop` must skip it (not
/// fire the tenant at the cancelled event's instant), and the cancelled
/// event's key must not reach the tenant either.
#[test]
fn tombstone_of_a_reused_slot_is_skipped() {
    let mut q: EventQueue<&'static str> = EventQueue::new();
    let cancelled = q.push(SimTime(1), "cancelled");
    q.push(SimTime(5), "b");
    q.push(SimTime(6), "c");
    // Three stored entries against two live ones: no compaction, the
    // tombstone stays at the head of the heap.
    assert_eq!(q.cancel(cancelled), Some("cancelled"));
    assert_eq!(q.heap_len(), 3);
    // The freed slot is re-tenanted by an event due last.
    let tenant = q.push(SimTime(9), "tenant");
    assert_eq!(
        q.slab_len(),
        3,
        "the push reused the cancelled event's slot"
    );
    assert_eq!(q.heap_len(), 4, "tombstone still stored");
    assert_eq!(
        q.cancel(cancelled),
        None,
        "stale key must miss the new tenant"
    );
    assert_eq!(q.len(), 3);
    assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_NORMAL)));
    assert_eq!(q.pop(), Some((SimTime(5), "b")));
    assert_eq!(q.pop(), Some((SimTime(6), "c")));
    assert_eq!(q.pop(), Some((SimTime(9), "tenant")));
    assert_eq!(q.pop(), None);
    assert_eq!(q.cancel(tenant), None);
    assert_eq!(q.slab_len(), 3);
}
