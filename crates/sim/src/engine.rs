//! The simulation engine: a clock plus an event queue, with a driver loop.
//!
//! Besides ordinary events the engine takes *relayed* ones
//! ([`Engine::schedule_relayed`]): "a pause ends at `at`, and `event`
//! fires `then` later". The pause end has no payload and needs no
//! handler — the engine advances its clock and its processed count over
//! it on its own ([`Engine::step`] reports the instant,
//! [`Engine::next_event`] passes over it) — yet every event pops in the
//! order it would have popped in had the world handled the pause end and
//! scheduled `event` from that handler (see [`crate::queue`]). A world
//! whose pause handler does nothing but schedule the next event saves the
//! dispatch and a heap round trip per pause, and its event count does not
//! change.
//!
//! An event the world has marked ([`Engine::mark_claimable`]) may be
//! *claimed* when it falls due: [`Engine::step`] processes the instant
//! and reports [`Step::Due`], and the world, having looked at the payload
//! ([`Engine::due_event`]), either takes it ([`Engine::fire_due`]) or
//! re-keys it in place to a later instant ([`Engine::claim_at`],
//! [`Engine::claim_relayed`]) — the same rank, sequence number and
//! processed count as handling it and scheduling it again, without the
//! heap round trip. A world whose handler, in a state it can recognise
//! cheaply, would only reschedule the event it was handed saves the
//! dispatch. Unmarked events never stop at [`Step::Due`].

use crate::queue::{EventKey, EventQueue, Step, CLASS_EARLY, CLASS_NORMAL};
use crate::time::{SimTime, Span};

/// Handle for a scheduled event (re-exported key type).
pub type EventId = EventKey;

/// A virtual clock bound to a cancellable event queue.
///
/// `Engine` is deliberately passive: it owns time and pending events, and the
/// simulation *world* (e.g. the workload driver in `dmr-core`) pulls events
/// and dispatches them. This inversion keeps every domain rule out of the
/// engine and makes the engine reusable and independently testable.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    past_schedules: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
            past_schedules: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of [`Engine::schedule_at`] calls that targeted an instant in
    /// the past and were clamped to `now`. Always observable (debug *and*
    /// release), so callers — e.g. scenario sweeps, which run in release
    /// where the debug panic is compiled out — can assert
    /// no-past-scheduling.
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }

    /// Schedules an event at an absolute instant. Scheduling in the past is
    /// a logic error: debug builds panic at the first occurrence; release
    /// builds clamp the instant to `now` (the event fires immediately next)
    /// and count the clamp in [`Engine::past_schedules`], which is also
    /// maintained in debug builds so sweeps can assert on it uniformly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_class(at, CLASS_NORMAL, event)
    }

    /// Like [`Engine::schedule_at`], but the event wins every tie against
    /// same-instant [`Engine::schedule_at`] events regardless of insertion
    /// order (FIFO among early events). Used for event families that must
    /// keep front-of-queue semantics — e.g. streamed workload arrivals,
    /// which historically were all scheduled before the run began and
    /// therefore always popped first at their instant.
    pub fn schedule_at_early(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_class(at, CLASS_EARLY, event)
    }

    fn schedule_class(&mut self, at: SimTime, class: u8, event: E) -> EventId {
        let at = self.not_in_the_past(at);
        self.queue.push_with_class(at, class, event)
    }

    /// Schedules `event` to fire `then` after the instant `at`, ranked
    /// among same-instant events as if an ordinary event had been
    /// scheduled at `at` now and its handler had scheduled `event` with
    /// [`Engine::schedule_in`]. Reaching `at` counts as a processed event
    /// and advances the clock, but is never returned to the caller. The
    /// returned handle cancels `event` before and after that instant.
    /// `at` is subject to the past-scheduling rule of
    /// [`Engine::schedule_at`].
    pub fn schedule_relayed(&mut self, at: SimTime, then: Span, event: E) -> EventId {
        let at = self.not_in_the_past(at);
        self.queue.push_relayed(at, then, event)
    }

    /// `at`, clamped to `now` (and counted, and a debug panic) if it lies
    /// in the past.
    fn not_in_the_past(&mut self, at: SimTime) -> SimTime {
        if at < self.now {
            self.past_schedules += 1;
            debug_assert!(
                false,
                "scheduled event in the past: at={:?} now={:?}",
                at, self.now
            );
        }
        at.max(self.now)
    }

    /// Schedules an event `delay` after the current instant. Routed through
    /// [`Engine::schedule_at`] so both entry points share the
    /// past-scheduling clamp and [`Engine::past_schedules`] accounting (a
    /// non-negative `delay` can never trip it, but the invariant lives in
    /// exactly one place).
    pub fn schedule_in(&mut self, delay: Span, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a pending event, returning its payload if it had not fired.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        self.queue.cancel(id)
    }

    /// Marks a pending event as one the world may claim when it falls due
    /// (see the module docs). The mark outlives claims; it ends when the
    /// event fires or is cancelled.
    pub fn mark_claimable(&mut self, id: EventId) {
        self.queue.mark(id);
    }

    /// The payload of the event [`Engine::step`] just reported
    /// [`Step::Due`].
    pub fn due_event(&self) -> &E {
        self.queue.due()
    }

    /// Hands out the event [`Engine::step`] just reported [`Step::Due`]:
    /// the world handles it as if it had been [`Step::Fired`].
    pub fn fire_due(&mut self) -> E {
        self.queue.fire_due().1
    }

    /// Claims the event [`Engine::step`] just reported [`Step::Due`],
    /// keeping its handle: it is pending again at `at`, ranked as if
    /// fired and scheduled there with [`Engine::schedule_at`] now.
    pub fn claim_at(&mut self, at: SimTime) {
        let at = self.not_in_the_past(at);
        self.queue.claim(at, None);
    }

    /// Like [`Engine::claim_at`], but ranked as if scheduled with
    /// [`Engine::schedule_relayed`]: `at` is a pause end and the event
    /// fires `then` after it.
    pub fn claim_relayed(&mut self, at: SimTime, then: Span) {
        let at = self.not_in_the_past(at);
        self.queue.claim(at, Some(then));
    }

    /// Time of the next pending event without consuming it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// `(time, class)` of the next pending event without consuming it.
    /// The class is [`CLASS_EARLY`] for events scheduled through
    /// [`Engine::schedule_at_early`]; drivers use it to tell whether the
    /// head of the queue is a same-instant arrival (extend the batch
    /// window) or an ordinary event (flush deferred scheduling work).
    pub fn peek_head(&mut self) -> Option<(SimTime, u8)> {
        self.queue.peek_head()
    }

    /// Pops the next event, advancing the clock to its timestamp — over
    /// the pause ends of relayed events on the way, each of which counts
    /// as processed. A due marked event is handed out unclaimed.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        loop {
            match self.step()? {
                Step::Fired(t, e) => return Some((t, e)),
                Step::Due(t) => return Some((t, self.fire_due())),
                Step::Relayed(_) => {}
            }
        }
    }

    /// Advances the clock to the next queue entry and processes it: an
    /// event to hand out, a pause end relayed in place, or a marked event
    /// due — which the world must settle before anything else
    /// ([`Engine::fire_due`] or a claim). The loop of a world that wants
    /// to see the clock reach every processed instant (the driver samples
    /// its metrics sink after each one); [`Engine::next_event`] is this
    /// minus the relays and claims.
    pub fn step(&mut self) -> Option<Step<E>> {
        let step = self.queue.step()?;
        let (Step::Fired(t, _) | Step::Relayed(t) | Step::Due(t)) = step;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.processed += 1;
        Some(step)
    }

    /// Runs the event loop to exhaustion, dispatching each event to
    /// `handler`. The handler receives the engine so it can schedule further
    /// events; this is the standard DES pattern.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, SimTime, E)) {
        while let Some((t, e)) = self.next_event() {
            handler(self, t, e);
        }
    }

    /// Like [`Engine::run`] but stops (leaving the queue intact) once the
    /// clock would pass `deadline`. Events at exactly `deadline` still run.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Engine<E>, SimTime, E),
    ) {
        while self.peek_time().is_some_and(|t| t <= deadline) {
            // A relayed event's pause end can lie inside the deadline and
            // its firing instant beyond it: re-test after every step.
            match self.step() {
                Some(Step::Fired(t, e)) => handler(self, t, e),
                Some(Step::Due(t)) => {
                    let e = self.fire_due();
                    handler(self, t, e);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Spawn,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tick(0));
        let (t, e) = eng.next_event().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), Ev::Tick(0)));
        assert_eq!(eng.now(), SimTime::from_secs(2));
        let (t, _) = eng.next_event().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert!(eng.next_event().is_none());
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Spawn);
        let mut ticks = Vec::new();
        eng.run(|eng, t, e| match e {
            Ev::Spawn => {
                for i in 0..3 {
                    eng.schedule_in(Span::from_secs(i + 1), Ev::Tick(i as u32));
                }
            }
            Ev::Tick(i) => ticks.push((t, i)),
        });
        assert_eq!(
            ticks,
            vec![
                (SimTime::from_secs(2), 0),
                (SimTime::from_secs(3), 1),
                (SimTime::from_secs(4), 2)
            ]
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 1..=10u64 {
            eng.schedule_at(SimTime::from_secs(i), i as u32);
        }
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(4), |_, _, e| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(eng.pending(), 6);
        assert_eq!(eng.now(), SimTime::from_secs(4));
    }

    #[test]
    fn past_scheduling_clamps_and_counts() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10), 1);
        eng.next_event();
        assert_eq!(eng.past_schedules(), 0);
        // now = 10; scheduling at 3 panics in debug builds and clamps to
        // `now` in release builds — the counter records it either way.
        if cfg!(debug_assertions) {
            let poked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.schedule_at(SimTime::from_secs(3), 2);
            }));
            assert!(poked.is_err(), "debug builds must panic");
        } else {
            eng.schedule_at(SimTime::from_secs(3), 2);
            let (t, e) = eng.next_event().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(10), 2), "clamped to now");
        }
        assert_eq!(eng.past_schedules(), 1);
        // Scheduling exactly at `now` is fine.
        eng.schedule_at(SimTime::from_secs(10), 3);
        assert_eq!(eng.past_schedules(), 1);
    }

    #[test]
    fn early_events_outrank_same_instant_normal_events() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), "normal");
        eng.schedule_at_early(SimTime::from_secs(5), "early");
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec!["early", "normal"]);
    }

    #[test]
    fn schedule_in_shares_the_schedule_at_invariant() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(4), 1);
        eng.next_event();
        // Zero and positive delays from `now` are never "in the past".
        eng.schedule_in(Span::ZERO, 2);
        eng.schedule_in(Span::from_secs(1), 3);
        assert_eq!(eng.past_schedules(), 0);
        let (t2, e2) = eng.next_event().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(4), 2));
        let (t3, e3) = eng.next_event().unwrap();
        assert_eq!((t3, e3), (SimTime::from_secs(5), 3));
    }

    #[test]
    fn run_until_survives_concurrent_cancellation() {
        // A handler that cancels the next pending event must not trip
        // run_until: the loop re-peeks instead of trusting a stale peek.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), 1);
        let doomed = eng.schedule_at(SimTime::from_secs(2), 2);
        eng.schedule_at(SimTime::from_secs(3), 3);
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(10), |eng, _, e| {
            if e == 1 {
                eng.cancel(doomed);
            }
            seen.push(e);
        });
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn a_relayed_pause_is_processed_but_never_handed_out() {
        // Chained by hand: the pause end is an event whose handler
        // schedules the tick.
        let mut chained: Engine<Ev> = Engine::new();
        chained.schedule_at(SimTime::from_secs(2), Ev::Spawn);
        chained.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        let mut order = Vec::new();
        chained.run(|eng, t, e| match e {
            Ev::Spawn => {
                eng.schedule_in(Span::from_secs(3), Ev::Tick(0));
            }
            Ev::Tick(i) => order.push((t, i)),
        });
        let mut relayed: Engine<Ev> = Engine::new();
        relayed.schedule_relayed(SimTime::from_secs(2), Span::from_secs(3), Ev::Tick(0));
        relayed.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        assert_eq!(relayed.pending(), 2);
        assert_eq!(relayed.peek_time(), Some(SimTime::from_secs(2)));
        let mut seen = Vec::new();
        relayed.run(|_, t, e| match e {
            Ev::Tick(i) => seen.push((t, i)),
            Ev::Spawn => unreachable!("the pause end is never dispatched"),
        });
        assert_eq!(seen, order);
        assert_eq!(
            seen,
            vec![(SimTime::from_secs(5), 1), (SimTime::from_secs(5), 0)]
        );
        assert_eq!(relayed.processed(), chained.processed());
        assert_eq!(relayed.processed(), 3);
    }

    #[test]
    fn run_until_stops_between_a_pause_end_and_its_event() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_relayed(SimTime::from_secs(2), Span::from_secs(10), 7);
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(5), |_, _, e| seen.push(e));
        assert!(seen.is_empty());
        assert_eq!(
            eng.now(),
            SimTime::from_secs(2),
            "the clock reached the pause end"
        );
        assert_eq!(eng.processed(), 1);
        assert_eq!(eng.peek_time(), Some(SimTime::from_secs(12)));
        assert_eq!(eng.cancel(id), Some(7), "the handle survives the relay");
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn a_claim_counts_and_ranks_like_handling_and_rescheduling() {
        let secs = SimTime::from_secs;
        // Handled: Tick(0) fires at 2 and its handler relays it again
        // behind a 1 s pause, to fire at 5 — after Tick(1), already
        // scheduled there.
        let mut handled: Engine<Ev> = Engine::new();
        handled.schedule_at(secs(2), Ev::Tick(0));
        handled.schedule_at(secs(5), Ev::Tick(1));
        let (t, e) = handled.next_event().unwrap();
        assert_eq!((t, &e), (secs(2), &Ev::Tick(0)));
        handled.schedule_relayed(secs(3), Span::from_secs(2), e);
        let mut claimed: Engine<Ev> = Engine::new();
        let id = claimed.schedule_at(secs(2), Ev::Tick(0));
        claimed.mark_claimable(id);
        claimed.schedule_at(secs(5), Ev::Tick(1));
        assert_eq!(claimed.step(), Some(Step::Due(secs(2))));
        assert_eq!(claimed.now(), secs(2));
        assert_eq!(claimed.due_event(), &Ev::Tick(0));
        claimed.claim_relayed(secs(3), Span::from_secs(2));
        assert_eq!(claimed.processed(), handled.processed());
        for eng in [&mut handled, &mut claimed] {
            assert_eq!(eng.next_event(), Some((secs(5), Ev::Tick(1))));
            assert_eq!(eng.next_event(), Some((secs(5), Ev::Tick(0))));
            assert_eq!(eng.next_event(), None);
        }
        assert_eq!(claimed.processed(), handled.processed());
        assert_eq!(claimed.processed(), 4);
        assert_eq!(claimed.cancel(id), None, "the claimed event fired");
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_at(SimTime::from_secs(1), 1);
        eng.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(eng.cancel(id), Some(1));
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..5 {
            eng.schedule_at(SimTime::from_secs(7), i);
        }
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
