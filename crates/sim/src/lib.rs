//! # dmr-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the virtual-time substrate on which the whole
//! reproduction runs. The paper evaluated its malleability framework on the
//! MareNostrum supercomputer; we replace the physical machine with a
//! discrete-event simulation (DES) whose clock is a `u64` count of
//! microseconds. Everything above this crate (cluster, Slurm, the DMR
//! negotiation) *is the real algorithm* — only wall-clock waiting is
//! virtualised.
//!
//! Design constraints:
//!
//! * **Determinism.** Events are ordered by `(time, class, sequence-number)`;
//!   ties are broken by an explicit tie-break class (see
//!   [`queue::CLASS_EARLY`]) and then by insertion order, never by heap
//!   internals. Two runs with the same inputs produce identical event
//!   sequences (asserted by tests).
//! * **Cancellation.** Schedulers routinely abandon timers (e.g. the resizer
//!   job timeout in the expansion protocol). [`Engine::cancel`] removes an
//!   event in O(1) amortised by tombstoning.
//! * **Relays.** A pause whose end only schedules what follows it need
//!   not be an event of the world's: [`Engine::schedule_relayed`] steps
//!   over the pause end inside the engine and still pops every event in
//!   the order the two-event chain would have (see [`queue`]).
//! * **No floating-point clock.** `f64` seconds are accepted at the API edge
//!   ([`SimTime::from_secs_f64`]) but the clock itself is integral, so event
//!   ordering can never be perturbed by rounding.

pub mod engine;
pub mod queue;
pub mod time;

pub use engine::{Engine, EventId};
pub use queue::{EventQueue, Step, CLASS_EARLY, CLASS_NORMAL};
pub use time::{SimTime, Span};
