//! Seeded, deterministic fault injection.
//!
//! Two faultload sources feed the driver with node-fail / node-repair
//! events:
//!
//! * [`FaultProcess`] — per-class exponential MTBF/MTTR processes drawn
//!   from a seeded [`rand::rngs::StdRng`]. Each machine class runs an
//!   independent failure clock whose rate is `class nodes / per-node
//!   MTBF`, so bigger classes fail proportionally more often; every
//!   failure schedules its own repair an `Exp(MTTR)` later. The entire
//!   event stream is a pure function of `(class table, rates, seed)`.
//! * [`FaultTrace`] — an explicit scripted list of events, for regression
//!   tests and for replaying a specific incident (`--faults trace:path`).
//!
//! Both are wrapped by [`FaultSource`], which the `dmr-core` driver pulls
//! one event at a time, mapping each onto [`crate::Cluster::fail_node`] /
//! [`crate::Cluster::repair_node`] transitions. The [`FaultLoad::None`]
//! source emits nothing and draws nothing — zero-fault runs stay
//! bit-identical to a build without this module.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dmr_sim::SimTime;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::classes::ClassTable;
use crate::node::NodeId;

/// One injected fault event, in simulation time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultEvent {
    /// `node` goes down at `at` (and stays down until repaired).
    Fail { at: SimTime, node: NodeId },
    /// `node` is repaired at `at` and may accept work again.
    Repair { at: SimTime, node: NodeId },
}

impl FaultEvent {
    /// The instant the event fires.
    pub fn at(self) -> SimTime {
        match self {
            FaultEvent::Fail { at, .. } | FaultEvent::Repair { at, .. } => at,
        }
    }

    /// The node the event targets.
    pub fn node(self) -> NodeId {
        match self {
            FaultEvent::Fail { node, .. } | FaultEvent::Repair { node, .. } => node,
        }
    }
}

/// Faultload intensity presets. `Copy` so experiment configurations can
/// carry one by value; scripted traces are injected separately (they own
/// a `Vec`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultLoad {
    /// No injected faults. The oracle configuration: runs under `None`
    /// are bit-identical to pre-fault-injection behaviour.
    #[default]
    None,
    /// A few failures per long run: per-node MTBF 2×10⁶ s, MTTR 900 s.
    Rare,
    /// Sustained attrition: per-node MTBF 2×10⁵ s, MTTR 600 s.
    Harsh,
}

impl FaultLoad {
    /// The preset's rates, or `None` for the zero-fault load.
    pub fn rates(self) -> Option<FaultRates> {
        match self {
            FaultLoad::None => None,
            FaultLoad::Rare => Some(FaultRates {
                mtbf_s: 2.0e6,
                mttr_s: 900.0,
            }),
            FaultLoad::Harsh => Some(FaultRates {
                mtbf_s: 2.0e5,
                mttr_s: 600.0,
            }),
        }
    }

    /// Probability that one resize negotiation (the `MPI_Comm_spawn`
    /// path) fails from an injected fault. Zero for [`FaultLoad::None`],
    /// so zero-fault runs never draw from the protocol RNG.
    pub fn resize_fail_p(self) -> f64 {
        match self {
            FaultLoad::None => 0.0,
            FaultLoad::Rare => 0.02,
            FaultLoad::Harsh => 0.15,
        }
    }

    /// Short lowercase name, used in scenario names and CSV cells.
    pub fn name(self) -> &'static str {
        match self {
            FaultLoad::None => "none",
            FaultLoad::Rare => "rare",
            FaultLoad::Harsh => "harsh",
        }
    }

    /// Whether this is the zero-fault load.
    pub fn is_none(self) -> bool {
        self == FaultLoad::None
    }
}

/// Per-node failure/repair rates of a [`FaultProcess`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultRates {
    /// Mean time between failures of one node, seconds. A class of `n`
    /// nodes fails at rate `n / mtbf_s`.
    pub mtbf_s: f64,
    /// Mean time to repair one failed node, seconds.
    pub mttr_s: f64,
}

/// Heap entry for a scheduled repair: `(when, seq)` orders repairs
/// deterministically even when two land on the same microsecond.
type PendingRepair = Reverse<(SimTime, u64, NodeId)>;

/// A seeded stream of fail/repair events over a cluster's class layout.
///
/// Deterministic: the `n`-th event is a pure function of the construction
/// arguments, independent of wall clock, thread count, or how the cluster
/// reacts to earlier events (victims are drawn over the class's full id
/// range, not its currently-up subset — failing an already-down node is a
/// counted no-op at the cluster layer).
#[derive(Clone, Debug)]
pub struct FaultProcess {
    rng: StdRng,
    rates: FaultRates,
    /// Per-class `(first id, node count)`, dense ascending.
    ranges: Vec<(u32, u32)>,
    /// Per-class next failure instant.
    next_fail: Vec<SimTime>,
    /// Repairs scheduled by earlier failures.
    repairs: BinaryHeap<PendingRepair>,
    seq: u64,
}

impl FaultProcess {
    /// A process over `table`'s layout with the given rates and seed.
    pub fn new(table: &ClassTable, rates: FaultRates, seed: u64) -> Self {
        let ranges: Vec<(u32, u32)> = (0..table.num_classes())
            .map(|c| {
                let (start, end) = table.range(c);
                (start, end - start)
            })
            .collect();
        let mut p = FaultProcess {
            rng: StdRng::seed_from_u64(seed),
            rates,
            next_fail: vec![SimTime::ZERO; ranges.len()],
            ranges,
            repairs: BinaryHeap::new(),
            seq: 0,
        };
        for c in 0..p.ranges.len() {
            p.next_fail[c] = p.advance(SimTime::ZERO, c);
        }
        p
    }

    /// Draws `Exp(mean_s)` and returns `from + draw`, quantised to whole
    /// microseconds (at least one, so time strictly advances).
    fn exp_after(&mut self, from: SimTime, mean_s: f64) -> SimTime {
        let u: f64 = self.rng.random();
        let gap_s = -mean_s * (1.0 - u).ln();
        let micros = (gap_s * 1e6).round().max(1.0);
        SimTime(from.0.saturating_add(micros as u64))
    }

    /// Next failure instant for class `c` counted from `from`.
    fn advance(&mut self, from: SimTime, c: usize) -> SimTime {
        let nodes = self.ranges[c].1.max(1) as f64;
        let mean = self.rates.mtbf_s / nodes;
        self.exp_after(from, mean)
    }

    /// The next event in time order. Never returns `None` — the process
    /// is unbounded; the driver stops pulling when the workload drains.
    /// Ties on the same microsecond resolve repairs first (a node coming
    /// back is visible to a failure landing at the same instant), then
    /// lower class ids.
    pub fn next_event(&mut self) -> FaultEvent {
        let fail_c = (0..self.ranges.len())
            .filter(|&c| self.ranges[c].1 > 0)
            .min_by_key(|&c| (self.next_fail[c], c))
            .expect("class table has at least one class");
        let fail_at = self.next_fail[fail_c];
        if let Some(&Reverse((at, _, node))) = self.repairs.peek() {
            if at <= fail_at {
                self.repairs.pop();
                return FaultEvent::Repair { at, node };
            }
        }
        let (start, nodes) = self.ranges[fail_c];
        let node = NodeId(start + self.rng.random_range(0..nodes as u64) as u32);
        let repair_at = self.exp_after(fail_at, self.rates.mttr_s);
        self.repairs.push(Reverse((repair_at, self.seq, node)));
        self.seq += 1;
        self.next_fail[fail_c] = self.advance(fail_at, fail_c);
        FaultEvent::Fail { at: fail_at, node }
    }
}

/// An explicit, scripted event list (sorted by instant, stable).
///
/// Text form, one event per line (`#` comments and blank lines ignored):
///
/// ```text
/// # <seconds> fail|repair <node id>
/// 100 fail 3
/// 160 repair 3
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTrace {
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// A trace from explicit events; sorts by instant (stable, so equal
    /// instants keep their scripted order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at());
        FaultTrace { events }
    }

    /// Parses the text form described on [`FaultTrace`], for a machine of
    /// any size: whoever runs the trace checks the node ids
    /// ([`FaultTrace::check_nodes`]).
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::parse_for(text, u32::MAX)
    }

    /// [`FaultTrace::parse`] for a machine of `total_nodes` nodes: a line
    /// naming a node the machine does not have is rejected like any
    /// other malformed one.
    pub fn parse_for(text: &str, total_nodes: u32) -> Result<Self, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |what: &str| format!("fault trace line {}: {what}: {line:?}", i + 1);
            let secs: f64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("expected <seconds> first"))?;
            // `nan`, `inf` and `-5` all parse as f64, and all three
            // would saturate into an event at t = 0.
            if !secs.is_finite() || secs < 0.0 {
                return Err(err("<seconds> must be finite and non-negative"));
            }
            let kind = parts.next().ok_or_else(|| err("expected fail|repair"))?;
            let node: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("expected <node id>"))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens"));
            }
            if node >= total_nodes {
                return Err(err(&format!("the machine has {total_nodes} nodes")));
            }
            let at = SimTime::from_secs_f64(secs);
            let node = NodeId(node);
            events.push(match kind {
                "fail" => FaultEvent::Fail { at, node },
                "repair" => FaultEvent::Repair { at, node },
                _ => return Err(err("expected fail|repair")),
            });
        }
        Ok(FaultTrace::new(events))
    }

    /// Checks every event against a machine of `total_nodes` nodes; the
    /// error names the first event whose node the machine does not have.
    pub fn check_nodes(&self, total_nodes: u32) -> Result<(), String> {
        match self.events.iter().find(|e| e.node().0 >= total_nodes) {
            Some(e) => Err(format!(
                "fault event {e:?} names a node the {total_nodes}-node machine does not have"
            )),
            None => Ok(()),
        }
    }

    /// The events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The unified faultload source the driver pulls from.
#[derive(Clone, Debug)]
pub enum FaultSource {
    /// No faults; [`FaultSource::next_event`] always returns `None` and
    /// no RNG is ever constructed or drawn from.
    None,
    /// Seeded stochastic process (unbounded).
    Process(FaultProcess),
    /// Scripted trace (finite), with a cursor over the sorted events.
    Trace { trace: FaultTrace, next: usize },
}

impl FaultSource {
    /// The source for a preset load over `table`, seeded with `seed`.
    pub fn from_load(load: FaultLoad, table: &ClassTable, seed: u64) -> Self {
        match load.rates() {
            None => FaultSource::None,
            Some(rates) => FaultSource::Process(FaultProcess::new(table, rates, seed)),
        }
    }

    /// The source replaying a scripted trace.
    pub fn from_trace(trace: FaultTrace) -> Self {
        FaultSource::Trace { trace, next: 0 }
    }

    /// Pulls the next event, if any. Process sources never run dry;
    /// trace sources do.
    pub fn next_event(&mut self) -> Option<FaultEvent> {
        match self {
            FaultSource::None => None,
            FaultSource::Process(p) => Some(p.next_event()),
            FaultSource::Trace { trace, next } => {
                let e = trace.events.get(*next).copied();
                if e.is_some() {
                    *next += 1;
                }
                e
            }
        }
    }

    /// Whether this source can still emit events.
    pub fn is_live(&self) -> bool {
        match self {
            FaultSource::None => false,
            FaultSource::Process(_) => true,
            FaultSource::Trace { trace, next } => *next < trace.events.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassTable, MachineClass};

    fn table() -> ClassTable {
        ClassTable::uniform(64, 16)
    }

    #[test]
    fn process_is_deterministic_per_seed() {
        let mut a = FaultProcess::new(&table(), FaultLoad::Harsh.rates().unwrap(), 7);
        let mut b = FaultProcess::new(&table(), FaultLoad::Harsh.rates().unwrap(), 7);
        for _ in 0..200 {
            assert_eq!(a.next_event(), b.next_event());
        }
        let mut c = FaultProcess::new(&table(), FaultLoad::Harsh.rates().unwrap(), 8);
        let sa: Vec<_> = (0..50).map(|_| a.next_event()).collect();
        let sc: Vec<_> = (0..50).map(|_| c.next_event()).collect();
        assert_ne!(sa, sc, "different seeds diverge");
    }

    #[test]
    fn process_emits_in_time_order_and_repairs_every_failure() {
        let mut p = FaultProcess::new(&table(), FaultLoad::Harsh.rates().unwrap(), 3);
        let mut last = SimTime::ZERO;
        let mut fails = 0u32;
        let mut repairs = 0u32;
        for _ in 0..500 {
            let e = p.next_event();
            assert!(e.at() >= last, "events must be nondecreasing in time");
            last = e.at();
            assert!(e.node().0 < 64, "victim within the class range");
            match e {
                FaultEvent::Fail { .. } => fails += 1,
                FaultEvent::Repair { .. } => repairs += 1,
            }
        }
        assert!(fails > 0 && repairs > 0);
        // Every repair pairs with an earlier failure.
        assert!(repairs <= fails);
    }

    #[test]
    fn per_class_rates_scale_with_class_size() {
        // A 60-node class should absorb ~6x the failures of a 10-node one.
        let std16 = MachineClass::standard(16);
        let t = ClassTable::new(&[(std16, 60), (std16, 10)]);
        let mut p = FaultProcess::new(&t, FaultLoad::Harsh.rates().unwrap(), 11);
        let (mut big, mut small) = (0u32, 0u32);
        for _ in 0..4000 {
            if let FaultEvent::Fail { node, .. } = p.next_event() {
                if node.0 < 60 {
                    big += 1;
                } else {
                    small += 1;
                }
            }
        }
        assert!(
            big > small * 3,
            "big class fails more often: {big} vs {small}"
        );
        assert!(small > 0, "small class still fails");
    }

    #[test]
    fn trace_parses_sorts_and_replays() {
        let t =
            FaultTrace::parse("# incident replay\n200 repair 5\n100 fail 5\n\n150 fail 9 # mid\n")
                .unwrap();
        assert_eq!(t.len(), 3);
        let mut src = FaultSource::from_trace(t);
        assert_eq!(
            src.next_event(),
            Some(FaultEvent::Fail {
                at: SimTime::from_secs(100),
                node: NodeId(5)
            })
        );
        assert_eq!(
            src.next_event(),
            Some(FaultEvent::Fail {
                at: SimTime::from_secs(150),
                node: NodeId(9)
            })
        );
        assert!(src.is_live());
        assert_eq!(
            src.next_event(),
            Some(FaultEvent::Repair {
                at: SimTime::from_secs(200),
                node: NodeId(5)
            })
        );
        assert_eq!(src.next_event(), None);
        assert!(!src.is_live());
    }

    #[test]
    fn trace_parse_rejects_garbage() {
        assert!(FaultTrace::parse("100 explode 3").is_err());
        assert!(FaultTrace::parse("abc fail 3").is_err());
        assert!(FaultTrace::parse("100 fail").is_err());
        assert!(FaultTrace::parse("100 fail 3 4").is_err());
    }

    #[test]
    fn trace_parse_rejects_instants_that_are_not_on_the_clock() {
        for line in ["nan fail 3", "inf fail 2", "-inf fail 2", "-5 repair 3"] {
            let script = format!("10 fail 1\n{line}\n");
            let e = FaultTrace::parse(&script).expect_err(line);
            assert!(
                e.starts_with("fault trace line 2: <seconds> must be"),
                "{e}"
            );
        }
        assert_eq!(FaultTrace::parse("0 fail 3\n-0 repair 3").unwrap().len(), 2);
    }

    #[test]
    fn node_ids_are_checked_against_the_machine() {
        let script = "100 fail 19\n200 fail 9999\n";
        let e = FaultTrace::parse_for(script, 20).expect_err("node 9999 of 20");
        assert!(
            e.starts_with("fault trace line 2: the machine has 20"),
            "{e}"
        );
        let e = FaultTrace::parse_for("1 repair 20", 20).expect_err("ids start at 0");
        assert!(e.starts_with("fault trace line 1:"), "{e}");
        // Parsed for no machine in particular, the same script is
        // checked when it meets one; the error names the event.
        let t = FaultTrace::parse(script).unwrap();
        assert_eq!(t.check_nodes(10_000), Ok(()));
        let e = t.check_nodes(20).expect_err("node 9999 of 20");
        assert!(
            e.contains("t=200") && e.contains("n9999") && e.contains("20-node"),
            "{e}"
        );
    }

    #[test]
    fn none_source_is_inert() {
        let mut src = FaultSource::from_load(FaultLoad::None, &table(), 42);
        assert!(!src.is_live());
        assert_eq!(src.next_event(), None);
    }
}
