//! Node inventory and allocation bookkeeping.
//!
//! Allocation is by whole nodes, matching the paper (MPI ranks are placed one
//! per node; intra-node parallelism belongs to OpenMP/OmpSs and is invisible
//! to the resource manager). Owners are opaque `u64` tags chosen by the
//! caller — `dmr-slurm` uses job ids — so this crate stays free of scheduler
//! concepts.
//!
//! Nodes belong to [`crate::MachineClass`]es in dense contiguous id ranges
//! (see [`ClassTable`]), and the free pool is one [`FreeSet`] bitmap per
//! class. Because the ranges are contiguous and ascending, taking the
//! lowest ids class by class *is* the global lowest-id-first selection —
//! the single-class layout is bit-identical to the historical uniform
//! cluster.
//!
//! **Who owns a node list.** The cluster does, one per owner, in its owner
//! table (see the `owners` module), and it is the only copy: a grant is
//! written straight into it, a shrink truncates it, a transfer hands it
//! over, a release drops it. The calls that move nodes — [`Cluster::allocate_in`],
//! [`Cluster::release_all`], [`Cluster::release_tail`],
//! [`Cluster::transfer_all`] — answer with *how many* moved, which is all
//! a scheduler needs on every start, resize and completion;
//! [`Cluster::nodes_of`] is the one way to see the ids, borrowed. So the
//! steady state allocates one list per job and nothing per call.

use crate::classes::{ClassConstraint, ClassId, ClassTable};
use crate::freeset::FreeSet;
use crate::node::{NodeId, NodeState};
use crate::owners::{merge_appended, OwnerTable};

/// Errors from allocation requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Fewer free nodes than requested (within the eligible classes).
    Insufficient { requested: u32, free: u32 },
    /// The owner tag is unknown (release/shrink of a non-allocated owner).
    UnknownOwner(u64),
    /// Shrink would release more nodes than the owner holds.
    ShrinkTooLarge { held: u32, release: u32 },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Insufficient { requested, free } => {
                write!(f, "requested {requested} nodes but only {free} free")
            }
            AllocError::UnknownOwner(o) => write!(f, "owner {o} holds no allocation"),
            AllocError::ShrinkTooLarge { held, release } => {
                write!(f, "cannot release {release} of {held} held nodes")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// What [`Cluster::fail_node`] found at the failing node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailOutcome {
    /// The node was free; it moved to the unavailable pool.
    Idle,
    /// The node was serving this owner's allocation. It stays owned (the
    /// scheduler decides the job's fate) and will return *unavailable*,
    /// not free, when released.
    Busy(u64),
    /// The node was not `Up` (already down or powered off); nothing
    /// changed.
    Skipped,
}

/// The cluster: a set of nodes, each either free or owned by exactly one
/// owner tag.
///
/// Node selection is *linear*: the lowest-numbered free nodes are taken
/// first, mirroring Slurm's `select/linear` plug-in configured in the paper.
/// This also keeps simulations deterministic.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// The machine's class layout (one entry for uniform clusters).
    table: ClassTable,
    states: Vec<NodeState>,
    owner: Vec<Option<u64>>,
    /// Owner -> sorted list of held nodes, found by the tag's low 32 bits
    /// (see [`OwnerTable`]).
    held: OwnerTable,
    /// Where [`Cluster::release_tail`] sets the released ids down between
    /// truncating the owner's list and returning them to the pools; kept
    /// for its buffer only.
    released: Vec<NodeId>,
    /// The placeable (unowned, accepting-work) ids, one bitmap per class;
    /// allocation takes the lowest ids of each eligible class. Their
    /// lengths are the free counts.
    free: Vec<FreeSet>,
    /// Owned nodes per class, the one tally kept beside the sets: the
    /// power meter reads it, and it sums to [`Cluster::allocated_nodes`].
    busy_by_class: Vec<u32>,
    /// Nodes powered down to S5 by an energy policy, one set per class;
    /// their lengths are the off counts.
    off_sets: Vec<FreeSet>,
    /// Calls that changed `busy_by_class` or an off set (see
    /// [`Cluster::tally_changes`]).
    tally_changes: u64,
}

impl Cluster {
    /// A cluster of `nodes` identical nodes, all up and free.
    pub fn new(nodes: u32, cores_per_node: u32) -> Self {
        Cluster::with_classes(ClassTable::uniform(nodes, cores_per_node))
    }

    /// A cluster laid out by `table`: every class's nodes up and free.
    pub fn with_classes(table: ClassTable) -> Self {
        let nodes = table.total_nodes();
        let k = table.num_classes();
        let free = (0..k).map(|c| FreeSet::from_run(table.range(c))).collect();
        Cluster {
            table,
            states: vec![NodeState::Up; nodes as usize],
            owner: vec![None; nodes as usize],
            held: OwnerTable::default(),
            released: Vec::new(),
            free,
            busy_by_class: vec![0; k],
            off_sets: vec![FreeSet::new(); k],
            tally_changes: 0,
        }
    }

    /// The machine's class layout.
    pub fn table(&self) -> &ClassTable {
        &self.table
    }

    /// The class a node belongs to.
    pub fn class_of(&self, node: NodeId) -> ClassId {
        self.table.class_of(node.0)
    }

    pub fn total_nodes(&self) -> u32 {
        self.states.len() as u32
    }

    /// Nodes currently free *and* accepting work, across all classes.
    pub fn free_nodes(&self) -> u32 {
        self.free.iter().map(FreeSet::len).sum()
    }

    /// Nodes currently free and accepting work within the classes
    /// eligible under `constraint`.
    pub fn free_nodes_in(&self, constraint: ClassConstraint) -> u32 {
        match constraint {
            ClassConstraint::Any => self.free_nodes(),
            _ => self
                .eligible_classes(constraint)
                .map(|c| self.free[c].len())
                .sum(),
        }
    }

    /// Nodes a job confined to `constraint` could ever be placed on as
    /// the machine stands: the free and the allocated nodes of the
    /// eligible classes — everything but the unowned nodes that accept no
    /// work (down, off). The capacity a backfill timeline
    /// subtracts the running jobs' occupancy from.
    pub fn usable_in(&self, constraint: ClassConstraint) -> u32 {
        self.eligible_classes(constraint)
            .map(|c| self.free[c].len() + self.busy_by_class[c])
            .sum()
    }

    /// Nodes currently owned by some allocation, summed from the
    /// per-class tally (O(classes)).
    pub fn allocated_nodes(&self) -> u32 {
        self.busy_by_class.iter().sum()
    }

    /// Per-class allocated-node counts (power sampling; O(1) access).
    pub fn busy_by_class(&self) -> &[u32] {
        &self.busy_by_class
    }

    /// Powered-down nodes of each class, in class order (power sampling;
    /// O(1) a class).
    pub fn off_counts(&self) -> impl Iterator<Item = u32> + '_ {
        self.off_sets.iter().map(FreeSet::len)
    }

    /// How many calls so far changed [`Cluster::busy_by_class`] or
    /// [`Cluster::off_counts`]: while it stands still, so do both.
    /// (It also moves when a call's changes cancel out.) A power meter
    /// compares it instead of the counts.
    pub fn tally_changes(&self) -> u64 {
        self.tally_changes
    }

    /// Total powered-down nodes.
    pub fn off_nodes(&self) -> u32 {
        self.off_counts().sum()
    }

    /// Owner of a node, if allocated.
    pub fn owner_of(&self, node: NodeId) -> Option<u64> {
        self.owner.get(node.index()).copied().flatten()
    }

    /// Fault / power state of a node.
    pub fn node_state(&self, node: NodeId) -> NodeState {
        self.states[node.index()]
    }

    /// Nodes held by `owner` (sorted ascending), empty if none.
    pub fn nodes_of(&self, owner: u64) -> &[NodeId] {
        self.held.get(owner).unwrap_or(&[])
    }

    /// Number of nodes held by `owner`.
    pub fn held_by(&self, owner: u64) -> u32 {
        self.nodes_of(owner).len() as u32
    }

    /// Writes into `counts` (cleared first, one entry per class) how the
    /// nodes held by `owner` split over the classes — all zeros when the
    /// owner holds nothing. O(classes × log held): class ranges are
    /// contiguous and held lists sorted ascending, so each class's share
    /// is a partition-point probe, not a per-node walk — this runs on
    /// every start and resize of every job on a heterogeneous cluster,
    /// which is why the caller brings the buffer it keeps anyway.
    pub fn held_class_counts(&self, owner: u64, counts: &mut Vec<u32>) {
        counts.clear();
        let held = self.nodes_of(owner);
        let mut lo = 0;
        for c in 0..self.table.num_classes() {
            let (_, end) = self.table.range(c);
            let hi = lo + held[lo..].partition_point(|n| n.0 < end);
            counts.push((hi - lo) as u32);
            lo = hi;
        }
    }

    /// Whether `n` nodes could be allocated right now from the classes
    /// eligible under `constraint`.
    pub fn can_allocate_in(&self, n: u32, constraint: ClassConstraint) -> bool {
        n <= self.free_nodes_in(constraint)
    }

    /// Class indices eligible under `constraint`, ascending.
    fn eligible_classes(&self, constraint: ClassConstraint) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.table.num_classes()).filter(move |&c| constraint.allows(c, self.table.class(c)))
    }

    /// Allocates `n` nodes to `owner` using lowest-id-first (linear)
    /// selection and returns how many were granted (`n`). An owner may
    /// hold several grants; they accumulate.
    pub fn allocate(&mut self, n: u32, owner: u64) -> Result<u32, AllocError> {
        self.allocate_in(n, owner, ClassConstraint::Any)
    }

    /// Allocates `n` nodes to `owner` from the classes eligible under
    /// `constraint`, lowest-id-first within the eligible ranges, and
    /// returns how many were granted (`n`; the ids are
    /// [`Cluster::nodes_of`]). With [`ClassConstraint::Any`] on a
    /// single-class table this is exactly the historical uniform
    /// allocation. The grant is written straight into the owner's held
    /// list: a first grant allocates that list, a later one only when it
    /// outgrows it.
    pub fn allocate_in(
        &mut self,
        n: u32,
        owner: u64,
        constraint: ClassConstraint,
    ) -> Result<u32, AllocError> {
        let eligible_free = self.free_nodes_in(constraint);
        if n > eligible_free {
            return Err(AllocError::Insufficient {
                requested: n,
                free: eligible_free,
            });
        }
        if n == 0 {
            return Ok(0);
        }
        self.tally_changes += 1;
        let held = self.held.entry(owner);
        let base = held.len();
        held.reserve(n as usize);
        let mut want = n;
        for c in 0..self.table.num_classes() {
            if want == 0 {
                break;
            }
            if !constraint.allows(c, self.table.class(c)) {
                continue;
            }
            // Each class's set holds exactly its placeable ids; draining
            // eligible classes in range order is lowest-id-first
            // selection.
            let took = self.free[c].take_lowest(want, held);
            self.busy_by_class[c] += took;
            want -= took;
        }
        debug_assert_eq!(want, 0);
        for node in &held[base..] {
            self.owner[node.index()] = Some(owner);
        }
        merge_appended(held, base);
        Ok(n)
    }

    /// Returns just-released nodes (ascending, as held lists are) to the
    /// free or unavailable pools, a class's share a word at a time. Nodes
    /// that failed while allocated come back *unavailable*, not free —
    /// they must not be placeable until [`Cluster::repair_node`].
    fn return_nodes(&mut self, nodes: &[NodeId]) {
        if !nodes.is_empty() {
            self.tally_changes += 1;
        }
        debug_assert!(nodes.is_sorted(), "released nodes out of order");
        let below = |id: u32| nodes.partition_point(|n| n.0 < id);
        for c in 0..self.table.num_classes() {
            let (start, end) = self.table.range(c);
            let share = &nodes[below(start)..below(end)];
            let accepts = |n: &&NodeId| self.states[n.index()].accepts_new_work();
            self.free[c].insert_all(share.iter().filter(accepts).map(|n| n.0));
            self.busy_by_class[c] -= share.len() as u32;
        }
    }

    /// Releases every node held by `owner` and returns how many that
    /// was.
    pub fn release_all(&mut self, owner: u64) -> Result<u32, AllocError> {
        let nodes = self
            .held
            .remove(owner)
            .ok_or(AllocError::UnknownOwner(owner))?;
        for &node in &nodes {
            self.owner[node.index()] = None;
        }
        self.return_nodes(&nodes);
        Ok(nodes.len() as u32)
    }

    /// Releases the `n` highest-numbered nodes held by `owner` (a shrink)
    /// and returns how many that was (`n`). Slurm releases from the tail
    /// of the job's node list; keeping the lowest nodes means rank 0's
    /// node survives every shrink — and with classes ordered
    /// efficient-first, shrinks shed the least-efficient classes first.
    /// The owner's list is truncated where it lies.
    pub fn release_tail(&mut self, owner: u64, n: u32) -> Result<u32, AllocError> {
        let held = self
            .held
            .get_mut(owner)
            .ok_or(AllocError::UnknownOwner(owner))?;
        if (n as usize) > held.len() {
            return Err(AllocError::ShrinkTooLarge {
                held: held.len() as u32,
                release: n,
            });
        }
        let keep = held.len() - n as usize;
        let mut released = std::mem::take(&mut self.released);
        released.clear();
        released.extend_from_slice(&held[keep..]);
        held.truncate(keep);
        if keep == 0 {
            self.held.remove(owner);
        }
        for &node in &released {
            self.owner[node.index()] = None;
        }
        self.return_nodes(&released);
        self.released = released;
        Ok(n)
    }

    /// Transfers every node held by `from` to `to` (step 4 of the expansion
    /// protocol: the resizer job's nodes are reattached to the original
    /// job) and returns how many moved. A recipient that held nothing
    /// takes the donor's list as it is.
    pub fn transfer_all(&mut self, from: u64, to: u64) -> Result<u32, AllocError> {
        let nodes = self
            .held
            .remove(from)
            .ok_or(AllocError::UnknownOwner(from))?;
        for &node in &nodes {
            self.owner[node.index()] = Some(to);
        }
        let moved = nodes.len() as u32;
        let held = self.held.entry(to);
        if held.is_empty() {
            *held = nodes;
        } else {
            let base = held.len();
            held.extend_from_slice(&nodes);
            merge_appended(held, base);
        }
        Ok(moved)
    }

    /// The worst (largest) execution-time multiplier among the classes
    /// `owner` holds nodes on, as a `(num, den)` fraction — jobs run at
    /// the speed of their slowest node. Neutral `(1, 1)` when the owner
    /// holds nothing. O(classes × log held): the sorted held list is
    /// probed once per class range. The reference a scheduler that keeps
    /// each job's factor beside its class split is checked against
    /// (`Slurm::check_invariants`), not a per-segment query.
    pub fn worst_slowdown(&self, owner: u64) -> (u32, u32) {
        let held = self.nodes_of(owner);
        let mut worst: Option<(u32, u32)> = None;
        for c in 0..self.table.num_classes() {
            let (start, end) = self.table.range(c);
            let idx = held.partition_point(|n| n.0 < start);
            if idx < held.len() && held[idx].0 < end {
                let cls = self.table.class(c);
                // a/b > w.0/w.1  ⇔  a·w.1 > w.0·b (all positive).
                let slower = worst.is_none_or(|(wn, wd)| {
                    (cls.slow_num as u64) * (wd as u64) > (wn as u64) * (cls.slow_den as u64)
                });
                if slower {
                    worst = Some((cls.slow_num, cls.slow_den));
                }
            }
        }
        worst.unwrap_or((1, 1))
    }

    /// Powers down up to `n` free nodes (S5 suspend), preferring the
    /// *highest* free ids — with classes laid out efficient-first, those
    /// are the least useful nodes to keep warm. Returns how many it
    /// powered down; they stop being placeable until
    /// [`Cluster::wake_all`].
    pub fn power_down(&mut self, n: u32) -> u32 {
        let mut want = n;
        for c in (0..self.table.num_classes()).rev() {
            if want == 0 {
                break;
            }
            let (states, off) = (&mut self.states, &mut self.off_sets[c]);
            want -= self.free[c].take_highest(want, |node| {
                states[node.index()] = NodeState::Off;
                off.insert(node.0);
            });
        }
        if want < n {
            self.tally_changes += 1;
        }
        n - want
    }

    /// Wakes every powered-down node back to `Up` and placeable,
    /// returning how many woke. The caller models the wake-up latency by
    /// delaying this call. Each off set moves into its class's free set
    /// run by run, a word at a time.
    pub fn wake_all(&mut self) -> u32 {
        let mut woke = 0;
        for c in 0..self.table.num_classes() {
            let k = self.off_sets[c].len();
            if k == 0 {
                continue;
            }
            for (start, end) in self.off_sets[c].take_runs() {
                self.states[start as usize..end as usize].fill(NodeState::Up);
                self.free[c].insert_run(start, end);
            }
            woke += k;
        }
        if woke > 0 {
            self.tally_changes += 1;
        }
        woke
    }

    /// An injected failure takes `node` down. Free nodes move to the
    /// unavailable pool immediately; allocated nodes keep their owner
    /// (the returned [`FailOutcome::Busy`] tag tells the scheduler whose
    /// job lost hardware) and rejoin the unavailable pool only when
    /// released. Nodes that are not `Up` are skipped — the fault process
    /// draws victims over the whole id range, so a failure landing on an
    /// already-down or powered-off node is a no-op.
    ///
    /// Either way a down node draws *idle* watts in the
    /// [`crate::PowerMeter`] (it is neither busy nor off) until repaired.
    pub fn fail_node(&mut self, node: NodeId) -> FailOutcome {
        if self.states[node.index()] != NodeState::Up {
            return FailOutcome::Skipped;
        }
        self.states[node.index()] = NodeState::Down;
        match self.owner[node.index()] {
            Some(o) => FailOutcome::Busy(o),
            None => {
                self.free[self.table.class_of(node.0)].remove(node.0);
                FailOutcome::Idle
            }
        }
    }

    /// Repairs a previously failed (`Down`) node back to `Up`, returning
    /// whether it became placeable. Repairs targeting nodes that are not
    /// `Down` (never failed, re-failed events, powered off) are no-ops
    /// that return `false`; an owned `Down` node (possible
    /// only in the window before the scheduler reacts to the failure)
    /// comes back `Up` but not placeable.
    pub fn repair_node(&mut self, node: NodeId) -> bool {
        if self.states[node.index()] != NodeState::Down {
            return false;
        }
        self.states[node.index()] = NodeState::Up;
        let unowned = self.owner[node.index()].is_none();
        if unowned {
            self.free[self.table.class_of(node.0)].insert(node.0);
        }
        unowned
    }

    /// Internal-consistency check used by tests and debug assertions.
    /// This is the one place the O(n) zip-scans survive: the id sets and
    /// the busy tally — every count the cluster answers with — are
    /// re-derived node by node and compared, and every node's class
    /// assignment is checked against the class table's ranges.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check()?;
        if self.table.total_nodes() != self.total_nodes() {
            return Err(format!(
                "class table covers {} nodes, inventory has {}",
                self.table.total_nodes(),
                self.total_nodes()
            ));
        }
        // Per class: free, busy and off nodes counted by the scan.
        let mut counted = vec![[0u32; 3]; self.table.num_classes()];
        for (i, (state, own)) in self.states.iter().zip(self.owner.iter()).enumerate() {
            let c = self.table.class_of(i as u32);
            let (start, end) = self.table.range(c);
            if !(start..end).contains(&(i as u32)) {
                return Err(format!(
                    "node n{i} assigned class {c} whose range [{start}, {end}) disagrees"
                ));
            }
            let placeable = own.is_none() && state.accepts_new_work();
            counted[c][0] += placeable as u32;
            counted[c][1] += own.is_some() as u32;
            if *state == NodeState::Off {
                if own.is_some() {
                    return Err(format!("powered-down node n{i} is owned"));
                }
                counted[c][2] += 1;
                if !self.off_sets[c].contains(i as u32) {
                    return Err(format!("off set of class {c} missing powered-down n{i}"));
                }
            } else if self.off_sets[c].contains(i as u32) {
                return Err(format!("off set of class {c} contains running n{i}"));
            }
            if placeable != self.free[c].contains(i as u32) {
                return Err(format!(
                    "class {c} free set disagrees on n{i}: placeable={placeable}"
                ));
            }
            if let Some(o) = own {
                if !self.nodes_of(*o).contains(&NodeId(i as u32)) {
                    return Err(format!("node n{i} owner {o} not in held list"));
                }
            }
        }
        for (c, &counted) in counted.iter().enumerate() {
            let (start, end) = self.table.range(c);
            for set in [&self.free[c], &self.off_sets[c]] {
                if let Some(bad) = set.iter().find(|n| !(start..end).contains(&n.0)) {
                    return Err(format!(
                        "class {c} set holds {bad:?} outside its range [{start}, {end})"
                    ));
                }
            }
            let kept = [
                self.free[c].len(),
                self.busy_by_class[c],
                self.off_sets[c].len(),
            ];
            if kept != counted {
                return Err(format!(
                    "class {c} free / busy / off {kept:?} != counted {counted:?}"
                ));
            }
        }
        self.held.check()?;
        for (o, nodes) in self.held.iter() {
            for n in nodes {
                if self.owner[n.index()] != Some(o) {
                    return Err(format!("held list of {o} contains foreign node {n:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::MachineClass;

    /// Grants `n` nodes to `owner` and reads back the ids it now holds —
    /// the grant itself for an owner that held nothing.
    fn grant(c: &mut Cluster, n: u32, owner: u64, constraint: ClassConstraint) -> Vec<NodeId> {
        assert_eq!(c.allocate_in(n, owner, constraint), Ok(n));
        c.nodes_of(owner).to_vec()
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn linear_allocation_takes_lowest_ids() {
        let mut c = Cluster::new(8, 16);
        assert_eq!(c.allocate(3, 1), Ok(3));
        assert_eq!(c.nodes_of(1), ids(0..3));
        assert_eq!(c.allocate(2, 2), Ok(2));
        assert_eq!(c.nodes_of(2), ids(3..5));
        assert_eq!(c.free_nodes(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn allocation_fails_when_insufficient() {
        let mut c = Cluster::new(4, 16);
        c.allocate(3, 1).unwrap();
        assert_eq!(
            c.allocate(2, 2),
            Err(AllocError::Insufficient {
                requested: 2,
                free: 1
            })
        );
        // Failed allocation must not disturb state.
        assert_eq!(c.free_nodes(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn release_all_returns_everything() {
        let mut c = Cluster::new(6, 16);
        c.allocate(4, 7).unwrap();
        assert_eq!(c.release_all(7), Ok(4));
        assert!(c.nodes_of(7).is_empty());
        assert_eq!(c.free_nodes(), 6);
        assert_eq!(c.release_all(7), Err(AllocError::UnknownOwner(7)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn release_tail_keeps_lowest_nodes() {
        let mut c = Cluster::new(8, 16);
        c.allocate(6, 3).unwrap();
        assert_eq!(c.release_tail(3, 4), Ok(4));
        assert_eq!(c.nodes_of(3), &[NodeId(0), NodeId(1)]);
        // The four it let go are n2..n5: the next grant is exactly them.
        assert_eq!(grant(&mut c, 4, 4, ClassConstraint::Any), ids(2..6));
        c.check_invariants().unwrap();
        // A second shrink reuses the release buffer; one to nothing
        // forgets the owner.
        assert_eq!(c.release_tail(4, 1), Ok(1));
        assert_eq!(c.nodes_of(4), ids(2..5));
        assert_eq!(c.release_tail(3, 2), Ok(2));
        assert_eq!(c.release_tail(3, 1), Err(AllocError::UnknownOwner(3)));
        assert_eq!(c.free_nodes(), 5);
        c.check_invariants().unwrap();
    }

    #[test]
    fn release_tail_rejects_overshrink() {
        let mut c = Cluster::new(4, 16);
        c.allocate(2, 1).unwrap();
        assert_eq!(
            c.release_tail(1, 3),
            Err(AllocError::ShrinkTooLarge {
                held: 2,
                release: 3
            })
        );
    }

    #[test]
    fn transfer_reattaches_resizer_nodes() {
        let mut c = Cluster::new(10, 16);
        c.allocate(4, 100).unwrap(); // original job
        c.allocate(2, 200).unwrap(); // resizer job
        assert_eq!(c.transfer_all(200, 100), Ok(2));
        assert_eq!(c.nodes_of(100), ids(0..6));
        assert_eq!(c.held_by(100), 6);
        assert_eq!(c.held_by(200), 0);
        assert_eq!(c.owner_of(NodeId(4)), Some(100));
        c.check_invariants().unwrap();
    }

    /// The node ids of each list, as written in the tests below.
    fn lists(ids: &[&[u32]]) -> Vec<Vec<NodeId>> {
        ids.iter()
            .map(|l| l.iter().copied().map(NodeId).collect())
            .collect()
    }

    #[test]
    fn fragmented_grants_take_the_lowest_placeable_ids() {
        // A fragmented allocation pattern: releases leave holes, a
        // failed node must be skipped, a tail release and a second grant
        // to an owner whose list sits above the free ids merge into one
        // sorted list. Every grant is the lowest placeable ids in order.
        let mut c = Cluster::new(32, 16);
        let any = ClassConstraint::Any;
        let mut grants = Vec::new();
        for owner in 0..6u64 {
            grants.push(grant(&mut c, 3 + (owner as u32 % 3), owner, any));
        }
        c.release_all(1).unwrap();
        c.release_all(4).unwrap();
        assert_eq!(c.fail_node(NodeId(2)), FailOutcome::Busy(0));
        grants.push(grant(&mut c, 5, 10, any));
        grants.push(grant(&mut c, 4, 11, any));
        c.release_tail(10, 2).unwrap();
        grants.push(c.nodes_of(10).to_vec());
        grants.push(grant(&mut c, 3, 12, any));
        grants.push(grant(&mut c, 2, 11, any));
        c.check_invariants().unwrap();
        let want = lists(&[
            &[0, 1, 2],
            &[3, 4, 5, 6],
            &[7, 8, 9, 10, 11],
            &[12, 13, 14],
            &[15, 16, 17, 18],
            &[19, 20, 21, 22, 23],
            &[3, 4, 5, 6, 15],
            &[16, 17, 18, 24],
            &[3, 4, 5],
            &[6, 15, 25],
            &[16, 17, 18, 24, 26, 27],
        ]);
        assert_eq!(grants, want);
        assert_eq!((c.free_nodes(), c.allocated_nodes()), (4, 28));
    }

    #[test]
    fn allocated_nodes_is_counter_backed() {
        let mut c = Cluster::new(10, 16);
        assert_eq!(c.fail_node(NodeId(9)), FailOutcome::Idle);
        c.allocate(4, 1).unwrap();
        assert_eq!(c.allocated_nodes(), 4);
        assert_eq!(c.free_nodes(), 5);
        c.release_tail(1, 1).unwrap();
        assert_eq!(c.allocated_nodes(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn multiple_grants_accumulate() {
        let mut c = Cluster::new(8, 16);
        c.allocate(2, 9).unwrap();
        c.allocate(3, 9).unwrap();
        assert_eq!(c.held_by(9), 5);
        assert_eq!(c.nodes_of(9).len(), 5);
        c.check_invariants().unwrap();
    }

    #[test]
    fn owners_sharing_their_low_32_bits_stay_apart() {
        // Both tags address direct slot 3; whoever arrives second lives
        // in the overflow until it lets go of everything.
        let (a, b) = (3u64, (7u64 << 32) | 3);
        let mut c = Cluster::new(12, 16);
        assert_eq!(grant(&mut c, 2, a, ClassConstraint::Any), ids(0..2));
        assert_eq!(grant(&mut c, 3, b, ClassConstraint::Any), ids(2..5));
        assert_eq!((c.held_by(a), c.held_by(b)), (2, 3));
        assert_eq!(c.owner_of(NodeId(2)), Some(b));
        c.check_invariants().unwrap();
        // A second grant finds each owner where it already lives.
        c.allocate(1, b).unwrap();
        c.allocate(1, a).unwrap();
        assert_eq!(c.nodes_of(b), &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(c.nodes_of(a), &[NodeId(0), NodeId(1), NodeId(6)]);
        c.check_invariants().unwrap();
        // A resizer's nodes reattach across the collision, both ways.
        c.allocate(2, 100).unwrap();
        assert_eq!(c.nodes_of(100), ids(7..9));
        assert_eq!(c.transfer_all(100, b), Ok(2));
        assert_eq!(
            c.nodes_of(b),
            ids(2..6).into_iter().chain(ids(7..9)).collect::<Vec<_>>()
        );
        assert_eq!(c.held_by(b), 6);
        assert_eq!(c.transfer_all(b, a), Ok(6));
        assert_eq!(c.nodes_of(a), ids(0..9));
        assert_eq!((c.held_by(a), c.held_by(b)), (9, 0));
        assert_eq!(c.transfer_all(b, a), Err(AllocError::UnknownOwner(b)));
        c.check_invariants().unwrap();
        // The direct occupant shrinks to nothing: the slot is vacant, and
        // the next owner addressed to it — either tag — takes it.
        c.allocate(2, b).unwrap();
        assert_eq!(c.release_tail(a, 9), Ok(9));
        assert_eq!(c.release_tail(a, 1), Err(AllocError::UnknownOwner(a)));
        assert_eq!((c.held_by(a), c.held_by(b)), (0, 2));
        c.check_invariants().unwrap();
        c.allocate(1, a).unwrap();
        assert_eq!((c.held_by(a), c.held_by(b)), (1, 2));
        c.check_invariants().unwrap();
        assert_eq!(c.nodes_of(b), ids(9..11));
        assert_eq!(c.release_all(b), Ok(2));
        assert_eq!(c.release_all(b), Err(AllocError::UnknownOwner(b)));
        assert_eq!(c.nodes_of(a), ids(0..1));
        assert_eq!(c.release_all(a), Ok(1));
        assert_eq!(c.free_nodes(), 12);
        c.check_invariants().unwrap();
    }

    /// A 3-class layout for the heterogeneous tests: 4 standard (n0–n3),
    /// 2 big-memory (n4–n5), 2 GPU (n6–n7).
    fn hetero() -> Cluster {
        let std16 = MachineClass::standard(16);
        let bigmem = MachineClass {
            name: "bigmem",
            memory_gb: 128,
            slow_num: 5,
            slow_den: 4,
            ..std16
        };
        let gpu = MachineClass {
            name: "gpu",
            gpu: true,
            slow_num: 3,
            slow_den: 4,
            ..std16
        };
        Cluster::with_classes(ClassTable::new(&[(std16, 4), (bigmem, 2), (gpu, 2)]))
    }

    #[test]
    fn constrained_allocation_respects_class_ranges() {
        let mut c = hetero();
        assert_eq!(grant(&mut c, 1, 1, ClassConstraint::GpuRequired), ids(6..7));
        assert_eq!(grant(&mut c, 2, 2, ClassConstraint::Class(1)), ids(4..6));
        // Any still takes the globally lowest ids.
        assert_eq!(grant(&mut c, 3, 3, ClassConstraint::Any), ids(0..3));
        // Class 1 is exhausted.
        assert_eq!(
            c.allocate_in(1, 4, ClassConstraint::Class(1)),
            Err(AllocError::Insufficient {
                requested: 1,
                free: 0
            })
        );
        assert!(c.can_allocate_in(1, ClassConstraint::GpuRequired));
        assert!(!c.can_allocate_in(2, ClassConstraint::GpuRequired));
        c.check_invariants().unwrap();
    }

    #[test]
    fn constrained_grants_take_the_lowest_eligible_ids() {
        let mut c = hetero();
        let mut grants = Vec::new();
        grants.push(grant(&mut c, 1, 1, ClassConstraint::GpuRequired));
        grants.push(grant(&mut c, 3, 2, ClassConstraint::Any));
        c.release_all(2).unwrap();
        grants.push(grant(&mut c, 2, 3, ClassConstraint::Class(1)));
        grants.push(grant(&mut c, 4, 4, ClassConstraint::Any));
        c.check_invariants().unwrap();
        let want = lists(&[&[6], &[0, 1, 2], &[4, 5], &[0, 1, 2, 3]]);
        assert_eq!(grants, want);
        assert_eq!(c.free_nodes(), 1);
    }

    #[test]
    fn any_spans_class_boundaries_lowest_first() {
        let mut c = hetero();
        assert_eq!(
            grant(&mut c, 6, 1, ClassConstraint::Any),
            ids(0..6),
            "Any selection crosses the class boundary in global id order"
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn worst_slowdown_is_slowest_held_class() {
        let mut c = hetero();
        assert_eq!(c.worst_slowdown(1), (1, 1), "no nodes held");
        c.allocate_in(2, 1, ClassConstraint::Any).unwrap();
        assert_eq!(c.worst_slowdown(1), (1, 1), "standard nodes only");
        c.allocate_in(1, 1, ClassConstraint::Class(1)).unwrap();
        assert_eq!(c.worst_slowdown(1), (5, 4), "bigmem is the slowest");
        c.allocate_in(1, 2, ClassConstraint::GpuRequired).unwrap();
        assert_eq!(c.worst_slowdown(2), (3, 4), "gpu-only job runs faster");
    }

    /// The nodes now powered down, ascending.
    fn off(c: &Cluster) -> Vec<NodeId> {
        let nodes = (0..c.total_nodes()).map(NodeId);
        nodes
            .filter(|&n| c.node_state(n) == NodeState::Off)
            .collect()
    }

    #[test]
    fn power_down_takes_highest_free_and_wake_restores() {
        let mut c = hetero();
        c.allocate_in(2, 1, ClassConstraint::Any).unwrap(); // n0 n1
        assert_eq!(c.power_down(3), 3);
        assert_eq!(off(&c), vec![NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(c.free_nodes(), 3);
        assert_eq!(c.off_nodes(), 3);
        assert_eq!(c.off_counts().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(c.allocated_nodes(), 2);
        c.check_invariants().unwrap();
        // Off nodes are not placeable.
        assert!(!c.can_allocate_in(1, ClassConstraint::GpuRequired));
        assert_eq!(
            c.allocate_in(4, 2, ClassConstraint::Any),
            Err(AllocError::Insufficient {
                requested: 4,
                free: 3
            })
        );
        assert_eq!(c.wake_all(), 3);
        assert_eq!(c.free_nodes(), 6);
        assert_eq!(c.off_nodes(), 0);
        assert_eq!(grant(&mut c, 1, 2, ClassConstraint::GpuRequired), ids(6..7));
        c.check_invariants().unwrap();
    }

    #[test]
    fn power_cycle_of_a_fragmented_pool_moves_the_same_nodes() {
        // One node per owner, then holes: free are n1 | n3 (standard),
        // n4 n5 (bigmem), n7 (gpu) — the id run n3..n5 spans two classes
        // and must land in two off sets.
        let mut c = hetero();
        for owner in 0..8 {
            c.allocate(1, owner).unwrap();
        }
        for owner in [1, 3, 4, 5, 7] {
            c.release_all(owner).unwrap();
        }
        assert_eq!(c.power_down(4), 4);
        let down = off(&c);
        assert_eq!(down, vec![NodeId(3), NodeId(4), NodeId(5), NodeId(7)]);
        assert_eq!(c.off_counts().collect::<Vec<_>>(), [1, 2, 1]);
        assert_eq!((c.free_nodes(), c.off_nodes()), (1, 4));
        c.check_invariants().unwrap();
        assert_eq!(c.wake_all(), 4);
        assert!(down.iter().all(|&n| c.node_state(n) == NodeState::Up));
        assert_eq!(c.off_counts().collect::<Vec<_>>(), [0, 0, 0]);
        c.check_invariants().unwrap();
        assert_eq!(
            grant(&mut c, 5, 9, ClassConstraint::Any),
            vec![NodeId(1), NodeId(3), NodeId(4), NodeId(5), NodeId(7)]
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn power_down_caps_at_free_pool() {
        let mut c = Cluster::new(4, 16);
        c.allocate(3, 1).unwrap();
        assert_eq!(c.power_down(10), 1);
        assert_eq!(off(&c), vec![NodeId(3)]);
        assert_eq!(c.free_nodes(), 0);
        c.check_invariants().unwrap();
        assert_eq!(c.wake_all(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn fail_free_node_goes_unavailable_and_repair_restores() {
        let mut c = Cluster::new(4, 16);
        assert_eq!(c.fail_node(NodeId(2)), FailOutcome::Idle);
        assert_eq!(c.free_nodes(), 3);
        c.check_invariants().unwrap();
        // Failing a non-Up node is a no-op.
        assert_eq!(c.fail_node(NodeId(2)), FailOutcome::Skipped);
        // Repairing a node that never failed is a no-op.
        assert!(!c.repair_node(NodeId(0)));
        assert_eq!(c.free_nodes(), 3);
        assert!(c.repair_node(NodeId(2)));
        assert_eq!(c.free_nodes(), 4);
        c.check_invariants().unwrap();
    }

    #[test]
    fn fail_allocated_node_returns_unavailable_until_repaired() {
        let mut c = Cluster::new(4, 16);
        c.allocate(2, 9).unwrap();
        assert_eq!(c.fail_node(NodeId(1)), FailOutcome::Busy(9));
        // Still owned: the scheduler decides what happens to the job.
        assert_eq!(c.owner_of(NodeId(1)), Some(9));
        assert_eq!(c.allocated_nodes(), 2);
        c.check_invariants().unwrap();
        // Released nodes route Down ids to the unavailable pool.
        c.release_all(9).unwrap();
        assert_eq!(c.free_nodes(), 3);
        assert_eq!(c.allocated_nodes(), 0);
        assert_eq!(
            grant(&mut c, 3, 10, ClassConstraint::Any),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        c.check_invariants().unwrap();
        assert!(c.repair_node(NodeId(1)));
        assert_eq!(c.free_nodes(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn fail_skips_powered_off_nodes() {
        let mut c = Cluster::new(4, 16);
        c.power_down(1); // n3
        assert_eq!(c.fail_node(NodeId(3)), FailOutcome::Skipped);
        assert!(!c.repair_node(NodeId(3)));
        assert_eq!(c.off_nodes(), 1);
        c.check_invariants().unwrap();
        assert_eq!(c.wake_all(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn repair_of_still_owned_down_node_is_not_placeable() {
        let mut c = Cluster::new(3, 16);
        c.allocate(2, 5).unwrap();
        assert_eq!(c.fail_node(NodeId(0)), FailOutcome::Busy(5));
        // Repair lands before the scheduler killed the job: node is Up
        // again but still owned, so not placeable.
        assert!(!c.repair_node(NodeId(0)));
        assert_eq!(c.free_nodes(), 1);
        c.check_invariants().unwrap();
        c.release_all(5).unwrap();
        assert_eq!(c.free_nodes(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn busy_counters_track_ownership_per_class() {
        let mut c = hetero();
        c.allocate_in(5, 1, ClassConstraint::Any).unwrap(); // n0..n4
        assert_eq!(c.busy_by_class(), &[4, 1, 0]);
        c.release_tail(1, 2).unwrap(); // drops n3 n4
        assert_eq!(c.busy_by_class(), &[3, 0, 0]);
        c.allocate_in(1, 2, ClassConstraint::GpuRequired).unwrap();
        assert_eq!(c.busy_by_class(), &[3, 0, 1]);
        c.release_all(2).unwrap();
        c.release_all(1).unwrap();
        assert_eq!(c.busy_by_class(), &[0, 0, 0]);
        c.check_invariants().unwrap();
    }
}
