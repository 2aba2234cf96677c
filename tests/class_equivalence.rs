//! Machine-class and power-state suite for the cluster layer.
//!
//! The cluster keeps a [`ClassTable`] with one free set and one off set
//! per machine class, and the per-class busy tally the power meter
//! integrates; every count it answers with is read off those. This suite
//! holds that bookkeeping against ground truth: the per-class free-set
//! allocator must agree with a brute-force model (exact node ids, every
//! per-class free, off and usable count) under randomized allocate /
//! release / power / fail / repair sequences that cross class
//! boundaries; [`ClassConstraint::Any`] on a uniform cluster must pick
//! exactly the nodes the unconstrained entry point picks; powered-down
//! nodes are never free and never owned, and come back when woken; and
//! the busy / off counts follow every state change.

use dmr::cluster::{
    ClassConstraint, ClassTable, Cluster, FailOutcome, MachineClass, NodeId, NodeState,
};
use proptest::prelude::*;

/// A brute-force model of the per-class allocator: each node carries its
/// class, owner and state; every query is answered by a full scan.
struct ModelCluster {
    class_of: Vec<usize>,
    owner: Vec<Option<u64>>,
    state: Vec<NodeState>,
}

impl ModelCluster {
    fn new(table: &ClassTable) -> Self {
        let class_of = (0..table.total_nodes())
            .map(|n| table.class_of(n))
            .collect();
        let n = table.total_nodes() as usize;
        ModelCluster {
            class_of,
            owner: vec![None; n],
            state: vec![NodeState::Up; n],
        }
    }

    /// Unowned and up: where a grant may land.
    fn placeable(&self, n: usize) -> bool {
        self.owner[n].is_none() && self.state[n] == NodeState::Up
    }

    /// The nodes of the classes eligible under `constraint`.
    fn eligible<'a>(
        &'a self,
        table: &'a ClassTable,
        constraint: ClassConstraint,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.owner.len())
            .filter(move |&n| constraint.allows(self.class_of[n], table.class(self.class_of[n])))
    }

    fn free_in(&self, table: &ClassTable, constraint: ClassConstraint) -> u32 {
        let eligible = self.eligible(table, constraint);
        eligible.filter(|&n| self.placeable(n)).count() as u32
    }

    /// The eligible classes' size less their unowned nodes that accept
    /// no work (down, off).
    fn usable_in(&self, table: &ClassTable, constraint: ClassConstraint) -> u32 {
        let unavailable = |n: &usize| self.owner[*n].is_none() && self.state[*n] != NodeState::Up;
        let eligible = self.eligible(table, constraint);
        eligible.filter(|n| !unavailable(n)).count() as u32
    }

    /// Lowest-id-first allocation within the eligible classes — the
    /// production allocator's contract.
    fn allocate_in(
        &mut self,
        table: &ClassTable,
        n: u32,
        owner: u64,
        constraint: ClassConstraint,
    ) -> Option<Vec<u32>> {
        if self.free_in(table, constraint) < n {
            return None;
        }
        let picked: Vec<u32> = (self.eligible(table, constraint))
            .filter(|&i| self.placeable(i))
            .take(n as usize)
            .map(|i| i as u32)
            .collect();
        for &i in &picked {
            self.owner[i as usize] = Some(owner);
        }
        Some(picked)
    }

    fn release_all(&mut self, owner: u64) {
        for slot in &mut self.owner {
            if *slot == Some(owner) {
                *slot = None;
            }
        }
    }

    /// The ids `owner` holds, ascending.
    fn held(&self, owner: u64) -> Vec<u32> {
        (0..self.owner.len() as u32)
            .filter(|&i| self.owner[i as usize] == Some(owner))
            .collect()
    }

    fn release_tail(&mut self, owner: u64, n: u32) {
        for &i in self.held(owner).iter().rev().take(n as usize) {
            self.owner[i as usize] = None;
        }
    }

    /// Highest-id-first suspension of free nodes — the production
    /// power-down order. Returns how many it suspended.
    fn power_down(&mut self, n: u32) -> u32 {
        let free: Vec<u32> = (0..self.owner.len() as u32)
            .filter(|&i| self.placeable(i as usize))
            .collect();
        let downed = &free[free.len().saturating_sub(n as usize)..];
        for &i in downed {
            self.state[i as usize] = NodeState::Off;
        }
        downed.len() as u32
    }

    /// The suspended nodes, ascending.
    fn off(&self) -> Vec<u32> {
        let off = (0..self.state.len()).filter(|&i| self.state[i] == NodeState::Off);
        off.map(|i| i as u32).collect()
    }

    /// Suspended nodes per class.
    fn off_by_class(&self, table: &ClassTable) -> Vec<u32> {
        let mut off = vec![0; table.num_classes()];
        for (n, _) in self
            .state
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == NodeState::Off)
        {
            off[self.class_of[n]] += 1;
        }
        off
    }

    fn wake_all(&mut self) -> u32 {
        let off = self.state.iter_mut().filter(|s| **s == NodeState::Off);
        off.map(|s| *s = NodeState::Up).count() as u32
    }

    /// Takes an up node down; any other node is skipped.
    fn fail_node(&mut self, n: usize) -> FailOutcome {
        if self.state[n] != NodeState::Up {
            return FailOutcome::Skipped;
        }
        self.state[n] = NodeState::Down;
        self.owner[n].map_or(FailOutcome::Idle, FailOutcome::Busy)
    }

    /// Brings a down node back up: whether it is placeable now.
    fn repair_node(&mut self, n: usize) -> bool {
        if self.state[n] != NodeState::Down {
            return false;
        }
        self.state[n] = NodeState::Up;
        self.owner[n].is_none()
    }
}

fn three_class_table(standard: u32, big: u32, gpu: u32) -> ClassTable {
    let mut gpu_class = MachineClass::standard(8);
    gpu_class.gpu = true;
    ClassTable::new(&[
        (MachineClass::standard(8), standard),
        (MachineClass::standard(8), big),
        (gpu_class, gpu),
    ])
}

fn constraint_for(sel: u8) -> ClassConstraint {
    match sel % 4 {
        0 | 1 => ClassConstraint::Any,
        2 => ClassConstraint::Class((sel as usize / 4) % 3),
        _ => ClassConstraint::GpuRequired,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Randomized allocate / release / power / fail / repair sequences over a three-class machine: the per-class free-set
    /// cluster must agree with the brute-force model on every
    /// allocation, tail release and power-down (the exact node ids, read
    /// through `nodes_of`, not just the count), on every fault outcome,
    /// on every per-class off count and every free and usable count
    /// under each constraint, and keep its internal invariants after
    /// every operation.
    #[test]
    fn per_class_free_sets_match_the_brute_force_model(
        standard in 1u32..12,
        big in 1u32..8,
        gpu in 1u32..6,
        ops in proptest::collection::vec((0u8..7, 0u8..16, 1u32..10), 1..40),
    ) {
        let table = three_class_table(standard, big, gpu);
        let mut cluster = Cluster::with_classes(table.clone());
        let mut model = ModelCluster::new(&table);
        let mut next_owner = 1u64;
        let mut live: Vec<u64> = Vec::new();

        for (op, sel, n) in ops {
            let busy = cluster.busy_by_class().to_vec();
            let off: Vec<u32> = cluster.off_counts().collect();
            let changes = cluster.tally_changes();
            match op {
                0 => {
                    let constraint = constraint_for(sel);
                    let got = cluster.allocate_in(n, next_owner, constraint).ok().map(|count| {
                        let held = cluster.nodes_of(next_owner);
                        assert_eq!(count as usize, held.len());
                        held.iter().map(|node| node.0).collect::<Vec<u32>>()
                    });
                    let want = model.allocate_in(&table, n, next_owner, constraint);
                    let granted = got.is_some();
                    prop_assert_eq!(got, want, "allocate_in({}, {:?}) diverged", n, constraint);
                    if granted {
                        live.push(next_owner);
                        next_owner += 1;
                    }
                }
                1 => {
                    if let Some(&owner) = live.get(sel as usize % live.len().max(1)) {
                        let _ = cluster.release_all(owner);
                        model.release_all(owner);
                        live.retain(|&o| o != owner);
                    }
                }
                2 => {
                    if let Some(&owner) = live.get(sel as usize % live.len().max(1)) {
                        let held = cluster.held_by(owner);
                        // Tail releases must leave at least one node.
                        let k = n.min(held.saturating_sub(1));
                        if k > 0 {
                            prop_assert_eq!(cluster.release_tail(owner, k), Ok(k));
                            model.release_tail(owner, k);
                            let kept: Vec<u32> =
                                cluster.nodes_of(owner).iter().map(|node| node.0).collect();
                            prop_assert_eq!(kept, model.held(owner), "release_tail diverged");
                        }
                    }
                }
                3 => {
                    prop_assert_eq!(cluster.power_down(n), model.power_down(n), "power_down diverged");
                    let off: Vec<u32> = (0..cluster.total_nodes())
                        .filter(|&i| cluster.node_state(NodeId(i)) == NodeState::Off)
                        .collect();
                    prop_assert_eq!(off, model.off(), "the powered-down nodes diverged");
                }
                4 => {
                    prop_assert_eq!(cluster.wake_all(), model.wake_all(), "wake_all diverged");
                }
                // A node picked across the whole id range, as the fault
                // process picks its victims.
                op => {
                    let node = (u32::from(sel) * 7 + n) % cluster.total_nodes();
                    let i = node as usize;
                    match op {
                        5 => prop_assert_eq!(cluster.fail_node(NodeId(node)), model.fail_node(i)),
                        _ => prop_assert_eq!(
                            cluster.repair_node(NodeId(node)),
                            model.repair_node(i)
                        ),
                    }
                }
            }
            prop_assert_eq!(cluster.off_counts().collect::<Vec<_>>(), model.off_by_class(&table));
            // The power meter is charged only when this counter moves.
            let moved = cluster.busy_by_class() != busy || !cluster.off_counts().eq(off);
            prop_assert!(
                !moved || cluster.tally_changes() != changes,
                "op {} moved the tallies but not the change counter", op
            );
            for constraint in [
                ClassConstraint::Any,
                ClassConstraint::Class(0),
                ClassConstraint::Class(1),
                ClassConstraint::Class(2),
                ClassConstraint::GpuRequired,
            ] {
                prop_assert_eq!(
                    cluster.free_nodes_in(constraint),
                    model.free_in(&table, constraint),
                    "free count diverged under {:?}",
                    constraint
                );
                prop_assert_eq!(
                    cluster.usable_in(constraint),
                    model.usable_in(&table, constraint),
                    "usable count diverged under {:?}",
                    constraint
                );
            }
            cluster.check_invariants()?;
        }
    }

    /// On a single-class machine, the constrained entry points collapse
    /// to the legacy ones: `allocate_in(Any)` picks exactly the nodes
    /// `allocate` picks.
    #[test]
    fn any_constraint_is_identity_on_uniform_clusters(
        nodes in 1u32..64,
        n in 1u32..16,
    ) {
        let mut legacy = Cluster::new(nodes, 8);
        let mut constrained = Cluster::new(nodes, 8);
        let a = legacy.allocate(n.min(nodes), 7).expect("fits");
        let b = constrained
            .allocate_in(n.min(nodes), 7, ClassConstraint::Any)
            .expect("fits");
        prop_assert_eq!(a, b);
        prop_assert_eq!(legacy.nodes_of(7), constrained.nodes_of(7));
    }

    /// Power state transitions keep the node-state invariant the class
    /// refactor added to `check_invariants`: off nodes are never free,
    /// never owned, and come back when woken.
    #[test]
    fn power_transitions_preserve_invariants(
        nodes in 2u32..32,
        down in 1u32..8,
    ) {
        let mut cluster = Cluster::with_classes(three_class_table(nodes, nodes / 2 + 1, 2));
        let total = cluster.total_nodes();
        let downed = cluster.power_down(down);
        prop_assert!(downed <= down);
        prop_assert_eq!(cluster.off_nodes(), downed);
        prop_assert_eq!(cluster.free_nodes() + downed, total);
        cluster.check_invariants()?;
        prop_assert_eq!(cluster.wake_all(), downed);
        prop_assert_eq!(cluster.free_nodes(), total);
        cluster.check_invariants()?;
    }
}

/// Allocation, power and fault changes keep the per-class busy / off
/// counts the power meter samples in sync with the ground truth.
#[test]
fn busy_and_off_tallies_follow_state_changes() {
    let mut cluster = Cluster::with_classes(three_class_table(4, 2, 2));
    assert_eq!(cluster.busy_by_class(), &[0, 0, 0]);
    cluster
        .allocate_in(2, 1, ClassConstraint::GpuRequired)
        .expect("gpu nodes free");
    assert_eq!(cluster.busy_by_class(), &[0, 0, 2]);
    cluster
        .allocate_in(3, 2, ClassConstraint::Any)
        .expect("fits");
    assert_eq!(cluster.busy_by_class(), &[3, 0, 2]);
    let _ = cluster.release_all(1);
    assert_eq!(cluster.busy_by_class(), &[3, 0, 0]);
    // Highest free ids suspend first: the lone power-down hits node 7
    // (the top of the GPU class).
    let downed = cluster.power_down(1);
    assert_eq!(downed, 1);
    assert_eq!(cluster.off_counts().sum::<u32>(), downed);
    cluster.check_invariants().unwrap();
    // A powered-down node cannot fail; waking pulls it out of the off
    // pool, and the power meter sees that. Failing a free node removes
    // it from placement without touching the off tallies.
    let off_node = NodeId(7);
    assert_eq!(cluster.table().class_of_node(off_node), 2);
    assert_eq!(cluster.fail_node(off_node), FailOutcome::Skipped);
    let changes = cluster.tally_changes();
    assert_eq!(cluster.wake_all(), 1);
    assert_eq!(
        cluster.off_counts().nth(2),
        Some(0),
        "waking leaves the off pool"
    );
    assert_ne!(
        cluster.tally_changes(),
        changes,
        "the power meter must see it"
    );
    cluster.check_invariants().unwrap();
    let _ = cluster.release_all(2);
    let before_off: u32 = cluster.off_counts().sum();
    assert_eq!(cluster.fail_node(NodeId(0)), FailOutcome::Idle);
    assert_eq!(cluster.off_counts().sum::<u32>(), before_off);
    assert!(cluster.repair_node(NodeId(0)));
    cluster.check_invariants().unwrap();
}
