//! Compute-node identity and state.

use std::fmt;

/// Identifier of a compute node (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:03}", self.0)
    }
}

/// State of a node. Jobs may only be placed on `Up` nodes. `Down` nodes
/// failed ([`crate::Cluster::fail_node`]): one that was allocated keeps
/// serving its owner until released, and none accepts new work until
/// repaired. `Off` nodes were powered down to the S5 suspend state by an
/// energy policy: they draw suspend power and must be woken (with a
/// latency) before accepting work again.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NodeState {
    #[default]
    Up,
    Down,
    Off,
}

impl NodeState {
    pub fn accepts_new_work(self) -> bool {
        matches!(self, NodeState::Up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(7)), "node007");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn only_up_accepts_work() {
        assert!(NodeState::Up.accepts_new_work());
        assert!(!NodeState::Down.accepts_new_work());
        assert!(!NodeState::Off.accepts_new_work());
    }
}
