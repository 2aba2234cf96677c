//! Owner tag → held node list, addressed by slot instead of searched.
//!
//! Every allocate, release, transfer and size query names its owner by an
//! opaque `u64` tag. `dmr-slurm` passes job ids, whose low 32 bits are a
//! dense arena slot index, so the table keeps one *direct* slot per
//! low-32-bit value and reaches an owner's list with one indexed load and
//! one compare of the full tag. Nothing requires tags to be dense or
//! distinct in their low bits, though: an owner whose direct slot is held
//! by another live owner goes to an ordered *overflow* map, and stays
//! there until it releases everything. Each tag lives in exactly one of
//! the two, and only non-empty lists are stored.
//!
//! The table owns every held list, and a list is allocated once: a grant
//! is written into the list [`OwnerTable::entry`] hands out, a shrink
//! truncates it where it lies, a transfer moves the donor's list to a
//! recipient that had none, and a release drops it. Nothing is copied
//! out; readers borrow ([`OwnerTable::get`]).
//!
//! The direct table is as long as the largest low-32-bit value among the
//! tags it has held, so callers that mint their own tags should keep them
//! small.

use std::collections::BTreeMap;

use crate::node::NodeId;

#[derive(Clone, Debug, Default)]
pub(crate) struct OwnerTable {
    direct: Vec<Option<(u64, Vec<NodeId>)>>,
    overflow: BTreeMap<u64, Vec<NodeId>>,
}

/// The direct slot a tag is addressed by: its low 32 bits.
fn slot_of(tag: u64) -> usize {
    tag as u32 as usize
}

/// Restores the order of `held` after ids were appended at `base`: the
/// part before and the part from `base` are each ascending, and in the
/// common case the appended part also starts above the old tail
/// (lowest-id-first selection grants ascending runs, and a job's later
/// grants usually sit above its first ones), which one compare shows —
/// against the O(held log held) sort it avoids.
pub(crate) fn merge_appended(held: &mut [NodeId], base: usize) {
    if base > 0 && base < held.len() && held[base - 1] > held[base] {
        held.sort_unstable();
    }
}

impl OwnerTable {
    fn in_direct(&self, tag: u64) -> bool {
        matches!(self.direct.get(slot_of(tag)), Some(Some((t, _))) if *t == tag)
    }

    /// Nodes held by `tag`, sorted ascending; `None` if it holds none.
    pub(crate) fn get(&self, tag: u64) -> Option<&[NodeId]> {
        match self.direct.get(slot_of(tag)) {
            Some(Some((t, nodes))) if *t == tag => Some(nodes),
            _ => self.overflow.get(&tag).map(Vec::as_slice),
        }
    }

    /// The stored list of `tag`. A caller that empties it must
    /// [`OwnerTable::remove`] the tag.
    pub(crate) fn get_mut(&mut self, tag: u64) -> Option<&mut Vec<NodeId>> {
        if self.in_direct(tag) {
            self.direct[slot_of(tag)].as_mut().map(|(_, nodes)| nodes)
        } else {
            self.overflow.get_mut(&tag)
        }
    }

    /// The stored list of `tag`, opened empty — in its direct slot if
    /// vacant, in the overflow otherwise — when it holds none. A caller
    /// that leaves it empty must [`OwnerTable::remove`] the tag.
    pub(crate) fn entry(&mut self, tag: u64) -> &mut Vec<NodeId> {
        let idx = slot_of(tag);
        if idx >= self.direct.len() {
            self.direct.resize_with(idx + 1, || None);
        }
        // An owner already in the overflow stays there until it lets go
        // of everything, even once its direct slot falls vacant.
        if self.direct[idx].is_none() && !self.overflow.contains_key(&tag) {
            self.direct[idx] = Some((tag, Vec::new()));
        }
        match &mut self.direct[idx] {
            Some((t, nodes)) if *t == tag => nodes,
            _ => self.overflow.entry(tag).or_default(),
        }
    }

    /// Removes `tag`, returning the nodes it held.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<Vec<NodeId>> {
        if self.in_direct(tag) {
            self.direct[slot_of(tag)].take().map(|(_, nodes)| nodes)
        } else {
            self.overflow.remove(&tag)
        }
    }

    /// Every owner with its nodes: direct slots in slot order, then the
    /// overflow in tag order — deterministic for a given history.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[NodeId])> {
        let direct = self.direct.iter().flatten();
        let overflow = self.overflow.iter();
        direct
            .map(|(tag, nodes)| (*tag, nodes.as_slice()))
            .chain(overflow.map(|(tag, nodes)| (*tag, nodes.as_slice())))
    }

    /// Structural invariants: a direct slot holds only a tag addressed to
    /// it, no tag sits in both structures, no stored list is empty, and
    /// every list is strictly ascending.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (idx, entry) in self.direct.iter().enumerate() {
            let Some((tag, _)) = entry else { continue };
            if slot_of(*tag) != idx {
                return Err(format!("owner {tag} stored in direct slot {idx}"));
            }
            if self.overflow.contains_key(tag) {
                return Err(format!(
                    "owner {tag} in both the direct table and the overflow"
                ));
            }
        }
        for (tag, nodes) in self.iter() {
            if nodes.is_empty() {
                return Err(format!("owner {tag} stored with an empty node list"));
            }
            if !nodes.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("held list of {tag} not strictly ascending"));
            }
        }
        Ok(())
    }
}
