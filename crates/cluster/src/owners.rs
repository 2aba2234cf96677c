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

/// Appends `granted` to the sorted `held` list, skipping the re-sort in
/// the common case where the appended run is itself ascending and starts
/// above the current tail (lowest-id-first selection grants ascending
/// runs, and a job's later grants usually sit above its first ones). The
/// check is O(grant) against the O(held log held) sort it avoids.
fn append_sorted(held: &mut Vec<NodeId>, granted: &[NodeId]) {
    let in_order = granted.windows(2).all(|w| w[0] <= w[1])
        && match (held.last(), granted.first()) {
            (Some(&last), Some(&first)) => last < first,
            _ => true,
        };
    held.extend_from_slice(granted);
    if !in_order {
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

    /// Adds `granted` to the nodes held by `tag`, keeping the list sorted.
    pub(crate) fn append(&mut self, tag: u64, granted: &[NodeId]) {
        if granted.is_empty() {
            return;
        }
        if let Some(held) = self.get_mut(tag) {
            return append_sorted(held, granted);
        }
        // A new owner: its direct slot if vacant, the overflow otherwise.
        let idx = slot_of(tag);
        if idx >= self.direct.len() {
            self.direct.resize_with(idx + 1, || None);
        }
        match &mut self.direct[idx] {
            vacant @ None => *vacant = Some((tag, granted.to_vec())),
            Some(_) => {
                self.overflow.insert(tag, granted.to_vec());
            }
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
