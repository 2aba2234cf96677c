//! Bitmap set of free node ids.
//!
//! The allocation hot path wants "the `n` lowest-numbered placeable
//! nodes" without walking the whole inventory. Node ids are small dense
//! integers (each class is a contiguous id range), so [`FreeSet`] keeps
//! one bit per id in 64-bit words and remembers the lowest word that may
//! hold one. Taking the lowest `n` ids costs a push per id plus a word
//! operation per word it reads; inserting or removing an id is one bit
//! flip. A 65 536-node class costs 8 KiB however fragmented its pool is.

use std::iter::from_fn;

use crate::node::NodeId;

/// A set of node ids, one bit per id.
#[derive(Clone, Debug, Default)]
pub struct FreeSet {
    /// Bit `id % 64` of word `id / 64` is set iff `id` is in the set.
    /// Grown to cover the highest id inserted.
    words: Vec<u64>,
    /// Every word below this index is zero.
    low: usize,
    len: u32,
}

/// The word holding `id` and `id`'s bit in it.
fn locate(id: u32) -> (usize, u64) {
    ((id / 64) as usize, 1 << (id % 64))
}

/// The lowest `k` set bits of `w` (all of them if it has no more).
fn lowest_bits(w: u64, k: u32) -> u64 {
    if w.count_ones() <= k {
        return w;
    }
    let mut rest = w;
    for _ in 0..k {
        rest &= rest - 1;
    }
    w & !rest
}

/// Appends the ids of the set bits of word `i`, ascending; contiguous
/// bits — what a grant from an unfragmented pool takes — as one range.
fn push_ids(out: &mut Vec<NodeId>, i: usize, mut bits: u64) {
    let (lo, base) = (bits.trailing_zeros(), i as u32 * 64);
    let run = bits.checked_shr(lo).unwrap_or(0);
    if run & run.wrapping_add(1) == 0 {
        out.extend((base + lo..base + lo + run.count_ones()).map(NodeId));
        return;
    }
    while bits != 0 {
        out.push(NodeId(base + bits.trailing_zeros()));
        bits &= bits - 1;
    }
}

/// The first id at or above `from` whose bit in `words`, flipped by
/// `flip`, is set: the next member (`flip == 0`) or the next non-member
/// (`flip == !0`; `None` past the last word).
fn next_bit(words: &[u64], from: u32, flip: u64) -> Option<u32> {
    let mut i = (from / 64) as usize;
    let mut w = (words.get(i)? ^ flip) & (u64::MAX << (from % 64));
    while w == 0 {
        i += 1;
        w = words.get(i)? ^ flip;
    }
    Some(i as u32 * 64 + w.trailing_zeros())
}

/// The maximal `[start, end)` runs of the ids set in `words`, ascending.
fn runs(words: Vec<u64>) -> impl Iterator<Item = (u32, u32)> {
    let mut from = 0;
    from_fn(move || {
        let start = next_bit(&words, from, 0)?;
        from = next_bit(&words, start, u64::MAX).unwrap_or(words.len() as u32 * 64);
        Some((start, from))
    })
}

impl FreeSet {
    /// The empty set.
    pub fn new() -> Self {
        FreeSet::default()
    }

    /// The set `{start, …, end-1}`: one run, or none when `end <= start`
    /// (the pair [`FreeSet::take_runs`] yields).
    pub fn from_run((start, end): (u32, u32)) -> Self {
        let mut s = FreeSet::new();
        s.insert_all(start..end);
        s
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of maximal runs of consecutive ids (fragmentation metric;
    /// test aid).
    pub fn run_count(&self) -> usize {
        runs(self.words.clone()).count()
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        let (i, bit) = locate(id);
        self.words.get(i).is_some_and(|w| w & bit != 0)
    }

    /// Sets `bits` in word `i` and returns how many were clear. Inserting
    /// a present id is a logic error (debug assertion); it is not counted
    /// twice.
    fn or_word(&mut self, i: usize, bits: u64) -> u32 {
        self.words.resize(self.words.len().max(i + 1), 0);
        let word = &mut self.words[i];
        debug_assert!(*word & bits == 0, "ids {bits:#x} of word {i} present");
        let added = (bits & !*word).count_ones();
        *word |= bits;
        self.len += added;
        self.low = self.low.min(i);
        added
    }

    /// Inserts `id`.
    pub fn insert(&mut self, id: u32) {
        self.insert_all([id]);
    }

    /// Inserts `ids` and returns how many were absent, with one word
    /// write per run of them that shares a word (the ascending ids of a
    /// held list share 64 at a time).
    pub fn insert_all(&mut self, ids: impl IntoIterator<Item = u32>) -> u32 {
        let (mut i, mut bits, mut added) = (0, 0, 0);
        for (word, bit) in ids.into_iter().map(locate) {
            if word != i && bits != 0 {
                added += self.or_word(i, std::mem::take(&mut bits));
            }
            (i, bits) = (word, bits | bit);
        }
        if bits != 0 {
            added += self.or_word(i, bits);
        }
        added
    }

    /// Inserts the whole run `[start, end)`.
    pub fn insert_run(&mut self, start: u32, end: u32) {
        self.insert_all(start..end);
    }

    /// Removes `id` if present, returning whether it was.
    pub fn remove(&mut self, id: u32) -> bool {
        let present = self.contains(id);
        if present {
            let (i, bit) = locate(id);
            self.words[i] &= !bit;
            self.len -= 1;
        }
        present
    }

    /// Removes the `n` lowest ids (fewer if the set runs out), appending
    /// them ascending to `out`, and returns how many. This is the
    /// linear-selection hot path: it reads from the lowest non-empty word
    /// up, a word at a time, and the ids land in the caller's list — a
    /// grant allocates nothing here.
    pub fn take_lowest(&mut self, n: u32, out: &mut Vec<NodeId>) -> u32 {
        let mut left = n;
        while left > 0 {
            // Empty words are the allocated stretches of a fragmented pool.
            let Some(skip) = self.words[self.low..].iter().position(|&w| w != 0) else {
                self.low = self.words.len();
                break;
            };
            let i = self.low + skip;
            let bits = lowest_bits(self.words[i], left);
            self.words[i] &= !bits;
            left -= bits.count_ones();
            push_ids(out, i, bits);
            self.low = if self.words[i] == 0 { i + 1 } else { i };
        }
        self.len -= n - left;
        n - left
    }

    /// Removes the `n` highest ids (fewer if the set runs out), handing
    /// each to `taken`, highest first, and returns how many. The mirror
    /// of [`FreeSet::take_lowest`], used by power-down: with classes
    /// ordered efficient-first in ascending id ranges, the highest free
    /// ids are the least useful nodes to keep warm.
    pub fn take_highest(&mut self, n: u32, mut taken: impl FnMut(NodeId)) -> u32 {
        let mut left = n;
        for i in (self.low..self.words.len()).rev() {
            if left == 0 {
                break;
            }
            while left > 0 && self.words[i] != 0 {
                let bit = 63 - self.words[i].leading_zeros();
                self.words[i] &= !(1 << bit);
                taken(NodeId(i as u32 * 64 + bit));
                left -= 1;
            }
        }
        self.len -= n - left;
        n - left
    }

    /// Empties the set, yielding its maximal `[start, end)` runs
    /// ascending — what [`FreeSet::insert_run`] takes, so a whole set
    /// moves into another a word at a time instead of id by id.
    pub fn take_runs(&mut self) -> impl Iterator<Item = (u32, u32)> {
        runs(std::mem::take(self).words)
    }

    /// All ids, ascending (invariant checks and tests).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        runs(self.words.clone()).flat_map(|(start, end)| (start..end).map(NodeId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(s: &FreeSet) -> Vec<u32> {
        s.iter().map(|n| n.0).collect()
    }

    /// What `take` appends behind an id already in the caller's list
    /// (which it must leave alone), checked against the count returned.
    fn appended(take: impl FnOnce(&mut Vec<NodeId>) -> u32) -> Vec<u32> {
        let mut out = vec![NodeId(u32::MAX)];
        let taken = take(&mut out);
        assert_eq!(out[0], NodeId(u32::MAX), "the caller's ids moved");
        assert_eq!(taken as usize, out.len() - 1);
        out[1..].iter().map(|n| n.0).collect()
    }

    fn lowest(s: &mut FreeSet, n: u32) -> Vec<u32> {
        appended(|out| s.take_lowest(n, out))
    }

    /// The ids `take_highest` hands out, ascending, checked against the
    /// count returned and for coming highest first.
    fn highest(s: &mut FreeSet, n: u32) -> Vec<u32> {
        let mut taken = Vec::new();
        let count = s.take_highest(n, |node| taken.push(node.0));
        assert_eq!(count as usize, taken.len());
        assert!(
            taken.windows(2).all(|w| w[0] > w[1]),
            "{taken:?} not highest first"
        );
        taken.reverse();
        taken
    }

    #[test]
    fn full_set_is_one_run() {
        let s = FreeSet::from_run((0, 5));
        assert_eq!(s.len(), 5);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![0, 1, 2, 3, 4]);
        assert_eq!(FreeSet::from_run((0, 0)).run_count(), 0);
    }

    #[test]
    fn remove_splits_and_insert_merges() {
        let mut s = FreeSet::from_run((0, 10));
        assert!(s.remove(4));
        assert_eq!(s.run_count(), 2);
        assert!(!s.contains(4));
        assert!(!s.remove(4), "double remove");
        // Reinsert merges the two runs back into one.
        s.insert(4);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn insert_merges_only_adjacent() {
        let mut s = FreeSet::new();
        s.insert(5);
        s.insert(9);
        assert_eq!(s.run_count(), 2);
        s.insert(7); // adjacent to neither
        assert_eq!(s.run_count(), 3);
        s.insert(6); // bridges 5..6 and 7..8
        assert_eq!(s.run_count(), 2);
        s.insert(8); // bridges everything
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn insert_run_merges_both_neighbours() {
        let mut s = FreeSet::new();
        s.insert_run(0, 3);
        s.insert_run(7, 10);
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.len(), 6);
        // Bridges both: one run 0..10.
        s.insert_run(3, 7);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len(), 10);
        assert_eq!(ids(&s), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn insert_run_matches_per_id_inserts() {
        // Drive the same interleaved insert/remove pattern through the
        // run and per-id paths; the sets must be identical.
        let mut runs = FreeSet::new();
        let mut per_id = FreeSet::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut absent: Vec<u32> = (0..256).collect();
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if absent.is_empty() {
                break;
            }
            let i = (x as usize) % absent.len();
            let start = absent[i];
            let mut end = start + 1;
            while end < 256 && absent.contains(&end) && (end - start) < 5 {
                end += 1;
            }
            runs.insert_run(start, end);
            for id in start..end {
                per_id.insert(id);
            }
            absent.retain(|&id| !(start..end).contains(&id));
            assert_eq!(ids(&runs), ids(&per_id));
            assert_eq!(runs.run_count(), per_id.run_count());
            assert_eq!(runs.len(), per_id.len());
        }
    }

    #[test]
    fn take_lowest_spans_runs() {
        let mut s = FreeSet::from_run((0, 10));
        for id in [0, 3, 4, 8] {
            s.remove(id);
        }
        // Free: 1 2 | 5 6 7 | 9
        assert_eq!(lowest(&mut s, 4), vec![1, 2, 5, 6]);
        assert_eq!(ids(&s), vec![7, 9]);
        // Taking more than remains returns what exists.
        assert_eq!(lowest(&mut s, 5), vec![7, 9]);
        assert!(s.is_empty());
    }

    #[test]
    fn take_lowest_partial_run_keeps_tail() {
        let mut s = FreeSet::from_run((0, 8));
        assert_eq!(lowest(&mut s, 3), vec![0, 1, 2]);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn take_highest_spans_runs() {
        let mut s = FreeSet::from_run((0, 10));
        for id in [0, 3, 4, 8] {
            s.remove(id);
        }
        // Free: 1 2 | 5 6 7 | 9
        assert_eq!(highest(&mut s, 3), vec![6, 7, 9]);
        assert_eq!(ids(&s), vec![1, 2, 5]);
        // Taking more than remains returns what exists.
        assert_eq!(highest(&mut s, 5), vec![1, 2, 5]);
        assert!(s.is_empty());
    }

    #[test]
    fn take_highest_partial_run_keeps_head() {
        let mut s = FreeSet::from_run((0, 8));
        assert_eq!(highest(&mut s, 3), vec![5, 6, 7]);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn take_runs_empties_the_set_run_by_run() {
        let mut s = FreeSet::from_run((0, 10));
        for id in [0, 3, 4, 8] {
            s.remove(id);
        }
        let mut other = FreeSet::new();
        other.insert(0);
        let runs: Vec<(u32, u32)> = s.take_runs().collect();
        assert_eq!(runs, vec![(1, 3), (5, 8), (9, 10)]);
        assert!(s.is_empty());
        assert_eq!(s.run_count(), 0);
        for (start, end) in runs {
            other.insert_run(start, end);
        }
        assert_eq!(ids(&other), vec![0, 1, 2, 5, 6, 7, 9]);
        assert_eq!(other.run_count(), 3, "0 merged with the run 1..3");
    }

    #[test]
    fn scales_to_65k_nodes_without_fragment_blowup() {
        // The 65,536-node bench grid cell: a full machine is one run, a
        // full drain-and-refill stays one run, and nothing overflows.
        let mut s = FreeSet::from_run((0, 65_536));
        assert_eq!(s.len(), 65_536);
        assert_eq!(s.run_count(), 1);
        let mut got = Vec::new();
        assert_eq!(s.take_lowest(65_536, &mut got), 65_536);
        assert_eq!(got.len(), 65_536);
        assert!(s.is_empty());
        for id in 0..65_536 {
            s.insert(id);
        }
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len(), 65_536);
    }

    /// The maximal `[start, end)` runs of an ascending id sequence.
    fn runs_of(ids: impl Iterator<Item = u32>) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for id in ids {
            match runs.last_mut() {
                Some((_, end)) if *end == id => *end += 1,
                _ => runs.push((id, id + 1)),
            }
        }
        runs
    }

    /// Drives every operation with random ids of `[lo, hi)` through a
    /// [`FreeSet`] and a `BTreeSet<u32>` at once, comparing them after
    /// each operation (and the whole contents every `full_every` ops).
    fn matches_reference(lo: u32, hi: u32, ops: usize, full_every: usize) {
        use std::collections::BTreeSet;
        let mut s = FreeSet::new();
        let mut reference = BTreeSet::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D ^ u64::from(lo) << 32 ^ u64::from(hi);
        for op in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = lo + (x % u64::from(hi - lo)) as u32;
            let k = (x >> 20) as u32 % 140;
            match (x >> 40) % 16 {
                0..=3 => {
                    if !reference.contains(&id) {
                        s.insert(id);
                        reference.insert(id);
                    }
                }
                4 => {
                    // Every third absent id of a window, as a release
                    // with drained nodes left out returns them.
                    let ids: Vec<u32> = (id..hi.min(id + 3 * k))
                        .step_by(3)
                        .filter(|n| !reference.contains(n))
                        .collect();
                    assert_eq!(s.insert_all(ids.iter().copied()), ids.len() as u32);
                    reference.extend(ids);
                }
                5..=6 => {
                    // The longest absent run from `id` up to `k` ids.
                    let end = (id..hi.min(id + k + 1))
                        .find(|n| reference.contains(n))
                        .unwrap_or(hi.min(id + k + 1));
                    if end > id {
                        s.insert_run(id, end);
                        reference.extend(id..end);
                    }
                }
                7..=10 => assert_eq!(s.remove(id), reference.remove(&id)),
                11..=12 => {
                    let want: Vec<u32> = reference.iter().copied().take(k as usize).collect();
                    want.iter().for_each(|n| assert!(reference.remove(n)));
                    assert_eq!(lowest(&mut s, k), want);
                }
                13..=14 => {
                    let mut want: Vec<u32> =
                        reference.iter().rev().copied().take(k as usize).collect();
                    want.iter().for_each(|n| assert!(reference.remove(n)));
                    want.reverse();
                    assert_eq!(highest(&mut s, k), want);
                }
                _ => {
                    let want = runs_of(reference.iter().copied());
                    assert_eq!(s.take_runs().collect::<Vec<_>>(), want);
                    assert!(s.is_empty() && s.iter().next().is_none());
                    // Put them back, so the set keeps its history.
                    want.iter()
                        .for_each(|&(start, end)| s.insert_run(start, end));
                }
            }
            assert_eq!(s.len() as usize, reference.len());
            for n in [id.saturating_sub(1), id, id + 1, id + 64] {
                assert_eq!(s.contains(n), reference.contains(&n), "contains({n})");
            }
            if op % full_every == 0 {
                assert_eq!(ids(&s), reference.iter().copied().collect::<Vec<_>>());
                assert_eq!(s.run_count(), runs_of(reference.iter().copied()).len());
            }
        }
        assert_eq!(ids(&s), reference.iter().copied().collect::<Vec<_>>());
        assert_eq!(s.run_count(), runs_of(reference.iter().copied()).len());
    }

    #[test]
    fn randomised_ops_match_reference_set() {
        matches_reference(0, 64, 4000, 1);
        // Starts and ends off a word boundary, as a class range does.
        matches_reference(403, 531, 6000, 1);
        matches_reference(0, 65_536, 20_000, 1000);
    }
}
