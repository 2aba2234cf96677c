//! Sorted interval set of free node ids.
//!
//! The allocation hot path wants "the `n` lowest-numbered placeable
//! nodes" without walking the whole inventory. [`FreeSet`] keeps the free
//! ids as maximal half-open runs `[start, end)` in a `BTreeMap`, so
//! taking the lowest `n` ids costs O(k + log r) for `k` granted nodes
//! spread over the first runs (r = number of runs), and releasing a node
//! is an O(log r) insert-with-merge. Contiguous clusters — the common
//! case under the paper's `select/linear` placement — collapse to a
//! handful of runs regardless of node count.

use std::collections::BTreeMap;

use crate::node::NodeId;

/// A sorted set of node ids stored as maximal `[start, end)` runs.
#[derive(Clone, Debug, Default)]
pub struct FreeSet {
    /// Run start -> run end (exclusive). Runs are disjoint, non-empty and
    /// non-adjacent (adjacent runs are merged on insert).
    runs: BTreeMap<u32, u32>,
    len: u32,
}

impl FreeSet {
    /// The empty set.
    pub fn new() -> Self {
        FreeSet::default()
    }

    /// The full set `{0, 1, …, n-1}` — one run.
    pub fn full(n: u32) -> Self {
        let mut runs = BTreeMap::new();
        if n > 0 {
            runs.insert(0, n);
        }
        FreeSet { runs, len: n }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of maximal runs (fragmentation metric; test aid).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        self.runs
            .range(..=id)
            .next_back()
            .is_some_and(|(_, &end)| id < end)
    }

    /// Inserts `id`, merging with adjacent runs. Inserting a present id is
    /// a logic error (debug assertion); the set stays consistent either
    /// way.
    pub fn insert(&mut self, id: u32) {
        debug_assert!(!self.contains(id), "inserting present id {id}");
        if self.contains(id) {
            return;
        }
        let extends_pred = matches!(
            self.runs.range_mut(..=id).next_back(),
            Some((_, end)) if *end == id
        );
        if extends_pred {
            let succ_end = self.runs.remove(&(id + 1));
            let (_, end) = self
                .runs
                .range_mut(..=id)
                .next_back()
                .expect("predecessor run exists");
            *end = succ_end.unwrap_or(id + 1);
        } else if let Some(succ_end) = self.runs.remove(&(id + 1)) {
            self.runs.insert(id, succ_end);
        } else {
            self.runs.insert(id, id + 1);
        }
        self.len += 1;
    }

    /// Inserts the whole run `[start, end)` at once, merging with the
    /// adjacent runs. The ids must all be absent (debug assertion) — this
    /// is the bulk-release hot path: returning a completed job's `n`
    /// contiguous nodes is one O(log r) splice instead of `n`
    /// insert-with-merge calls.
    pub fn insert_run(&mut self, start: u32, end: u32) {
        debug_assert!(start < end, "empty run [{start}, {end})");
        debug_assert!(
            (start..end).all(|id| !self.contains(id)),
            "run [{start}, {end}) overlaps the set"
        );
        let mut lo = start;
        let mut hi = end;
        if let Some((&ps, &pe)) = self.runs.range(..start).next_back() {
            if pe == start {
                self.runs.remove(&ps);
                lo = ps;
            }
        }
        if let Some(&se) = self.runs.get(&end) {
            self.runs.remove(&end);
            hi = se;
        }
        self.runs.insert(lo, hi);
        self.len += end - start;
    }

    /// Removes `id` if present (splitting its run), returning whether it
    /// was.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some((&start, &end)) = self.runs.range(..=id).next_back() else {
            return false;
        };
        if id >= end {
            return false;
        }
        self.runs.remove(&start);
        if start < id {
            self.runs.insert(start, id);
        }
        if id + 1 < end {
            self.runs.insert(id + 1, end);
        }
        self.len -= 1;
        true
    }

    /// Removes the `n` lowest ids (fewer if the set runs out), appending
    /// them ascending to `out`, and returns how many. This is the
    /// linear-selection hot path: whole runs are consumed per step, so
    /// the cost is O(runs touched + log r), not O(total nodes), and the
    /// ids land in the caller's list — a grant allocates nothing here.
    pub fn take_lowest(&mut self, n: u32, out: &mut Vec<NodeId>) -> u32 {
        let mut taken = 0;
        while taken < n {
            let Some((&start, &end)) = self.runs.iter().next() else {
                break;
            };
            let take = (n - taken).min(end - start);
            out.extend((start..start + take).map(NodeId));
            self.runs.remove(&start);
            if start + take < end {
                self.runs.insert(start + take, end);
            }
            taken += take;
        }
        self.len -= taken;
        taken
    }

    /// Removes the `n` highest ids (fewer if the set runs out), appending
    /// them ascending to `out`, and returns how many. The mirror of
    /// [`FreeSet::take_lowest`], used by power-down: with classes ordered
    /// efficient-first in ascending id ranges, the highest free ids are
    /// the least useful nodes to keep warm.
    pub fn take_highest(&mut self, n: u32, out: &mut Vec<NodeId>) -> u32 {
        let base = out.len();
        let mut taken = 0;
        while taken < n {
            let Some((&start, &end)) = self.runs.iter().next_back() else {
                break;
            };
            let take = (n - taken).min(end - start);
            out.extend((end - take..end).map(NodeId));
            if end - take > start {
                *self.runs.get_mut(&start).expect("run exists") = end - take;
            } else {
                self.runs.remove(&start);
            }
            taken += take;
        }
        self.len -= taken;
        out[base..].sort_unstable();
        taken
    }

    /// Empties the set, yielding its maximal `[start, end)` runs
    /// ascending — what [`FreeSet::insert_run`] takes, so a whole set
    /// moves into another run by run instead of id by id.
    pub fn take_runs(&mut self) -> impl Iterator<Item = (u32, u32)> {
        self.len = 0;
        std::mem::take(&mut self.runs).into_iter()
    }

    /// All ids, ascending (invariant checks and tests).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs.iter().flat_map(|(&s, &e)| (s..e).map(NodeId))
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

    fn highest(s: &mut FreeSet, n: u32) -> Vec<u32> {
        appended(|out| s.take_highest(n, out))
    }

    #[test]
    fn full_set_is_one_run() {
        let s = FreeSet::full(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![0, 1, 2, 3, 4]);
        assert_eq!(FreeSet::full(0).run_count(), 0);
    }

    #[test]
    fn remove_splits_and_insert_merges() {
        let mut s = FreeSet::full(10);
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
        let mut s = FreeSet::full(10);
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
        let mut s = FreeSet::full(8);
        assert_eq!(lowest(&mut s, 3), vec![0, 1, 2]);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn take_highest_spans_runs() {
        let mut s = FreeSet::full(10);
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
        let mut s = FreeSet::full(8);
        assert_eq!(highest(&mut s, 3), vec![5, 6, 7]);
        assert_eq!(s.run_count(), 1);
        assert_eq!(ids(&s), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn take_runs_empties_the_set_run_by_run() {
        let mut s = FreeSet::full(10);
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
        let mut s = FreeSet::full(65_536);
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

    #[test]
    fn randomised_ops_match_reference_set() {
        use std::collections::BTreeSet;
        let mut s = FreeSet::new();
        let mut reference = BTreeSet::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x % 64) as u32;
            if x & (1 << 40) == 0 {
                if !reference.contains(&id) {
                    s.insert(id);
                    reference.insert(id);
                }
            } else {
                assert_eq!(s.remove(id), reference.remove(&id));
            }
            assert_eq!(s.len() as usize, reference.len());
        }
        assert_eq!(ids(&s), reference.iter().copied().collect::<Vec<_>>());
    }
}
