//! Generation-checked slab arena for job records.
//!
//! The scheduler's job table used to be a `BTreeMap<JobId, Job>`: every
//! lookup on the submit/start/complete path paid a pointer-chasing tree
//! descent and every insert/remove a rebalance. [`JobArena`] stores jobs
//! in a flat `Vec` of slots addressed directly by the low 32 bits of
//! [`JobId`] (see [`JobId::slot`]); lookups are one bounds check, one
//! generation compare and one indexed load. Freed slots go on a LIFO
//! free list and are recycled with their generation bumped, so the table
//! stays as dense as the *live* job set no matter how many jobs a
//! streaming workload retires — and a stale id held by a caller after
//! its job was pruned misses the generation check instead of aliasing
//! the slot's new tenant.
//!
//! Under [`crate::slurm::SlurmConfig::retain_completed`] the scheduler
//! never removes records, so no slot recycles, generations stay 0 and
//! ids remain dense and monotonic — the accounting-friendly behaviour
//! the non-streaming API keeps.

use std::ops::{Index, IndexMut};

use crate::job::{Job, JobId};

#[derive(Debug, Default)]
struct Slot {
    generation: u32,
    job: Option<Job>,
}

/// Slab of [`Job`] records addressed by [`JobId`] `(generation, slot)`
/// pairs. See the module docs for the design.
#[derive(Debug, Default)]
pub struct JobArena {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
}

impl JobArena {
    pub fn new() -> Self {
        JobArena::default()
    }

    /// Allocates a slot, derives the [`JobId`] for it, and stores the
    /// record `build` produces for that id.
    pub fn insert_with(&mut self, build: impl FnOnce(JobId) -> Job) -> JobId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("job arena overflow");
                self.slots.push(Slot::default());
                slot
            }
        };
        let entry = &mut self.slots[slot as usize];
        debug_assert!(entry.job.is_none(), "free slot occupied");
        let id = JobId::pack(entry.generation, slot);
        entry.job = Some(build(id));
        id
    }

    /// Draws the id the next [`JobArena::insert_with`] would hand out and
    /// retires it unused: the slot stays next in line, under a bumped
    /// generation — the state an insert followed by a
    /// [`JobArena::remove`] leaves, for a job whose record nothing would
    /// ever read.
    pub fn retire_next_id(&mut self) -> JobId {
        let slot = match self.free.last() {
            Some(&slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("job arena overflow");
                self.slots.push(Slot::default());
                self.free.push(slot);
                slot
            }
        };
        let entry = &mut self.slots[slot as usize];
        let id = JobId::pack(entry.generation, slot);
        entry.generation = entry.generation.wrapping_add(1);
        id
    }

    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.slots
            .get(id.slot() as usize)
            .filter(|s| s.generation == id.generation())
            .and_then(|s| s.job.as_ref())
    }

    pub fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.slots
            .get_mut(id.slot() as usize)
            .filter(|s| s.generation == id.generation())
            .and_then(|s| s.job.as_mut())
    }

    /// Removes the record, recycling its slot under a bumped generation.
    pub fn remove(&mut self, id: JobId) -> Option<Job> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        if slot.generation != id.generation() || slot.job.is_none() {
            return None;
        }
        let job = slot.job.take();
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot());
        job
    }

    /// Live records in slot (storage) order. Scheduling decisions never
    /// depend on this order — ordering-sensitive consumers sort by
    /// [`Job::seq`] or walk an index.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.slots.iter().filter_map(|s| s.job.as_ref())
    }
}

impl Index<JobId> for JobArena {
    type Output = Job;

    fn index(&self, id: JobId) -> &Job {
        self.get(id).expect("job id not in arena")
    }
}

impl IndexMut<JobId> for JobArena {
    fn index_mut(&mut self, id: JobId) -> &mut Job {
        self.get_mut(id).expect("job id not in arena")
    }
}

/// A side table keyed by [`JobId`], sized by what it holds: the
/// job arena's addressing for state kept *beside* the job records (the
/// scheduler's running keys and class splits, the `dmr-core` driver's
/// per-job tables).
///
/// Two levels. `index` has one 8-byte entry per arena slot ever mapped —
/// the generation it was mapped under and the position of its value —
/// and `dense` holds the values, packed, each beside its slot. A lookup
/// is the generation compare and one indexed load more than a flat
/// table; in exchange a table that maps the 20 running jobs of a machine
/// with thousands queued costs 8 B per queued job, not a value each.
/// `remove` swap-removes from `dense` and re-points the index entry of
/// the value it moved. A stale id (its job pruned, its slot re-tenanted)
/// misses the generation compare exactly as it would miss a tree lookup.
/// The table offers no iteration, so the order of `dense`, which depends
/// on the removal history, is never observed.
#[derive(Debug)]
pub struct JobMap<T> {
    /// Per slot: `(generation, position in dense)`, position
    /// [`JobMap::VACANT`] when the slot maps nothing.
    index: Vec<(u32, u32)>,
    /// The values, each with the slot that maps it.
    dense: Vec<(u32, T)>,
}

impl<T> Default for JobMap<T> {
    fn default() -> Self {
        JobMap {
            index: Vec::new(),
            dense: Vec::new(),
        }
    }
}

impl<T> JobMap<T> {
    const VACANT: u32 = u32::MAX;

    /// Position in `dense` of `id`'s value, if `id` is mapped.
    fn position(&self, id: JobId) -> Option<usize> {
        match self.index.get(id.slot() as usize) {
            Some(&(generation, pos)) if generation == id.generation() && pos != Self::VACANT => {
                Some(pos as usize)
            }
            _ => None,
        }
    }

    /// Maps `id` to `value`. The slot must be vacant: callers remove a
    /// job's entry before its id can be recycled.
    pub fn insert(&mut self, id: JobId, value: T) {
        let slot = id.slot();
        let idx = slot as usize;
        if idx >= self.index.len() {
            self.index.resize(idx + 1, (0, Self::VACANT));
        }
        debug_assert_eq!(
            self.index[idx].1,
            Self::VACANT,
            "{id:?} slot already mapped"
        );
        let pos = u32::try_from(self.dense.len()).expect("job map overflow");
        self.index[idx] = (id.generation(), pos);
        self.dense.push((slot, value));
    }

    pub fn get(&self, id: JobId) -> Option<&T> {
        let pos = self.position(id)?;
        Some(&self.dense[pos].1)
    }

    pub fn get_mut(&mut self, id: JobId) -> Option<&mut T> {
        let pos = self.position(id)?;
        Some(&mut self.dense[pos].1)
    }

    pub fn remove(&mut self, id: JobId) -> Option<T> {
        let pos = self.position(id)?;
        self.index[id.slot() as usize].1 = Self::VACANT;
        let (_, value) = self.dense.swap_remove(pos);
        if let Some(&(moved, _)) = self.dense.get(pos) {
            self.index[moved as usize].1 = pos as u32;
        }
        Some(value)
    }

    /// Number of mapped ids.
    pub fn len(&self) -> usize {
        self.dense.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }
}

impl<T> Index<JobId> for JobMap<T> {
    type Output = T;

    fn index(&self, id: JobId) -> &T {
        self.get(id).expect("job id not mapped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use dmr_sim::{SimTime, Span};

    fn record(id: JobId, seq: u64) -> Job {
        Job {
            id,
            seq,
            detached_nodes: 0,
            name: format!("j{seq}").into(),
            state: JobState::Pending,
            requested_nodes: 1,
            expected_runtime: Span::from_secs(60),
            dependency: None,
            boosted: false,
            resize: None,
            constraint: dmr_cluster::ClassConstraint::Any,
            submit_time: SimTime::ZERO,
            start_time: None,
            end_time: None,
            reconfigurations: 0,
        }
    }

    #[test]
    fn ids_stay_dense_and_monotonic_without_removal() {
        let mut a = JobArena::new();
        let ids: Vec<_> = (0..10).map(|i| a.insert_with(|id| record(id, i))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.slot(), i as u32);
            assert_eq!(id.generation(), 0);
            assert_eq!(a[*id].seq, i as u64);
        }
        assert_eq!(a.iter().count(), 10);
        assert_eq!(a.slots.len(), 10);
    }

    #[test]
    fn recycled_slots_bump_the_generation() {
        let mut a = JobArena::new();
        let first = a.insert_with(|id| record(id, 0));
        assert!(a.remove(first).is_some());
        let second = a.insert_with(|id| record(id, 1));
        assert_eq!(second.slot(), first.slot(), "slot recycled");
        assert_eq!(second.generation(), first.generation() + 1);
        // The stale id cannot see (or evict) the new tenant.
        assert!(a.get(first).is_none());
        assert!(a.remove(first).is_none());
        assert_eq!(a[second].seq, 1);
        assert_eq!(a.slots.len(), 1, "table stays as dense as the live set");
    }

    #[test]
    fn retiring_an_id_is_an_insert_and_a_remove() {
        let mut literal = JobArena::new();
        let mut retired = JobArena::new();
        // Once on a fresh arena (the slot is created), once on a
        // recycled slot, once with a live record in between.
        for round in 0..3 {
            let id = literal.insert_with(|id| record(id, round));
            assert!(literal.remove(id).is_some());
            assert_eq!(retired.retire_next_id(), id);
            if round == 1 {
                let a = literal.insert_with(|id| record(id, 9));
                let b = retired.insert_with(|id| record(id, 9));
                assert_eq!(a, b);
            }
            assert_eq!(literal.iter().count(), retired.iter().count());
            assert_eq!(literal.slots.len(), retired.slots.len());
        }
        let a = literal.insert_with(|id| record(id, 10));
        let b = retired.insert_with(|id| record(id, 10));
        assert_eq!(a, b, "the id stream did not shift");
    }

    #[test]
    fn out_of_range_and_double_remove_are_safe() {
        let mut a = JobArena::new();
        let id = a.insert_with(|id| record(id, 0));
        assert!(a.get(JobId(999)).is_none());
        assert!(a.remove(id).is_some());
        assert!(a.remove(id).is_none());
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn iter_yields_live_records_only() {
        let mut a = JobArena::new();
        let ids: Vec<_> = (0..5).map(|i| a.insert_with(|id| record(id, i))).collect();
        a.remove(ids[1]);
        a.remove(ids[3]);
        let seqs: Vec<_> = a.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 2, 4]);
    }

    #[test]
    fn a_swap_remove_relocates_the_last_value() {
        let ids: Vec<JobId> = (0..4).map(|slot| JobId::pack(0, slot)).collect();
        let mut map = JobMap::default();
        for (i, &id) in ids.iter().enumerate() {
            map.insert(id, i * 10);
        }
        // Removing the first value moves the last one into its place.
        assert_eq!(map.remove(ids[0]), Some(0));
        assert_eq!(map.get(ids[3]), Some(&30));
        *map.get_mut(ids[3]).unwrap() += 1;
        assert_eq!(map[ids[3]], 31);
        // Removing the last value moves nothing.
        assert_eq!(map.remove(ids[2]), Some(20));
        assert_eq!((map[ids[1]], map[ids[3]]), (10, 31));
        assert_eq!(map.remove(ids[3]), Some(31));
        assert_eq!(map.remove(ids[1]), Some(10));
        assert!(map.is_empty());
        assert!(ids.iter().all(|&id| map.get(id).is_none()));
    }

    #[test]
    fn a_stale_generation_misses_the_slots_new_tenant() {
        let old = JobId::pack(0, 3);
        let new = JobId::pack(1, 3);
        let mut map = JobMap::default();
        map.insert(old, "old");
        assert!(
            map.get(new).is_none(),
            "a later generation is not mapped yet"
        );
        assert_eq!(map.remove(old), Some("old"));
        map.insert(new, "new");
        assert!(map.get(old).is_none());
        assert!(map.get_mut(old).is_none());
        assert!(
            map.remove(old).is_none(),
            "a stale id cannot evict the tenant"
        );
        assert_eq!(map[new], "new");
        assert_eq!(map.len(), 1);
        // A vacant slot misses under its last generation too.
        assert_eq!(map.remove(new), Some("new"));
        assert!(map.get(new).is_none());
        assert!(map.get(JobId::pack(0, 99)).is_none(), "out of range");
    }

    /// Generated insert / remove / get sequences over ids an arena hands
    /// out (slots reused under bumped generations), against a `HashMap`.
    #[test]
    fn job_map_matches_a_hash_map_under_slot_reuse() {
        use std::collections::HashMap;
        // SplitMix64: a dependency-free, seedable op generator.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        for seed in 0..32u64 {
            let mut rng = seed;
            let mut arena = JobArena::new();
            let mut map = JobMap::default();
            let mut model: HashMap<JobId, u64> = HashMap::new();
            let mut live: Vec<JobId> = Vec::new();
            let mut stale: Vec<JobId> = Vec::new();
            let mut recycled = 0;
            for op in 0..400u64 {
                let r = next(&mut rng);
                match r % 8 {
                    // Insert, more often while the live set is small.
                    0..=2 if live.len() < 48 => {
                        let id = arena.insert_with(|id| record(id, op));
                        recycled += u32::from(id.generation() > 0);
                        map.insert(id, op);
                        model.insert(id, op);
                        live.push(id);
                    }
                    3 | 4 if !live.is_empty() => {
                        let id = live.swap_remove((r >> 8) as usize % live.len());
                        assert!(arena.remove(id).is_some());
                        assert_eq!(map.remove(id), model.remove(&id), "seed {seed} op {op}");
                        stale.push(id);
                    }
                    5 if !live.is_empty() => {
                        let id = live[(r >> 8) as usize % live.len()];
                        *map.get_mut(id).unwrap() += 1;
                        *model.get_mut(&id).unwrap() += 1;
                    }
                    6 if !stale.is_empty() => {
                        let id = stale[(r >> 8) as usize % stale.len()];
                        assert!(map.remove(id).is_none(), "seed {seed} op {op}");
                        assert!(map.get_mut(id).is_none(), "seed {seed} op {op}");
                    }
                    _ => {}
                }
                assert_eq!(map.len(), model.len(), "seed {seed} op {op}");
                assert_eq!(map.is_empty(), model.is_empty());
                for (id, value) in &model {
                    assert_eq!(map.get(*id), Some(value), "seed {seed} op {op}");
                }
                for id in &stale {
                    assert!(map.get(*id).is_none(), "seed {seed} op {op}: {id:?}");
                }
            }
            assert!(recycled > 0, "seed {seed}: no slot was reused");
        }
    }
}
