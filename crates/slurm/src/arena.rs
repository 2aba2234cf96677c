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
    live: usize,
}

impl JobArena {
    pub fn new() -> Self {
        JobArena::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots backing the arena (live + free) — capacity telemetry.
    pub fn capacity(&self) -> usize {
        self.slots.len()
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
        self.live += 1;
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

    pub fn contains(&self, id: JobId) -> bool {
        self.get(id).is_some()
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
        self.live -= 1;
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

/// A side table keyed by [`JobId`]: values sit in a flat `Vec` addressed
/// by the id's slot, with the generation validated on every access — the
/// [`JobArena`] layout for state kept *beside* the job records (the
/// scheduler's running keys, the `dmr-core` driver's per-job tables). A
/// stale id (its job pruned, its slot re-tenanted) misses the generation
/// compare exactly as it would miss a tree lookup. The table is as long
/// as the highest slot ever mapped, which the arena keeps as dense as
/// the live job set.
#[derive(Debug)]
pub struct JobMap<T> {
    slots: Vec<Option<(u32, T)>>,
    live: usize,
}

impl<T> Default for JobMap<T> {
    fn default() -> Self {
        JobMap {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> JobMap<T> {
    /// Maps `id` to `value`. The slot must be vacant: callers remove a
    /// job's entry before its id can be recycled.
    pub fn insert(&mut self, id: JobId, value: T) {
        let idx = id.slot() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slots[idx].is_none(), "{id:?} slot already mapped");
        self.slots[idx] = Some((id.generation(), value));
        self.live += 1;
    }

    pub fn get(&self, id: JobId) -> Option<&T> {
        match self.slots.get(id.slot() as usize)? {
            Some((generation, value)) if *generation == id.generation() => Some(value),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, id: JobId) -> Option<&mut T> {
        match self.slots.get_mut(id.slot() as usize)? {
            Some((generation, value)) if *generation == id.generation() => Some(value),
            _ => None,
        }
    }

    pub fn remove(&mut self, id: JobId) -> Option<T> {
        let slot = self.slots.get_mut(id.slot() as usize)?;
        match slot {
            Some((generation, _)) if *generation == id.generation() => {
                self.live -= 1;
                slot.take().map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// Number of mapped ids.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
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
            time_limit: None,
            expected_runtime: Span::from_secs(60),
            dependency: None,
            base_priority: 0,
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
        assert_eq!(a.len(), 10);
        assert_eq!(a.capacity(), 10);
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
        assert_eq!(a.capacity(), 1, "table stays as dense as the live set");
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
            assert_eq!(literal.len(), retired.len());
            assert_eq!(literal.capacity(), retired.capacity());
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
        assert!(a.is_empty());
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
}
