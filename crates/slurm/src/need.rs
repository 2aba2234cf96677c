//! The need view of the pending index: the queued (non-resizer) jobs
//! grouped by `requested_nodes`.
//!
//! Both questions asked of it are keyed by a request — "who needs
//! between `free` and `free + R` nodes" at every reconfiguring point
//! (§IV), "which needs fit in `free`" in every EASY pass — and a request
//! worth asking about is a small dense integer no larger than the
//! machine. So [`NeedView`] is a flat array of [`NeedBucket`]s indexed
//! by request, grown on demand up to the node count, whose buckets
//! survive when they empty, plus an occupancy bitmap with one summary
//! word per 64 words that finds the non-empty ones by bit scans.
//!
//! Each bucket holds its jobs in two orders. The scheduling order is a
//! [`KeyLog`], like the global pending order: a submission sorts last,
//! so it is appended. The estimate order stays a `BTreeSet`: estimates
//! arrive in no order and are refreshed while a job waits, so it is
//! neither append-only nor bounded by the machine — on a deep queue a
//! bucket holds thousands of jobs, and a sorted array there would pay a
//! move of the whole bucket on every submit, start and refresh.
//!
//! A request wider than the machine reaches the view only through a
//! direct `Slurm::submit` (the driver clamps requests on arrival). Such
//! requests are filed in a short list sorted by request beside the
//! array, so no request sizes it.

use std::collections::BTreeSet;
use std::iter::successors;

use dmr_sim::Span;

use crate::arena::JobArena;
use crate::index::{KeyLog, PendingIndex, PendingKey};
use crate::job::JobId;

/// The queued jobs requesting one node count, held in both orders the
/// need view is asked in. The scheduling order carries the whole
/// [`PendingKey`], so its first job costs no second seek in the pending
/// order; the estimate order carries the id alone (16 bytes an entry)
/// and finds the key again in the job record.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NeedBucket {
    by_key: KeyLog,
    by_estimate: BTreeSet<(Span, JobId)>,
}

impl NeedBucket {
    fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// The bucket's first job in scheduling order.
    pub(crate) fn first(&self) -> Option<PendingKey> {
        self.by_key.first()
    }

    /// The jobs behind `after` that an EASY pass has to look at when a
    /// job of this need is harmless up to the estimate `limit`: every
    /// job within the limit (in estimate order, not scheduling order) —
    /// or, with no limit, the first job in scheduling order alone,
    /// flagged `true`: it stands for the rest of the bucket, which takes
    /// its place one job at a time.
    pub(crate) fn candidates<'a>(
        &'a self,
        after: PendingKey,
        limit: Option<Span>,
        jobs: &'a JobArena,
    ) -> impl Iterator<Item = (PendingKey, bool)> + 'a {
        let first = match limit {
            None => self.by_key.next_after(Some(after)),
            Some(_) => None,
        };
        let within = limit.map(|limit| self.by_estimate.range(..=(limit, JobId(u64::MAX))));
        let within = within
            .into_iter()
            .flatten()
            .map(|&(_, id)| PendingIndex::key(&jobs[id]));
        first.map(|key| (key, true)).into_iter().chain(
            within
                .filter(move |&key| key > after)
                .map(|key| (key, false)),
        )
    }
}

/// Queued jobs by request: a bucket array indexed by request up to the
/// machine's node count, an occupancy bitmap over it, and the rare
/// requests wider than the machine beside it (see the module docs).
#[derive(Debug)]
pub(crate) struct NeedView {
    /// Bucket `n` holds the jobs requesting `n` nodes. Grown to cover
    /// the largest request filed, at most `nodes + 1` long; a bucket
    /// stays when it empties.
    buckets: Vec<NeedBucket>,
    /// Bit `n % 64` of word `n / 64` is set iff bucket `n` is non-empty.
    occupied: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` is set iff `occupied[w]` is
    /// non-zero.
    summary: Vec<u64>,
    /// The non-empty buckets of requests above `nodes`, ascending.
    wide: Vec<(u32, NeedBucket)>,
    /// The machine's node count: the largest request the array holds.
    nodes: u32,
}

impl NeedView {
    pub(crate) fn new(nodes: u32) -> Self {
        NeedView {
            buckets: Vec::new(),
            occupied: Vec::new(),
            summary: Vec::new(),
            wide: Vec::new(),
            nodes,
        }
    }

    /// The machine's node count the view was made for.
    pub(crate) fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Files the job `key` / `estimate` under `need`.
    pub(crate) fn insert(&mut self, need: u32, key: PendingKey, estimate: Span) {
        let bucket = if need <= self.nodes {
            let n = need as usize;
            if n >= self.buckets.len() {
                self.buckets.resize_with(n + 1, NeedBucket::default);
                self.occupied.resize((n + 1).div_ceil(64), 0);
                self.summary.resize(self.occupied.len().div_ceil(64), 0);
            }
            self.occupied[n / 64] |= 1 << (n % 64);
            self.summary[n / 4096] |= 1 << (n / 64 % 64);
            &mut self.buckets[n]
        } else {
            let at = self.wide.partition_point(|&(n, _)| n < need);
            if self.wide.get(at).is_none_or(|&(n, _)| n != need) {
                self.wide.insert(at, (need, NeedBucket::default()));
            }
            &mut self.wide[at].1
        };
        bucket.by_key.insert(key);
        bucket.by_estimate.insert((estimate, key.id));
    }

    /// The bucket `need` is filed under, for a change that keeps it
    /// non-empty.
    fn filed_mut(&mut self, need: u32) -> Option<&mut NeedBucket> {
        if need <= self.nodes {
            self.buckets.get_mut(need as usize)
        } else {
            let at = self.wide.binary_search_by_key(&need, |&(n, _)| n).ok()?;
            Some(&mut self.wide[at].1)
        }
    }

    /// Re-keys the job filed under `need` from `old` to `key` in its
    /// bucket's scheduling order (a boost); whether it was filed there.
    pub(crate) fn rekey(&mut self, need: u32, old: PendingKey, key: PendingKey) -> bool {
        let Some(bucket) = self.filed_mut(need) else {
            return false;
        };
        let moved = bucket.by_key.remove(old);
        if moved {
            bucket.by_key.insert(key);
        }
        moved
    }

    /// Re-files the job `id` filed under `need` from estimate `old` to
    /// `new` in its bucket's estimate order; whether it was filed there.
    pub(crate) fn reestimate(&mut self, need: u32, id: JobId, old: Span, new: Span) -> bool {
        let Some(bucket) = self.filed_mut(need) else {
            return false;
        };
        let moved = bucket.by_estimate.remove(&(old, id));
        if moved {
            bucket.by_estimate.insert((new, id));
        }
        moved
    }

    /// Removes the job `key` / `estimate` filed under `need`; whether it
    /// was filed there.
    pub(crate) fn remove(&mut self, need: u32, key: PendingKey, estimate: Span) -> bool {
        let n = need as usize;
        let (bucket, wide_at) = if need <= self.nodes {
            match self.buckets.get_mut(n) {
                Some(bucket) => (bucket, None),
                None => return false,
            }
        } else {
            match self.wide.binary_search_by_key(&need, |&(n, _)| n) {
                Ok(at) => (&mut self.wide[at].1, Some(at)),
                Err(_) => return false,
            }
        };
        let removed = bucket.by_key.remove(key) & bucket.by_estimate.remove(&(estimate, key.id));
        if bucket.is_empty() {
            match wide_at {
                Some(at) => drop(self.wide.remove(at)),
                None => {
                    self.occupied[n / 64] &= !(1 << (n % 64));
                    if self.occupied[n / 64] == 0 {
                        self.summary[n / 4096] &= !(1 << (n / 64 % 64));
                    }
                }
            }
        }
        removed
    }

    /// The smallest request at or above `from` with a queued job.
    pub(crate) fn next_need(&self, from: u32) -> Option<u32> {
        self.next_occupied(from).or_else(|| {
            let at = self.wide.partition_point(|&(n, _)| n < from);
            self.wide.get(at).map(|&(n, _)| n)
        })
    }

    /// The first set bit of `occupied` at or above `from`: the word
    /// holding `from`, then the summary for the next non-zero word.
    fn next_occupied(&self, from: u32) -> Option<u32> {
        let w = (from / 64) as usize;
        let bits = self.occupied.get(w)? & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(w as u32 * 64 + bits.trailing_zeros());
        }
        let mut s = (w + 1) / 64;
        let mut sum = self.summary.get(s)? & (u64::MAX << ((w + 1) % 64));
        while sum == 0 {
            s += 1;
            sum = *self.summary.get(s)?;
        }
        let w = s * 64 + sum.trailing_zeros() as usize;
        Some(w as u32 * 64 + self.occupied[w].trailing_zeros())
    }

    /// The bucket `need` is filed under, empty or not.
    fn filed(&self, need: u32) -> Option<&NeedBucket> {
        if need <= self.nodes {
            self.buckets.get(need as usize)
        } else {
            let at = self.wide.binary_search_by_key(&need, |&(n, _)| n).ok()?;
            Some(&self.wide[at].1)
        }
    }

    /// The bucket of the jobs requesting exactly `need` nodes, if any is
    /// queued.
    pub(crate) fn bucket(&self, need: u32) -> Option<&NeedBucket> {
        self.filed(need).filter(|b| !b.is_empty())
    }

    /// The non-empty buckets of requests at or above `from`, ascending.
    pub(crate) fn needs_from(&self, from: u32) -> impl Iterator<Item = (u32, &NeedBucket)> + '_ {
        let needs = successors(self.next_need(from), |&n| self.next_need(n.checked_add(1)?));
        needs.map(|n| (n, self.filed(n).expect("an occupied need is filed")))
    }

    /// Invariant check: the view holds exactly what `want` (the same
    /// jobs filed afresh) holds, and its layout is sound — the array no
    /// longer than the machine, each occupancy and summary bit set iff
    /// its bucket or word is non-empty, both orders of every bucket of
    /// one size, each scheduling order a sound [`KeyLog`], and only
    /// non-empty buckets above `nodes`.
    pub(crate) fn check(&self, want: &NeedView) -> Result<(), String> {
        if self.buckets.len() > self.nodes as usize + 1 {
            let len = self.buckets.len();
            return Err(format!(
                "need array of {len} buckets on {} nodes",
                self.nodes
            ));
        }
        let words = self.buckets.len().div_ceil(64);
        if self.occupied.len() != words || self.summary.len() != words.div_ceil(64) {
            return Err("need bitmaps do not cover the bucket array".into());
        }
        for (n, bucket) in self.buckets.iter().enumerate() {
            let set = self.occupied[n / 64] >> (n % 64) & 1 == 1;
            if set == bucket.is_empty() || bucket.by_key.len() != bucket.by_estimate.len() {
                return Err(format!(
                    "need bucket {n} {bucket:?} has occupancy bit {set}"
                ));
            }
        }
        let wide = self.wide.iter().map(|(n, bucket)| (*n as usize, bucket));
        for (n, bucket) in self.buckets.iter().enumerate().chain(wide) {
            bucket
                .by_key
                .check()
                .map_err(|e| format!("need bucket {n}: {e}"))?;
        }
        for (w, &word) in self.occupied.iter().enumerate() {
            if (self.summary[w / 64] >> (w % 64) & 1 == 1) != (word != 0) {
                return Err(format!("need summary bit of word {w} disagrees"));
            }
        }
        let needs = self.wide.iter().map(|&(n, _)| n);
        if needs.clone().zip(needs.skip(1)).any(|(a, b)| a >= b)
            || self
                .wide
                .iter()
                .any(|(n, b)| *n <= self.nodes || b.is_empty())
        {
            return Err(format!("wide needs {:?} misfiled", self.wide));
        }
        let (view, want): (Vec<_>, Vec<_>) =
            (self.needs_from(0).collect(), want.needs_from(0).collect());
        if view != want {
            return Err(format!("need view {view:?} != queued jobs {want:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::{Job, JobRequest};
    use dmr_sim::SimTime;

    /// `bucket`'s scheduling order, layout and all.
    pub(crate) fn order(bucket: &NeedBucket) -> &KeyLog {
        &bucket.by_key
    }

    /// Jobs requesting `needs`, submitted one a second with estimates
    /// of `need` seconds, as `(need, key, estimate)` filings.
    fn filings(needs: &[u32]) -> Vec<(u32, PendingKey, Span)> {
        let mut jobs = JobArena::default();
        let filing = |(seq, &need): (usize, &u32)| {
            let estimate = Span::from_secs(u64::from(need.min(1 << 20)));
            let req = JobRequest::rigid("j", need).with_expected_runtime(estimate);
            let at = SimTime::from_secs(seq as u64);
            let id = jobs.insert_with(|id| Job::submitted(id, seq as u64, req, at));
            (need, PendingIndex::key(&jobs[id]), estimate)
        };
        needs.iter().enumerate().map(filing).collect()
    }

    fn view(nodes: u32, filings: &[(u32, PendingKey, Span)]) -> NeedView {
        let mut view = NeedView::new(nodes);
        for &(need, key, estimate) in filings {
            view.insert(need, key, estimate);
        }
        view
    }

    fn needs(view: &NeedView) -> Vec<u32> {
        view.needs_from(0).map(|(need, _)| need).collect()
    }

    #[test]
    fn requests_wider_than_the_machine_file_beside_the_array() {
        let jobs = filings(&[u32::MAX, 21, 5, 21]);
        let mut v = view(20, &jobs);
        assert_eq!(
            (v.buckets.len(), v.wide.len()),
            (6, 2),
            "sized by 5, not 2^32"
        );
        assert_eq!(needs(&v), [5, 21, u32::MAX]);
        let next = [0, 6, 21, 22, u32::MAX].map(|from| v.next_need(from));
        assert_eq!(
            next,
            [Some(5), Some(21), Some(21), Some(u32::MAX), Some(u32::MAX)]
        );
        assert_eq!(v.bucket(21).map(|b| b.by_key.len()), Some(2));
        v.check(&view(20, &jobs)).unwrap();
        for &(need, key, estimate) in &jobs {
            assert!(v.remove(need, key, estimate));
        }
        assert!(v.wide.is_empty() && needs(&v).is_empty());
        assert_eq!(v.buckets.len(), 6, "an emptied bucket stays");
        assert_eq!(v.bucket(5), None);
        v.check(&NeedView::new(20)).unwrap();
    }

    #[test]
    fn bit_scans_match_a_reference_set_across_word_and_summary_boundaries() {
        use std::collections::BTreeSet;
        let nodes = 65_536;
        let marks = [
            0, 1, 63, 64, 65, 127, 4095, 4096, 4097, 8191, 40_000, 65_535, 65_536,
        ];
        let jobs = filings(&[marks.as_slice(), &[65_537, u32::MAX]].concat());
        let mut v = view(nodes, &jobs);
        let mut reference: BTreeSet<u32> = jobs.iter().map(|&(need, ..)| need).collect();
        // Remove every other filing, then re-check every scan from both
        // sides of every mark.
        for (i, &(need, key, estimate)) in jobs.iter().enumerate() {
            for round in 0..2 {
                let froms = marks.iter().flat_map(|&m| [m.saturating_sub(1), m, m + 1]);
                for from in froms.chain([65_537, 70_000, u32::MAX]) {
                    let want = reference.range(from..).next().copied();
                    assert_eq!(v.next_need(from), want, "next_need({from}) round {round}");
                }
                assert_eq!(needs(&v), reference.iter().copied().collect::<Vec<_>>());
                if round == 0 && i % 2 == 0 {
                    assert!(v.remove(need, key, estimate));
                    reference.remove(&need);
                }
            }
        }
        let kept: Vec<_> = jobs.iter().copied().skip(1).step_by(2).collect();
        v.check(&view(nodes, &kept)).unwrap();
    }

    #[test]
    fn the_check_rejects_a_missing_a_stale_and_a_misfiled_job() {
        let jobs = filings(&[3, 4, 4, 30]);
        let v = view(20, &jobs);
        v.check(&view(20, &jobs)).unwrap();
        let missing = view(20, &jobs[1..]);
        assert!(missing.check(&view(20, &jobs)).is_err());
        assert!(v.check(&missing).is_err(), "a job filed that is not queued");
        let (need, key, estimate) = jobs[1];
        let mut stale = jobs.clone();
        stale[1] = (need, key, estimate + Span::from_secs(1));
        assert!(
            view(20, &stale).check(&v).is_err(),
            "an estimate not refiled"
        );
        let mut misfiled = jobs.clone();
        misfiled[1] = (3, key, estimate);
        assert!(
            view(20, &misfiled).check(&v).is_err(),
            "a job under another need"
        );
        // A stale job behind a cleared bit hides from every scan, so the
        // buckets the scans find agree; the layout check still finds it.
        let mut hidden = view(20, &jobs);
        hidden.insert(7, key, estimate);
        hidden.occupied[0] &= !(1 << 7);
        assert_eq!(needs(&hidden), needs(&v));
        assert!(
            hidden.check(&v).is_err(),
            "a non-empty bucket left unmarked"
        );
        let mut summary = view(20, &jobs);
        summary.summary[0] = 0;
        assert!(
            summary.check(&v).is_err(),
            "a marked word left out of the summary"
        );
    }
}
