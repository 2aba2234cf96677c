//! Machine classes: each running job's class split and slowest-class
//! factor, and the aggregate and per-class timelines a pass builds.

use std::cell::RefMut;

use dmr_cluster::{ClassConstraint, ClassTable};
use dmr_sim::{SimTime, Span};

use crate::job::JobId;
use crate::slotset::SlotSet;

use super::Slurm;

/// The per-class timelines of the pass in flight.
pub(super) struct ClassTimelines {
    /// One per machine class on a multi-class machine.
    pub(super) sets: Vec<SlotSet>,
    /// Bit `c` is set once `sets[c]` is built for the pass in flight
    /// (see [`Slurm::class_timeline`]); cleared by every pass prologue
    /// ([`Slurm::build_timelines`]).
    pub(super) built: u32,
}

/// How a running job's nodes split over the machine classes.
#[derive(Default)]
pub(super) struct ClassSplit {
    /// Nodes held in each class, one entry per class.
    pub(super) counts: Vec<u32>,
    /// The largest execution-time multiplier `(num, den)` among the
    /// classes the job holds nodes in (see [`slowest_class`]).
    slowdown: (u32, u32),
}

impl Slurm {
    /// Whether the inventory spans more than one machine class (and the
    /// per-class timelines and held totals are therefore kept).
    pub(super) fn multi_class(&self) -> bool {
        !self.class_held.is_empty()
    }

    /// Records how running job `id`'s nodes split over the machine
    /// classes, and the slowest-class factor that implies, in place of
    /// any earlier record: called wherever an allocation changes (start,
    /// expand, shrink). It describes the allocation, not a timeline — the
    /// per-class timelines are built from it — and asking the cluster for
    /// it per running job per pass, or for the factor per compute
    /// segment, instead was measured and lost. No-op on a uniform
    /// machine of neutral speed.
    pub(super) fn record_class_split(&mut self, id: JobId) {
        if !self.multi_class() && self.neutral_speed {
            return;
        }
        if self.class_splits.get(id).is_none() {
            self.class_splits.insert(id, ClassSplit::default());
        }
        // Recounted into the job's own slot: a resize allocates nothing.
        let split = self.class_splits.get_mut(id).expect("mapped above");
        for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
            *held -= n;
        }
        self.cluster
            .held_class_counts(id.owner_tag(), &mut split.counts);
        for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
            *held += n;
        }
        split.slowdown = slowest_class(self.cluster.table(), &split.counts);
    }

    /// Forgets the class split of a job that stopped running (tolerates
    /// a job that has none, mirroring the scheduler's release-mode
    /// leniency).
    pub(super) fn drop_class_split(&mut self, id: JobId) {
        if let Some(split) = self.class_splits.remove(id) {
            for (held, &n) in self.class_held.iter_mut().zip(&split.counts) {
                *held -= n;
            }
        }
    }

    /// The execution-time multiplier of running job `id` as a `(num,
    /// den)` fraction: that of the slowest machine class its nodes span,
    /// since a job runs at the speed of its slowest node. Stored with the
    /// job's class split when its allocation last changed, so this is a
    /// lookup — `(1, 1)` without one on a machine whose classes all run
    /// at neutral speed, and for a job that holds nothing. Equal to
    /// [`Cluster::worst_slowdown`](dmr_cluster::Cluster::worst_slowdown)
    /// of the job's owner tag (checked by [`Slurm::check_invariants`]).
    pub fn slowdown(&self, id: JobId) -> (u32, u32) {
        if self.neutral_speed {
            return (1, 1);
        }
        self.class_splits
            .get(id)
            .map_or((1, 1), |split| split.slowdown)
    }

    /// Every running job's `(expected end, nodes held in class c)`, in
    /// running-index order.
    pub(super) fn class_commitments(&self, c: usize) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        let ends = self.running_index.jobs();
        ends.filter_map(move |(end, id)| Some((end, self.class_splits.get(id)?.counts[c])))
    }

    /// The prologue of a pass (or a hole-guard call): rebuilds the
    /// aggregate timeline from the running index at `now` when the pass
    /// may query it, and reports whether it did, and marks every class
    /// timeline unbuilt ([`Slurm::class_timeline`] builds one when it is
    /// first asked). The aggregate is needed by a `deep` pass —
    /// conservative, or EASY granting two or more reservations: the
    /// first comes from the running index itself — and by any pass while
    /// a class-constrained job is pending, whose reservation
    /// [`Slurm::constrained_hole`] takes from its class's timeline or,
    /// when several classes are eligible, from the aggregate. Nothing is
    /// submitted during a pass, so the test made here holds to its end.
    pub(super) fn build_timelines(&self, now: SimTime, deep: bool) -> bool {
        let aggregate = deep || self.pending_index.constrained() > 0;
        if aggregate {
            let mut tl = self.timeline.borrow_mut();
            tl.rebuild(now, self.running_index.iter());
        }
        self.class_timelines.borrow_mut().built = 0;
        aggregate
    }

    /// Class `c`'s timeline for the pass in flight at `now`, rebuilt from
    /// the running index the first time the pass asks for it. That is
    /// exact: until then the pass has handed it nothing but its own
    /// starts ([`Slurm::plan_start`] skips a class not yet built), and
    /// the running index already holds each of those with the same end,
    /// `now` plus its estimate, and the split recorded at the start. A
    /// plan the pass makes follows the query that placed it, so it lands
    /// in a built timeline. On the three-class machine a queue of
    /// GPU-only jobs therefore builds one timeline per pass, not three.
    pub(super) fn class_timeline(&self, c: usize, now: SimTime) -> RefMut<'_, SlotSet> {
        let mut tls = self.class_timelines.borrow_mut();
        if tls.built & (1 << c) == 0 {
            tls.built |= 1 << c;
            tls.sets[c].rebuild(now, self.class_commitments(c));
        }
        RefMut::map(tls, |tls| &mut tls.sets[c])
    }

    /// A pass just started `id` on `nodes` nodes until `end`: the
    /// timelines it built must show that to the plans that follow (the
    /// aggregate if `aggregate`, and each class timeline built so far).
    pub(super) fn plan_start(
        &mut self,
        id: JobId,
        now: SimTime,
        end: SimTime,
        nodes: u32,
        aggregate: bool,
    ) {
        if aggregate {
            self.timeline.get_mut().plan(now, end, nodes);
        }
        let tls = self.class_timelines.get_mut();
        if tls.built != 0 {
            let split = self.class_splits.get(id).map_or(&[][..], |s| &s.counts);
            for (c, &n) in split.iter().enumerate() {
                if tls.built & (1 << c) != 0 {
                    tls.sets[c].plan(now, end, n);
                }
            }
        }
    }

    /// The single class eligible under `constraint`: `None` for `Any`,
    /// on uniform inventories, or when the constraint spans several
    /// classes (then only the aggregate timeline can answer for it).
    pub(super) fn sole_eligible_class(&self, constraint: ClassConstraint) -> Option<usize> {
        if !self.multi_class() || constraint == ClassConstraint::Any {
            return None;
        }
        let table = self.cluster.table();
        let mut found = None;
        for c in 0..table.num_classes() {
            if constraint.allows(c, table.class(c)) {
                if found.is_some() {
                    return None;
                }
                found = Some(c);
            }
        }
        found
    }

    /// Backfill reservation for a class-constrained blocked job: the
    /// earliest hole on its class timeline when exactly one class is
    /// eligible, otherwise the aggregate hole (over-optimistic for a
    /// multi-class constraint, but a reservation is a throttle on
    /// lower-priority starts, not a start-time promise).
    pub(super) fn constrained_hole(
        &self,
        constraint: ClassConstraint,
        need: u32,
        dur: Span,
        now: SimTime,
    ) -> (SimTime, u32) {
        let Some(c) = self.sole_eligible_class(constraint) else {
            return self.hole_reservation(need, dur, now);
        };
        let avail = self.cluster.free_nodes_in(ClassConstraint::Class(c)) + self.class_held[c];
        if avail < need {
            return (SimTime(u64::MAX), 0);
        }
        let cap = i64::from(avail - need);
        let tl = self.class_timeline(c, now);
        match tl.earliest_hole(now, cap, dur) {
            Some(s) => {
                let peak = tl.max_in(s, s + dur);
                (s, (cap - peak) as u32)
            }
            None => (SimTime(u64::MAX), 0),
        }
    }
}

/// The largest execution-time multiplier `(num, den)` among the classes
/// of `table` in which `counts` (one entry per class) holds nodes — a job
/// runs at the speed of its slowest node — or `(1, 1)` for none. Of two
/// equal factors the lower class's stands, as in
/// [`Cluster::worst_slowdown`](dmr_cluster::Cluster::worst_slowdown).
fn slowest_class(table: &ClassTable, counts: &[u32]) -> (u32, u32) {
    let held = (0..counts.len()).filter(|&c| counts[c] > 0);
    let factors = held.map(|c| (table.class(c).slow_num, table.class(c).slow_den));
    // a/b > w/v  ⇔  a·v > w·b (all positive).
    let slower = |(a, b): (u32, u32), (w, v): (u32, u32)| {
        u64::from(a) * u64::from(v) > u64::from(w) * u64::from(b)
    };
    factors
        .reduce(|worst, f| if slower(f, worst) { f } else { worst })
        .unwrap_or((1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRequest, JobState};
    use crate::slotset::BackfillFamily;
    use crate::slurm::tests::t;
    use dmr_cluster::Cluster;

    #[test]
    fn timeline_survives_the_resize_protocol_under_deep_backfill() {
        // Expand / shrink re-key the running index and, on a machine of
        // two classes (6 + 4 nodes: `a` and `b` both end up straddling
        // them), re-record the job's class split; the timelines every
        // pass builds from those must mirror the running profile through
        // the whole §III protocol with deep backfill families querying
        // them.
        use dmr_cluster::{ClassTable, MachineClass};
        let node = MachineClass::standard(16);
        let machines = [
            ClassTable::uniform(10, 16),
            ClassTable::new(&[(node, 6), (node, 4)]),
        ];
        let families = [BackfillFamily::easy(2), BackfillFamily::Conservative];
        for (machine, family) in machines.iter().flat_map(|m| families.map(|f| (m, f))) {
            let mut s = Slurm::with_cluster(Cluster::with_classes(machine.clone()));
            s.config.backfill_family = family;
            let a = s.submit(
                JobRequest::rigid("a", 4).with_expected_runtime(Span::from_secs(500)),
                t(0),
            );
            let b = s.submit(
                JobRequest::rigid("b", 4).with_expected_runtime(Span::from_secs(300)),
                t(0),
            );
            s.schedule(t(0));
            let _queued = s.submit(JobRequest::rigid("q", 8), t(1));
            let tiny = s.submit(
                JobRequest::rigid("tiny", 1).with_expected_runtime(Span::from_secs(10)),
                t(2),
            );
            s.backfill_pass(t(3));
            s.check_invariants().unwrap();
            // Both families backfill `tiny` (harmless before every plan);
            // release its node so the expansion can complete synchronously.
            s.complete(tiny, t(8));
            s.expand_protocol(a, 6, t(10)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(12));
            s.check_invariants().unwrap();
            s.shrink_protocol(a, 2, t(20)).unwrap();
            s.check_invariants().unwrap();
            s.backfill_pass(t(25));
            s.check_invariants().unwrap();
            s.complete(b, t(30));
            s.complete(a, t(40));
            s.backfill_pass(t(45));
            s.check_invariants().unwrap();
        }
    }

    /// Conservative backfill on a machine of three classes at neutral
    /// speed: 2 standard nodes (n0–n1), 4 big-memory (n2–n5) and 2 GPU
    /// (n6–n7).
    fn three_class_conservative() -> Slurm {
        use dmr_cluster::{ClassTable, MachineClass};
        let standard = MachineClass::standard(16);
        let bigmem = MachineClass {
            name: "bigmem",
            memory_gb: 128,
            ..standard
        };
        let gpu = MachineClass {
            name: "gpu",
            gpu: true,
            ..standard
        };
        let table = ClassTable::new(&[(standard, 2), (bigmem, 4), (gpu, 2)]);
        let mut s = Slurm::with_cluster(Cluster::with_classes(table));
        s.config.backfill_family = BackfillFamily::Conservative;
        s
    }

    fn class_built(s: &Slurm) -> u32 {
        s.class_timelines.borrow().built
    }

    #[test]
    fn a_pass_over_gpu_only_jobs_builds_the_gpu_timeline_alone() {
        // Both GPU nodes are busy until t=1000 and two more GPU-only jobs
        // wait: the pass plans them on the GPU timeline, back to back,
        // and never asks the standard or big-memory one anything.
        let mut s = three_class_conservative();
        let gpu_job = |name, nodes, secs| {
            JobRequest::rigid(name, nodes)
                .with_expected_runtime(Span::from_secs(secs))
                .with_constraint(ClassConstraint::GpuRequired)
        };
        s.submit(gpu_job("hog", 2, 1000), t(0));
        assert_eq!(s.schedule(t(0)).len(), 1);
        s.submit(gpu_job("g1", 2, 100), t(1));
        s.submit(gpu_job("g2", 1, 50), t(2));
        assert!(s.backfill_pass(t(5)).is_empty());
        assert_eq!(class_built(&s), 1 << 2);
        let tls = s.class_timelines.borrow();
        let plans = [(t(5), 2), (t(1000), 2), (t(1100), 1), (t(1150), 0)];
        assert_eq!(tls.sets[2].slots(), plans);
        for untouched in &tls.sets[..2] {
            assert_eq!(untouched.slots(), [(SimTime::ZERO, 0)]);
        }
        drop(tls);
        s.check_invariants().unwrap();
    }

    #[test]
    fn a_class_first_queried_mid_pass_shows_the_starts_before_it() {
        // `r` holds one big-memory node until t=1000. The pass starts `a`
        // (n0 n1 n3) and `b` (n4 n5) before its first big-memory-only
        // job, so the big-memory timeline is built after both starts; it
        // must hold them as the running index does — `a` until 105, `b`
        // until 205 — for `c`'s hole to open at 205 and `d`'s, planned
        // over `c`'s plan, at 105.
        let mut s = three_class_conservative();
        let job = |name, nodes, secs, constraint| {
            JobRequest::rigid(name, nodes)
                .with_expected_runtime(Span::from_secs(secs))
                .with_constraint(constraint)
        };
        let bigmem = ClassConstraint::Class(1);
        s.submit(job("r", 1, 1000, bigmem), t(0));
        assert_eq!(s.schedule(t(0)).len(), 1);
        let a = s.submit(job("a", 3, 100, ClassConstraint::Any), t(1));
        let b = s.submit(job("b", 2, 200, ClassConstraint::Any), t(1));
        let c = s.submit(job("c", 2, 50, bigmem), t(1));
        let d = s.submit(job("d", 1, 30, bigmem), t(1));
        let started: Vec<JobId> = s.backfill_pass(t(5)).iter().map(|j| j.id).collect();
        assert_eq!(started, [a, b]);
        for waiting in [c, d] {
            assert_eq!(s.job(waiting).unwrap().state, JobState::Pending);
        }
        assert_eq!(class_built(&s), 1 << 1);
        // r + a + b = 4 until 105, r + b = 3 until 205, then r alone;
        // d's plan lifts [105, 135) to 4 and c's [205, 255) to 3.
        let mut profile = vec![(t(5), 4), (t(105), 4), (t(135), 3)];
        profile.extend([(t(205), 3), (t(255), 1), (t(1000), 0)]);
        assert_eq!(s.class_timelines.borrow().sets[1].slots(), profile);
        s.check_invariants().unwrap();
    }
}
