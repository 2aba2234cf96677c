//! Property test: every elided pass equals the pass it elided.
//!
//! The production scheduler is stateful *between* passes: fruitless
//! scheduling and backfill passes leave a memo (the blocked head's need;
//! the minimum need over the pass's non-fitting refusals and whether a
//! fitting job was refused), and a later pass whose trigger provably
//! cannot change any decision returns in O(1) instead of re-walking the
//! queue. Every mutation — submit, start, boost, complete, cancel,
//! shrink, expand, estimate refresh — either invalidates the memos or
//! tightens them (a submission below the live watermark lowers it).
//! There is no switch for any of this. The lockstep harness
//! (`tests/common/lockstep.rs`) runs every pass on the model scheduler
//! too, which never memoises: whenever production elides a pass, the
//! model — on identical state, the pass actually executed — must start
//! nothing, or the two diverge.

mod common;

use common::lockstep::{Lockstep, Op, Setup};
use common::{family_for, xorshift};
use dmr::cluster::ClassTable;
use dmr::sim::{SimTime, Span};
use dmr::slurm::{JobRequest, JobState, SlurmConfig};
use proptest::prelude::*;

// Random submit / complete / cancel / boost / estimate-refresh sequences,
// a scheduling and a backfill pass after each; the elision counters prove
// production actually took the O(1) path while the model walked.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn elided_passes_equal_the_passes_they_elide(
        seed in 0u64..100_000,
        family in 0u8..4,
        nodes in 8u32..33,
    ) {
        let mut cfg = SlurmConfig::for_cluster(nodes);
        cfg.backfill_family = family_for(family);
        let mut h = Lockstep::new(Setup::new(ClassTable::uniform(nodes, 16), cfg));
        let mut step = xorshift(seed);
        let mut live: Vec<usize> = Vec::new();
        let mut now = SimTime::ZERO;
        for round in 0..60u64 {
            // The clock moves between any two passes: a few seconds and
            // (three times in four) a mutation, or a quiet stretch long
            // enough to carry running jobs past their estimates — where a
            // pass memo is asked about a later instant with nothing but
            // time between, and a memo that rests on a timeline must not
            // answer.
            let quiet = step().is_multiple_of(4);
            let gap = if quiet { 200 + step() % 800 } else { 1 + step() % 12 };
            now += Span::from_secs(gap);
            h.at(now)?;
            let state = |h: &Lockstep, j: usize| h.model().state(j);
            match if quiet { 7 } else { step() % 8 } {
                0..=2 => {
                    let need = 1 + (step() % u64::from(nodes)) as u32;
                    let dur = 30 + step() % 900;
                    let req = JobRequest::rigid(format!("j{round}"), need)
                        .with_expected_runtime(Span::from_secs(dur));
                    live.push(h.submit(req)?);
                }
                3 if !live.is_empty() => {
                    let j = live.remove((step() % live.len() as u64) as usize);
                    match state(&h, j) {
                        JobState::Running => h.apply(Op::Complete(j))?,
                        _ => h.apply(Op::Cancel(j))?,
                    };
                }
                4 if !live.is_empty() => {
                    let j = live[(step() % live.len() as u64) as usize];
                    h.apply(Op::Boost(j))?;
                }
                5 if !live.is_empty() => {
                    let j = live[(step() % live.len() as u64) as usize];
                    if state(&h, j) == JobState::Running {
                        h.apply(Op::Estimate(j, Span::from_secs(30 + step() % 900)))?;
                    }
                }
                _ => {}
            }
            h.schedule()?;
            h.backfill()?;
        }
    }
}
