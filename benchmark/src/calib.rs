//! The reference clock. The sandbox host changes speed under the
//! benchmark — for seconds at a time everything on the core runs 1.2x to
//! 1.8x slower, whatever the program does — so wall time alone cannot
//! resolve a 10 % change. A fixed piece of the benchmark's own code, timed
//! right before and right after each timed run, says how fast the core
//! was while the run had it; throughput is reported per *reference
//! second*, the time in which that code does a fixed amount of work.
//! README.md has the measurements behind this.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of the dependency chain in one spin (≈ 10 ms).
const ROUNDS: u64 = 5_000_000;

/// Seconds one spin takes at reference speed: 1.9 ns a round, this
/// sandbox's usual state, so reference seconds read like wall seconds on
/// a quiet host. A constant of the benchmark: changing it rescales every
/// `jobs_per_ref_s` ever recorded.
const REFERENCE_SPIN_S: f64 = ROUNDS as f64 * 1.9e-9;

/// Times one spin: a xorshift chain, each step waiting for the last, so
/// it measures the core's clock and nothing the compiler or the memory
/// system can reorder. Returns wall seconds.
pub fn spin() -> f64 {
    let start = Instant::now();
    let mut x = black_box(88_172_645_463_325_252_u64);
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Host speed relative to the reference, from the spins around a run:
/// 1 at reference speed, below 1 on a slowed core.
pub fn host_speed(spin_before_s: f64, spin_after_s: f64) -> f64 {
    REFERENCE_SPIN_S / ((spin_before_s + spin_after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_spin_reads_as_a_slower_host() {
        assert_eq!(host_speed(REFERENCE_SPIN_S, REFERENCE_SPIN_S), 1.0);
        assert!(host_speed(2.0 * REFERENCE_SPIN_S, 2.0 * REFERENCE_SPIN_S) < 0.51);
        let measured = host_speed(spin(), spin());
        assert!(measured > 0.0 && measured.is_finite());
    }
}
