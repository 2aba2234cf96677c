//! Poisson arrival process: exponential inter-arrival times.

use rand::Rng;

use crate::runtime::exponential;

/// Poisson arrival process with a configurable mean inter-arrival time
/// (§VIII uses a 10-second average).
#[derive(Clone, Copy, Debug)]
pub struct ArrivalModel {
    pub mean_interarrival_s: f64,
}

impl ArrivalModel {
    pub fn new(mean_interarrival_s: f64) -> Self {
        assert!(
            mean_interarrival_s > 0.0,
            "mean inter-arrival must be positive"
        );
        ArrivalModel {
            mean_interarrival_s,
        }
    }

    /// Draws the gap to the next arrival, seconds.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        exponential(self.mean_interarrival_s, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaps_are_finite_and_non_negative() {
        let m = ArrivalModel::new(10.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let gap = m.next_gap(&mut rng);
            assert!(gap.is_finite() && gap >= 0.0, "gap={gap}");
        }
    }

    #[test]
    fn mean_gap_converges() {
        let m = ArrivalModel::new(10.0);
        let mut rng = StdRng::seed_from_u64(9);
        let total: f64 = (0..20_000).map(|_| m.next_gap(&mut rng)).sum();
        let mean_gap = total / 20_000.0;
        assert!((mean_gap - 10.0).abs() < 0.5, "mean_gap={mean_gap}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        ArrivalModel::new(0.0);
    }
}
