//! Peer churn: exponential session/offline durations.
//!
//! "Peer joins and leaves an open P2P network dynamically. The system
//! should be adaptive and robust to peer dynamics." (§3). The standard
//! model is alternating renewal: a peer stays online for an
//! exponentially-distributed session, goes offline for an exponential
//! off-time, and repeats.

use crate::event::SimTime;
use rand::Rng;

/// Alternating-renewal churn model with exponential phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnModel {
    /// Mean online session length in µs.
    pub mean_session: SimTime,
    /// Mean offline period in µs.
    pub mean_offline: SimTime,
}

impl ChurnModel {
    /// Model with the given mean durations (µs), both positive.
    pub fn new(mean_session: SimTime, mean_offline: SimTime) -> Self {
        assert!(mean_session > 0 && mean_offline > 0, "means must be positive");
        ChurnModel { mean_session, mean_offline }
    }

    /// Long-run fraction of time a peer is online.
    pub fn availability(&self) -> f64 {
        self.mean_session as f64 / (self.mean_session + self.mean_offline) as f64
    }

    fn sample_exp<R: Rng + ?Sized>(mean: SimTime, rng: &mut R) -> SimTime {
        // Inverse CDF; clamp u away from 0 to avoid ln(0).
        let u: f64 = rng.random::<f64>().max(1e-12);
        let t = -(u.ln()) * mean as f64;
        t.round().max(1.0) as SimTime
    }

    /// Sample one online-session duration.
    pub fn sample_session<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        Self::sample_exp(self.mean_session, rng)
    }

    /// Sample one offline-period duration.
    pub fn sample_offline<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        Self::sample_exp(self.mean_offline, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn availability_formula() {
        let c = ChurnModel::new(3_000_000, 1_000_000);
        assert!((c.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn session_samples_have_the_right_mean() {
        let c = ChurnModel::new(1_000_000, 500_000);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 50_000;
        let total: u64 = (0..trials).map(|_| c.sample_session(&mut rng)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1_000_000.0).abs() / 1_000_000.0 < 0.03, "mean {mean}");
    }

    #[test]
    fn samples_are_positive() {
        let c = ChurnModel::new(10, 10);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            assert!(c.sample_session(&mut rng) >= 1);
            assert!(c.sample_offline(&mut rng) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        let _ = ChurnModel::new(0, 10);
    }
}
