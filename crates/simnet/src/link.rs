//! Link model: delivery latency and message loss.

use crate::event::SimTime;
use rand::Rng;

/// A simple wide-area link model: uniform latency in
/// `[min_latency, max_latency]` (µs) and i.i.d. drop probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Minimum one-way latency in microseconds.
    pub min_latency: SimTime,
    /// Maximum one-way latency in microseconds.
    pub max_latency: SimTime,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // 20–200 ms — typical wide-area P2P latencies.
        LinkModel { min_latency: 20_000, max_latency: 200_000, drop_rate: 0.0 }
    }
}

impl LinkModel {
    /// Lossless link with fixed latency (handy for deterministic tests).
    pub fn fixed(latency: SimTime) -> Self {
        LinkModel { min_latency: latency, max_latency: latency, drop_rate: 0.0 }
    }

    /// Builder-style drop-rate setter.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop rate must be in [0,1]");
        self.drop_rate = p;
        self
    }

    /// Sample the fate of one message: `None` = dropped, `Some(delay)` =
    /// delivered after `delay` µs.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SimTime> {
        if self.drop_rate > 0.0 && rng.random::<f64>() < self.drop_rate {
            return None;
        }
        let delay = if self.max_latency > self.min_latency {
            rng.random_range(self.min_latency..=self.max_latency)
        } else {
            self.min_latency
        };
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_link_is_deterministic() {
        let l = LinkModel::fixed(1_000);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), Some(1_000));
        }
    }

    #[test]
    fn latencies_stay_in_range() {
        let l = LinkModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let d = l.sample(&mut rng).unwrap();
            assert!((20_000..=200_000).contains(&d));
        }
    }

    #[test]
    fn drop_rate_is_respected() {
        let l = LinkModel::fixed(10).with_drop_rate(0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let drops = (0..trials).filter(|_| l.sample(&mut rng).is_none()).count();
        let p = drops as f64 / trials as f64;
        assert!((p - 0.3).abs() < 0.02, "drop rate {p}");
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn invalid_drop_rate_panics() {
        let _ = LinkModel::default().with_drop_rate(1.5);
    }
}
