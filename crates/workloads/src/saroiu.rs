//! Per-peer shared-file counts, after Saroiu et al.'s Gnutella measurements.
//!
//! The paper assigns "each peer … a number of files based on the Sarioiu
//! distribution". Saroiu's measurement study found a heavily skewed
//! distribution of files shared per peer: a large fraction of peers share
//! few (or no) files while a small fraction share thousands (free-riding).
//! We model it as a mixture documented in DESIGN.md's substitution table:
//!
//! * a fraction of **free riders** sharing zero files (≈ 25% by default —
//!   Saroiu reported roughly a quarter of Gnutella peers sharing nothing);
//! * the remainder drawing from a **bounded Pareto** (shape ≈ 1.2), whose
//!   heavy tail reproduces the "few peers hold most content" skew that the
//!   file-sharing experiment's *shape* depends on.

use crate::powerlaw::BoundedPareto;
use rand::Rng;

/// Saroiu-style distribution of shared-file counts per peer.
#[derive(Clone, Debug, PartialEq)]
pub struct SaroiuFiles {
    /// Fraction of peers sharing zero files.
    pub free_rider_fraction: f64,
    /// Minimum files for a sharing peer.
    pub min_files: usize,
    /// Maximum files for a sharing peer.
    pub max_files: usize,
    /// Pareto shape of the sharing tail.
    pub shape: f64,
}

impl Default for SaroiuFiles {
    fn default() -> Self {
        SaroiuFiles { free_rider_fraction: 0.25, min_files: 10, max_files: 5_000, shape: 1.2 }
    }
}

impl SaroiuFiles {
    /// Sample one peer's shared-file count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if rng.random::<f64>() < self.free_rider_fraction {
            return 0;
        }
        let pareto = BoundedPareto::new(self.min_files as f64, self.max_files as f64, self.shape);
        pareto.sample(rng).round() as usize
    }

    /// Sample counts for `n` peers.
    pub fn sample_counts<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn free_riders_share_nothing() {
        let dist = SaroiuFiles { free_rider_fraction: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        assert!(dist.sample_counts(100, &mut rng).iter().all(|&c| c == 0));
    }

    #[test]
    fn sharing_peers_respect_bounds() {
        let dist = SaroiuFiles { free_rider_fraction: 0.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        for c in dist.sample_counts(5_000, &mut rng) {
            assert!((10..=5_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn free_rider_fraction_is_respected() {
        let dist = SaroiuFiles::default();
        let mut rng = StdRng::seed_from_u64(3);
        let counts = dist.sample_counts(20_000, &mut rng);
        let zero = counts.iter().filter(|&&c| c == 0).count() as f64 / 20_000.0;
        assert!((zero - 0.25).abs() < 0.02, "free riders {zero}");
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        // Top 10% of sharing peers should hold a disproportionate share of
        // all files (the skew the experiment depends on).
        let dist = SaroiuFiles { free_rider_fraction: 0.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = dist.sample_counts(10_000, &mut rng);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top10: usize = counts[..1_000].iter().sum();
        let share = top10 as f64 / total as f64;
        assert!(share > 0.35, "top-10% share {share}");
    }
}
