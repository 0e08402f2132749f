//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank on the sorted samples (no interpolation: a
//! reported latency is one that was observed). A tail percentile is only
//! trustworthy with samples *beyond* it, so [`highest_level`] picks, from a
//! fixed ladder, the highest level that still has `min_beyond` samples above
//! it — the rule of the choosing-metrics guide ("the highest percentile that
//! has at least ten samples beyond it").

/// Percentile ladder [`highest_level`] chooses from, highest first.
pub const LEVELS: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `level` percentile among `n` sorted
/// samples (`n ≥ 1`, `0 < level ≤ 1`).
pub fn rank_index(n: usize, level: f64) -> usize {
    assert!(n >= 1, "percentile of an empty sample");
    assert!(level > 0.0 && level <= 1.0, "percentile level out of range");
    // The epsilon keeps an exact product such as 0.95 × 200 from ceiling up
    // to 191 on a representation error.
    ((level * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the `level` percentile's rank.
pub fn beyond(n: usize, level: f64) -> usize {
    n - 1 - rank_index(n, level)
}

/// Nearest-rank percentile of already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], level: f64) -> f64 {
    sorted[rank_index(sorted.len(), level)]
}

/// The highest ladder level with at least `min_beyond` samples beyond it,
/// or `None` when even the median has fewer.
pub fn highest_level(n: usize, min_beyond: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LEVELS.iter().copied().find(|&l| beyond(n, l) >= min_beyond)
}

/// Sort in place (total order; NaN sorts last and never occurs in timings).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile_sorted(&v, 0.5)
}

/// A sorted latency sample with its count, for p50 / tail reporting.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Take ownership of unsorted samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        sort(&mut samples);
        Sample { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (0 when empty, so absent layers read 0).
    pub fn p(&self, level: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile_sorted(&self.sorted, level)
        }
    }

    /// Samples strictly beyond `level` (0 when empty).
    pub fn beyond(&self, level: f64) -> usize {
        if self.sorted.is_empty() {
            0
        } else {
            beyond(self.sorted.len(), level)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.5), 1.0);
    }

    #[test]
    fn beyond_counts_strictly_higher_ranks() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn ten_beyond_rule_walks_down_the_ladder() {
        // 10 000 samples: p99.9 has exactly 10 beyond.
        assert_eq!(highest_level(10_000, MIN_BEYOND), Some(0.999));
        assert_eq!(highest_level(9_999, MIN_BEYOND), Some(0.99));
        // 200 samples: p95 has exactly 10 beyond; 199 drops to p90.
        assert_eq!(highest_level(200, MIN_BEYOND), Some(0.95));
        assert_eq!(highest_level(199, MIN_BEYOND), Some(0.90));
        // 160 warm epochs → p90 (16 beyond); 14 epochs → nothing above p50.
        assert_eq!(highest_level(160, MIN_BEYOND), Some(0.90));
        assert_eq!(highest_level(40, MIN_BEYOND), Some(0.75));
        assert_eq!(highest_level(20, MIN_BEYOND), Some(0.50));
        assert_eq!(highest_level(19, MIN_BEYOND), None);
        assert_eq!(highest_level(0, MIN_BEYOND), None);
    }

    #[test]
    fn sample_reads_zero_when_empty() {
        let s = Sample::default();
        assert_eq!(s.n(), 0);
        assert_eq!(s.p(0.5), 0.0);
        assert_eq!(s.beyond(0.99), 0);
        let s = Sample::new(vec![30.0, 10.0, 20.0]);
        assert_eq!(s.p(0.5), 20.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
