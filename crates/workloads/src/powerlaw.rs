//! Bounded power-law and Zipf samplers.
//!
//! All samplers are deterministic given the caller's RNG and use
//! inverse-CDF sampling over a precomputed cumulative table (discrete) or a
//! closed form (continuous bounded Pareto).

use rand::Rng;

/// Discrete Zipf distribution over ranks `1..=n`: `P(r) ∝ r^(−s)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cumulative.len()
    }

    /// Probability mass of rank `r` (1-based).
    pub fn pmf(&self, r: usize) -> f64 {
        assert!((1..=self.n()).contains(&r), "rank out of range");
        let hi = self.cumulative[r - 1];
        let lo = if r >= 2 { self.cumulative[r - 2] } else { 0.0 };
        hi - lo
    }

    /// Sample a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.rank_for(u)
    }

    /// Rank whose CDF interval contains `u ∈ [0, 1)`.
    fn rank_for(&self, u: f64) -> usize {
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(idx) => (idx + 2).min(self.n()),
            Err(idx) => (idx + 1).min(self.n()),
        }
    }

    /// Expected rank value `Σ r·P(r)`.
    pub fn mean(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (i, &c) in self.cumulative.iter().enumerate() {
            mean += (i as f64 + 1.0) * (c - prev);
            prev = c;
        }
        mean
    }
}

/// The paper's two-segment query-popularity law: Zipf exponent
/// `φ₁ = 0.63` for ranks `1..=break_rank` (default 250) and `φ₂ = 1.24`
/// below, with the segments joined continuously at the break.
#[derive(Clone, Debug)]
pub struct TwoSegmentZipf {
    cumulative: Vec<f64>,
    break_rank: usize,
}

impl TwoSegmentZipf {
    /// Two-segment Zipf over `n` ranks.
    pub fn new(n: usize, break_rank: usize, s1: f64, s2: f64) -> Self {
        assert!(n > 0, "needs at least one rank");
        assert!(break_rank >= 1, "break rank must be >= 1");
        assert!(s1 >= 0.0 && s2 >= 0.0, "exponents must be non-negative");
        // Continuity constant: C·b^(−s2) = b^(−s1) ⇒ C = b^(s2−s1).
        let b = break_rank as f64;
        let c = b.powf(s2 - s1);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            let w = if r <= break_rank {
                (r as f64).powf(-s1)
            } else {
                c * (r as f64).powf(-s2)
            };
            acc += w;
            cumulative.push(acc);
        }
        let total = acc;
        for x in &mut cumulative {
            *x /= total;
        }
        TwoSegmentZipf { cumulative, break_rank }
    }

    /// The paper's Gnutella query model over `n` ranks:
    /// `φ = 0.63` for ranks 1–250, `φ = 1.24` for the tail.
    pub fn gnutella_queries(n: usize) -> Self {
        TwoSegmentZipf::new(n, 250.min(n.max(1)), 0.63, 1.24)
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cumulative.len()
    }

    /// The rank where the exponent switches.
    pub fn break_rank(&self) -> usize {
        self.break_rank
    }

    /// Probability mass of rank `r` (1-based).
    pub fn pmf(&self, r: usize) -> f64 {
        assert!((1..=self.n()).contains(&r), "rank out of range");
        let hi = self.cumulative[r - 1];
        let lo = if r >= 2 { self.cumulative[r - 2] } else { 0.0 };
        hi - lo
    }

    /// Sample a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(idx) => (idx + 2).min(self.n()),
            Err(idx) => (idx + 1).min(self.n()),
        }
    }
}

/// Continuous bounded Pareto on `[xmin, xmax]` with shape `alpha`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundedPareto {
    xmin: f64,
    xmax: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Bounded Pareto with `0 < xmin < xmax` and `alpha > 0`.
    pub fn new(xmin: f64, xmax: f64, alpha: f64) -> Self {
        assert!(xmin > 0.0 && xmax > xmin, "need 0 < xmin < xmax");
        assert!(alpha > 0.0, "shape must be positive");
        BoundedPareto { xmin, xmax, alpha }
    }

    /// Inverse-CDF sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let ratio = (self.xmin / self.xmax).powf(self.alpha);
        // Standard bounded-Pareto inverse CDF.
        self.xmin / (1.0 - u * (1.0 - ratio)).powf(1.0 / self.alpha)
    }

    /// Analytical mean of the bounded Pareto.
    pub fn mean(&self) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.xmin, self.xmax);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 limit: mean = ln(h/l) · l·h/(h−l)
            (h / l).ln() * l * h / (h - l)
        } else {
            (l.powf(a) / (1.0 - (l / h).powf(a)))
                * (a / (a - 1.0))
                * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
        }
    }
}

/// Power-law feedback out-degree generator hitting the paper's parameters:
/// degrees in `1..=d_max` with mean ≈ `d_avg`.
///
/// The exponent of the bounded discrete power law is solved by bisection so
/// that the analytic mean matches `d_avg` — this reproduces the paper's
/// "number of feedbacks every node issued is power law distributed" with
/// `d_max = 200` and `d_avg = 20`.
#[derive(Clone, Debug)]
pub struct DegreeSequence {
    zipf: Zipf,
    exponent: f64,
}

impl DegreeSequence {
    /// Build a degree distribution over `1..=d_max` with mean ≈ `d_avg`.
    ///
    /// A nonincreasing law over `1..=d_max` cannot have a mean above the
    /// uniform one's, `(d_max + 1) / 2`; for a larger `d_avg` the fit
    /// saturates there (exponent 0).
    ///
    /// # Panics
    /// Panics unless `1 ≤ d_avg < d_max`.
    pub fn new(d_avg: usize, d_max: usize) -> Self {
        assert!(d_avg >= 1 && d_avg < d_max, "need 1 <= d_avg < d_max");
        // Bisection on the exponent: the mean of Zipf(1..=d_max, s) is
        // monotonically decreasing in s, from (d_max+1)/2 at s=0 towards 1.
        let target = d_avg as f64;
        let (mut lo, mut hi) = (0.0f64, 8.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let mean = Zipf::new(d_max, mid).mean();
            if mean > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let exponent = 0.5 * (lo + hi);
        DegreeSequence { zipf: Zipf::new(d_max, exponent), exponent }
    }

    /// The solved power-law exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Analytic mean degree of the fitted distribution.
    pub fn mean(&self) -> f64 {
        self.zipf.mean()
    }

    /// Sample one out-degree in `1..=d_max`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.zipf.sample(rng)
    }

    /// Sample a full degree sequence for `n` peers, capped by `n − 1`
    /// (a peer cannot rate more peers than exist).
    pub fn sample_sequence<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        (0..n).map(|_| self.sample(rng).min(n.saturating_sub(1))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (1..=100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(50, 0.8);
        for r in 1..50 {
            assert!(z.pmf(r) >= z.pmf(r + 1), "rank {r}");
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 1..=10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
        assert!((z.mean() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_match_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..trials {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for r in 1..=5 {
            let emp = counts[r - 1] as f64 / trials as f64;
            assert!((emp - z.pmf(r)).abs() < 0.01, "rank {r}: {emp} vs {}", z.pmf(r));
        }
    }

    #[test]
    fn zipf_sample_covers_range_only() {
        let z = Zipf::new(7, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((1..=7).contains(&r));
        }
    }

    #[test]
    fn two_segment_is_continuous_at_break() {
        let t = TwoSegmentZipf::new(1000, 250, 0.63, 1.24);
        // The pmf ratio across the break should follow the *tail* exponent,
        // not jump: p(250)/p(251) ≈ (251/250)^1.24 ≈ 1.005.
        let ratio = t.pmf(250) / t.pmf(251);
        assert!(ratio > 1.0 && ratio < 1.02, "ratio {ratio}");
    }

    #[test]
    fn two_segment_tail_decays_faster() {
        let t = TwoSegmentZipf::gnutella_queries(2000);
        assert_eq!(t.break_rank(), 250);
        // Head decay (per decade) is slower than tail decay.
        let head_ratio = t.pmf(10) / t.pmf(100); // ~ (10)^0.63
        let tail_ratio = t.pmf(300) / t.pmf(2000); // ~ steeper
        let head_exp = head_ratio.ln() / 10f64.ln();
        let tail_exp = tail_ratio.ln() / (2000.0f64 / 300.0).ln();
        assert!((head_exp - 0.63).abs() < 0.02, "head exponent {head_exp}");
        assert!((tail_exp - 1.24).abs() < 0.05, "tail exponent {tail_exp}");
    }

    #[test]
    fn two_segment_pmf_sums_to_one() {
        let t = TwoSegmentZipf::gnutella_queries(500);
        let total: f64 = (1..=500).map(|r| t.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let p = BoundedPareto::new(2.0, 500.0, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!((2.0..=500.0 + 1e-9).contains(&x), "x={x}");
        }
    }

    #[test]
    fn bounded_pareto_empirical_mean_matches_analytic() {
        let p = BoundedPareto::new(1.0, 1000.0, 1.5);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 200_000;
        let sum: f64 = (0..trials).map(|_| p.sample(&mut rng)).sum();
        let emp = sum / trials as f64;
        let ana = p.mean();
        assert!((emp - ana).abs() / ana < 0.05, "emp {emp} vs analytic {ana}");
    }

    #[test]
    fn degree_sequence_hits_paper_parameters() {
        // Table 2: d_max = 200, d_avg = 20.
        let d = DegreeSequence::new(20, 200);
        assert!((d.mean() - 20.0).abs() < 0.1, "analytic mean {}", d.mean());
        let mut rng = StdRng::seed_from_u64(5);
        let seq = d.sample_sequence(20_000, &mut rng);
        let emp = seq.iter().sum::<usize>() as f64 / seq.len() as f64;
        assert!((emp - 20.0).abs() < 1.0, "empirical mean {emp}");
        assert!(seq.iter().all(|&x| (1..=200).contains(&x)));
        assert!(d.exponent() > 0.0 && d.exponent() < 3.0);
    }

    #[test]
    fn degree_sequence_caps_by_network_size() {
        let d = DegreeSequence::new(20, 200);
        let mut rng = StdRng::seed_from_u64(6);
        let seq = d.sample_sequence(10, &mut rng);
        assert!(seq.iter().all(|&x| x <= 9));
    }

    #[test]
    #[should_panic(expected = "d_avg < d_max")]
    fn degree_sequence_rejects_bad_params() {
        let _ = DegreeSequence::new(200, 200);
    }
}
