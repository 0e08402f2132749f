//! Feedback-graph generation: the honest/polluted trust-matrix pair.
//!
//! Every peer issues feedback for a power-law number of partners
//! (`d_max = 200`, `d_avg = 20` by default, per Table 2). For each feedback
//! edge `i → j` we simulate `m` transactions in which `j` serves authentic
//! content with its intrinsic authenticity rate; the number of authentic
//! outcomes is the *honest* raw score `r_ij`.
//!
//! The generator returns **two** trust matrices built from the *same*
//! transaction outcomes:
//!
//! * the **honest** matrix — every rating reports the observed outcomes
//!   truthfully. Its power-iteration eigenvector is the "calculated"
//!   ground truth `v` of Eq. 8;
//! * the **polluted** matrix — malicious raters lie per the threat model:
//!   independent attackers invert their ratings ("rate the peers who
//!   provide good service very low and those who provide bad service very
//!   high"), collusive attackers max-rate their group mates and zero-rate
//!   outsiders. This is the matrix the reputation system actually sees,
//!   and its aggregate is the "gossiped" `u` of Eq. 8.

use crate::population::{PeerKind, Population};
use gossiptrust_core::id::NodeId;
use gossiptrust_core::local::LocalTrust;
use gossiptrust_core::matrix::TrustMatrix;
use rand::seq::index::sample as index_sample;
use rand::Rng;

/// Feedback-graph knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedbackConfig {
    /// Average feedback out-degree (Table 2: 20).
    pub d_avg: usize,
    /// Maximum feedback out-degree (Table 2: 200).
    pub d_max: usize,
    /// Simulated transactions per feedback edge.
    pub transactions_per_edge: usize,
    /// Zipf exponent of *target popularity*: who gets rated is skewed —
    /// a few popular peers transact (and hence get rated) far more than
    /// the tail, mirroring the measured power-law feedback distributions
    /// ("the number of feedbacks … is power law distributed", §6.1, and
    /// PowerTrust's central premise). Popularity is assigned by a random
    /// permutation independent of honesty. 0 = uniform targets.
    pub target_skew: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { d_avg: 20, d_max: 200, transactions_per_edge: 5, target_skew: 0.8 }
    }
}

/// Result of feedback generation.
#[derive(Clone, Debug)]
pub struct FeedbackOutcome {
    /// Trust matrix under fully truthful reporting (ground truth).
    pub honest: TrustMatrix,
    /// Trust matrix as distorted by the malicious raters.
    pub polluted: TrustMatrix,
    /// Number of feedback edges generated.
    pub edges: usize,
}

/// Sample a binomial count: successes in `m` Bernoulli(`p`) trials.
fn binomial<R: Rng + ?Sized>(m: usize, p: f64, rng: &mut R) -> usize {
    (0..m).filter(|_| rng.random::<f64>() < p).count()
}

/// Generate the feedback graph and both trust matrices for `population`.
pub fn generate<R: Rng + ?Sized>(
    population: &Population,
    config: &FeedbackConfig,
    rng: &mut R,
) -> FeedbackOutcome {
    let n = population.n();
    assert!(n >= 2, "feedback needs at least two peers");
    assert!(config.target_skew >= 0.0, "target skew must be non-negative");
    let m = config.transactions_per_edge.max(1);
    let degree_dist = crate::powerlaw::DegreeSequence::new(
        config.d_avg.min(config.d_max - 1).max(1),
        config.d_max,
    );

    // Popularity-skewed target sampling: peer `popularity[r]` has rank
    // `r + 1` in a Zipf(target_skew) law. The permutation decouples
    // popularity from both node id and honesty.
    let target_zipf = crate::powerlaw::Zipf::new(n, config.target_skew);
    let mut popularity: Vec<u32> = (0..n as u32).collect();
    {
        use rand::seq::SliceRandom;
        popularity.shuffle(rng);
    }

    let mut honest_rows = vec![LocalTrust::new(); n];
    let mut polluted_rows = vec![LocalTrust::new(); n];
    let mut edges = 0usize;

    for i in 0..n {
        let rater = NodeId::from_index(i);
        let kind = population.kind(rater);
        let degree = degree_dist.sample(rng).min(n - 1);

        // Target set: `degree` distinct peers ≠ i; collusive raters always
        // include their group mates (they manufacture in-group feedback).
        let mut targets: Vec<usize> = Vec::with_capacity(degree + 4);
        if let PeerKind::Collusive(g) = kind {
            targets.extend(
                population
                    .collusion_group(g)
                    .into_iter()
                    .filter(|&t| t != rater)
                    .map(|t| t.index()),
            );
        }
        // Fill the rest by popularity-skewed sampling without replacement
        // (rejection against self, collusion mates and duplicates); fall
        // back to uniform slots if rejection stalls on tiny networks.
        let want = degree.saturating_sub(targets.len());
        if want > 0 {
            let mut picked = 0usize;
            let mut attempts = 0usize;
            let max_attempts = 40 * want + 40;
            while picked < want && attempts < max_attempts {
                attempts += 1;
                let t = popularity[target_zipf.sample(rng) - 1] as usize;
                if t != i && !targets.contains(&t) {
                    targets.push(t);
                    picked += 1;
                }
            }
            if picked < want {
                for raw in index_sample(rng, n - 1, (want - picked).min(n - 1)) {
                    let t = if raw >= i { raw + 1 } else { raw };
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
            }
        }

        for &t in &targets {
            let target = NodeId::from_index(t);
            let authentic = binomial(m, population.authenticity(target), rng);
            edges += 1;
            // Honest (ground-truth) rating: the observed outcomes.
            honest_rows[i].add_feedback(target, authentic as f64);
            // Polluted rating per the rater's kind.
            let lied = match kind {
                PeerKind::Honest => authentic as f64,
                PeerKind::IndependentMalicious => (m - authentic) as f64,
                PeerKind::Collusive(_) => {
                    if population.same_collusion_group(rater, target) {
                        m as f64
                    } else {
                        0.0
                    }
                }
            };
            polluted_rows[i].add_feedback(target, lied);
        }
    }

    FeedbackOutcome {
        honest: TrustMatrix::from_rows(&honest_rows),
        polluted: TrustMatrix::from_rows(&polluted_rows),
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ThreatConfig;
    use gossiptrust_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> FeedbackConfig {
        FeedbackConfig { d_avg: 5, d_max: 20, transactions_per_edge: 5, target_skew: 0.8 }
    }

    #[test]
    fn benign_population_matrices_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::generate(60, &ThreatConfig::benign(), &mut rng);
        let out = generate(&pop, &small_config(), &mut rng);
        assert_eq!(out.honest, out.polluted, "no liars → identical matrices");
        assert!(out.edges > 0);
        assert!(out.honest.is_row_stochastic(1e-9));
    }

    #[test]
    fn malicious_raters_distort_only_their_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = Population::generate(60, &ThreatConfig::independent(0.2), &mut rng);
        let out = generate(&pop, &small_config(), &mut rng);
        for i in 0..60 {
            let id = NodeId(i);
            let honest_row: Vec<_> = {
                let (c, v) = out.honest.row(id);
                c.iter().zip(v).map(|(&c, &v)| (c, v)).collect()
            };
            let polluted_row: Vec<_> = {
                let (c, v) = out.polluted.row(id);
                c.iter().zip(v).map(|(&c, &v)| (c, v)).collect()
            };
            if !pop.kind(id).is_malicious() {
                assert_eq!(honest_row, polluted_row, "honest row {i} must be identical");
            }
        }
    }

    #[test]
    fn honest_ground_truth_ranks_honest_above_malicious() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = Population::generate(100, &ThreatConfig::independent(0.3), &mut rng);
        let out = generate(&pop, &small_config(), &mut rng);
        // α = 0 isolates the eigenvector signal (the uniform α-jump would
        // compress the honest/malicious gap by a constant floor).
        let solver = PowerIteration::new(Params::for_network(100).with_alpha(0.0));
        let v = solver.solve(&out.honest, &Prior::uniform(100)).vector;
        let avg = |ids: &[NodeId]| ids.iter().map(|&i| v.score(i)).sum::<f64>() / ids.len() as f64;
        let honest_avg = avg(&pop.honest_peers());
        let mal_avg = avg(&pop.malicious_peers());
        assert!(honest_avg > 1.5 * mal_avg, "honest {honest_avg} vs malicious {mal_avg}");
    }

    #[test]
    fn collusion_boosts_group_scores_in_polluted_matrix() {
        // The boost is heavy-tailed across seeds (the honest-truth scores
        // of unpopular colluders can be tiny), so average several seeds.
        let mut boosts = Vec::new();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = Population::generate(100, &ThreatConfig::collusive(0.2, 5), &mut rng);
            let out = generate(&pop, &small_config(), &mut rng);
            let solver = PowerIteration::new(Params::for_network(100).with_alpha(0.0));
            let honest_v = solver.solve(&out.honest, &Prior::uniform(100)).vector;
            let polluted_v = solver.solve(&out.polluted, &Prior::uniform(100)).vector;
            let avg = |v: &ReputationVector, ids: &[NodeId]| {
                ids.iter().map(|&i| v.score(i)).sum::<f64>() / ids.len() as f64
            };
            let mal = pop.malicious_peers();
            boosts.push(avg(&polluted_v, &mal) / avg(&honest_v, &mal).max(1e-12));
        }
        let mean = boosts.iter().sum::<f64>() / boosts.len() as f64;
        assert!(mean > 2.0, "collusion should inflate group scores, boosts={boosts:?}");
        assert!(
            boosts.iter().filter(|&&b| b > 1.0).count() >= 4,
            "most seeds should show a boost: {boosts:?}"
        );
    }

    #[test]
    fn pollution_error_grows_with_gamma() {
        let err_at = |gamma: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = Population::generate(150, &ThreatConfig::independent(gamma), &mut rng);
            let out = generate(&pop, &small_config(), &mut rng);
            let solver = PowerIteration::new(Params::for_network(150));
            let honest = solver.solve(&out.honest, &Prior::uniform(150)).vector;
            let polluted = solver.solve(&out.polluted, &Prior::uniform(150)).vector;
            honest.rms_relative_error(&polluted).unwrap()
        };
        // Average over a few seeds to tame variance.
        let lo: f64 = (0..4).map(|s| err_at(0.05, s)).sum::<f64>() / 4.0;
        let hi: f64 = (0..4).map(|s| err_at(0.40, s)).sum::<f64>() / 4.0;
        assert!(hi > lo, "more liars must mean more distortion: {lo} vs {hi}");
    }

    #[test]
    fn degrees_respect_caps() {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = Population::generate(30, &ThreatConfig::benign(), &mut rng);
        let cfg =
            FeedbackConfig { d_avg: 10, d_max: 200, transactions_per_edge: 3, target_skew: 0.8 };
        let out = generate(&pop, &cfg, &mut rng);
        // No row can have more entries than n-1 (and none can self-rate).
        for i in 0..30 {
            let (cols, _) = out.polluted.row(NodeId(i));
            assert!(cols.len() <= 29);
            assert!(!cols.contains(&i));
        }
    }

    #[test]
    fn binomial_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 20_000;
        let total: usize = (0..trials).map(|_| binomial(10, 0.3, &mut rng)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = small_config();
        let gen = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = Population::generate(40, &ThreatConfig::independent(0.1), &mut rng);
            generate(&pop, &cfg, &mut rng)
        };
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a.honest, b.honest);
        assert_eq!(a.polluted, b.polluted);
        assert_eq!(a.edges, b.edges);
    }
}
