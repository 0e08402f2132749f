//! One-stop experiment scenario bundling population + feedback matrices.

use crate::feedback::{self, FeedbackConfig};
use crate::population::{Population, ThreatConfig};
use gossiptrust_core::matrix::TrustMatrix;
use rand::Rng;

/// Configuration of a full robustness scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// Number of peers.
    pub n: usize,
    /// Threat model.
    pub threat: ThreatConfig,
    /// Feedback-graph parameters.
    pub feedback: FeedbackConfig,
}

impl ScenarioConfig {
    /// Paper defaults for an `n`-peer network with threat model `threat`.
    pub fn new(n: usize, threat: ThreatConfig) -> Self {
        ScenarioConfig { n, threat, feedback: FeedbackConfig::default() }
    }

    /// Scaled-down feedback parameters for small test networks (keeps the
    /// degree distribution feasible when `n` is far below 1000).
    pub fn small(n: usize, threat: ThreatConfig) -> Self {
        let d_max = (n / 2).clamp(4, 200);
        let d_avg = (d_max / 4).max(2);
        ScenarioConfig {
            n,
            threat,
            feedback: FeedbackConfig { d_avg, d_max, transactions_per_edge: 5, target_skew: 0.8 },
        }
    }
}

/// A generated scenario: who is malicious, what the truth is, and what the
/// reputation system gets to see.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The peer population (kinds + authenticity rates).
    pub population: Population,
    /// Ground-truth trust matrix (all feedback truthful).
    pub honest: TrustMatrix,
    /// Polluted trust matrix (malicious feedback applied).
    pub polluted: TrustMatrix,
    /// Feedback edges generated.
    pub edges: usize,
}

impl Scenario {
    /// Generate a scenario deterministically from `rng`.
    pub fn generate<R: Rng + ?Sized>(config: &ScenarioConfig, rng: &mut R) -> Self {
        let population = Population::generate(config.n, &config.threat, rng);
        let out = feedback::generate(&population, &config.feedback, rng);
        Scenario { population, honest: out.honest, polluted: out.polluted, edges: out.edges }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.population.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ScenarioConfig::small(50, ThreatConfig::independent(0.2));
        let a = Scenario::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let b = Scenario::generate(&cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.honest, b.honest);
        assert_eq!(a.polluted, b.polluted);
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn small_config_scales_degrees() {
        let cfg = ScenarioConfig::small(20, ThreatConfig::benign());
        assert!(cfg.feedback.d_max <= 10);
        assert!(cfg.feedback.d_avg >= 2);
        let s = Scenario::generate(&cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(s.n(), 20);
        assert!(s.edges > 0);
    }

    #[test]
    fn default_config_uses_table2() {
        let cfg = ScenarioConfig::new(1000, ThreatConfig::independent(0.2));
        assert_eq!(cfg.feedback.d_avg, 20);
        assert_eq!(cfg.feedback.d_max, 200);
    }

    #[test]
    fn benign_scenario_has_identical_matrices() {
        let cfg = ScenarioConfig::small(40, ThreatConfig::benign());
        let s = Scenario::generate(&cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(s.honest, s.polluted);
    }
}
