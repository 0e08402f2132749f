//! Algorithm 2 (outer loop) — the aggregation-cycle driver.
//!
//! Each aggregation cycle `t` seeds the [`VectorGossipEngine`] from the
//! previous global vector `V(t−1)`, drives the gossip to ε-convergence,
//! reads out `V(t)`, and repeats until `|V(t) − V(t−1)| < δ`. Power nodes
//! are (re)selected from the freshest converged vector and blended in with
//! the greedy factor `α` on the next seeding, per §3 of the paper.

use crate::chooser::{TargetChooser, UniformChooser};
use crate::engine::{EngineConfig, VectorGossipEngine};
use crate::stats::GossipStats;
use gossiptrust_core::convergence::VectorConvergence;
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::metrics::rms_relative_error;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::{PowerNodeSelector, Prior};
use gossiptrust_core::vector::ReputationVector;
use rand::Rng;

/// How the mixing prior evolves across aggregation cycles.
#[derive(Clone, Debug, PartialEq)]
pub enum PriorPolicy {
    /// Keep one fixed prior for the whole aggregation (e.g. uniform, or a
    /// power-node set carried over from the *previous* reputation round, as
    /// §3's "identify power nodes for the next round" describes).
    Fixed(Prior),
    /// Re-select the top-`q` power nodes from each freshly converged cycle
    /// vector (uniform prior on the very first cycle). This is the adaptive
    /// variant used for cold-start aggregations in the experiments.
    PowerNodesEachCycle,
}

/// Per-cycle measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleStats {
    /// Aggregation cycle index `t` (1-based).
    pub cycle: usize,
    /// Gossip steps the inner loop needed (the paper's `g`).
    pub gossip_steps: usize,
    /// Whether the inner loop hit its ε test (vs. exhausting the budget).
    pub gossip_converged: bool,
    /// RMS relative error of the gossiped cycle result against the exact
    /// centralized iterate for the same cycle — the paper's *gossip error*.
    pub gossip_error: f64,
    /// Outer-loop residual `|V(t) − V(t−1)|` after this cycle (average
    /// relative error); `None` for the first cycle.
    pub residual: Option<f64>,
    /// Message/bandwidth counters for this cycle.
    pub stats: GossipStats,
}

/// Result of a full gossip-based aggregation (Algorithm 2).
#[derive(Clone, Debug, PartialEq)]
pub struct AggregationReport {
    /// The converged global reputation vector.
    pub vector: ReputationVector,
    /// Aggregation cycles executed (the paper's `d`).
    pub cycles: usize,
    /// Whether the outer `δ` test fired within the cycle budget.
    pub converged: bool,
    /// Per-cycle measurements.
    pub per_cycle: Vec<CycleStats>,
    /// Power nodes selected from the final vector (for the next round).
    pub power_nodes: Vec<NodeId>,
}

impl AggregationReport {
    /// Total gossip steps across all cycles.
    pub fn total_gossip_steps(&self) -> usize {
        self.per_cycle.iter().map(|c| c.gossip_steps).sum()
    }

    /// Mean gossip steps per cycle (what Table 3's "Gossip Step" reports).
    pub fn mean_gossip_steps(&self) -> f64 {
        if self.per_cycle.is_empty() {
            return 0.0;
        }
        self.total_gossip_steps() as f64 / self.per_cycle.len() as f64
    }

    /// Summed message counters across cycles.
    pub fn total_stats(&self) -> GossipStats {
        let mut s = GossipStats::default();
        for c in &self.per_cycle {
            s.absorb(&c.stats);
        }
        s
    }

    /// Largest per-cycle gossip error (the error the gossip layer injects
    /// into the aggregation, before it compounds across cycles).
    pub fn max_gossip_error(&self) -> f64 {
        self.per_cycle.iter().map(|c| c.gossip_error).fold(0.0, f64::max)
    }
}

/// Drives full GossipTrust aggregations.
#[derive(Clone, Debug)]
pub struct GossipTrustAggregator {
    params: Params,
    engine_config: EngineConfig,
    prior_policy: PriorPolicy,
    selector: PowerNodeSelector,
    /// Gossip disturbers: `(node, inflated components, factor)`.
    corruption: Vec<(NodeId, Vec<u32>, f64)>,
}

impl GossipTrustAggregator {
    /// Aggregator with engine settings derived from `params`.
    pub fn new(params: Params) -> Self {
        let engine_config = EngineConfig::from_params(&params, params.n);
        let selector = PowerNodeSelector::new(params.max_power_nodes);
        GossipTrustAggregator {
            params,
            engine_config,
            prior_policy: PriorPolicy::PowerNodesEachCycle,
            selector,
            corruption: Vec::new(),
        }
    }

    /// Configure malicious gossip disturbers (see
    /// [`VectorGossipEngine::set_corruption`]): each entry makes `node`
    /// inflate the pushed `x` of the listed components by `factor` in every
    /// message it sends, across all cycles.
    pub fn with_corruption(mut self, corruption: Vec<(NodeId, Vec<u32>, f64)>) -> Self {
        self.corruption = corruption;
        self
    }

    /// Override the engine configuration (loss injection, step budgets, …).
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Override the prior policy.
    pub fn with_prior_policy(mut self, policy: PriorPolicy) -> Self {
        self.prior_policy = policy;
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Run a full aggregation from the cold start `V(0) = uniform`.
    pub fn aggregate<R: Rng + ?Sized>(
        &self,
        matrix: &TrustMatrix,
        rng: &mut R,
    ) -> AggregationReport {
        self.aggregate_with(matrix, &ReputationVector::uniform(matrix.n()), &UniformChooser, rng)
    }

    /// Run a full aggregation from a caller-supplied start vector (warm
    /// start for reputation *updating*) and target chooser.
    pub fn aggregate_with<C: TargetChooser, R: Rng + ?Sized>(
        &self,
        matrix: &TrustMatrix,
        start: &ReputationVector,
        chooser: &C,
        rng: &mut R,
    ) -> AggregationReport {
        let mut engine = VectorGossipEngine::new(matrix.n(), self.engine_config.clone());
        self.aggregate_with_engine(&mut engine, matrix, start, chooser, rng)
    }

    /// Like [`aggregate_with`](Self::aggregate_with), but reusing a
    /// caller-owned engine (and thereby its persistent worker pool) across
    /// aggregations. [`VectorGossipEngine::seed`] fully resets the per-cycle
    /// state, so the result is **bit-identical** to a run on a fresh engine
    /// with the same RNG — only the engine's monotonic [`GossipStats`]
    /// counters carry over (capture them before the call and use
    /// [`GossipStats::diff`] for per-run deltas). This is what a long-running
    /// service uses to aggregate every epoch without respawning threads.
    pub fn aggregate_with_engine<C: TargetChooser, R: Rng + ?Sized>(
        &self,
        engine: &mut VectorGossipEngine,
        matrix: &TrustMatrix,
        start: &ReputationVector,
        chooser: &C,
        rng: &mut R,
    ) -> AggregationReport {
        let n = matrix.n();
        assert_eq!(start.n(), n, "start vector size mismatch");
        assert_eq!(engine.n(), n, "engine size mismatch");
        for (node, targets, factor) in &self.corruption {
            engine.set_corruption(*node, targets.clone(), *factor);
        }
        let mut outer = VectorConvergence::new(self.params.delta);
        outer.observe(start); // V(0) is the comparison base for cycle 1.

        let mut current = start.clone();
        let mut prior = match &self.prior_policy {
            PriorPolicy::Fixed(p) => p.clone(),
            PriorPolicy::PowerNodesEachCycle => Prior::uniform(n),
        };
        let mut per_cycle = Vec::new();
        let mut converged = false;

        for cycle in 1..=self.params.max_cycles {
            // Exact centralized iterate for this cycle, to measure the
            // gossip error in isolation.
            let mut exact = vec![0.0; n];
            matrix
                .transpose_mul(current.values(), &mut exact)
                .expect("dimensions match");
            prior.mix_into(&mut exact, self.params.alpha);

            engine.seed(matrix, &current, &prior, self.params.alpha);
            let stats_before = engine.stats();
            let (gossip_steps, gossip_converged) = engine.run(chooser, rng);
            // Per-cycle counters = difference against the running totals.
            let cycle_stats = engine.stats().diff(&stats_before);

            let estimate = engine.mean_estimate();
            let gossip_error = rms_relative_error(&exact, &estimate);

            let next =
                ReputationVector::from_weights(estimate.iter().map(|&x| x.max(0.0)).collect())
                    .expect("gossiped scores stay positive overall");

            let hit_delta = outer.observe(&next);
            per_cycle.push(CycleStats {
                cycle,
                gossip_steps,
                gossip_converged,
                gossip_error,
                residual: outer.last_residual(),
                stats: cycle_stats,
            });
            current = next;

            if let PriorPolicy::PowerNodesEachCycle = self.prior_policy {
                prior = self.selector.prior(&current);
            }

            if hit_delta {
                converged = true;
                break;
            }
        }

        let power_nodes = self.selector.select(&current);
        AggregationReport {
            vector: current,
            cycles: per_cycle.len(),
            converged,
            per_cycle,
            power_nodes,
        }
    }
}

/// The centralized mirror of [`GossipTrustAggregator`]: the exact vector
/// the outer loop *would* compute with zero gossip noise, under the same
/// greedy factor and [`PriorPolicy`] (including the per-cycle power-node
/// re-selection). This is the "calculated" ground truth the robustness
/// experiments (Fig. 4) compare the gossiped result against.
pub fn exact_reference(
    matrix: &TrustMatrix,
    params: &Params,
    policy: &PriorPolicy,
) -> ReputationVector {
    let n = matrix.n();
    let selector = PowerNodeSelector::new(params.max_power_nodes);
    let mut outer = VectorConvergence::new(params.delta);
    let mut current = ReputationVector::uniform(n);
    outer.observe(&current);
    let mut prior = match policy {
        PriorPolicy::Fixed(p) => p.clone(),
        PriorPolicy::PowerNodesEachCycle => Prior::uniform(n),
    };
    let mut next = vec![0.0; n];
    for _ in 1..=params.max_cycles {
        matrix
            .transpose_mul(current.values(), &mut next)
            .expect("dimensions match");
        prior.mix_into(&mut next, params.alpha);
        let next_vec =
            ReputationVector::from_weights(next.clone()).expect("stochastic iterate stays valid");
        let hit = outer.observe(&next_vec);
        current = next_vec;
        if let PriorPolicy::PowerNodesEachCycle = policy {
            prior = selector.prior(&current);
        }
        if hit {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossiptrust_core::matrix::TrustMatrixBuilder;
    use gossiptrust_core::power_iter::PowerIteration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_matrix(n: usize) -> TrustMatrix {
        // i trusts i+1 strongly and i+2 weakly: an asymmetric ergodic chain.
        let mut b = TrustMatrixBuilder::new(n);
        for i in 0..n {
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 3.0);
            b.record(NodeId::from_index(i), NodeId::from_index((i + 2) % n), 1.0);
        }
        b.build()
    }

    fn authority_matrix(n: usize) -> TrustMatrix {
        let mut b = TrustMatrixBuilder::new(n);
        for i in 1..n {
            b.record(NodeId::from_index(i), NodeId(0), 4.0);
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
        }
        b.record(NodeId(0), NodeId(1), 1.0);
        b.build()
    }

    #[test]
    fn aggregation_matches_centralized_oracle() {
        let n = 32;
        let m = authority_matrix(n);
        let params = Params::for_network(n);
        let agg = GossipTrustAggregator::new(params.clone())
            .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
        let mut rng = StdRng::seed_from_u64(100);
        let report = agg.aggregate(&m, &mut rng);
        assert!(report.converged, "outer loop must converge");

        let exact = PowerIteration::new(params).solve(&m, &Prior::uniform(n));
        let err = exact.vector.rms_relative_error(&report.vector).unwrap();
        assert!(err < 0.05, "rms error vs oracle: {err}");
        // Rankings agree on the authority.
        assert_eq!(report.vector.ranking()[0], NodeId(0));
    }

    #[test]
    fn per_cycle_stats_are_consistent() {
        let n = 16;
        let m = chain_matrix(n);
        let agg = GossipTrustAggregator::new(Params::for_network(n));
        let mut rng = StdRng::seed_from_u64(7);
        let report = agg.aggregate(&m, &mut rng);
        assert_eq!(report.cycles, report.per_cycle.len());
        assert!(report.cycles >= 1);
        let total: usize = report.per_cycle.iter().map(|c| c.gossip_steps).sum();
        assert_eq!(report.total_gossip_steps(), total);
        assert!(report.mean_gossip_steps() > 0.0);
        // Step counters from the engine line up with per-cycle sums.
        assert_eq!(report.total_stats().steps as usize, total);
        // First cycle has a residual (vs V(0) = uniform).
        assert!(report.per_cycle[0].residual.is_some());
        for c in &report.per_cycle {
            assert!(c.gossip_converged, "cycle {} ran out of step budget", c.cycle);
            assert!(c.gossip_error < 0.05, "cycle {} gossip error {}", c.cycle, c.gossip_error);
        }
    }

    #[test]
    fn tighter_delta_needs_more_cycles() {
        let n = 24;
        let m = authority_matrix(n);
        let mut rng = StdRng::seed_from_u64(19);
        let loose = GossipTrustAggregator::new(Params::for_network(n).with_delta(5e-2))
            .aggregate(&m, &mut rng);
        let mut rng = StdRng::seed_from_u64(19);
        let tight = GossipTrustAggregator::new(Params::for_network(n).with_delta(1e-5))
            .aggregate(&m, &mut rng);
        assert!(tight.cycles > loose.cycles, "{} vs {}", tight.cycles, loose.cycles);
    }

    #[test]
    fn warm_start_converges_quickly() {
        // Use a gossip threshold well below δ so the per-cycle gossip noise
        // floor cannot mask the outer convergence (the paper's Table 3 also
        // pairs ε one decade below δ for the same reason).
        let n = 24;
        let m = authority_matrix(n);
        let params = Params::for_network(n).with_epsilon(1e-7).with_delta(1e-3);
        let agg = GossipTrustAggregator::new(params.clone())
            .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
        let mut rng = StdRng::seed_from_u64(3);
        let cold = agg.aggregate(&m, &mut rng);
        assert!(cold.converged);
        let warm = agg.aggregate_with(&m, &cold.vector, &UniformChooser, &mut rng);
        assert!(warm.cycles <= 3, "warm start took {} cycles", warm.cycles);
        assert!(warm.cycles < cold.cycles);
    }

    #[test]
    fn power_nodes_are_reported_and_plausible() {
        let n = 32;
        let m = authority_matrix(n);
        let agg = GossipTrustAggregator::new(Params::for_network(n));
        let mut rng = StdRng::seed_from_u64(5);
        let report = agg.aggregate(&m, &mut rng);
        assert_eq!(report.power_nodes.len(), Params::for_network(n).max_power_nodes);
        // N0 and N1 are the two hubs and nearly tied; the adaptive
        // power-node prior is self-reinforcing, so either can end up on
        // top — but nothing else can.
        assert!(
            report.power_nodes[0] == NodeId(0) || report.power_nodes[0] == NodeId(1),
            "power node was {}",
            report.power_nodes[0]
        );
    }

    #[test]
    fn fixed_power_node_prior_biases_towards_power_nodes() {
        let n = 24;
        let m = chain_matrix(n);
        let power = vec![NodeId(3)];
        let agg = GossipTrustAggregator::new(Params::for_network(n).with_alpha(0.5))
            .with_prior_policy(PriorPolicy::Fixed(Prior::over_nodes(n, &power)));
        let mut rng = StdRng::seed_from_u64(13);
        let report = agg.aggregate(&m, &mut rng);
        // Node 3 receives a 0.5 jump mass: it must dominate.
        assert_eq!(report.vector.ranking()[0], NodeId(3));
    }

    #[test]
    fn exact_reference_matches_power_iteration_for_fixed_prior() {
        let n = 20;
        let m = chain_matrix(n);
        let params = Params::for_network(n).with_delta(1e-10);
        let reference = exact_reference(&m, &params, &PriorPolicy::Fixed(Prior::uniform(n)));
        let oracle = PowerIteration::new(params).solve(&m, &Prior::uniform(n));
        assert!(reference.l1_distance(&oracle.vector).unwrap() < 1e-8);
    }

    #[test]
    fn exact_reference_tracks_the_adaptive_aggregator() {
        // With tight ε the gossiped adaptive run should approach the exact
        // adaptive reference (same policy, same α).
        let n = 24;
        let m = authority_matrix(n);
        let params = Params::for_network(n).with_epsilon(1e-7);
        let reference = exact_reference(&m, &params, &PriorPolicy::PowerNodesEachCycle);
        let agg =
            GossipTrustAggregator::new(params).with_prior_policy(PriorPolicy::PowerNodesEachCycle);
        let mut rng = StdRng::seed_from_u64(55);
        let report = agg.aggregate(&m, &mut rng);
        let err = reference.rms_relative_error(&report.vector).unwrap();
        assert!(err < 0.2, "adaptive reference mismatch: {err}");
    }

    /// A long-lived engine driven through several aggregations must produce
    /// exactly what a fresh engine produces for the same RNG stream, and its
    /// monotonic counters must diff back to the per-run totals.
    #[test]
    fn engine_reuse_is_bit_identical_across_aggregations() {
        let n = 24;
        let m = authority_matrix(n);
        let params = Params::for_network(n);
        let agg = GossipTrustAggregator::new(params.clone());
        let mut engine = VectorGossipEngine::new(n, EngineConfig::from_params(&params, n));
        let start = ReputationVector::uniform(n);
        for seed in [5u64, 6, 7] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let before = engine.stats();
            let reused =
                agg.aggregate_with_engine(&mut engine, &m, &start, &UniformChooser, &mut rng_a);
            let fresh = agg.aggregate_with(&m, &start, &UniformChooser, &mut rng_b);
            assert_eq!(reused.vector.values(), fresh.vector.values(), "scores diverged");
            assert_eq!(reused.cycles, fresh.cycles);
            assert_eq!(engine.stats().diff(&before), fresh.total_stats());
        }
    }

    #[test]
    fn report_error_helpers() {
        let n = 16;
        let m = chain_matrix(n);
        let agg = GossipTrustAggregator::new(Params::for_network(n));
        let mut rng = StdRng::seed_from_u64(23);
        let report = agg.aggregate(&m, &mut rng);
        assert!(report.max_gossip_error() >= 0.0);
        assert!(report.max_gossip_error() < 0.05);
    }
}
