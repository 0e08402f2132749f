//! Power-node selection and the greedy-factor `α` prior mixing.
//!
//! GossipTrust inherits *power nodes* from PowerTrust: after each round of
//! global reputation computation, the most reputable peers (up to `q`,
//! defaulting to 1% of `n`) are designated power nodes for the next round.
//! The *greedy factor* `α` expresses "the eagerness for a peer to work with
//! selected power nodes": each aggregation cycle computes
//!
//! ```text
//! V(t+1) = (1 − α) · Sᵀ·V(t) + α · P
//! ```
//!
//! where `P` is the uniform distribution over the current power-node set
//! (uniform over *all* nodes before the first scores exist). Besides the
//! accuracy benefit measured in Fig. 4, the mixing makes the iteration
//! matrix primitive, guaranteeing a unique stationary vector — the same
//! role the pre-trusted-peer jump plays in EigenTrust.

use crate::id::NodeId;
use crate::vector::ReputationVector;

/// A prior distribution `P` over nodes used for the `α`-mixing jump.
#[derive(Clone, Debug, PartialEq)]
pub struct Prior {
    n: usize,
    /// Sparse support: nodes with non-zero prior mass and that mass.
    /// Empty support encodes the uniform prior over all `n` nodes.
    support: Vec<(NodeId, f64)>,
}

impl Prior {
    /// The uniform prior over all `n` nodes (`p_j = 1/n`).
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "prior needs at least one node");
        Prior { n, support: Vec::new() }
    }

    /// A prior uniform over the given `nodes` (the power-node set).
    ///
    /// Falls back to the all-nodes uniform prior when `nodes` is empty, so
    /// that the mixing step never loses probability mass.
    pub fn over_nodes(n: usize, nodes: &[NodeId]) -> Self {
        assert!(n > 0, "prior needs at least one node");
        if nodes.is_empty() {
            return Prior::uniform(n);
        }
        let mass = 1.0 / nodes.len() as f64;
        let mut support: Vec<(NodeId, f64)> = nodes.iter().map(|&id| (id, mass)).collect();
        support.sort_by_key(|(id, _)| *id);
        support.dedup_by_key(|(id, _)| *id);
        // Re-normalize in case of duplicates in the input.
        let total: f64 = support.iter().map(|(_, m)| m).sum();
        for (_, m) in &mut support {
            *m /= total;
        }
        Prior { n, support }
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Prior mass `p_j` of node `j`.
    pub fn density(&self, j: NodeId) -> f64 {
        if self.support.is_empty() {
            return 1.0 / self.n as f64;
        }
        self.support
            .binary_search_by_key(&j, |(id, _)| *id)
            .map(|pos| self.support[pos].1)
            .unwrap_or(0.0)
    }

    /// True when this is the uniform prior over all nodes.
    pub fn is_uniform(&self) -> bool {
        self.support.is_empty()
    }

    /// The nodes carrying prior mass (empty for the uniform prior).
    pub fn support_nodes(&self) -> Vec<NodeId> {
        self.support.iter().map(|(id, _)| *id).collect()
    }

    /// Materialize the full dense prior vector of length `n`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.n];
        if self.support.is_empty() {
            p.fill(1.0 / self.n as f64);
        } else {
            for &(id, m) in &self.support {
                p[id.index()] = m;
            }
        }
        p
    }

    /// Apply the greedy-factor mixing in place:
    /// `v[j] ← (1 − α)·v[j] + α·p_j`.
    ///
    /// # Panics
    /// Panics if `v.len() != n` or `α ∉ [0, 1]`.
    pub fn mix_into(&self, v: &mut [f64], alpha: f64) {
        assert_eq!(v.len(), self.n, "vector length must equal n");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        if alpha == 0.0 {
            return;
        }
        if self.support.is_empty() {
            let jump = alpha / self.n as f64;
            for x in v.iter_mut() {
                *x = (1.0 - alpha) * *x + jump;
            }
        } else {
            for x in v.iter_mut() {
                *x *= 1.0 - alpha;
            }
            for &(id, m) in &self.support {
                v[id.index()] += alpha * m;
            }
        }
    }
}

/// Selects the power-node set from a converged reputation vector.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerNodeSelector {
    /// Maximum number of power nodes `q` (Table 2 default: 1% of `n`).
    pub max_power_nodes: usize,
}

impl PowerNodeSelector {
    /// Selector keeping at most `q` power nodes.
    pub fn new(max_power_nodes: usize) -> Self {
        PowerNodeSelector { max_power_nodes }
    }

    /// Selector with the paper's default `q = max(n/100, 1)`.
    pub fn for_network(n: usize) -> Self {
        PowerNodeSelector::new((n / 100).max(1))
    }

    /// The top-`q` most reputable nodes of `v` (deterministic tie-break by
    /// ascending id via [`ReputationVector::ranking`]).
    pub fn select(&self, v: &ReputationVector) -> Vec<NodeId> {
        v.top_k(self.max_power_nodes)
    }

    /// Convenience: the [`Prior`] uniform over the selected power nodes.
    pub fn prior(&self, v: &ReputationVector) -> Prior {
        Prior::over_nodes(v.n(), &self.select(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_prior_density() {
        let p = Prior::uniform(4);
        assert!(p.is_uniform());
        for j in 0..4 {
            assert!((p.density(NodeId(j)) - 0.25).abs() < 1e-12);
        }
        assert!((p.to_dense().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_node_prior_density() {
        let p = Prior::over_nodes(5, &[NodeId(1), NodeId(4)]);
        assert_eq!(p.density(NodeId(1)), 0.5);
        assert_eq!(p.density(NodeId(4)), 0.5);
        assert_eq!(p.density(NodeId(0)), 0.0);
        assert!((p.to_dense().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_power_set_falls_back_to_uniform() {
        let p = Prior::over_nodes(3, &[]);
        assert!(p.is_uniform());
    }

    #[test]
    fn duplicate_support_nodes_renormalize() {
        let p = Prior::over_nodes(3, &[NodeId(2), NodeId(2)]);
        assert_eq!(p.density(NodeId(2)), 1.0);
        assert_eq!(p.support_nodes(), vec![NodeId(2)]);
    }

    #[test]
    fn mixing_preserves_total_mass() {
        let p = Prior::over_nodes(4, &[NodeId(0)]);
        let mut v = vec![0.25; 4];
        p.mix_into(&mut v, 0.15);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[0] - (0.85 * 0.25 + 0.15)).abs() < 1e-12);
        assert!((v[1] - 0.85 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_identity() {
        let p = Prior::uniform(3);
        let mut v = vec![0.7, 0.2, 0.1];
        let orig = v.clone();
        p.mix_into(&mut v, 0.0);
        assert_eq!(v, orig);
    }

    #[test]
    fn alpha_one_replaces_with_prior() {
        let p = Prior::over_nodes(3, &[NodeId(1)]);
        let mut v = vec![0.7, 0.2, 0.1];
        p.mix_into(&mut v, 1.0);
        assert_eq!(v, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn selector_picks_top_q() {
        let v = ReputationVector::from_weights(vec![0.1, 0.4, 0.3, 0.2]).unwrap();
        let sel = PowerNodeSelector::new(2);
        assert_eq!(sel.select(&v), vec![NodeId(1), NodeId(2)]);
        let prior = sel.prior(&v);
        assert_eq!(prior.density(NodeId(1)), 0.5);
    }

    #[test]
    fn selector_default_is_one_percent() {
        assert_eq!(PowerNodeSelector::for_network(1000).max_power_nodes, 10);
        assert_eq!(PowerNodeSelector::for_network(30).max_power_nodes, 1);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn mixing_rejects_bad_alpha() {
        Prior::uniform(2).mix_into(&mut [0.5, 0.5], 1.5);
    }
}
