//! Local trust scores: raw feedback accumulation and normalization (Eq. 1).

use crate::id::NodeId;
use std::collections::BTreeMap;

/// The outbound local-trust state of a single peer `i`.
///
/// After each transaction with peer `j`, peer `i` records a *feedback score*;
/// feedback accumulates into the raw local score `r_ij`. For global
/// aggregation the row is normalized per Eq. 1 of the paper:
///
/// ```text
/// s_ij = r_ij / Σ_j r_ij
/// ```
///
/// Raw scores are clamped at zero: the paper's trust matrix is non-negative
/// (`r_ij = 0` means "no feedback"), so negative experiences are expressed by
/// *not increasing* `r_ij` (a rating of 0), exactly like EigenTrust's
/// `max(sat - unsat, 0)` convention, which [`LocalTrust::rate_satisfaction`]
/// implements directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalTrust {
    /// Sparse map from rated peer to accumulated raw score `r_ij ≥ 0`.
    scores: BTreeMap<NodeId, f64>,
    /// Count of satisfactory transactions per peer (for `rate_satisfaction`).
    sat: BTreeMap<NodeId, u64>,
    /// Count of unsatisfactory transactions per peer.
    unsat: BTreeMap<NodeId, u64>,
}

impl LocalTrust {
    /// Empty local-trust state (no feedback issued yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to the raw score `r_ij` for peer `target`.
    ///
    /// Negative `amount` is clamped so `r_ij` never drops below zero.
    pub fn add_feedback(&mut self, target: NodeId, amount: f64) {
        let entry = self.scores.entry(target).or_insert(0.0);
        *entry = (*entry + amount).max(0.0);
        if *entry == 0.0 {
            // Keep the map sparse: a zero entry is the same as "no feedback".
            self.scores.remove(&target);
        }
    }

    /// Record a satisfactory (`true`) or unsatisfactory (`false`) transaction
    /// with `target` and refresh `r_ij = max(sat_ij − unsat_ij, 0)`.
    pub fn rate_satisfaction(&mut self, target: NodeId, satisfied: bool) {
        if satisfied {
            *self.sat.entry(target).or_insert(0) += 1;
        } else {
            *self.unsat.entry(target).or_insert(0) += 1;
        }
        let s = self.sat.get(&target).copied().unwrap_or(0) as f64;
        let u = self.unsat.get(&target).copied().unwrap_or(0) as f64;
        let r = (s - u).max(0.0);
        if r > 0.0 {
            self.scores.insert(target, r);
        } else {
            self.scores.remove(&target);
        }
    }

    /// Overwrite the raw score for `target` (used by threat models that issue
    /// dishonest feedback wholesale).
    pub fn set_raw(&mut self, target: NodeId, value: f64) {
        if value > 0.0 {
            self.scores.insert(target, value);
        } else {
            self.scores.remove(&target);
        }
    }

    /// Raw score `r_ij` for peer `target` (0 when never rated).
    pub fn raw(&self, target: NodeId) -> f64 {
        self.scores.get(&target).copied().unwrap_or(0.0)
    }

    /// Net satisfaction balance `sat_ij − unsat_ij` for `target` (0 when
    /// never rated via [`rate_satisfaction`](Self::rate_satisfaction)).
    ///
    /// Unlike the raw score, the balance can go negative — it is the local
    /// evidence a client uses to *avoid* peers that have personally cheated
    /// it, even though the paper's trust matrix clamps `r_ij` at zero.
    pub fn satisfaction_balance(&self, target: NodeId) -> i64 {
        let s = self.sat.get(&target).copied().unwrap_or(0) as i64;
        let u = self.unsat.get(&target).copied().unwrap_or(0) as i64;
        s - u
    }

    /// Number of distinct peers this node has issued feedback for
    /// (its feedback out-degree, the `d` of the power-law distribution).
    pub fn out_degree(&self) -> usize {
        self.scores.len()
    }

    /// Sum of all raw scores `Σ_j r_ij`.
    pub fn total(&self) -> f64 {
        self.scores.values().sum()
    }

    /// Iterate over `(target, r_ij)` pairs with `r_ij > 0`, in id order.
    pub fn iter_raw(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.scores.iter().map(|(&id, &r)| (id, r))
    }

    /// Normalized scores `s_ij = r_ij / Σ_j r_ij` (Eq. 1), in id order.
    ///
    /// Returns an empty vector when this node has issued no feedback; the
    /// [`crate::TrustMatrix`] treats such rows as uniform over all peers (the
    /// standard stochastic-matrix completion, cf. EigenTrust) so that `S`
    /// stays row-stochastic and the Markov chain stays well-defined.
    pub fn normalized(&self) -> Vec<(NodeId, f64)> {
        let total = self.total();
        if total <= 0.0 {
            return Vec::new();
        }
        self.scores.iter().map(|(&id, &r)| (id, r / total)).collect()
    }

    /// True when this node has issued no (positive) feedback at all.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Remove all feedback directed at `target` (used when a peer leaves the
    /// network for good and its column is retired).
    pub fn forget(&mut self, target: NodeId) {
        self.scores.remove(&target);
        self.sat.remove(&target);
        self.unsat.remove(&target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_accumulates() {
        let mut lt = LocalTrust::new();
        lt.add_feedback(NodeId(3), 2.0);
        lt.add_feedback(NodeId(3), 1.5);
        assert_eq!(lt.raw(NodeId(3)), 3.5);
        assert_eq!(lt.out_degree(), 1);
    }

    #[test]
    fn negative_feedback_clamps_at_zero() {
        let mut lt = LocalTrust::new();
        lt.add_feedback(NodeId(1), 1.0);
        lt.add_feedback(NodeId(1), -5.0);
        assert_eq!(lt.raw(NodeId(1)), 0.0);
        assert!(lt.is_empty(), "zero scores must not linger in the sparse map");
    }

    #[test]
    fn normalization_is_eq1() {
        let mut lt = LocalTrust::new();
        lt.add_feedback(NodeId(1), 1.0);
        lt.add_feedback(NodeId(2), 3.0);
        let norm = lt.normalized();
        assert_eq!(norm.len(), 2);
        assert!((norm[0].1 - 0.25).abs() < 1e-12);
        assert!((norm[1].1 - 0.75).abs() < 1e-12);
        let sum: f64 = norm.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "row must sum to 1");
    }

    #[test]
    fn empty_row_normalizes_to_empty() {
        assert!(LocalTrust::new().normalized().is_empty());
    }

    #[test]
    fn satisfaction_ratings_follow_eigentrust_convention() {
        let mut lt = LocalTrust::new();
        lt.rate_satisfaction(NodeId(7), true);
        lt.rate_satisfaction(NodeId(7), true);
        lt.rate_satisfaction(NodeId(7), false);
        assert_eq!(lt.raw(NodeId(7)), 1.0); // max(2-1, 0)
        lt.rate_satisfaction(NodeId(7), false);
        lt.rate_satisfaction(NodeId(7), false);
        assert_eq!(lt.raw(NodeId(7)), 0.0); // max(2-3, 0)
    }

    #[test]
    fn set_raw_overwrites_and_zero_removes() {
        let mut lt = LocalTrust::new();
        lt.set_raw(NodeId(2), 9.0);
        assert_eq!(lt.raw(NodeId(2)), 9.0);
        lt.set_raw(NodeId(2), 0.0);
        assert!(lt.is_empty());
    }

    #[test]
    fn forget_clears_all_state_for_target() {
        let mut lt = LocalTrust::new();
        lt.rate_satisfaction(NodeId(2), true);
        lt.forget(NodeId(2));
        assert!(lt.is_empty());
        // A later rating starts from scratch.
        lt.rate_satisfaction(NodeId(2), true);
        assert_eq!(lt.raw(NodeId(2)), 1.0);
    }

    #[test]
    fn iter_raw_is_id_ordered() {
        let mut lt = LocalTrust::new();
        lt.add_feedback(NodeId(9), 1.0);
        lt.add_feedback(NodeId(2), 1.0);
        let ids: Vec<u32> = lt.iter_raw().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![2, 9]);
    }
}
