//! The global reputation vector `V(t)` and its distance metrics.

use crate::error::CoreError;
use crate::id::NodeId;

/// The global reputation vector `V(t) = {v_i(t)}` over an `n`-node network.
///
/// Invariant maintained by all constructors: every component is finite and
/// non-negative and the components sum to 1 (`Σ_i v_i = 1`), the
/// normalization the paper requires of `V(t)` at every cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct ReputationVector {
    values: Vec<f64>,
}

impl ReputationVector {
    /// The initial vector `V(0)` with equal scores `v_i(0) = 1/n`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "network must have at least one node");
        let v = ReputationVector { values: vec![1.0 / n as f64; n] };
        #[cfg(feature = "invariants")]
        crate::invariants::check_score_vector(v.values(), "ReputationVector::uniform");
        v
    }

    /// Build from raw non-negative weights, normalizing to sum 1.
    ///
    /// # Errors
    /// [`CoreError::InvalidScore`] if any weight is negative or non-finite,
    /// or if all weights are zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, CoreError> {
        if let Some(&bad) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(CoreError::InvalidScore {
                what: "weight must be finite and >= 0",
                value: bad,
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(CoreError::InvalidScore {
                what: "weights must not all be zero",
                value: total,
            });
        }
        let values = weights.into_iter().map(|w| w / total).collect();
        let v = ReputationVector { values };
        #[cfg(feature = "invariants")]
        crate::invariants::check_score_vector(v.values(), "ReputationVector::from_weights");
        Ok(v)
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Score `v_i` of node `i`.
    pub fn score(&self, i: NodeId) -> f64 {
        self.values[i.index()]
    }

    /// All scores as a slice, indexed by node.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume into the underlying score vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Node ids sorted by descending score (ties broken by ascending id,
    /// making the ranking deterministic).
    pub fn ranking(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = NodeId::all(self.n()).collect();
        ids.sort_by(|a, b| {
            self.values[b.index()]
                .partial_cmp(&self.values[a.index()])
                .expect("scores are finite")
                .then(a.cmp(b))
        });
        ids
    }

    /// The `k` most reputable nodes (the paper's power-node candidates).
    pub fn top_k(&self, k: usize) -> Vec<NodeId> {
        let mut r = self.ranking();
        r.truncate(k);
        r
    }

    /// L1 distance `Σ_i |v_i − u_i|` to another vector.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] on size mismatch.
    pub fn l1_distance(&self, other: &ReputationVector) -> Result<f64, CoreError> {
        self.check_dim(other)?;
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum())
    }

    /// Average relative error `(1/n)·Σ_i |v_i − u_i| / v_i`, the metric the
    /// paper uses for the outer-loop convergence test against `δ`
    /// (components with `v_i = 0` fall back to absolute difference).
    pub fn avg_relative_error(&self, other: &ReputationVector) -> Result<f64, CoreError> {
        self.check_dim(other)?;
        let n = self.n() as f64;
        let sum: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(&v, &u)| {
                if v > 0.0 {
                    (v - u).abs() / v
                } else {
                    (v - u).abs()
                }
            })
            .sum();
        Ok(sum / n)
    }

    /// RMS relative aggregation error of Eq. 8:
    /// `E = sqrt( Σ_i ((v_i − u_i)/v_i)² / n )`,
    /// where `self` plays the "calculated" `v` and `other` the "gossiped" `u`.
    /// Components with `v_i = 0` are skipped (they carry no relative error).
    pub fn rms_relative_error(&self, other: &ReputationVector) -> Result<f64, CoreError> {
        self.check_dim(other)?;
        let n = self.n() as f64;
        let sum: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(&v, _)| v > 0.0)
            .map(|(&v, &u)| {
                let rel = (v - u) / v;
                rel * rel
            })
            .sum();
        Ok((sum / n).sqrt())
    }

    /// Maximum absolute component difference (`L∞`).
    pub fn max_abs_error(&self, other: &ReputationVector) -> Result<f64, CoreError> {
        self.check_dim(other)?;
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    fn check_dim(&self, other: &ReputationVector) -> Result<(), CoreError> {
        if self.n() != other.n() {
            return Err(CoreError::DimensionMismatch { expected: self.n(), actual: other.n() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sums_to_one() {
        let v = ReputationVector::uniform(8);
        assert!((v.values().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(v.score(NodeId(3)), 0.125);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn uniform_rejects_empty() {
        let _ = ReputationVector::uniform(0);
    }

    #[test]
    fn from_weights_normalizes() {
        let v = ReputationVector::from_weights(vec![1.0, 3.0]).unwrap();
        assert_eq!(v.values(), &[0.25, 0.75]);
    }

    #[test]
    fn from_weights_rejects_invalid() {
        assert!(ReputationVector::from_weights(vec![1.0, -0.5]).is_err());
        assert!(ReputationVector::from_weights(vec![0.0, 0.0]).is_err());
        assert!(ReputationVector::from_weights(vec![f64::NAN, 1.0]).is_err());
        assert!(ReputationVector::from_weights(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn ranking_descends_with_deterministic_ties() {
        let v = ReputationVector::from_weights(vec![0.2, 0.5, 0.2, 0.1]).unwrap();
        assert_eq!(v.ranking(), vec![NodeId(1), NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(v.top_k(2), vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn l1_distance_and_linf() {
        let a = ReputationVector::from_weights(vec![0.5, 0.5]).unwrap();
        let b = ReputationVector::from_weights(vec![0.8, 0.2]).unwrap();
        assert!((a.l1_distance(&b).unwrap() - 0.6).abs() < 1e-12);
        assert!((a.max_abs_error(&b).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rms_error_matches_eq8_by_hand() {
        // v = (0.5, 0.5), u = (0.4, 0.6):
        // E = sqrt(((0.1/0.5)² + (−0.1/0.5)²)/2) = sqrt((0.04+0.04)/2) = 0.2
        let v = ReputationVector::from_weights(vec![0.5, 0.5]).unwrap();
        let u = ReputationVector::from_weights(vec![0.4, 0.6]).unwrap();
        assert!((v.rms_relative_error(&u).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn identical_vectors_have_zero_error() {
        let v = ReputationVector::uniform(5);
        assert_eq!(v.rms_relative_error(&v).unwrap(), 0.0);
        assert_eq!(v.avg_relative_error(&v).unwrap(), 0.0);
        assert_eq!(v.l1_distance(&v).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = ReputationVector::uniform(3);
        let b = ReputationVector::uniform(4);
        assert!(a.l1_distance(&b).is_err());
        assert!(a.avg_relative_error(&b).is_err());
        assert!(a.rms_relative_error(&b).is_err());
        assert!(a.max_abs_error(&b).is_err());
    }
}
