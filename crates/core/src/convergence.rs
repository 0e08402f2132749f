//! Convergence detectors for the two nested loops of GossipTrust.
//!
//! * [`RatioTracker`] — the *inner* (gossip) loop: a node watches its local
//!   ratio `β = x/w` and stops when it has stabilized within `ε`
//!   (Algorithm 1, line 14). The paper's `∞` case (`w = 0`, no consensus
//!   mass received yet) is modeled explicitly as "undefined".
//! * [`VectorConvergence`] — the *outer* (aggregation) loop: successive
//!   global vectors `V(t-1), V(t)` are compared against `δ`
//!   (Algorithm 2, line 25).

use crate::vector::ReputationVector;

/// Tracks one gossiped ratio `β_i(k) = x_i(k)/w_i(k)` across gossip steps and
/// decides local convergence per Algorithm 1.
///
/// The detector augments the paper's single-step test
/// `|x/w − u| ≤ ε` with two practical guards, documented in DESIGN.md:
///
/// 1. the ratio is *undefined* while `w = 0`, and an undefined ratio never
///    counts as converged (the paper's Table 1 shows `β₃(1) = ∞`);
/// 2. the below-`ε` condition must hold for `patience` consecutive steps,
///    because early in the protocol the consensus weight `w` is still
///    spreading and the ratio can transiently plateau.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioTracker {
    epsilon: f64,
    patience: usize,
    streak: usize,
    last: Option<f64>,
}

impl RatioTracker {
    /// New tracker with threshold `ε` and the given consecutive-step patience
    /// (≥ 1; the paper's literal reading is `patience = 1`).
    pub fn new(epsilon: f64, patience: usize) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(patience >= 1, "patience must be at least 1");
        RatioTracker { epsilon, patience, streak: 0, last: None }
    }

    /// Observe the pair `(x, w)` after a gossip step. Returns `true` when the
    /// tracker considers the ratio converged as of this observation.
    pub fn observe(&mut self, x: f64, w: f64) -> bool {
        let ratio = if w > 0.0 { Some(x / w) } else { None };
        match (self.last, ratio) {
            (Some(prev), Some(cur)) if (cur - prev).abs() <= self.epsilon => {
                self.streak += 1;
            }
            _ => {
                self.streak = 0;
            }
        }
        self.last = ratio;
        self.converged()
    }

    /// Whether the last [`observe`](Self::observe) completed the streak.
    pub fn converged(&self) -> bool {
        self.streak >= self.patience
    }

    /// The most recent defined ratio, if any.
    pub fn current(&self) -> Option<f64> {
        self.last
    }

    /// Reset for a fresh aggregation cycle.
    pub fn reset(&mut self) {
        self.streak = 0;
        self.last = None;
    }
}

/// Outer-loop convergence test: `|V(t) − V(t−1)| < δ`, measured as the
/// average relative error (matching [`ReputationVector::avg_relative_error`]).
#[derive(Clone, Debug, PartialEq)]
pub struct VectorConvergence {
    delta: f64,
    previous: Option<ReputationVector>,
    last_residual: Option<f64>,
}

impl VectorConvergence {
    /// New test with aggregation threshold `δ > 0`.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        VectorConvergence { delta, previous: None, last_residual: None }
    }

    /// Observe the cycle-`t` vector; returns `true` once the distance to the
    /// cycle-`t−1` vector drops below `δ`. The first observation never
    /// converges (there is nothing to compare against).
    pub fn observe(&mut self, v: &ReputationVector) -> bool {
        let converged = match &self.previous {
            Some(prev) => {
                let residual = prev
                    .avg_relative_error(v)
                    .expect("cycle vectors share the network size");
                self.last_residual = Some(residual);
                residual < self.delta
            }
            None => false,
        };
        self.previous = Some(v.clone());
        converged
    }

    /// The residual computed by the most recent comparison.
    pub fn last_residual(&self) -> Option<f64> {
        self.last_residual
    }

    /// Reset all history.
    pub fn reset(&mut self) {
        self.previous = None;
        self.last_residual = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undefined_ratio_never_converges() {
        let mut t = RatioTracker::new(1e-3, 1);
        assert!(!t.observe(0.1, 0.0));
        assert!(!t.observe(0.1, 0.0));
        assert_eq!(t.current(), None);
    }

    #[test]
    fn stable_ratio_converges_after_patience() {
        let mut t = RatioTracker::new(1e-3, 2);
        assert!(!t.observe(0.2, 1.0)); // first defined value, no previous
        assert!(!t.observe(0.2, 1.0)); // streak = 1
        assert!(t.observe(0.2, 1.0)); // streak = 2 → converged
    }

    #[test]
    fn paper_patience_of_one_matches_single_step_test() {
        let mut t = RatioTracker::new(1e-3, 1);
        assert!(!t.observe(0.5, 1.0));
        assert!(t.observe(0.5001, 1.0)); // |Δ| = 1e-4 ≤ 1e-3
    }

    #[test]
    fn jump_resets_streak() {
        let mut t = RatioTracker::new(1e-3, 2);
        t.observe(0.2, 1.0);
        t.observe(0.2, 1.0);
        assert!(!t.observe(0.9, 1.0)); // jump breaks the streak
        assert!(!t.observe(0.9, 1.0));
        assert!(t.observe(0.9, 1.0));
    }

    #[test]
    fn losing_the_weight_resets() {
        // Halving below float precision can in principle zero a weight; the
        // tracker must treat a w=0 observation as undefined again.
        let mut t = RatioTracker::new(1e-3, 1);
        t.observe(0.2, 1.0);
        assert!(!t.observe(0.1, 0.0));
        assert_eq!(t.current(), None);
    }

    #[test]
    fn tracker_reset_clears_state() {
        let mut t = RatioTracker::new(1e-3, 1);
        t.observe(0.2, 1.0);
        t.observe(0.2, 1.0);
        assert!(t.converged());
        t.reset();
        assert!(!t.converged());
        assert_eq!(t.current(), None);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn tracker_rejects_nonpositive_epsilon() {
        let _ = RatioTracker::new(0.0, 1);
    }

    #[test]
    fn vector_convergence_needs_two_observations() {
        let mut c = VectorConvergence::new(1e-3);
        let v = ReputationVector::uniform(4);
        assert!(!c.observe(&v));
        assert!(c.observe(&v)); // identical vector → zero residual
        assert_eq!(c.last_residual(), Some(0.0));
    }

    #[test]
    fn vector_convergence_rejects_large_changes() {
        let mut c = VectorConvergence::new(1e-3);
        let a = ReputationVector::from_weights(vec![0.5, 0.5]).unwrap();
        let b = ReputationVector::from_weights(vec![0.9, 0.1]).unwrap();
        assert!(!c.observe(&a));
        assert!(!c.observe(&b));
        assert!(c.last_residual().unwrap() > 1e-3);
    }

    #[test]
    fn vector_reset_forgets_history() {
        let mut c = VectorConvergence::new(1e-3);
        let v = ReputationVector::uniform(2);
        c.observe(&v);
        c.reset();
        assert!(!c.observe(&v), "first post-reset observation cannot converge");
    }
}
