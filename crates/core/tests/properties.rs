//! Property-based tests for the core reputation math.
//!
//! These pin down the algebraic invariants the rest of the workspace builds
//! on: row-stochasticity of `S`, mass conservation of `Sᵀ·v`, normalization
//! of reputation vectors, metric axioms, and the fixed-point property of the
//! power iteration.

use gossiptrust_core::metrics::{mean_abs_error, rms_relative_error, top_k_overlap};
use gossiptrust_core::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random feedback list: (from, to, amount) triples over `n` nodes.
fn feedback_strategy(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    vec((0..n as u32, 0..n as u32, 0.01f64..100.0), 0..(n * 4).max(1))
}

/// The matrix `seedlist` builds over `n` nodes (ids folded into `0..n`).
fn build_matrix(n: usize, seedlist: &[(u32, u32, f64)]) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for &(i, j, r) in seedlist {
        b.record(NodeId(i % n as u32), NodeId(j % n as u32), r);
    }
    b.build()
}

// The contract-bearing properties, as plain functions: the `proptest!`
// block below drives them where the real proptest resolves, the `*_seeded`
// twins at the end of the file drive them everywhere (the offline
// stand-in expands `proptest!` to nothing).

/// Eq. 1 normalization: every built matrix is row-stochastic.
fn check_row_stochastic(n: usize, seedlist: &[(u32, u32, f64)]) {
    assert!(build_matrix(n, seedlist).is_row_stochastic(1e-9));
}

/// Sᵀ preserves probability mass: Σ(Sᵀv) = Σv for any non-negative v.
fn check_transpose_mul_conserves_mass(n: usize, seedlist: &[(u32, u32, f64)], weights: &[f64]) {
    let m = build_matrix(n, seedlist);
    let v: Vec<f64> = weights[..n].to_vec();
    let mass: f64 = v.iter().sum();
    let mut out = vec![0.0; n];
    m.transpose_mul(&v, &mut out).unwrap();
    let out_mass: f64 = out.iter().sum();
    assert!((mass - out_mass).abs() < 1e-9 * mass.max(1.0), "mass {mass} -> {out_mass}");
    assert!(out.iter().all(|&x| x >= -1e-15), "negative output");
}

/// from_weights always yields a normalized vector.
fn check_reputation_vector_normalizes(weights: Vec<f64>) {
    let v = ReputationVector::from_weights(weights).unwrap();
    let total: f64 = v.values().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(v.values().iter().all(|&x| x >= 0.0));
}

/// α-mixing with any prior keeps vectors normalized.
fn check_prior_mixing_conserves_mass(n: usize, k: usize, alpha: f64, weights: &[f64]) {
    let nodes: Vec<NodeId> = (0..k.min(n)).map(NodeId::from_index).collect();
    let prior = Prior::over_nodes(n, &nodes);
    let v = ReputationVector::from_weights(weights[..n].to_vec()).unwrap();
    let mut vals = v.values().to_vec();
    prior.mix_into(&mut vals, alpha);
    assert!((vals.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(vals.iter().all(|&x| x >= 0.0));
}

/// LocalTrust: normalized rows always sum to 1 (when non-empty) and all
/// shares are within [0, 1].
fn check_local_trust_normalization(entries: &[(u32, f64)]) {
    let mut lt = LocalTrust::new();
    for &(id, amount) in entries {
        lt.add_feedback(NodeId(id), amount);
    }
    let norm = lt.normalized();
    assert!(!norm.is_empty());
    let total: f64 = norm.iter().map(|(_, s)| s).sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(norm.iter().all(|&(_, s)| (0.0..=1.0 + 1e-12).contains(&s)));
}

proptest! {
    #[test]
    fn matrix_is_always_row_stochastic(
        n in 1usize..40,
        seedlist in feedback_strategy(40),
    ) {
        check_row_stochastic(n, &seedlist);
    }

    #[test]
    fn transpose_mul_conserves_mass(
        n in 1usize..30,
        seedlist in feedback_strategy(30),
        weights in vec(0.0f64..10.0, 30),
    ) {
        check_transpose_mul_conserves_mass(n, &seedlist, &weights);
    }

    #[test]
    fn reputation_vector_normalizes(weights in vec(0.0f64..1000.0, 1..50)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        check_reputation_vector_normalizes(weights);
    }

    /// L1 distance is a metric: symmetric, zero on identity, triangle holds.
    #[test]
    fn l1_metric_axioms(
        a in vec(0.01f64..10.0, 2..20),
        b in vec(0.01f64..10.0, 2..20),
        c in vec(0.01f64..10.0, 2..20),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let va = ReputationVector::from_weights(a[..n].to_vec()).unwrap();
        let vb = ReputationVector::from_weights(b[..n].to_vec()).unwrap();
        let vc = ReputationVector::from_weights(c[..n].to_vec()).unwrap();
        let dab = va.l1_distance(&vb).unwrap();
        let dba = vb.l1_distance(&va).unwrap();
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert_eq!(va.l1_distance(&va).unwrap(), 0.0);
        let dac = va.l1_distance(&vc).unwrap();
        let dcb = vc.l1_distance(&vb).unwrap();
        prop_assert!(dab <= dac + dcb + 1e-12);
        // Normalized vectors are at most 2 apart in L1.
        prop_assert!(dab <= 2.0 + 1e-12);
    }

    /// The power iteration's output is a genuine fixed point of the mixed map
    /// and is reached from any normalized start.
    #[test]
    fn power_iteration_fixed_point(
        n in 2usize..20,
        seedlist in feedback_strategy(20),
        start_weights in vec(0.01f64..5.0, 20),
    ) {
        let m = build_matrix(n, &seedlist);
        let params = Params::for_network(n).with_delta(1e-10);
        let prior = Prior::uniform(n);
        let solver = PowerIteration::new(params.clone());
        let start = ReputationVector::from_weights(start_weights[..n].to_vec()).unwrap();
        let out = solver.solve_from(&m, &prior, &start);
        prop_assert!(out.converged, "alpha-mixed iteration must converge");
        // Fixed point check.
        let mut next = vec![0.0; n];
        m.transpose_mul(out.vector.values(), &mut next).unwrap();
        prior.mix_into(&mut next, params.alpha);
        for (x, y) in out.vector.values().iter().zip(&next) {
            prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
        }
        // Independence from the start: solving from uniform agrees.
        let out2 = solver.solve(&m, &prior);
        prop_assert!(out.vector.l1_distance(&out2.vector).unwrap() < 1e-6);
    }

    #[test]
    fn prior_mixing_conserves_mass(
        n in 1usize..30,
        k in 0usize..10,
        alpha in 0.0f64..1.0,
        weights in vec(0.01f64..10.0, 30),
    ) {
        check_prior_mixing_conserves_mass(n, k, alpha, &weights);
    }

    /// RMS error is zero iff the estimates match on all v>0 components, and
    /// is invariant under permuting components consistently.
    #[test]
    fn rms_error_properties(values in vec(0.01f64..1.0, 2..30)) {
        let zero = rms_relative_error(&values, &values);
        prop_assert_eq!(zero, 0.0);
        // Permutation invariance.
        let mut perm: Vec<usize> = (0..values.len()).collect();
        perm.reverse();
        let pv: Vec<f64> = perm.iter().map(|&i| values[i]).collect();
        let noisy: Vec<f64> = values.iter().map(|v| v * 1.1).collect();
        let pnoisy: Vec<f64> = perm.iter().map(|&i| noisy[i]).collect();
        let e1 = rms_relative_error(&values, &noisy);
        let e2 = rms_relative_error(&pv, &pnoisy);
        prop_assert!((e1 - e2).abs() < 1e-12);
    }

    /// mean_abs_error is bounded by the max component difference.
    #[test]
    fn mae_bounded_by_linf(
        a in vec(0.0f64..1.0, 1..30),
        b in vec(0.0f64..1.0, 1..30),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mae = mean_abs_error(a, b);
        let linf = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
        prop_assert!(mae <= linf + 1e-12);
    }

    /// Rankings: top_k_overlap of a ranking with itself is always 1.
    #[test]
    fn top_k_self_overlap(weights in vec(0.01f64..10.0, 2..40), k in 1usize..10) {
        let v = ReputationVector::from_weights(weights).unwrap();
        let r = v.ranking();
        let k = k.min(r.len());
        prop_assert_eq!(top_k_overlap(&r, &r, k), 1.0);
    }

    #[test]
    fn local_trust_normalization(entries in vec((0u32..50, 0.01f64..100.0), 1..60)) {
        check_local_trust_normalization(&entries);
    }
}

// Seeded twins: the same checks over the same ranges, 96 fixed cases each.

const SEEDED_CASES: usize = 96;

/// `len` draws from `range`.
fn draw_vec(draw: &mut StdRng, range: std::ops::Range<f64>, len: usize) -> Vec<f64> {
    (0..len).map(|_| draw.random_range(range.clone())).collect()
}

/// What `feedback_strategy(ids)` generates.
fn draw_feedback(draw: &mut StdRng, ids: u32) -> Vec<(u32, u32, f64)> {
    let len = draw.random_range(0..(ids as usize * 4).max(1));
    (0..len)
        .map(|_| {
            (
                draw.random_range(0..ids),
                draw.random_range(0..ids),
                draw.random_range(0.01..100.0),
            )
        })
        .collect()
}

#[test]
fn matrix_is_always_row_stochastic_seeded() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0001);
    for _ in 0..SEEDED_CASES {
        let n = draw.random_range(1usize..40);
        check_row_stochastic(n, &draw_feedback(&mut draw, 40));
    }
    // The corners: one node, and a node nobody rated or who rated nobody.
    check_row_stochastic(1, &[(0, 0, 1.0)]);
    check_row_stochastic(3, &[]);
    check_row_stochastic(3, &[(0, 1, 0.01), (0, 1, 100.0)]);
}

#[test]
fn transpose_mul_conserves_mass_seeded() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0002);
    for _ in 0..SEEDED_CASES {
        let n = draw.random_range(1usize..30);
        let seedlist = draw_feedback(&mut draw, 30);
        let weights = draw_vec(&mut draw, 0.0..10.0, 30);
        check_transpose_mul_conserves_mass(n, &seedlist, &weights);
    }
    check_transpose_mul_conserves_mass(2, &[], &[0.0, 0.0]);
}

#[test]
fn reputation_vector_normalizes_seeded() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0003);
    for _ in 0..SEEDED_CASES {
        let len = draw.random_range(1usize..50);
        let weights = draw_vec(&mut draw, 0.0..1000.0, len);
        if weights.iter().sum::<f64>() > 0.0 {
            check_reputation_vector_normalizes(weights);
        }
    }
    check_reputation_vector_normalizes(vec![0.0, 0.0, 1e-300]);
}

#[test]
fn prior_mixing_conserves_mass_seeded() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0004);
    for _ in 0..SEEDED_CASES {
        let n = draw.random_range(1usize..30);
        let k = draw.random_range(0usize..10);
        let alpha = draw.random_range(0.0..1.0);
        check_prior_mixing_conserves_mass(n, k, alpha, &draw_vec(&mut draw, 0.01..10.0, 30));
    }
    // No power nodes, more power nodes than nodes, α at both ends.
    for (n, k, alpha) in [(5, 0, 0.0), (5, 0, 0.999), (3, 9, 0.5), (1, 1, 0.0)] {
        check_prior_mixing_conserves_mass(n, k, alpha, &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}

#[test]
fn local_trust_normalization_seeded() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0005);
    for _ in 0..SEEDED_CASES {
        let len = draw.random_range(1usize..60);
        let entries: Vec<(u32, f64)> = (0..len)
            .map(|_| (draw.random_range(0u32..50), draw.random_range(0.01..100.0)))
            .collect();
        check_local_trust_normalization(&entries);
    }
    check_local_trust_normalization(&[(7, 0.01)]);
    check_local_trust_normalization(&[(7, 0.01), (7, 100.0), (8, 0.01)]);
}
