//! Property-based tests for the core reputation math.
//!
//! These pin down the algebraic invariants the rest of the workspace builds
//! on: row-stochasticity of `S`, mass conservation of `Sᵀ·v`, normalization
//! of reputation vectors, metric axioms, and the fixed-point property of the
//! power iteration.
//!
//! Each property is one `#[test]` looping fixed-seed draws from its input
//! ranges (plus the corners of the domain where there are any); a failing
//! assertion names the case and the drawn inputs, so it replays from the log.

use gossiptrust_core::metrics::{mean_abs_error, rms_relative_error, top_k_overlap};
use gossiptrust_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 96;

/// `lens.start..lens.end` draws from `range`.
fn draw_vec(
    draw: &mut StdRng,
    range: std::ops::Range<f64>,
    lens: std::ops::Range<usize>,
) -> Vec<f64> {
    (0..draw.random_range(lens))
        .map(|_| draw.random_range(range.clone()))
        .collect()
}

/// A random feedback list: up to `4·ids` (from, to, amount) triples.
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

/// The matrix `seedlist` builds over `n` nodes (ids folded into `0..n`).
fn build_matrix(n: usize, seedlist: &[(u32, u32, f64)]) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for &(i, j, r) in seedlist {
        b.record(NodeId(i % n as u32), NodeId(j % n as u32), r);
    }
    b.build()
}

/// Eq. 1 normalization: every built matrix is row-stochastic.
#[test]
fn matrix_is_always_row_stochastic() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0001);
    let drawn = (0..CASES).map(|_| (draw.random_range(1usize..40), draw_feedback(&mut draw, 40)));
    // The corners: one node, and a node nobody rated or who rated nobody.
    let corners = [
        (1, vec![(0, 0, 1.0)]),
        (3, vec![]),
        (3, vec![(0, 1, 0.01), (0, 1, 100.0)]),
    ];
    for (case, (n, seedlist)) in drawn.chain(corners).enumerate() {
        assert!(
            build_matrix(n, &seedlist).is_row_stochastic(1e-9),
            "case {case}: n {n}, feedback {seedlist:?}"
        );
    }
}

/// Sᵀ preserves probability mass: Σ(Sᵀv) = Σv for any non-negative v.
#[test]
fn transpose_mul_conserves_mass() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0002);
    let drawn = (0..CASES).map(|_| {
        let n = draw.random_range(1usize..30);
        (n, draw_feedback(&mut draw, 30), draw_vec(&mut draw, 0.0..10.0, n..n + 1))
    });
    for (case, (n, seedlist, v)) in drawn.chain([(2, vec![], vec![0.0, 0.0])]).enumerate() {
        let ctx = format!("case {case}: n {n}, feedback {seedlist:?}, v {v:?}");
        let mass: f64 = v.iter().sum();
        let mut out = vec![0.0; n];
        build_matrix(n, &seedlist).transpose_mul(&v, &mut out).unwrap();
        let out_mass: f64 = out.iter().sum();
        assert!(
            (mass - out_mass).abs() < 1e-9 * mass.max(1.0),
            "{ctx}: mass {mass} -> {out_mass}"
        );
        assert!(out.iter().all(|&x| x >= -1e-15), "{ctx}: negative output {out:?}");
    }
}

/// from_weights always yields a normalized vector.
#[test]
fn reputation_vector_normalizes() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0003);
    let drawn = (0..CASES).map(|_| draw_vec(&mut draw, 0.0..1000.0, 1..50));
    for (case, weights) in drawn.chain([vec![0.0, 0.0, 1e-300]]).enumerate() {
        if weights.iter().sum::<f64>() > 0.0 {
            let v = ReputationVector::from_weights(weights.clone()).unwrap();
            let total: f64 = v.values().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "case {case}: {weights:?} sums to {total}");
            assert!(v.values().iter().all(|&x| x >= 0.0), "case {case}: {weights:?}");
        }
    }
}

/// L1 distance is a metric: symmetric, zero on identity, triangle holds.
#[test]
fn l1_metric_axioms() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0006);
    for case in 0..CASES {
        let [a, b, c] = [(); 3].map(|()| draw_vec(&mut draw, 0.01..10.0, 2..20));
        let ctx = format!("case {case}: a {a:?}, b {b:?}, c {c:?}");
        let n = a.len().min(b.len()).min(c.len());
        let [va, vb, vc] =
            [a, b, c].map(|w| ReputationVector::from_weights(w[..n].to_vec()).unwrap());
        let dab = va.l1_distance(&vb).unwrap();
        let dba = vb.l1_distance(&va).unwrap();
        assert!((dab - dba).abs() < 1e-12, "{ctx}: {dab} vs {dba}");
        assert_eq!(va.l1_distance(&va).unwrap(), 0.0, "{ctx}");
        let dac = va.l1_distance(&vc).unwrap();
        let dcb = vc.l1_distance(&vb).unwrap();
        assert!(dab <= dac + dcb + 1e-12, "{ctx}: {dab} > {dac} + {dcb}");
        // Normalized vectors are at most 2 apart in L1.
        assert!(dab <= 2.0 + 1e-12, "{ctx}: {dab}");
    }
}

/// The power iteration's output is a genuine fixed point of the mixed map
/// and is reached from any normalized start.
#[test]
fn power_iteration_fixed_point() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0007);
    for case in 0..CASES {
        let n = draw.random_range(2usize..20);
        let seedlist = draw_feedback(&mut draw, 20);
        let start_weights = draw_vec(&mut draw, 0.01..5.0, n..n + 1);
        let ctx = format!("case {case}: n {n}, feedback {seedlist:?}, start {start_weights:?}");
        let m = build_matrix(n, &seedlist);
        let params = Params::for_network(n).with_delta(1e-10);
        let prior = Prior::uniform(n);
        let solver = PowerIteration::new(params.clone());
        let start = ReputationVector::from_weights(start_weights).unwrap();
        let out = solver.solve_from(&m, &prior, &start);
        assert!(out.converged, "{ctx}: alpha-mixed iteration must converge");
        // Fixed point check.
        let mut next = vec![0.0; n];
        m.transpose_mul(out.vector.values(), &mut next).unwrap();
        prior.mix_into(&mut next, params.alpha);
        for (x, y) in out.vector.values().iter().zip(&next) {
            assert!((x - y).abs() < 1e-6, "{ctx}: {x} vs {y}");
        }
        // Independence from the start: solving from uniform agrees.
        let out2 = solver.solve(&m, &prior);
        assert!(out.vector.l1_distance(&out2.vector).unwrap() < 1e-6, "{ctx}");
    }
}

/// α-mixing with any prior keeps vectors normalized.
#[test]
fn prior_mixing_conserves_mass() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0004);
    let drawn = (0..CASES).map(|_| {
        let n = draw.random_range(1usize..30);
        let (k, alpha) = (draw.random_range(0usize..10), draw.random_range(0.0..1.0));
        (n, k, alpha, draw_vec(&mut draw, 0.01..10.0, n..n + 1))
    });
    // No power nodes, more power nodes than nodes, α at both ends.
    let corners = [(5, 0, 0.0), (5, 0, 0.999), (3, 9, 0.5), (1, 1, 0.0)]
        .map(|(n, k, alpha)| (n, k, alpha, [1.0, 2.0, 3.0, 4.0, 5.0][..n].to_vec()));
    for (case, (n, k, alpha, weights)) in drawn.chain(corners).enumerate() {
        let ctx = format!("case {case}: n {n}, k {k}, alpha {alpha}, weights {weights:?}");
        let nodes: Vec<NodeId> = (0..k.min(n)).map(NodeId::from_index).collect();
        let prior = Prior::over_nodes(n, &nodes);
        let mut vals = ReputationVector::from_weights(weights).unwrap().values().to_vec();
        prior.mix_into(&mut vals, alpha);
        assert!((vals.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{ctx}: {vals:?}");
        assert!(vals.iter().all(|&x| x >= 0.0), "{ctx}: {vals:?}");
    }
}

/// RMS error is zero iff the estimates match on all v>0 components, and
/// is invariant under permuting components consistently.
#[test]
fn rms_error_properties() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0008);
    for case in 0..CASES {
        let values = draw_vec(&mut draw, 0.01..1.0, 2..30);
        assert_eq!(rms_relative_error(&values, &values), 0.0, "case {case}: {values:?}");
        // Permutation invariance.
        let noisy: Vec<f64> = values.iter().map(|v| v * 1.1).collect();
        let reversed = |v: &[f64]| v.iter().rev().copied().collect::<Vec<f64>>();
        let e1 = rms_relative_error(&values, &noisy);
        let e2 = rms_relative_error(&reversed(&values), &reversed(&noisy));
        assert!((e1 - e2).abs() < 1e-12, "case {case}: {values:?}: {e1} vs {e2}");
    }
}

/// mean_abs_error is bounded by the max component difference.
#[test]
fn mae_bounded_by_linf() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0009);
    for case in 0..CASES {
        let [a, b] = [(); 2].map(|()| draw_vec(&mut draw, 0.0..1.0, 1..30));
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mae = mean_abs_error(a, b);
        let linf = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
        assert!(mae <= linf + 1e-12, "case {case}: a {a:?}, b {b:?}: {mae} > {linf}");
    }
}

/// Rankings: top_k_overlap of a ranking with itself is always 1.
#[test]
fn top_k_self_overlap() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_000A);
    for case in 0..CASES {
        let weights = draw_vec(&mut draw, 0.01..10.0, 2..40);
        let k = draw.random_range(1usize..10).min(weights.len());
        let r = ReputationVector::from_weights(weights.clone()).unwrap().ranking();
        assert_eq!(top_k_overlap(&r, &r, k), 1.0, "case {case}: k {k}, weights {weights:?}");
    }
}

/// LocalTrust: normalized rows always sum to 1 (when non-empty) and all
/// shares are within [0, 1].
#[test]
fn local_trust_normalization() {
    let mut draw = StdRng::seed_from_u64(0xC0DE_0005);
    let drawn = (0..CASES).map(|_| {
        let len = draw.random_range(1usize..60);
        (0..len)
            .map(|_| (draw.random_range(0u32..50), draw.random_range(0.01..100.0)))
            .collect::<Vec<(u32, f64)>>()
    });
    let corners = [vec![(7, 0.01)], vec![(7, 0.01), (7, 100.0), (8, 0.01)]];
    for (case, entries) in drawn.chain(corners).enumerate() {
        let mut lt = LocalTrust::new();
        for &(id, amount) in &entries {
            lt.add_feedback(NodeId(id), amount);
        }
        let norm = lt.normalized();
        let total: f64 = norm.iter().map(|(_, s)| s).sum();
        assert!(!norm.is_empty() && (total - 1.0).abs() < 1e-9, "case {case}: {entries:?}");
        assert!(
            norm.iter().all(|&(_, s)| (0.0..=1.0 + 1e-12).contains(&s)),
            "case {case}: {entries:?} -> {norm:?}"
        );
    }
}
