//! Property-based tests for the push-sum protocol and the vector engine.
//!
//! The central property of push-sum — *mass conservation* — implies that
//! whenever the ratios do reach consensus, the consensus value is exactly
//! `Σx(0)/Σw(0)`. These tests drive random instances and check both the
//! conservation law and the limit value.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_core::prelude::*;
use gossiptrust_gossip::{EngineConfig, PushSumNetwork, UniformChooser, VectorGossipEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// `len` draws from `range`.
fn draw_vec(draw: &mut StdRng, range: std::ops::Range<f64>, len: usize) -> Vec<f64> {
    (0..len).map(|_| draw.random_range(range.clone())).collect()
}

/// `len` edges with both ids below `ids` and amounts in 0.1..5.
fn draw_edges(draw: &mut StdRng, ids: u32, len: usize) -> Vec<(u32, u32, f64)> {
    (0..len)
        .map(|_| {
            (
                draw.random_range(0..ids),
                draw.random_range(0..ids),
                draw.random_range(0.1..5.0),
            )
        })
        .collect()
}

/// The trust matrix `edges` builds over `n` nodes (ids folded into `0..n`).
fn edge_matrix(n: usize, edges: &[(u32, u32, f64)]) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for &(i, j, r) in edges {
        b.record(NodeId(i % n as u32), NodeId(j % n as u32), r);
    }
    b.build()
}

/// Scalar push-sum converges to Σx/Σw for arbitrary non-negative seeds
/// with at least one positive weight.
#[test]
fn pushsum_converges_to_weighted_sum() {
    let mut draw = StdRng::seed_from_u64(0x6055_0001);
    for case in 0..CASES {
        let n = draw.random_range(4usize..32);
        let xs = draw_vec(&mut draw, 0.0..10.0, n);
        let (seed, holder) = (draw.random_range(0u64..1000), draw.random_range(0usize..32) % n);
        let ctx = format!("case {case}: xs {xs:?}, seed {seed}, weight holder {holder}");
        let mut ws = vec![0.0; n];
        ws[holder] = 1.0;
        let expected: f64 = xs.iter().sum();
        let mut net = PushSumNetwork::from_pairs(xs, ws, 1e-10, 3);
        let min_steps = (n as f64).log2().ceil() as usize;
        let out = net.run(min_steps, 5_000, &UniformChooser, &mut StdRng::seed_from_u64(seed));
        assert!(out.converged, "{ctx}: did not converge");
        for r in out.ratios {
            let v = r.expect("all weights positive at convergence");
            let err = (v - expected).abs() / expected.abs().max(1e-12);
            assert!(err < 1e-4, "{ctx}: ratio {v} vs expected {expected}");
        }
    }
}

/// Mass conservation holds after any number of lossless steps, for both
/// x and w, regardless of target choices.
#[test]
fn pushsum_mass_conservation() {
    let mut draw = StdRng::seed_from_u64(0x6055_0002);
    for case in 0..CASES {
        let n = draw.random_range(3usize..24);
        let xs = draw_vec(&mut draw, 0.0..5.0, n);
        let (steps, seed) = (draw.random_range(1usize..60), draw.random_range(0u64..1000));
        let ctx = format!("case {case}: xs {xs:?}, {steps} steps, seed {seed}");
        let mut ws = vec![0.0; n];
        ws[0] = 1.0;
        let x_total: f64 = xs.iter().sum();
        let mut net = PushSumNetwork::from_pairs(xs, ws, 1e-6, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            net.step(&UniformChooser, &mut rng);
        }
        let (x, w) = net.total_mass();
        assert!((x - x_total).abs() < 1e-9, "{ctx}: Σx {x_total} -> {x}");
        assert!((w - 1.0).abs() < 1e-9, "{ctx}: Σw 1 -> {w}");
    }
}

/// One cycle of the vector engine reproduces the exact centralized
/// matrix–vector product for random trust matrices, on every node.
#[test]
fn vector_engine_matches_exact_matvec() {
    let mut draw = StdRng::seed_from_u64(0x6055_0003);
    for case in 0..CASES {
        let n = draw.random_range(4usize..20);
        let len = draw.random_range(5usize..60);
        let edges = draw_edges(&mut draw, 20, len);
        let (seed, alpha) = (draw.random_range(0u64..500), draw.random_range(0.0..0.5));
        let ctx = format!("case {case}: n {n}, seed {seed}, alpha {alpha}, edges {edges:?}");
        let m = edge_matrix(n, &edges);
        let v0 = ReputationVector::uniform(n);
        let prior = Prior::uniform(n);
        let params = Params::for_network(n).with_epsilon(1e-6);
        let mut engine = VectorGossipEngine::new(n, EngineConfig::from_params(&params, n));
        engine.seed(&m, &v0, &prior, alpha);
        let (_, converged) = engine.run(&UniformChooser, &mut StdRng::seed_from_u64(seed));
        assert!(converged, "{ctx}");
        let mut exact = vec![0.0; n];
        m.transpose_mul(v0.values(), &mut exact).unwrap();
        prior.mix_into(&mut exact, alpha);
        for i in 0..n {
            let est = engine.extract(NodeId::from_index(i));
            for j in 0..n {
                let rel = (est[j] - exact[j]).abs() / exact[j].abs().max(1e-12);
                assert!(rel < 1e-3, "{ctx}: node {i} comp {j}: {} vs {}", est[j], exact[j]);
            }
        }
    }
}

/// Component mass in the vector engine is conserved step by step when
/// nothing is lost: Σ_i x_i[j] and Σ_i w_i[j] are invariant.
#[test]
fn vector_engine_mass_conservation() {
    let mut draw = StdRng::seed_from_u64(0x6055_0004);
    for case in 0..CASES {
        let n = draw.random_range(4usize..16);
        let (steps, seed) = (draw.random_range(1usize..30), draw.random_range(0u64..500));
        let ctx = format!("case {case}: n {n}, {steps} steps, seed {seed}");
        let mut b = TrustMatrixBuilder::new(n);
        for i in 0..n {
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
        }
        let params = Params::for_network(n);
        let mut engine = VectorGossipEngine::new(n, EngineConfig::from_params(&params, n));
        engine.seed(&b.build(), &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let before: Vec<(f64, f64)> =
            (0..n).map(|j| engine.component_mass(NodeId::from_index(j))).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            engine.step(&UniformChooser, &mut rng);
        }
        for (j, &(x0, w0)) in before.iter().enumerate() {
            let (x1, w1) = engine.component_mass(NodeId::from_index(j));
            assert!((x0 - x1).abs() < 1e-10, "{ctx}: x mass comp {j}: {x0} -> {x1}");
            assert!((w0 - w1).abs() < 1e-10, "{ctx}: w mass comp {j}: {w0} -> {w1}");
        }
    }
}

/// `par_step` on 1, 2 and 4 threads leaves every node's state bit-identical
/// to the sequential `step` on the same matrix, seed and step count.
#[test]
fn par_step_is_bit_identical() {
    let mut draw = StdRng::seed_from_u64(0x6055_0005);
    for case in 0..CASES {
        let n = draw.random_range(4usize..40);
        let len = draw.random_range(5usize..120);
        let edges = draw_edges(&mut draw, 40, len);
        let m = edge_matrix(n, &edges);
        let (steps, seed) = (draw.random_range(1usize..25), draw.random_range(0u64..500));
        let run = |threads: Option<usize>| {
            let config = EngineConfig::from_params(&Params::for_network(n), n);
            let mut engine = VectorGossipEngine::new(n, config.with_threads(threads.unwrap_or(1)));
            engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..steps {
                match threads {
                    Some(_) => engine.par_step(&UniformChooser, &mut rng),
                    None => engine.step(&UniformChooser, &mut rng),
                };
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            let state: Vec<Vec<u64>> =
                (0..n).map(|i| bits(engine.extract(NodeId::from_index(i)))).collect();
            let mass: Vec<(u64, u64)> = (0..n)
                .map(|j| engine.component_mass(NodeId::from_index(j)))
                .map(|(x, w)| (x.to_bits(), w.to_bits()))
                .collect();
            (state, mass, engine.stats())
        };
        let sequential = run(None);
        for threads in [1, 2, 4] {
            assert!(
                run(Some(threads)) == sequential,
                "case {case}: {threads} threads diverge (n {n}, {steps} steps, seed {seed}, edges {edges:?})"
            );
        }
    }
}
