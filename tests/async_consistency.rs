//! Cross-crate consistency between the three executions of the protocol:
//! the lock-step engine (`gossiptrust-gossip`), the discrete-event
//! simulator (`gossiptrust-simnet`) and the thread-per-node cluster
//! (`gossiptrust-net`). All three must approximate the same exact cycle
//! iterate — asynchrony, latency and real message passing change the cost,
//! not the answer.

use gossiptrust::gossip::engine::{EngineConfig, VectorGossipEngine};
use gossiptrust::net::cluster::{Cluster, NetConfig};
use gossiptrust::prelude::*;
use gossiptrust::simnet::{AsyncGossipSim, LinkModel, Overlay, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(n: usize, seed: u64) -> Scenario {
    Scenario::generate(
        &ScenarioConfig::small(n, ThreatConfig::benign()),
        &mut StdRng::seed_from_u64(seed),
    )
}

fn exact_cycle(m: &TrustMatrix, v: &ReputationVector, prior: &Prior, alpha: f64) -> Vec<f64> {
    let mut out = vec![0.0; m.n()];
    m.transpose_mul(v.values(), &mut out).unwrap();
    prior.mix_into(&mut out, alpha);
    out
}

fn mean_rel_error(exact: &[f64], estimate: &[f64]) -> f64 {
    exact
        .iter()
        .zip(estimate)
        .map(|(&e, &g)| (e - g).abs() / e.max(1e-12))
        .sum::<f64>()
        / exact.len() as f64
}

/// Lock-step engine and discrete-event simulator agree with the exact
/// iterate (and therefore with each other).
#[test]
fn lockstep_and_event_driven_agree() {
    let n = 40;
    let s = scenario(n, 11);
    let v0 = ReputationVector::uniform(n);
    let prior = Prior::uniform(n);
    let exact = exact_cycle(&s.honest, &v0, &prior, 0.15);

    // Lock-step.
    let params = Params::for_network(n).with_epsilon(1e-6);
    let mut engine = VectorGossipEngine::new(n, EngineConfig::from_params(&params, n));
    engine.seed(&s.honest, &v0, &prior, 0.15);
    let mut rng = StdRng::seed_from_u64(12);
    let (_, converged) = engine.run(&UniformChooser, &mut rng);
    assert!(converged);
    let lockstep_err = mean_rel_error(&exact, &engine.mean_estimate());
    assert!(lockstep_err < 1e-3, "lock-step error {lockstep_err}");

    // Event-driven.
    let mut rng = StdRng::seed_from_u64(13);
    let overlay = Overlay::random_k_out(n, 4, &mut rng);
    let config = SimConfig { link: LinkModel::fixed(25_000), epsilon: 1e-4, ..Default::default() };
    let mut sim = AsyncGossipSim::new(overlay, config);
    let report = sim.run_cycle(&s.honest, &v0, &prior, 0.15, &mut rng);
    assert!(report.converged);
    let event_err = mean_rel_error(&exact, &report.estimate);
    assert!(event_err < 1e-2, "event-driven error {event_err}");
}

/// The threaded cluster (real concurrent nodes, signed messages) reaches
/// the same ranking as the centralized oracle.
#[test]
fn threaded_cluster_matches_oracle_ranking() {
    // An unambiguous authority matrix: random tiny scenarios can have
    // near-tied top scorers, which makes the cluster's adaptive one-node
    // power anchor flip between cycles and keeps the outer residual above
    // any reasonable δ (see DESIGN.md on anchor fragility).
    let n = 16;
    let mut b = TrustMatrixBuilder::new(n);
    for i in 1..n as u32 {
        b.record(NodeId(i), NodeId(0), 4.0);
        b.record(NodeId(i), NodeId(i % (n as u32 - 1) + 1), 1.0);
        b.record(NodeId(0), NodeId(i), 1.0);
    }
    let m = b.build();
    let params = Params::for_network(n);

    let report = Cluster::in_memory(NetConfig::fast_local().with_seed(15)).run(&m, &params);
    assert!(report.converged);
    assert_eq!(report.auth_failures, 0);

    let oracle = PowerIteration::new(params).solve(&m, &Prior::uniform(n));
    // Below rank 1 this matrix is nearly tied, and the cluster's adaptive
    // prior legitimately reorders the tail — the authority must match.
    assert_eq!(report.vector.ranking()[0], oracle.vector.ranking()[0]);
    assert_eq!(report.vector.ranking()[0], NodeId(0));
}
