//! Prove the engine's obs hook costs less than 2% per step.
//!
//! Runs the same seeded vector-gossip workload twice — once on a bare
//! engine, once with an [`EngineObs`] attached (one clock read and one
//! histogram record per step, the exact hook the service wires in) —
//! interleaving the timed batches so OS scheduling noise hits both arms
//! equally, then compares median ns/step. Writes `BENCH_obs.json` and
//! exits nonzero when the measured overhead exceeds the 2% budget, so CI's
//! perf-smoke job turns an instrumentation regression into a red build:
//!
//! ```text
//! cargo run --release -p gossiptrust-experiments --bin obs_overhead
//! ```
//!
//! Set `GT_BENCH_QUICK=1` for a seconds-long smoke pass at reduced size
//! (recorded as such in the JSON).

use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::{TrustMatrix, TrustMatrixBuilder};
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::Prior;
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_gossip::engine::{EngineConfig, EngineObs, VectorGossipEngine};
use gossiptrust_gossip::UniformChooser;
use gossiptrust_obs::{Histogram, Stopwatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Overhead budget (percent). The acceptance bar for the obs subsystem:
/// hooks above this cost would be too expensive to leave always-on.
const BUDGET_PCT: f64 = 2.0;

fn ring_matrix(n: usize) -> TrustMatrix {
    let mut b = TrustMatrixBuilder::new(n);
    for i in 0..n {
        b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 3.0);
        b.record(NodeId::from_index(i), NodeId::from_index((i + 7) % n), 1.0);
    }
    b.build()
}

fn seeded_engine(n: usize, m: &TrustMatrix) -> VectorGossipEngine {
    let config = EngineConfig::from_params(&Params::for_network(n), n).with_threads(1);
    let mut engine = VectorGossipEngine::new(n, config);
    engine.seed(m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
    engine
}

/// Time one batch of sequential steps; returns ns/step for the batch.
fn time_batch(engine: &mut VectorGossipEngine, rng: &mut StdRng, batch: usize) -> f64 {
    let t0 = Stopwatch::start();
    for _ in 0..batch {
        black_box(engine.step(&UniformChooser, rng));
    }
    t0.elapsed().as_nanos() as f64 / batch as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

fn main() {
    let quick = gossiptrust_core::params::bench_quick();
    let (n, batch, rounds) = if quick {
        (120, 50, 9)
    } else {
        (1_000, 200, 21)
    };
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    let m = ring_matrix(n);
    let mut bare = seeded_engine(n, &m);
    let mut seen = seeded_engine(n, &m);
    let step_ns = Arc::new(Histogram::new());
    seen.set_obs(Some(EngineObs { step_ns: Arc::clone(&step_ns) }));

    // Twin RNG streams keep the two arms on identical gossip trajectories;
    // identical work is the whole point of the comparison.
    let mut rng_bare = StdRng::seed_from_u64(6);
    let mut rng_seen = StdRng::seed_from_u64(6);
    for _ in 0..3 {
        black_box(bare.step(&UniformChooser, &mut rng_bare));
        black_box(seen.step(&UniformChooser, &mut rng_seen));
    }

    let mut bare_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut seen_ns: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        bare_ns.push(time_batch(&mut bare, &mut rng_bare, batch));
        seen_ns.push(time_batch(&mut seen, &mut rng_seen, batch));
    }
    let bare_med = median(&mut bare_ns);
    let seen_med = median(&mut seen_ns);
    let overhead_pct = (seen_med - bare_med) / bare_med * 100.0;
    let within = overhead_pct <= BUDGET_PCT;
    println!(
        "n={n}  bare = {bare_med:.0} ns/step  instrumented = {seen_med:.0} ns/step  \
         overhead = {overhead_pct:+.2}%  (budget {BUDGET_PCT}%)"
    );
    assert_eq!(
        step_ns.count(),
        (rounds * batch) as u64 + 3,
        "every instrumented step must land in the histogram"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \
         \"n\": {n},\n  \"steps_per_arm\": {},\n  \"bare_ns_per_step\": {bare_med:.1},\n  \
         \"instrumented_ns_per_step\": {seen_med:.1},\n  \"overhead_pct\": {overhead_pct:.2},\n  \
         \"budget_pct\": {BUDGET_PCT},\n  \"within_budget\": {within}\n}}\n",
        rounds * batch
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    if !within {
        eprintln!("obs overhead {overhead_pct:.2}% exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
}
