//! Ablations beyond the paper's figures, covering the design choices
//! DESIGN.md calls out: the baseline comparison against EigenTrust-over-DHT,
//! Bloom-filter storage, link loss, power-node count, gossip scope, churn
//! and the convergence-detector patience.

use crate::figures::scenario_for;
use crate::scale::Scale;
use crate::stats::{mean, stddev};
use gossiptrust_baselines::eigentrust::EigenTrust;
use gossiptrust_baselines::powertrust::PowerTrust;
use gossiptrust_core::prelude::*;
use gossiptrust_core::qof;
use gossiptrust_filesharing::{
    FileSharingSession, ObjectRepConfig, ReputationBackend, SelectionPolicy, SessionConfig,
};
use gossiptrust_gossip::cycle::{GossipTrustAggregator, PriorPolicy};
use gossiptrust_gossip::engine::EngineConfig;
use gossiptrust_simnet::sim::{AsyncGossipSim, SimConfig, TargetScope};
use gossiptrust_simnet::{ChurnModel, LinkModel, Overlay};
use gossiptrust_storage::{RankStorage, RankStorageConfig};
use gossiptrust_workloads::population::Population;
use gossiptrust_workloads::population::ThreatConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------- EigenTrust vs gossip

/// One row comparing GossipTrust with EigenTrust-over-DHT.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// System name.
    pub system: String,
    /// RMS error against the exact eigenvector.
    pub rms_vs_oracle: f64,
    /// Aggregation cycles.
    pub cycles: f64,
    /// Application messages (gossip pushes / DHT fetches).
    pub messages: f64,
    /// Network messages (gossip pushes / DHT hop traversals).
    pub network_messages: f64,
}

/// Accuracy and message cost: GossipTrust vs EigenTrust on the same
/// (benign) trust matrix. Expected shape: both reach the oracle's answer;
/// EigenTrust pays DHT lookup hops per fetch while GossipTrust pays
/// `n` messages per gossip step — the structured overlay buys fewer,
/// bigger rounds.
pub fn eigentrust_vs_gossip(scale: Scale) -> Vec<BaselineRow> {
    let n = scale.n().min(500); // EigenTrust's per-edge routing is O(nnz·hops); cap for time
    let seeds = scale.seeds();
    let mut gossip_err = Vec::new();
    let mut gossip_cycles = Vec::new();
    let mut gossip_msgs = Vec::new();
    let mut gossip_net = Vec::new();
    let mut et_err = Vec::new();
    let mut et_cycles = Vec::new();
    let mut et_msgs = Vec::new();
    let mut et_net = Vec::new();
    let mut pt_err = Vec::new();
    let mut pt_cycles = Vec::new();
    let mut pt_msgs = Vec::new();
    let mut pt_net = Vec::new();
    for seed in 0..seeds {
        let scenario = scenario_for(n, ThreatConfig::benign(), 61_000 + seed);
        let params = Params::for_network(n);
        let oracle = PowerIteration::new(params.clone().with_delta(1e-10))
            .solve(&scenario.honest, &Prior::uniform(n))
            .vector;

        let agg = GossipTrustAggregator::new(params.clone())
            .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
        let mut rng = StdRng::seed_from_u64(71 + seed);
        let g = agg.aggregate(&scenario.honest, &mut rng);
        gossip_err.push(oracle.rms_relative_error(&g.vector).expect("same n"));
        gossip_cycles.push(g.cycles as f64);
        let stats = g.total_stats();
        gossip_msgs.push(stats.messages_sent as f64);
        gossip_net.push(stats.messages_sent as f64);

        let et = EigenTrust::new(params.clone(), vec![]);
        let r = et.compute(&scenario.honest);
        et_err.push(oracle.rms_relative_error(&r.vector).expect("same n"));
        et_cycles.push(r.cycles as f64);
        et_msgs.push(r.fetches as f64);
        et_net.push(r.dht_hops as f64);

        let pt = PowerTrust::new(params);
        let r = pt.compute(&scenario.honest);
        // PowerTrust converges to its *own* power-node-anchored fixed
        // point; compare it against the matching oracle.
        let pt_oracle = PowerIteration::new(Params::for_network(n).with_delta(1e-10))
            .solve(&scenario.honest, &Prior::over_nodes(n, &r.power_nodes))
            .vector;
        pt_err.push(pt_oracle.rms_relative_error(&r.vector).expect("same n"));
        pt_cycles.push((r.initial_cycles + r.accelerated_cycles) as f64);
        pt_msgs.push(r.fetches as f64);
        pt_net.push(r.dht_hops as f64);
    }
    vec![
        BaselineRow {
            system: "GossipTrust".into(),
            rms_vs_oracle: mean(&gossip_err),
            cycles: mean(&gossip_cycles),
            messages: mean(&gossip_msgs),
            network_messages: mean(&gossip_net),
        },
        BaselineRow {
            system: "EigenTrust/DHT".into(),
            rms_vs_oracle: mean(&et_err),
            cycles: mean(&et_cycles),
            messages: mean(&et_msgs),
            network_messages: mean(&et_net),
        },
        BaselineRow {
            system: "PowerTrust/DHT".into(),
            rms_vs_oracle: mean(&pt_err),
            cycles: mean(&pt_cycles),
            messages: mean(&pt_msgs),
            network_messages: mean(&pt_net),
        },
    ]
}

// ------------------------------------------------------------ Bloom storage

/// One row of the Bloom storage ablation.
#[derive(Clone, Debug)]
pub struct BloomRow {
    /// Per-bucket false-positive budget.
    pub fp_rate: f64,
    /// Bytes used by the Bloom rank storage.
    pub bloom_bytes: usize,
    /// Bytes an exact table would use.
    pub exact_bytes: usize,
    /// Mean absolute rank-level error.
    pub mean_rank_error: f64,
}

/// Storage-vs-accuracy for Bloom-filter reputation ranks. Expected shape:
/// looser fp budgets shrink storage and grow (promotion-only) rank error.
pub fn bloom_storage(scale: Scale) -> Vec<BloomRow> {
    let n = scale.n();
    let scenario = scenario_for(n, ThreatConfig::benign(), 67_000);
    let vector = PowerIteration::new(Params::for_network(n))
        .solve(&scenario.honest, &Prior::uniform(n))
        .vector;
    [0.0001, 0.001, 0.01, 0.05, 0.2]
        .into_iter()
        .map(|fp_rate| {
            let storage = RankStorage::build(&vector, RankStorageConfig { levels: 8, fp_rate });
            BloomRow {
                fp_rate,
                bloom_bytes: storage.byte_size(),
                exact_bytes: storage.exact_table_bytes(),
                mean_rank_error: storage.mean_rank_error(&vector),
            }
        })
        .collect()
}

// ------------------------------------------------------------- Loss sweep

/// One row of the link-loss ablation.
#[derive(Clone, Debug)]
pub struct LossRow {
    /// Injected message-loss probability.
    pub loss_rate: f64,
    /// Mean gossip steps per cycle.
    pub steps: f64,
    /// Mean per-cycle gossip error.
    pub gossip_error: f64,
    /// RMS of the final vector against the exact eigenvector.
    pub final_error: f64,
}

/// Fault tolerance: the lock-step engine under increasing message loss.
/// Expected shape: the protocol keeps converging; errors grow smoothly
/// with the loss rate (mass loss biases individual components, ratios
/// degrade gracefully) — the paper's "tolerates link failures" claim.
pub fn loss_tolerance(scale: Scale) -> Vec<LossRow> {
    let n = scale.n().min(500);
    let seeds = scale.seeds();
    [0.0, 0.02, 0.05, 0.10, 0.20]
        .into_iter()
        .map(|loss| {
            let mut steps = Vec::new();
            let mut gerr = Vec::new();
            let mut ferr = Vec::new();
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::benign(), 71_000 + seed);
                let params = Params::for_network(n).with_delta(0.05_f64.max(loss));
                let engine_cfg = EngineConfig::from_params(&params, n).with_loss_rate(loss);
                let agg = GossipTrustAggregator::new(params.clone())
                    .with_engine_config(engine_cfg)
                    .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
                let mut rng = StdRng::seed_from_u64(73 + seed);
                let report = agg.aggregate(&scenario.honest, &mut rng);
                let exact = PowerIteration::new(params.with_delta(1e-10))
                    .solve(&scenario.honest, &Prior::uniform(n))
                    .vector;
                steps.push(report.mean_gossip_steps());
                gerr.push(mean(
                    &report.per_cycle.iter().map(|c| c.gossip_error).collect::<Vec<_>>(),
                ));
                ferr.push(exact.rms_relative_error(&report.vector).expect("same n"));
            }
            LossRow {
                loss_rate: loss,
                steps: mean(&steps),
                gossip_error: mean(&gerr),
                final_error: mean(&ferr),
            }
        })
        .collect()
}

// ------------------------------------------------------- Power-node count

/// One row of the power-node-count ablation.
#[derive(Clone, Debug)]
pub struct PowerNodeRow {
    /// Power-node budget q.
    pub q: usize,
    /// RMS Eq. 8 error against the honest ground truth.
    pub rms_error: f64,
    /// Stddev over seeds.
    pub std_error: f64,
}

/// How many power nodes to keep: q sweep at fixed γ = 0.2 independent
/// attackers, α = 0.15. Expected shape: a handful of power nodes already
/// buys the robustness; very small q is brittle (single-anchor lock-in),
/// very large q dilutes toward the uniform prior.
pub fn power_node_count(scale: Scale) -> Vec<PowerNodeRow> {
    let n = scale.n();
    let seeds = scale.seeds();
    let mut qs: Vec<usize> = vec![1, n / 200, n / 100, n / 20, n / 5]
        .into_iter()
        .map(|q| q.max(1))
        .collect();
    qs.dedup();
    qs.into_iter()
        .map(|q| {
            let mut samples = Vec::new();
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::independent(0.2), 79_000 + seed);
                let mut params = Params::for_network(n);
                params.max_power_nodes = q;
                // Per-q honest reference, same policy — isolates the
                // pollution-induced distortion for each q.
                let truth = gossiptrust_gossip::cycle::exact_reference(
                    &scenario.honest,
                    &params.clone().with_delta(1e-10),
                    &PriorPolicy::PowerNodesEachCycle,
                );
                let agg = GossipTrustAggregator::new(params)
                    .with_prior_policy(PriorPolicy::PowerNodesEachCycle);
                let mut rng = StdRng::seed_from_u64(83 + seed);
                let report = agg.aggregate(&scenario.polluted, &mut rng);
                samples.push(truth.rms_relative_error(&report.vector).expect("same n"));
            }
            PowerNodeRow { q, rms_error: mean(&samples), std_error: stddev(&samples) }
        })
        .collect()
}

// ---------------------------------------------------------- Gossip scope

/// One row of the gossip-scope ablation.
#[derive(Clone, Debug)]
pub struct ScopeRow {
    /// "global" or "neighbors".
    pub scope: String,
    /// Mean virtual convergence time (µs) of one async cycle.
    pub virtual_time_us: f64,
    /// Mean relative estimate error vs the exact cycle iterate.
    pub mean_rel_error: f64,
}

/// Whole-id-space gossip targets vs overlay-neighbor-only targets in the
/// asynchronous simulator. Expected shape: both converge; neighbor-only
/// is slower on a sparse overlay (mixing time of the graph vs the
/// complete graph).
pub fn gossip_scope(scale: Scale) -> Vec<ScopeRow> {
    let n = scale.n().min(300);
    let seeds = scale.seeds();
    [TargetScope::Global, TargetScope::Neighbors]
        .into_iter()
        .map(|scope| {
            let mut times = Vec::new();
            let mut errors = Vec::new();
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::benign(), 83_000 + seed);
                let mut rng = StdRng::seed_from_u64(89 + seed);
                let overlay = Overlay::random_k_out(n, 4, &mut rng);
                let config = SimConfig {
                    link: LinkModel::fixed(30_000),
                    epsilon: 1e-3,
                    scope,
                    ..Default::default()
                };
                let mut sim = AsyncGossipSim::new(overlay, config);
                let v0 = ReputationVector::uniform(n);
                let prior = Prior::uniform(n);
                let report = sim.run_cycle(&scenario.honest, &v0, &prior, 0.15, &mut rng);
                let mut exact = vec![0.0; n];
                scenario
                    .honest
                    .transpose_mul(v0.values(), &mut exact)
                    .expect("same n");
                prior.mix_into(&mut exact, 0.15);
                let err = exact
                    .iter()
                    .zip(&report.estimate)
                    .map(|(&e, &g)| (e - g).abs() / e.max(1e-12))
                    .sum::<f64>()
                    / n as f64;
                times.push(report.virtual_time as f64);
                errors.push(err);
            }
            ScopeRow {
                scope: match scope {
                    TargetScope::Global => "global".into(),
                    TargetScope::Neighbors => "neighbors".into(),
                },
                virtual_time_us: mean(&times),
                mean_rel_error: mean(&errors),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Churn

/// One row of the churn ablation.
#[derive(Clone, Debug)]
pub struct ChurnRow {
    /// Long-run peer availability (fraction online).
    pub availability: f64,
    /// Mean relative estimate error vs the exact cycle iterate.
    pub mean_rel_error: f64,
    /// Fraction of runs whose ε-consensus probe fired before the deadline.
    pub converged_fraction: f64,
}

/// Peer dynamics: one async gossip cycle under churn of decreasing
/// availability. Expected shape: errors grow as availability drops (mass
/// frozen on offline peers skews the consensus), degrading gracefully —
/// the paper's "adaptive to peer dynamics" claim.
pub fn churn_resilience(scale: Scale) -> Vec<ChurnRow> {
    let n = scale.n().min(300);
    let seeds = scale.seeds();
    // (mean_session, mean_offline) pairs: 100%, ~95%, ~87.5%, ~75% online.
    let models: Vec<(Option<ChurnModel>, f64)> = vec![
        (None, 1.0),
        (Some(ChurnModel::new(95_000_000, 5_000_000)), 0.95),
        (Some(ChurnModel::new(35_000_000, 5_000_000)), 0.875),
        (Some(ChurnModel::new(15_000_000, 5_000_000)), 0.75),
    ];
    models
        .into_iter()
        .map(|(churn, availability)| {
            let mut errors = Vec::new();
            let mut converged = 0usize;
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::benign(), 89_000 + seed);
                let mut rng = StdRng::seed_from_u64(97 + seed);
                let overlay = Overlay::random_k_out(n, 4, &mut rng);
                let config = SimConfig {
                    link: LinkModel::fixed(30_000),
                    epsilon: 1e-3,
                    churn,
                    max_time: 120_000_000,
                    ..Default::default()
                };
                let mut sim = AsyncGossipSim::new(overlay, config);
                let v0 = ReputationVector::uniform(n);
                let prior = Prior::uniform(n);
                let report = sim.run_cycle(&scenario.honest, &v0, &prior, 0.15, &mut rng);
                if report.converged {
                    converged += 1;
                }
                let mut exact = vec![0.0; n];
                scenario
                    .honest
                    .transpose_mul(v0.values(), &mut exact)
                    .expect("same n");
                prior.mix_into(&mut exact, 0.15);
                let err = exact
                    .iter()
                    .zip(&report.estimate)
                    .map(|(&e, &g)| (e - g).abs() / e.max(1e-12))
                    .sum::<f64>()
                    / n as f64;
                errors.push(err);
            }
            ChurnRow {
                availability,
                mean_rel_error: mean(&errors),
                converged_fraction: converged as f64 / seeds as f64,
            }
        })
        .collect()
}

// -------------------------------------------------------------- Patience

/// One row of the detector-patience ablation.
#[derive(Clone, Debug)]
pub struct PatienceRow {
    /// Consecutive calm steps required before a node declares convergence.
    pub patience: usize,
    /// Mean gossip steps per cycle.
    pub steps: f64,
    /// Mean per-cycle gossip error.
    pub gossip_error: f64,
}

/// Our convergence detector adds a `patience` parameter over the paper's
/// single-step test. Expected shape: higher patience costs a few steps and
/// buys lower gossip error; patience 1 (the literal paper test) is the
/// cheapest and noisiest.
pub fn patience(scale: Scale) -> Vec<PatienceRow> {
    let n = scale.n().min(500);
    let seeds = scale.seeds();
    [1usize, 2, 3, 5]
        .into_iter()
        .map(|patience| {
            let mut steps = Vec::new();
            let mut gerr = Vec::new();
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::benign(), 97_000 + seed);
                let mut params = Params::for_network(n);
                params.gossip_patience = patience;
                params.max_cycles = 3;
                params.delta = 1e-15;
                let agg = GossipTrustAggregator::new(params)
                    .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
                let mut rng = StdRng::seed_from_u64(101 + seed);
                let report = agg.aggregate(&scenario.honest, &mut rng);
                steps.push(report.mean_gossip_steps());
                gerr.push(mean(
                    &report.per_cycle.iter().map(|c| c.gossip_error).collect::<Vec<_>>(),
                ));
            }
            PatienceRow { patience, steps: mean(&steps), gossip_error: mean(&gerr) }
        })
        .collect()
}

// ------------------------------------------------------------------ QoF

/// One row of the Quality-of-Feedback ablation.
#[derive(Clone, Debug)]
pub struct QofRow {
    /// Whether QoF discounting was applied.
    pub qof_enabled: bool,
    /// Fraction of malicious peers γ.
    pub gamma: f64,
    /// RMS Eq. 8 error against the honest ground truth.
    pub rms_error: f64,
    /// Stddev over seeds.
    pub std_error: f64,
    /// Mean QoF score of honest peers.
    pub honest_qof: f64,
    /// Mean QoF score of malicious peers.
    pub malicious_qof: f64,
}

/// §7's Quality-of-Feedback extension: discount each rater's row by its
/// feedback credibility before aggregating. Expected shape: malicious
/// raters (whose opinions invert the consensus) get lower QoF scores, and
/// the discounted aggregation lands closer to the honest ground truth.
pub fn qof_discounting(scale: Scale) -> Vec<QofRow> {
    let n = scale.n().min(500);
    let seeds = scale.seeds();
    let mut rows = Vec::new();
    for &gamma in &[0.1f64, 0.2, 0.3] {
        for &enabled in &[false, true] {
            let mut errors = Vec::new();
            let mut honest_q = Vec::new();
            let mut malicious_q = Vec::new();
            for seed in 0..seeds {
                let scenario = scenario_for(n, ThreatConfig::independent(gamma), 101_000 + seed);
                let params = Params::for_network(n);
                let truth = PowerIteration::new(params.clone().with_delta(1e-10))
                    .solve(&scenario.honest, &Prior::uniform(n))
                    .vector;
                // One bootstrap pass gives the reputation weights for the
                // credibility computation.
                let bootstrap = PowerIteration::new(params.clone())
                    .solve(&scenario.polluted, &Prior::uniform(n))
                    .vector;
                let credibility = qof::feedback_credibility(&scenario.polluted, &bootstrap, 0.05);
                let avg = |ids: &[gossiptrust_core::NodeId]| {
                    ids.iter().map(|&i| credibility.score(i)).sum::<f64>() / ids.len().max(1) as f64
                };
                honest_q.push(avg(&scenario.population.honest_peers()));
                malicious_q.push(avg(&scenario.population.malicious_peers()));
                let matrix = if enabled {
                    qof::discount_matrix(&scenario.polluted, &credibility)
                } else {
                    scenario.polluted.clone()
                };
                let estimate = PowerIteration::new(params.with_delta(1e-10))
                    .solve(&matrix, &Prior::uniform(n))
                    .vector;
                errors.push(truth.rms_relative_error(&estimate).expect("same n"));
            }
            rows.push(QofRow {
                qof_enabled: enabled,
                gamma,
                rms_error: mean(&errors),
                std_error: stddev(&errors),
                honest_qof: mean(&honest_q),
                malicious_qof: mean(&malicious_q),
            });
        }
    }
    rows
}

// ------------------------------------------------------- Object reputation

/// One row of the object-reputation ablation.
#[derive(Clone, Debug)]
pub struct ObjectRepRow {
    /// Whether copy-level filtering was enabled.
    pub objects_enabled: bool,
    /// Fraction of malicious peers γ.
    pub gamma: f64,
    /// Steady-state query success rate.
    pub steady_rate: f64,
    /// Stddev over seeds.
    pub std_rate: f64,
}

/// §7's object-reputation extension on top of the Fig. 5 session (random
/// selection isolates the copy-filter effect from peer reputation).
/// Expected shape: filtering community-flagged copies lifts the success
/// rate, most at higher γ.
pub fn object_reputation(scale: Scale) -> Vec<ObjectRepRow> {
    let n = scale.n().min(300);
    let seeds = scale.seeds();
    let queries = scale.fig5_queries().min(4_000);
    let window = (queries / 8).max(100);
    let files = 200; // concentrated votes: the filter needs repeat downloads
    let mut rows = Vec::new();
    for &gamma in &[0.1f64, 0.2, 0.3] {
        for &enabled in &[false, true] {
            let mut rates = Vec::new();
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(103_000 + seed);
                let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
                let mut config = SessionConfig {
                    selection: SelectionPolicy::Random,
                    backend: ReputationBackend::None,
                    ..SessionConfig::gossiptrust(Params::for_network(n))
                }
                .scaled_down(files, window);
                if enabled {
                    config = config.with_object_reputation(ObjectRepConfig::default());
                }
                let mut session = FileSharingSession::new(pop, config, &mut rng);
                session.run_queries(queries, &mut rng);
                rates.push(session.finish(&mut rng).steady_state_success_rate(3));
            }
            rows.push(ObjectRepRow {
                objects_enabled: enabled,
                gamma,
                steady_rate: mean(&rates),
                std_rate: stddev(&rates),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigentrust_comparison_has_all_systems_accurate() {
        let rows = eigentrust_vs_gossip(Scale::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.rms_vs_oracle < 0.1, "{} error {}", r.system, r.rms_vs_oracle);
            assert!(r.messages > 0.0);
        }
    }

    #[test]
    fn qof_scores_separate_honest_from_malicious() {
        let rows = qof_discounting(Scale::Quick);
        for r in &rows {
            assert!(
                r.honest_qof > r.malicious_qof,
                "γ={}: honest {} vs malicious {}",
                r.gamma,
                r.honest_qof,
                r.malicious_qof
            );
        }
        // Discounting should not hurt, and typically helps, at every γ.
        for &gamma in &[0.1f64, 0.2, 0.3] {
            let without = rows
                .iter()
                .find(|r| !r.qof_enabled && (r.gamma - gamma).abs() < 1e-9)
                .unwrap();
            let with = rows
                .iter()
                .find(|r| r.qof_enabled && (r.gamma - gamma).abs() < 1e-9)
                .unwrap();
            assert!(
                with.rms_error <= without.rms_error * 1.1,
                "γ={gamma}: QoF {} vs plain {}",
                with.rms_error,
                without.rms_error
            );
        }
    }

    #[test]
    fn object_reputation_rows_have_sane_rates() {
        let rows = object_reputation(Scale::Quick);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.steady_rate > 0.3 && r.steady_rate <= 1.0, "rate {}", r.steady_rate);
        }
    }

    #[test]
    fn bloom_rows_trade_space_for_error() {
        let rows = bloom_storage(Scale::Quick);
        assert!(rows.first().unwrap().bloom_bytes > rows.last().unwrap().bloom_bytes);
        assert!(rows.first().unwrap().mean_rank_error <= rows.last().unwrap().mean_rank_error);
    }

    #[test]
    fn loss_rows_degrade_gracefully() {
        let rows = loss_tolerance(Scale::Quick);
        let clean = rows.first().unwrap();
        let lossy = rows.last().unwrap();
        assert!(clean.final_error < lossy.final_error + 1e-9);
        assert!(clean.gossip_error < 0.01);
    }

    #[test]
    fn patience_rows_show_the_tradeoff() {
        let rows = patience(Scale::Quick);
        assert!(rows.first().unwrap().steps <= rows.last().unwrap().steps);
    }
}
