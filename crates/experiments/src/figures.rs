//! Regeneration of every table and figure in §6 of the paper.
//!
//! Each function returns structured rows so the experiment logic is
//! unit-testable at `Scale::Quick`; the binaries render them with
//! [`crate::TextTable`]. Expected *shapes* (who wins, what grows) are
//! documented per function and asserted loosely in the crate tests;
//! absolute values are recorded in EXPERIMENTS.md.

use crate::scale::Scale;
use crate::stats::{mean, stddev};
use gossiptrust_core::prelude::*;
use gossiptrust_filesharing::{
    FileSharingSession, ReputationBackend, SelectionPolicy, SessionConfig,
};
use gossiptrust_gossip::cycle::{exact_reference, GossipTrustAggregator, PriorPolicy};
use gossiptrust_gossip::{PushSumNetwork, ScriptedChooser, UniformChooser};
use gossiptrust_workloads::population::{Population, ThreatConfig};
use gossiptrust_workloads::scenario::{Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a scenario at network size `n` (paper feedback parameters for
/// large networks, scaled-down degrees for small test networks).
pub fn scenario_for(n: usize, threat: ThreatConfig, seed: u64) -> Scenario {
    let cfg = if n >= 500 {
        ScenarioConfig::new(n, threat)
    } else {
        ScenarioConfig::small(n, threat)
    };
    Scenario::generate(&cfg, &mut StdRng::seed_from_u64(seed))
}

// ---------------------------------------------------------------- Table 1

/// One row of the Table 1 reproduction: a node's gossip pair and ratio at
/// a given step of the Fig. 2 worked example.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Gossip step (1-based).
    pub step: usize,
    /// Node label (paper numbering: N1, N2, N3).
    pub node: String,
    /// Weighted score `x`.
    pub x: f64,
    /// Consensus factor `w`.
    pub w: f64,
    /// Ratio `β = x/w` (`None` = the paper's `∞` case).
    pub beta: Option<f64>,
}

/// Reproduce the Fig. 2 / Table 1 worked example: aggregate peer N2's
/// score on a 3-node network with `V(t) = (1/2, 1/3, 1/6)`, `s₁₂ = 0.2`,
/// `s₂₂ = 0`, `s₃₂ = 0.6`. Step 1 follows the paper's scripted targets
/// (N1→N3, N2→N1, N3→N1); the run then continues with uniform gossip until
/// consensus. Returns the per-step rows and the final consensus value
/// (which must equal `v₂(t+1) = 0.2`).
///
/// Note: the paper's printed Table 1 contains internal typos (its step-1
/// row for N2/N3 disagrees with its own §4.2 text); we reproduce the text,
/// which is self-consistent.
pub fn table1() -> (Vec<Table1Row>, f64) {
    let xs = vec![0.5 * 0.2, (1.0 / 3.0) * 0.0, (1.0 / 6.0) * 0.6];
    let ws = vec![0.0, 1.0, 0.0];
    let mut net = PushSumNetwork::from_pairs(xs, ws, 1e-10, 2);
    let chooser = ScriptedChooser::new(vec![vec![2, 0, 0]]);
    let mut rng = StdRng::seed_from_u64(2007);
    let mut rows = Vec::new();
    let record = |net: &PushSumNetwork, step: usize, rows: &mut Vec<Table1Row>| {
        for i in 0..3 {
            let (x, w) = net.pair(NodeId(i as u32));
            rows.push(Table1Row {
                step,
                node: format!("N{}", i + 1),
                x,
                w,
                beta: if w > 0.0 { Some(x / w) } else { None },
            });
        }
    };
    net.step(&chooser, &mut rng);
    record(&net, 1, &mut rows);
    net.step(&chooser, &mut rng);
    record(&net, 2, &mut rows);
    // Continue to full consensus.
    let out = net.run(2, 1000, &UniformChooser, &mut rng);
    let consensus = out.ratios[0].expect("consensus reached");
    (rows, consensus)
}

// ----------------------------------------------------------------- Fig. 3

/// One point of Fig. 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Network size.
    pub n: usize,
    /// Gossip error threshold ε.
    pub epsilon: f64,
    /// Mean gossip steps per aggregation cycle.
    pub mean_steps: f64,
    /// Stddev over seeds.
    pub std_steps: f64,
}

/// The ε grid of Fig. 3.
pub const FIG3_EPSILONS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// Fig. 3: gossip step counts vs gossip error threshold for three network
/// sizes. Expected shape: steps grow with `log(1/ε)` and with `log n`; at
/// tight ε the threshold dominates (curves converge), at loose ε the
/// network size dominates (the `min_steps = ⌈log₂ n⌉` floor).
///
/// Measures the mean steps per cycle over the first 3 aggregation cycles
/// (the per-cycle step count is stationary across cycles, so this keeps
/// the sweep affordable).
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for &n in &scale.fig3_sizes() {
        for &eps in &FIG3_EPSILONS {
            let mut samples = Vec::new();
            for seed in 0..scale.seeds() {
                let scenario = scenario_for(n, ThreatConfig::benign(), 9_000 + seed);
                let params = Params {
                    delta: 1e-15, // never stop early: we want 3 full cycles
                    max_cycles: 3,
                    ..Params::for_network(n).with_epsilon(eps)
                };
                let agg = GossipTrustAggregator::new(params)
                    .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
                let mut rng = StdRng::seed_from_u64(31 + seed);
                let report = agg.aggregate(&scenario.honest, &mut rng);
                samples.push(report.mean_gossip_steps());
            }
            rows.push(Fig3Row {
                n,
                epsilon: eps,
                mean_steps: mean(&samples),
                std_steps: stddev(&samples),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Gossip threshold ε.
    pub epsilon: f64,
    /// Aggregation threshold δ.
    pub delta: f64,
    /// Aggregation cycles until the δ test fired (mean over seeds).
    pub cycles: f64,
    /// Gossip steps per cycle (mean).
    pub gossip_steps: f64,
    /// Gossip error: RMS of the per-cycle gossip estimate against the
    /// exact same-cycle iterate (mean over cycles and seeds).
    pub gossip_error: f64,
    /// Aggregation error: RMS of the final gossiped vector against the
    /// fully-converged exact eigenvector.
    pub aggregation_error: f64,
}

/// Table 3's three (ε, δ) settings.
pub const TABLE3_SETTINGS: [(f64, f64); 3] = [(1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 1e-2)];

/// Table 3: gossip and aggregation errors under three convergence-threshold
/// settings. Expected shape: tighter thresholds → more cycles and steps,
/// smaller errors; each row's aggregation error lands near its δ and the
/// gossip error well below it.
pub fn table3(scale: Scale) -> Vec<Table3Row> {
    let n = scale.n();
    let mut rows = Vec::new();
    for &(eps, delta) in &TABLE3_SETTINGS {
        let mut cycles = Vec::new();
        let mut steps = Vec::new();
        let mut gossip_err = Vec::new();
        let mut agg_err = Vec::new();
        for seed in 0..scale.seeds() {
            let scenario = scenario_for(n, ThreatConfig::benign(), 17_000 + seed);
            let params = Params::for_network(n).with_epsilon(eps).with_delta(delta);
            let agg = GossipTrustAggregator::new(params.clone())
                .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(n)));
            let mut rng = StdRng::seed_from_u64(47 + seed);
            let report = agg.aggregate(&scenario.honest, &mut rng);
            // "Actual" vector: exact solve driven far past any δ here.
            let exact = PowerIteration::new(params.clone().with_delta(1e-12))
                .solve(&scenario.honest, &Prior::uniform(n));
            cycles.push(report.cycles as f64);
            steps.push(report.mean_gossip_steps());
            let mean_cycle_err =
                mean(&report.per_cycle.iter().map(|c| c.gossip_error).collect::<Vec<_>>());
            gossip_err.push(mean_cycle_err);
            agg_err.push(exact.vector.rms_relative_error(&report.vector).expect("same n"));
        }
        rows.push(Table3Row {
            epsilon: eps,
            delta,
            cycles: mean(&cycles),
            gossip_steps: mean(&steps),
            gossip_error: mean(&gossip_err),
            aggregation_error: mean(&agg_err),
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 4(a)

/// One point of Fig. 4(a) or 4(b).
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Greedy factor α of the run.
    pub alpha: f64,
    /// Fraction of malicious peers γ.
    pub gamma: f64,
    /// Collusion group size (0 = independent threat model).
    pub group_size: usize,
    /// RMS aggregation error (Eq. 8) against the honest ground truth.
    pub rms_error: f64,
    /// Stddev over seeds.
    pub std_error: f64,
}

/// How strongly a malicious peer inflates the pushed `x` of the components
/// it boosts (its own score, or its collusion group's scores).
const DISTURBANCE_FACTOR: f64 = 2.0;

/// Run one Fig. 4 cell.
///
/// §6.3's RMS error compares "the calculated and gossiped global
/// reputation scores": `v` is the exact centralized computation over the
/// observed (polluted) trust matrix, and `u` is what the *gossip protocol*
/// actually produces while the malicious peers disturb it — every
/// malicious peer forges extra reputation mass for itself (independent
/// setting) or its whole group (collusive setting) in the gossip pairs it
/// pushes. Power nodes (the greedy factor's jump mass) re-anchor each
/// cycle on exactly computed seeds, which is what damps the accumulated
/// forgery — the effect Fig. 4 quantifies.
fn fig4_cell(n: usize, threat: ThreatConfig, alpha: f64, seeds: u64, seed_base: u64) -> (f64, f64) {
    let mut samples = Vec::new();
    for seed in 0..seeds {
        let scenario = scenario_for(n, threat.clone(), seed_base + seed);
        let mut params = Params::for_network(n).with_alpha(alpha);
        // Table 2's "up to 1% of n" power nodes, floored at 4 so that
        // small (quick-scale) networks don't degenerate to a single-node
        // anchor (a q=1 anchor can lock onto a malicious top scorer; see
        // the power-node-count ablation).
        params.max_power_nodes = (n / 100).max(4);
        // Polluted matrices under α = 0 can have a tiny spectral gap (the
        // collusion clusters exchange mass almost periodically), pushing
        // the δ test out to hundreds of cycles. The RMS metric is stable
        // long before; cap the budget so the sweep stays tractable.
        params.max_cycles = 40;
        let policy = if alpha > 0.0 {
            PriorPolicy::PowerNodesEachCycle
        } else {
            PriorPolicy::Fixed(Prior::uniform(n))
        };
        // "Calculated": the exact value of the aggregation the honest
        // protocol would compute over the same observed matrix.
        let truth = exact_reference(&scenario.polluted, &params.clone().with_delta(1e-10), &policy);
        // "Gossiped": the same aggregation with malicious peers forging
        // their pushes.
        let corruption: Vec<(NodeId, Vec<u32>, f64)> = scenario
            .population
            .malicious_peers()
            .into_iter()
            .map(|node| {
                let targets = match scenario.population.kind(node) {
                    gossiptrust_workloads::population::PeerKind::Collusive(g) => scenario
                        .population
                        .collusion_group(g)
                        .into_iter()
                        .map(|m| m.0)
                        .collect(),
                    _ => vec![node.0],
                };
                (node, targets, DISTURBANCE_FACTOR)
            })
            .collect();
        let agg = GossipTrustAggregator::new(params)
            .with_prior_policy(policy.clone())
            .with_corruption(corruption);
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let report = agg.aggregate(&scenario.polluted, &mut rng);
        samples.push(truth.rms_relative_error(&report.vector).expect("same n"));
    }
    (mean(&samples), stddev(&samples))
}

/// The α settings of Fig. 4(a).
pub const FIG4A_ALPHAS: [f64; 3] = [0.0, 0.15, 0.30];
/// The γ grid of Fig. 4(a). Beyond ~25% *independent* attackers the
/// adaptive power-node anchor itself becomes attackable (a poisoned top-q
/// re-amplifies the pollution) — EXPERIMENTS.md discusses the regime; the
/// paper's claims live in this band.
pub const FIG4A_GAMMAS: [f64; 4] = [0.05, 0.10, 0.20, 0.30];

/// Fig. 4(a): RMS aggregation error vs the percentage of *independent*
/// malicious peers, for α ∈ {0, 0.15, 0.3}. Expected shape: error grows
/// with γ; α = 0.15 (power nodes) beats α = 0 (everyone equal); pushing α
/// to 0.3 does not improve on 0.15.
pub fn fig4a(scale: Scale) -> Vec<Fig4Row> {
    let n = scale.n();
    let mut rows = Vec::new();
    for &alpha in &FIG4A_ALPHAS {
        for &gamma in &FIG4A_GAMMAS {
            let (m, s) =
                fig4_cell(n, ThreatConfig::independent(gamma), alpha, scale.seeds(), 23_000);
            rows.push(Fig4Row { alpha, gamma, group_size: 0, rms_error: m, std_error: s });
        }
    }
    rows
}

/// Collusion group sizes of Fig. 4(b).
pub const FIG4B_GROUP_SIZES: [usize; 4] = [2, 4, 6, 8];
/// Collusive fractions of Fig. 4(b).
pub const FIG4B_GAMMAS: [f64; 2] = [0.05, 0.10];

/// Fig. 4(b): RMS aggregation error under *collusive* malicious peers, vs
/// collusion group size, for 5% and 10% collusive peers, with power nodes
/// on (α = 0.15) and off (α = 0). Expected shape: error grows with group
/// size and γ; power nodes reduce the error.
pub fn fig4b(scale: Scale) -> Vec<Fig4Row> {
    let n = scale.n();
    let mut rows = Vec::new();
    for &alpha in &[0.0, 0.15] {
        for &gamma in &FIG4B_GAMMAS {
            for &gs in &FIG4B_GROUP_SIZES {
                let (m, s) =
                    fig4_cell(n, ThreatConfig::collusive(gamma, gs), alpha, scale.seeds(), 29_000);
                rows.push(Fig4Row { alpha, gamma, group_size: gs, rms_error: m, std_error: s });
            }
        }
    }
    rows
}

// ----------------------------------------------------------------- Fig. 5

/// One point of Fig. 5.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// System name ("GossipTrust" or "NoTrust").
    pub system: String,
    /// Fraction of malicious peers γ.
    pub gamma: f64,
    /// Overall query success rate.
    pub success_rate: f64,
    /// Steady-state success rate (final 3 refresh windows).
    pub steady_rate: f64,
    /// Stddev of the steady-state rate over seeds.
    pub std_rate: f64,
}

/// The γ grid of Fig. 5.
pub const FIG5_GAMMAS: [f64; 5] = [0.0, 0.10, 0.20, 0.30, 0.40];

/// Fig. 5: query success rate of simulated P2P file sharing, GossipTrust
/// vs NoTrust, as malicious peers increase. Expected shape: GossipTrust
/// degrades slowly (≈ 80% at γ = 0.2); NoTrust falls roughly linearly with
/// the malicious fraction.
pub fn fig5(scale: Scale) -> Vec<Fig5Row> {
    let n = scale.n();
    let mut rows = Vec::new();
    for &(system, selection, backend) in &[
        ("GossipTrust", SelectionPolicy::HighestReputation, ReputationBackend::Gossip),
        ("NoTrust", SelectionPolicy::Random, ReputationBackend::None),
    ] {
        for &gamma in &FIG5_GAMMAS {
            let mut overall = Vec::new();
            let mut steady = Vec::new();
            for seed in 0..scale.seeds() {
                let mut rng = StdRng::seed_from_u64(41_000 + seed);
                let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
                // Cap cycles per refresh: a slow-mixing polluted matrix must
                // not stall the whole session (same rationale as Fig. 4).
                let mut params = Params::for_network(n);
                params.max_cycles = 50;
                let config =
                    SessionConfig { selection, backend, ..SessionConfig::gossiptrust(params) }
                        .scaled_down(scale.fig5_files(), scale.fig5_update_interval());
                let mut session = FileSharingSession::new(pop, config, &mut rng);
                session.run_queries(scale.fig5_queries(), &mut rng);
                let report = session.finish(&mut rng);
                overall.push(report.success_rate());
                steady.push(report.steady_state_success_rate(3));
            }
            rows.push(Fig5Row {
                system: system.to_string(),
                gamma,
                success_rate: mean(&overall),
                steady_rate: mean(&steady),
                std_rate: stddev(&steady),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_papers_worked_example() {
        let (rows, consensus) = table1();
        assert!((consensus - 0.2).abs() < 1e-6, "consensus {consensus}");
        // Step-1 values from §4.2's text: N1 = (0.1, 0.5) with β = 0.2,
        // N2 has β = 0, N3 is the ∞ case.
        let n1 = &rows[0];
        assert!((n1.x - 0.1).abs() < 1e-12 && (n1.w - 0.5).abs() < 1e-12);
        assert!((n1.beta.unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(rows[1].beta, Some(0.0));
        assert_eq!(rows[2].beta, None);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn fig3_steps_grow_with_tighter_epsilon() {
        let rows = fig3(Scale::Quick);
        // Group by n; within each group steps must not decrease as ε
        // tightens (allowing for the min-step floor at loose ε).
        for &n in &Scale::Quick.fig3_sizes() {
            let per_n: Vec<&Fig3Row> = rows.iter().filter(|r| r.n == n).collect();
            assert_eq!(per_n.len(), FIG3_EPSILONS.len());
            let loosest = per_n.first().unwrap().mean_steps;
            let tightest = per_n.last().unwrap().mean_steps;
            assert!(
                tightest > loosest,
                "n={n}: steps at ε=1e-5 ({tightest}) vs ε=1e-1 ({loosest})"
            );
        }
    }

    #[test]
    fn table3_tradeoff_shape() {
        let rows = table3(Scale::Quick);
        assert_eq!(rows.len(), 3);
        // Tighter settings (row 0) take more cycles and steps and leave
        // less error than the loosest (row 2).
        assert!(rows[0].cycles >= rows[2].cycles);
        assert!(rows[0].gossip_steps > rows[2].gossip_steps);
        assert!(rows[0].aggregation_error < rows[2].aggregation_error);
        assert!(rows[0].gossip_error < rows[2].gossip_error * 10.0);
    }

    #[test]
    fn fig4a_error_grows_with_gamma() {
        let rows = fig4a(Scale::Quick);
        for &alpha in &FIG4A_ALPHAS {
            let per: Vec<&Fig4Row> = rows.iter().filter(|r| r.alpha == alpha).collect();
            let lo = per.first().unwrap().rms_error;
            let hi = per.last().unwrap().rms_error;
            assert!(hi > lo * 0.8, "alpha={alpha}: {lo} -> {hi} should trend up");
        }
    }

    #[test]
    fn fig5_gossiptrust_beats_notrust_under_attack() {
        let rows = fig5(Scale::Quick);
        let get = |system: &str, gamma: f64| {
            rows.iter()
                .find(|r| r.system == system && (r.gamma - gamma).abs() < 1e-9)
                .unwrap()
                .steady_rate
        };
        // At γ = 0 both are high; under attack GossipTrust holds up better.
        assert!(get("NoTrust", 0.0) > 0.8);
        assert!(get("GossipTrust", 0.0) > 0.8);
        let gt = get("GossipTrust", 0.3);
        let nt = get("NoTrust", 0.3);
        assert!(gt > nt, "GossipTrust {gt} vs NoTrust {nt} at γ=0.3");
    }
}
