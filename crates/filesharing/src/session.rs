//! The file-sharing experiment driver (§6.4).
//!
//! A session wires together the peer population (with its threat model),
//! the file catalog, the unstructured overlay, and the query workload. At
//! each step "a query is randomly generated at a peer and completely
//! executed before the next query step": the query floods the overlay, the
//! requester downloads from a holder picked by the configured
//! [`SelectionPolicy`], the outcome (authentic or not) is determined by the
//! provider's intrinsic behavior, and feedback is recorded per the
//! requester's kind. "The system updates global reputation scores at all
//! sites after 1,000 queries."

use crate::flooding::flood_search;
use crate::objects::{ObjectRepConfig, ObjectReputation};
use crate::selection::SelectionPolicy;
use gossiptrust_core::id::NodeId;
use gossiptrust_core::local::LocalTrust;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_iter::PowerIteration;
use gossiptrust_core::power_nodes::{PowerNodeSelector, Prior};
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_gossip::cycle::{GossipTrustAggregator, PriorPolicy};
use gossiptrust_gossip::UniformChooser;
use gossiptrust_simnet::topology::Overlay;
use gossiptrust_workloads::files::FileCatalog;
use gossiptrust_workloads::population::{PeerKind, Population};
use gossiptrust_workloads::queries::QueryWorkload;
use gossiptrust_workloads::saroiu::SaroiuFiles;
use rand::Rng;

/// How global reputation scores are recomputed at each refresh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReputationBackend {
    /// Centralized exact power iteration (fast oracle; used to isolate the
    /// selection-policy effect from gossip noise).
    Exact,
    /// Full distributed gossip aggregation (the real GossipTrust pipeline).
    Gossip,
    /// Never update — scores stay uniform. Combined with
    /// [`SelectionPolicy::Random`] this is the paper's *NoTrust* system.
    None,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Reputation-system parameters (`α`, thresholds, power-node budget).
    pub params: Params,
    /// Source-selection policy.
    pub selection: SelectionPolicy,
    /// Reputation refresh backend.
    pub backend: ReputationBackend,
    /// Queries between reputation refreshes (paper: 1000).
    pub update_interval: usize,
    /// Number of files in the catalog (paper: > 100 000).
    pub num_files: usize,
    /// Flood TTL in hops (`usize::MAX` floods the whole network).
    pub flood_ttl: usize,
    /// Overlay out-degree for the random `k`-out topology.
    pub overlay_degree: usize,
    /// Extra fake positive feedback each collusive peer injects for each
    /// group mate at every refresh window (reputation-boost spam).
    pub collusion_spam: f64,
    /// Copy-level object-reputation filtering (§7 extension); `None`
    /// disables it.
    pub object_reputation: Option<ObjectRepConfig>,
    /// Probability a requester ignores the policy and downloads from a
    /// uniformly random holder. EigenTrust's simulations use the same 10%
    /// exploration to distribute load and keep fresh feedback flowing to
    /// unrated peers; without it, pure argmax selection can lock onto a
    /// briefly-top-scored malicious peer (only malicious raters reward bad
    /// service, so the victim cluster stops producing counter-evidence).
    pub exploration: f64,
}

impl SessionConfig {
    /// The paper's GossipTrust configuration for an `n`-peer network
    /// (power-node budget per Table 2's "1% of n" rule).
    pub fn gossiptrust(params: Params) -> Self {
        SessionConfig {
            params,
            selection: SelectionPolicy::HighestReputation,
            backend: ReputationBackend::Gossip,
            update_interval: 1000,
            num_files: 100_000,
            flood_ttl: usize::MAX,
            overlay_degree: 4,
            collusion_spam: 5.0,
            object_reputation: None,
            exploration: 0.10,
        }
    }

    /// The paper's NoTrust baseline for the same network.
    pub fn notrust(params: Params) -> Self {
        SessionConfig {
            selection: SelectionPolicy::Random,
            backend: ReputationBackend::None,
            ..SessionConfig::gossiptrust(params)
        }
    }

    /// Scale file counts and windows down for unit tests.
    pub fn scaled_down(mut self, num_files: usize, update_interval: usize) -> Self {
        self.num_files = num_files;
        self.update_interval = update_interval;
        self
    }

    /// Builder-style backend override.
    pub fn with_backend(mut self, backend: ReputationBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Enable copy-level object reputation (§7 extension).
    pub fn with_object_reputation(mut self, config: ObjectRepConfig) -> Self {
        self.object_reputation = Some(config);
        self
    }
}

/// Statistics of one refresh window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Queries issued in the window.
    pub queries: usize,
    /// Authentic downloads.
    pub successes: usize,
    /// Queries whose flood found no (other) holder.
    pub no_holder: usize,
}

impl WindowStats {
    /// Success rate within this window.
    pub fn success_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.successes as f64 / self.queries as f64
        }
    }
}

/// Full session report.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Total queries issued.
    pub queries: usize,
    /// Total authentic downloads.
    pub successes: usize,
    /// Queries with inauthentic downloads.
    pub inauthentic: usize,
    /// Queries that found no holder.
    pub no_holder: usize,
    /// Flood messages generated.
    pub flood_messages: u64,
    /// Reputation refreshes performed.
    pub reputation_updates: usize,
    /// Per-window learning curve.
    pub windows: Vec<WindowStats>,
}

impl SessionReport {
    /// Overall query success rate (the paper's Fig. 5 metric).
    pub fn success_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.successes as f64 / self.queries as f64
        }
    }

    /// Success rate over the final `k` windows (steady state after the
    /// reputation system has learned).
    pub fn steady_state_success_rate(&self, k: usize) -> f64 {
        let tail: Vec<&WindowStats> = self.windows.iter().rev().take(k).collect();
        let q: usize = tail.iter().map(|w| w.queries).sum();
        let s: usize = tail.iter().map(|w| w.successes).sum();
        if q == 0 {
            0.0
        } else {
            s as f64 / q as f64
        }
    }
}

/// A running file-sharing experiment.
pub struct FileSharingSession {
    population: Population,
    catalog: FileCatalog,
    overlay: Overlay,
    workload: QueryWorkload,
    config: SessionConfig,
    trust_rows: Vec<LocalTrust>,
    reputation: ReputationVector,
    objects: ObjectReputation,
    selector: PowerNodeSelector,
    report: SessionReport,
    window: WindowStats,
    queries_in_window: usize,
}

impl FileSharingSession {
    /// Build a session: generates the catalog, overlay and workload from
    /// `rng` for the given `population`.
    pub fn new<R: Rng + ?Sized>(
        population: Population,
        config: SessionConfig,
        rng: &mut R,
    ) -> Self {
        let n = population.n();
        assert!(n >= 2, "session needs at least two peers");
        assert!(config.update_interval >= 1, "update interval must be positive");
        let catalog = FileCatalog::generate(n, config.num_files, 1.2, &SaroiuFiles::default(), rng);
        let overlay = Overlay::random_k_out(n, config.overlay_degree, rng);
        let workload = QueryWorkload::new(n, config.num_files);
        let selector = PowerNodeSelector::new(config.params.max_power_nodes);
        FileSharingSession {
            population,
            catalog,
            overlay,
            workload,
            config,
            trust_rows: vec![LocalTrust::new(); n],
            reputation: ReputationVector::uniform(n),
            objects: ObjectReputation::new(),
            selector,
            report: SessionReport {
                queries: 0,
                successes: 0,
                inauthentic: 0,
                no_holder: 0,
                flood_messages: 0,
                reputation_updates: 0,
                windows: Vec::new(),
            },
            window: WindowStats::default(),
            queries_in_window: 0,
        }
    }

    /// Current global reputation vector.
    pub fn reputation(&self) -> &ReputationVector {
        &self.reputation
    }

    /// The population driving this session.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Execute `count` queries (reputation refreshes happen inline each
    /// time the window fills).
    pub fn run_queries<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        for _ in 0..count {
            self.process_one(rng);
            self.queries_in_window += 1;
            if self.queries_in_window >= self.config.update_interval {
                self.close_window(rng);
            }
        }
    }

    /// Finish the session: closes the open window and returns the report.
    pub fn finish<R: Rng + ?Sized>(mut self, rng: &mut R) -> SessionReport {
        if self.window.queries > 0 {
            self.close_window(rng);
        }
        self.report
    }

    fn process_one<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let q = self.workload.sample(rng);
        self.report.queries += 1;
        self.window.queries += 1;

        let flood =
            flood_search(&self.overlay, &self.catalog, q.requester, q.file, self.config.flood_ttl);
        self.report.flood_messages += flood.messages;
        if flood.holders.is_empty() {
            self.report.no_holder += 1;
            self.window.no_holder += 1;
            return;
        }
        // Local hit: the requester already holds an authentic copy.
        if flood.holders == [q.requester] {
            self.report.successes += 1;
            self.window.successes += 1;
            return;
        }
        let policy =
            if self.config.exploration > 0.0 && rng.random::<f64>() < self.config.exploration {
                SelectionPolicy::Random
            } else {
                self.config.selection
            };
        // Copy-level object-reputation filter (when enabled): skip copies
        // the community has voted fake.
        let object_filtered: Vec<NodeId> = match &self.config.object_reputation {
            Some(cfg) => self.objects.filter_holders(q.file, &flood.holders, cfg),
            None => flood.holders.clone(),
        };
        // Local avoidance: skip holders this requester has personally
        // caught cheating (net-negative satisfaction balance). Global
        // reputation can lag or be gamed; first-hand evidence cannot.
        // Fall back to the full holder set if everyone is blacklisted.
        let requester_row = &self.trust_rows[q.requester.index()];
        let acceptable: Vec<NodeId> = object_filtered
            .iter()
            .copied()
            .filter(|&h| requester_row.satisfaction_balance(h) >= 0)
            .collect();
        let pool = if acceptable.is_empty() {
            &object_filtered
        } else {
            &acceptable
        };
        let provider = policy.select(pool, q.requester, &self.reputation, rng);
        let authentic = rng.random::<f64>() < self.population.authenticity(provider);
        if authentic {
            self.report.successes += 1;
            self.window.successes += 1;
        } else {
            self.report.inauthentic += 1;
        }
        // Feedback per the requester's kind — both peer-level ratings and
        // (when enabled) the copy-level object vote follow the same lie.
        let row = &mut self.trust_rows[q.requester.index()];
        let claimed = match self.population.kind(q.requester) {
            PeerKind::Honest => authentic,
            PeerKind::IndependentMalicious => !authentic,
            PeerKind::Collusive(_) => self.population.same_collusion_group(q.requester, provider),
        };
        row.rate_satisfaction(provider, claimed);
        if self.config.object_reputation.is_some() {
            self.objects.record(q.file, provider, claimed);
        }
    }

    fn close_window<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.report.windows.push(self.window);
        self.window = WindowStats::default();
        self.queries_in_window = 0;
        if !matches!(self.config.backend, ReputationBackend::None) {
            self.inject_collusion_spam();
            self.refresh_reputation(rng);
            self.report.reputation_updates += 1;
        }
    }

    /// Collusive peers manufacture in-group positive feedback every window.
    fn inject_collusion_spam(&mut self) {
        if self.config.collusion_spam <= 0.0 {
            return;
        }
        let groups = self.population.collusion_group_count();
        for g in 0..groups {
            let members = self.population.collusion_group(g as u32);
            for &a in &members {
                for &b in &members {
                    if a != b {
                        self.trust_rows[a.index()].add_feedback(b, self.config.collusion_spam);
                    }
                }
            }
        }
    }

    fn refresh_reputation<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let matrix = TrustMatrix::from_rows(&self.trust_rows);
        let prior = if self.config.params.alpha > 0.0 {
            self.selector.prior(&self.reputation)
        } else {
            Prior::uniform(matrix.n())
        };
        self.reputation = match self.config.backend {
            ReputationBackend::None => return,
            ReputationBackend::Exact => {
                let solver = PowerIteration::new(self.config.params.clone());
                solver.solve_from(&matrix, &prior, &self.reputation).vector
            }
            ReputationBackend::Gossip => {
                let agg = GossipTrustAggregator::new(self.config.params.clone())
                    .with_prior_policy(PriorPolicy::Fixed(prior));
                agg.aggregate_with(&matrix, &self.reputation, &UniformChooser, rng)
                    .vector
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossiptrust_workloads::population::ThreatConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_session(
        n: usize,
        gamma: f64,
        selection: SelectionPolicy,
        backend: ReputationBackend,
        queries: usize,
        seed: u64,
    ) -> SessionReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
        let params = Params::for_network(n);
        let config = SessionConfig { selection, backend, ..SessionConfig::gossiptrust(params) }
            .scaled_down(500, 200);
        let mut session = FileSharingSession::new(pop, config, &mut rng);
        session.run_queries(queries, &mut rng);
        session.finish(&mut rng)
    }

    #[test]
    fn report_accounting_adds_up() {
        let r = run_session(60, 0.2, SelectionPolicy::Random, ReputationBackend::None, 600, 1);
        assert_eq!(r.queries, 600);
        assert_eq!(r.successes + r.inauthentic + r.no_holder, r.queries);
        assert_eq!(r.windows.iter().map(|w| w.queries).sum::<usize>(), 600);
        assert!(r.flood_messages > 0);
        assert_eq!(r.reputation_updates, 0, "NoTrust never updates");
    }

    #[test]
    fn benign_network_has_high_success_either_way() {
        let a = run_session(60, 0.0, SelectionPolicy::Random, ReputationBackend::None, 500, 2);
        assert!(a.success_rate() > 0.85, "rate {}", a.success_rate());
    }

    #[test]
    fn reputation_selection_beats_random_under_attack() {
        // Table 2's default γ = 20% malicious peers; exact backend isolates
        // the selection effect. Averaged over seeds to tame variance. The
        // network must be large enough for the adaptive power-node anchor
        // to bootstrap reliably (at toy sizes the 1%-of-n power-node set
        // degenerates to a single node and the anchor can flip — the same
        // small-sample fragility EigenTrust counters with pre-trusted
        // peers; see DESIGN.md).
        let mut reputation_total = 0.0;
        let mut random_total = 0.0;
        let seeds = 3;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let pop = Population::generate(150, &ThreatConfig::independent(0.2), &mut rng);
            let params = Params::for_network(150);
            let mk = |selection, backend| {
                SessionConfig { selection, backend, ..SessionConfig::gossiptrust(params.clone()) }
                    .scaled_down(400, 400)
            };
            let mut s = FileSharingSession::new(
                pop.clone(),
                mk(SelectionPolicy::HighestReputation, ReputationBackend::Exact),
                &mut rng,
            );
            s.run_queries(3_200, &mut rng);
            reputation_total += s.finish(&mut rng).steady_state_success_rate(3);

            let mut rng = StdRng::seed_from_u64(300 + seed);
            let pop2 = Population::generate(150, &ThreatConfig::independent(0.2), &mut rng);
            let mut s = FileSharingSession::new(
                pop2,
                mk(SelectionPolicy::Random, ReputationBackend::None),
                &mut rng,
            );
            s.run_queries(3_200, &mut rng);
            random_total += s.finish(&mut rng).steady_state_success_rate(3);
        }
        let (rep, ran) = (reputation_total / seeds as f64, random_total / seeds as f64);
        assert!(rep > ran + 0.03, "reputation {rep} vs random {ran}");
    }

    #[test]
    fn gossip_backend_also_learns() {
        let g = run_session(
            50,
            0.3,
            SelectionPolicy::HighestReputation,
            ReputationBackend::Gossip,
            600,
            7,
        );
        assert!(g.reputation_updates >= 2);
        let early = g.windows[0].success_rate();
        let late = g.steady_state_success_rate(1);
        assert!(late >= early - 0.05, "learning must not regress: {early} -> {late}");
    }

    #[test]
    fn reputation_scores_separate_honest_from_malicious() {
        let mut rng = StdRng::seed_from_u64(21);
        let pop = Population::generate(150, &ThreatConfig::independent(0.2), &mut rng);
        let params = Params::for_network(150);
        let config = SessionConfig::gossiptrust(params)
            .with_backend(ReputationBackend::Exact)
            .scaled_down(400, 400);
        let mut session = FileSharingSession::new(pop, config, &mut rng);
        session.run_queries(2_800, &mut rng);
        let pop = session.population().clone();
        let v = session.reputation().clone();
        let avg = |ids: &[NodeId]| ids.iter().map(|&i| v.score(i)).sum::<f64>() / ids.len() as f64;
        let honest = avg(&pop.honest_peers());
        let malicious = avg(&pop.malicious_peers());
        assert!(honest > malicious, "honest {honest} vs malicious {malicious}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_session(
            40,
            0.2,
            SelectionPolicy::HighestReputation,
            ReputationBackend::Exact,
            300,
            5,
        );
        let b = run_session(
            40,
            0.2,
            SelectionPolicy::HighestReputation,
            ReputationBackend::Exact,
            300,
            5,
        );
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.flood_messages, b.flood_messages);
    }

    #[test]
    fn object_reputation_helps_random_selection() {
        // With NoTrust-style random selection, the copy-level filter is the
        // only defense; it should raise success against fixed-behaviour
        // attackers. Averaged over seeds.
        let run_with = |objects: bool, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = Population::generate(80, &ThreatConfig::independent(0.3), &mut rng);
            let mut config = SessionConfig {
                selection: SelectionPolicy::Random,
                backend: ReputationBackend::None,
                ..SessionConfig::gossiptrust(Params::for_network(80))
            }
            .scaled_down(60, 400);
            if objects {
                config = config.with_object_reputation(crate::objects::ObjectRepConfig::default());
            }
            let mut s = FileSharingSession::new(pop, config, &mut rng);
            s.run_queries(3_200, &mut rng);
            s.finish(&mut rng).steady_state_success_rate(3)
        };
        let mut with = 0.0;
        let mut without = 0.0;
        for seed in 0..3 {
            with += run_with(true, 500 + seed);
            without += run_with(false, 500 + seed);
        }
        assert!(
            with > without + 0.05,
            "object reputation {:.3} vs plain {:.3}",
            with / 3.0,
            without / 3.0
        );
    }
}
