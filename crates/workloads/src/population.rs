//! Peer populations and threat-model configuration (§6.1, §6.3).
//!
//! A population assigns each peer a *kind* (honest, independent malicious,
//! or a member of a collusion group) and an intrinsic *service authenticity
//! rate* — the probability that a transaction it serves is authentic.
//! Honest peers serve mostly authentic content; malicious peers mostly
//! corrupt content *and* lie in their feedback (how they lie is the
//! feedback generator's job, see [`crate::feedback`]).

use gossiptrust_core::id::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// What a peer is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerKind {
    /// Serves authentic content and reports feedback honestly.
    Honest,
    /// Cheats in transactions and inverts its feedback, acting alone
    /// (the paper's "independent setting").
    IndependentMalicious,
    /// Cheats and colludes: rates its group mates maximally and outsiders
    /// minimally (the paper's "collusive setting"). The payload is the
    /// collusion-group index.
    Collusive(u32),
}

impl PeerKind {
    /// True for both malicious kinds.
    pub fn is_malicious(self) -> bool {
        !matches!(self, PeerKind::Honest)
    }
}

/// Threat-model knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreatConfig {
    /// Fraction `γ` of malicious peers.
    pub malicious_fraction: f64,
    /// `Some(g)` partitions the malicious peers into collusion groups of
    /// size `g`; `None` makes them independent.
    pub collusion_group_size: Option<usize>,
    /// Authenticity-rate range for honest peers (sampled uniformly).
    pub honest_authenticity: (f64, f64),
    /// Authenticity-rate range for malicious peers.
    pub malicious_authenticity: (f64, f64),
}

impl Default for ThreatConfig {
    fn default() -> Self {
        ThreatConfig {
            malicious_fraction: 0.20, // Table 2's γ
            collusion_group_size: None,
            honest_authenticity: (0.90, 1.00),
            malicious_authenticity: (0.05, 0.20),
        }
    }
}

impl ThreatConfig {
    /// Config with no malicious peers at all.
    pub fn benign() -> Self {
        ThreatConfig { malicious_fraction: 0.0, ..Default::default() }
    }

    /// Independent malicious peers at fraction `gamma`.
    pub fn independent(gamma: f64) -> Self {
        ThreatConfig { malicious_fraction: gamma, ..Default::default() }
    }

    /// Collusive malicious peers at fraction `gamma`, groups of `size`.
    pub fn collusive(gamma: f64, size: usize) -> Self {
        assert!(size >= 1, "collusion group size must be >= 1");
        ThreatConfig {
            malicious_fraction: gamma,
            collusion_group_size: Some(size),
            ..Default::default()
        }
    }
}

/// A generated peer population.
#[derive(Clone, Debug, PartialEq)]
pub struct Population {
    kinds: Vec<PeerKind>,
    authenticity: Vec<f64>,
}

impl Population {
    /// Generate a population of `n` peers under `config`.
    ///
    /// Exactly `⌊γ·n⌋` peers (chosen uniformly at random) are malicious.
    /// Under collusion, the malicious peers are partitioned into groups of
    /// the configured size; a final smaller remainder group is allowed.
    pub fn generate<R: Rng + ?Sized>(n: usize, config: &ThreatConfig, rng: &mut R) -> Self {
        assert!(n > 0, "population needs at least one peer");
        assert!((0.0..=1.0).contains(&config.malicious_fraction), "gamma must be in [0,1]");
        let m = (config.malicious_fraction * n as f64).floor() as usize;
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let malicious: Vec<usize> = ids[..m].to_vec();

        let mut kinds = vec![PeerKind::Honest; n];
        match config.collusion_group_size {
            None => {
                for &i in &malicious {
                    kinds[i] = PeerKind::IndependentMalicious;
                }
            }
            Some(size) => {
                for (gi, chunk) in malicious.chunks(size).enumerate() {
                    for &i in chunk {
                        kinds[i] = PeerKind::Collusive(gi as u32);
                    }
                }
            }
        }

        let (hl, hh) = config.honest_authenticity;
        let (ml, mh) = config.malicious_authenticity;
        assert!((0.0..=1.0).contains(&hl) && hl <= hh && hh <= 1.0, "honest range");
        assert!((0.0..=1.0).contains(&ml) && ml <= mh && mh <= 1.0, "malicious range");
        let authenticity = kinds
            .iter()
            .map(|k| {
                let (lo, hi) = if k.is_malicious() { (ml, mh) } else { (hl, hh) };
                if hi > lo {
                    rng.random_range(lo..hi)
                } else {
                    lo
                }
            })
            .collect();

        Population { kinds, authenticity }
    }

    /// Number of peers.
    pub fn n(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of peer `i`.
    pub fn kind(&self, i: NodeId) -> PeerKind {
        self.kinds[i.index()]
    }

    /// Intrinsic authenticity rate of peer `i`.
    pub fn authenticity(&self, i: NodeId) -> f64 {
        self.authenticity[i.index()]
    }

    /// All malicious peer ids.
    pub fn malicious_peers(&self) -> Vec<NodeId> {
        (0..self.n())
            .filter(|&i| self.kinds[i].is_malicious())
            .map(NodeId::from_index)
            .collect()
    }

    /// All honest peer ids.
    pub fn honest_peers(&self) -> Vec<NodeId> {
        (0..self.n())
            .filter(|&i| !self.kinds[i].is_malicious())
            .map(NodeId::from_index)
            .collect()
    }

    /// Members of collusion group `g`.
    pub fn collusion_group(&self, g: u32) -> Vec<NodeId> {
        (0..self.n())
            .filter(|&i| self.kinds[i] == PeerKind::Collusive(g))
            .map(NodeId::from_index)
            .collect()
    }

    /// Number of collusion groups.
    pub fn collusion_group_count(&self) -> usize {
        self.kinds
            .iter()
            .filter_map(|k| match k {
                PeerKind::Collusive(g) => Some(*g),
                _ => None,
            })
            .max()
            .map(|g| g as usize + 1)
            .unwrap_or(0)
    }

    /// True if peers `a` and `b` collude with each other.
    pub fn same_collusion_group(&self, a: NodeId, b: NodeId) -> bool {
        match (self.kind(a), self.kind(b)) {
            (PeerKind::Collusive(x), PeerKind::Collusive(y)) => x == y,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn benign_population_is_all_honest() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Population::generate(100, &ThreatConfig::benign(), &mut rng);
        assert_eq!(p.malicious_peers().len(), 0);
        assert_eq!(p.honest_peers().len(), 100);
        for i in 0..100 {
            assert!(p.authenticity(NodeId(i)) >= 0.90);
        }
    }

    #[test]
    fn gamma_controls_malicious_count_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Population::generate(200, &ThreatConfig::independent(0.25), &mut rng);
        assert_eq!(p.malicious_peers().len(), 50);
        for id in p.malicious_peers() {
            assert_eq!(p.kind(id), PeerKind::IndependentMalicious);
            assert!(p.authenticity(id) <= 0.20);
        }
    }

    #[test]
    fn collusion_groups_partition_the_malicious() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Population::generate(100, &ThreatConfig::collusive(0.10, 4), &mut rng);
        let malicious = p.malicious_peers();
        assert_eq!(malicious.len(), 10);
        // 10 malicious peers in groups of 4 → groups of size 4, 4, 2.
        assert_eq!(p.collusion_group_count(), 3);
        assert_eq!(p.collusion_group(0).len(), 4);
        assert_eq!(p.collusion_group(1).len(), 4);
        assert_eq!(p.collusion_group(2).len(), 2);
        // Group membership is an equivalence among collusive peers.
        let g0 = p.collusion_group(0);
        assert!(p.same_collusion_group(g0[0], g0[1]));
        let g1 = p.collusion_group(1);
        assert!(!p.same_collusion_group(g0[0], g1[0]));
    }

    #[test]
    fn honest_never_colludes() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = Population::generate(50, &ThreatConfig::collusive(0.2, 5), &mut rng);
        let honest = p.honest_peers();
        assert!(!p.same_collusion_group(honest[0], honest[1]));
        let mal = p.malicious_peers();
        assert!(!p.same_collusion_group(honest[0], mal[0]));
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let cfg = ThreatConfig::independent(0.3);
        let a = Population::generate(100, &cfg, &mut StdRng::seed_from_u64(1));
        let b = Population::generate(100, &cfg, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.malicious_peers(), b.malicious_peers());
        // Same seed reproduces exactly.
        let a2 = Population::generate(100, &cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, a2);
    }

    #[test]
    fn authenticity_separates_kinds() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Population::generate(300, &ThreatConfig::independent(0.5), &mut rng);
        let avg =
            |ids: &[NodeId]| ids.iter().map(|&i| p.authenticity(i)).sum::<f64>() / ids.len() as f64;
        let honest_avg = avg(&p.honest_peers());
        let mal_avg = avg(&p.malicious_peers());
        assert!(honest_avg > 0.9);
        assert!(mal_avg < 0.25);
    }

    #[test]
    #[should_panic(expected = "group size must be >= 1")]
    fn zero_group_size_rejected() {
        let _ = ThreatConfig::collusive(0.1, 0);
    }
}
