//! Cluster driver: `n` node threads + a coordinator barrier.
//!
//! The coordinator starts each aggregation cycle, waits for all nodes'
//! local convergence notifications (with a timeout backstop), collects the
//! estimates, checks the outer `δ` test, re-selects power nodes and starts
//! the next cycle — the explicit-barrier rendition of Algorithm 2's outer
//! loop. The gossip itself (ticks, pushes, merges) is fully decentralized.

use crate::node::{
    min_ticks, run_node, trust_row, ClusterCounters, Inbound, NodeConfig, NodeCore, NodeThreads,
};
use crate::transport::{InMemoryHandle, InMemoryNetwork, Inbox, Transport};
use crate::udp::UdpEndpoint;
use gossiptrust_core::convergence::VectorConvergence;
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::PowerNodeSelector;
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_crypto::Pkg;
use gossiptrust_obs::Deadline;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Network/runtime configuration for a cluster run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Gossip tick period per node.
    pub tick: Duration,
    /// Gossip threshold `ε` (relative change per tick).
    pub epsilon: f64,
    /// Consecutive calm ticks required by the local detector.
    pub patience: usize,
    /// Per-cycle tick budget per node.
    pub max_ticks: usize,
    /// Per-node inbound queue capacity (in-memory transport).
    pub queue_cap: usize,
    /// Injected message loss (in-memory transport only; UDP has its own).
    pub loss_rate: f64,
    /// Seed for loss injection and node RNGs.
    pub seed: u64,
    /// Barrier timeout per cycle (backstop for lost notifications).
    pub cycle_timeout: Duration,
}

impl NetConfig {
    /// Fast settings for local tests: 2 ms ticks, `ε = 10⁻⁴`.
    pub fn fast_local() -> Self {
        NetConfig {
            tick: Duration::from_millis(2),
            epsilon: 1e-4,
            patience: 2,
            max_ticks: 5_000,
            queue_cap: 1024,
            loss_rate: 0.0,
            seed: 0,
            cycle_timeout: Duration::from_secs(60),
        }
    }

    /// Builder-style loss-rate setter.
    pub fn with_loss_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate in [0,1]");
        self.loss_rate = p;
        self
    }

    /// Builder-style seed setter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Which transport the cluster uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TransportKind {
    InMemory,
    Udp,
}

/// Result of a cluster aggregation.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Converged global reputation vector (mean of node estimates).
    pub vector: ReputationVector,
    /// Aggregation cycles executed.
    pub cycles: usize,
    /// Whether the outer `δ` test fired within `params.max_cycles`.
    pub converged: bool,
    /// Pushes sent across the network.
    pub pushes_sent: u64,
    /// Pushes rejected by signature/format verification.
    pub auth_failures: u64,
    /// Pushes discarded as stale (cycle mismatch).
    pub stale_pushes: u64,
    /// Power nodes selected from the final vector.
    pub power_nodes: Vec<NodeId>,
}

/// A GossipTrust cluster of real concurrent nodes: one thread each.
pub struct Cluster {
    config: NetConfig,
    kind: TransportKind,
}

impl Cluster {
    /// Cluster over the in-process channel transport.
    pub fn in_memory(config: NetConfig) -> Self {
        Cluster { config, kind: TransportKind::InMemory }
    }

    /// Cluster over UDP loopback sockets.
    pub fn udp(config: NetConfig) -> Self {
        Cluster { config, kind: TransportKind::Udp }
    }

    /// Run a full aggregation of `matrix` under `params`. Every thread it
    /// starts has ended when it returns.
    pub fn run(&self, matrix: &TrustMatrix, params: &Params) -> ClusterReport {
        let n = matrix.n();
        assert!(n >= 2, "cluster needs at least two nodes");
        assert_eq!(params.n, n, "params.n must match the matrix");
        match self.kind {
            TransportKind::InMemory => {
                let (net, inboxes) = InMemoryNetwork::new(
                    n,
                    self.config.queue_cap,
                    self.config.loss_rate,
                    self.config.seed,
                );
                let transports: Vec<InMemoryHandle> =
                    (0..n).map(|_| InMemoryHandle::new(Arc::clone(&net))).collect();
                self.run_with(matrix, params, transports, inboxes)
            }
            TransportKind::Udp => {
                let (transports, inboxes): (Vec<_>, Vec<_>) =
                    UdpEndpoint::bind_cluster(n).into_iter().unzip();
                self.run_with(matrix, params, transports, inboxes)
            }
        }
    }

    fn run_with<T: Transport>(
        &self,
        matrix: &TrustMatrix,
        params: &Params,
        transports: Vec<T>,
        inboxes: Vec<Inbox>,
    ) -> ClusterReport {
        let n = matrix.n();
        let pkg = Pkg::from_seed(self.config.seed ^ 0x5EC0DE);
        let counters = Arc::new(ClusterCounters::default());
        let cores = (0..n)
            .map(|i| {
                let config = NodeConfig {
                    id: i as u32,
                    n,
                    alpha: params.alpha,
                    epsilon: self.config.epsilon,
                    patience: self.config.patience,
                    min_ticks: min_ticks(n),
                    max_ticks: self.config.max_ticks,
                    tick: self.config.tick,
                    row: trust_row(matrix, i),
                    key: pkg.issue(i as u32),
                    verifier: pkg.verifier(),
                    seed: self.config.seed,
                };
                NodeCore::new(config, Arc::clone(&counters))
            })
            .collect();
        let (converged_tx, converged_rx) = mpsc::channel::<(u32, u32)>();
        let nodes =
            NodeThreads::start(cores, transports, inboxes, move |core, transport, inbox| {
                run_node(core, transport, inbox, converged_tx.clone())
            });

        let selector = PowerNodeSelector::new(params.max_power_nodes);
        let mut outer = VectorConvergence::new(params.delta);
        let mut current = ReputationVector::uniform(n);
        outer.observe(&current);
        let mut prior: Arc<Vec<f64>> = Arc::new(vec![1.0 / n as f64; n]);
        let mut cycles = 0usize;
        let mut converged = false;

        for cycle in 1..=params.max_cycles as u32 {
            cycles = cycle as usize;
            nodes.broadcast(|| Inbound::StartCycle { cycle, prior: Arc::clone(&prior) });
            // Barrier: wait for all n nodes to report convergence for this
            // cycle, with one timeout over the whole wait as the backstop.
            let barrier = Deadline::after(self.config.cycle_timeout);
            let mut reported = vec![false; n];
            let mut count = 0usize;
            while count < n {
                match converged_rx.recv_timeout(barrier.remaining()) {
                    Ok((node, c)) if c == cycle && !reported[node as usize] => {
                        reported[node as usize] = true;
                        count += 1;
                    }
                    Ok(_) => {} // stale notification from a prior cycle
                    Err(_) => break,
                }
            }
            // Collect the estimates: every node gets a clone of one reply
            // sender, so the receiver ends when the last of them has
            // answered (or gone).
            let (reply_tx, reply_rx) = mpsc::channel();
            nodes.broadcast(|| Inbound::EndCycle { reply: reply_tx.clone() });
            drop(reply_tx);
            let mut sum = vec![0.0; n];
            for estimate in reply_rx {
                for (s, &e) in sum.iter_mut().zip(estimate.values()) {
                    *s += e;
                }
            }
            // `from_weights` normalizes, so the sum stands in for the mean.
            let next = ReputationVector::from_weights(sum)
                .expect("every node answers EndCycle with a normalized estimate");
            let hit = outer.observe(&next);
            current = next;
            prior = Arc::new(selector.prior(&current).to_dense());
            if hit {
                converged = true;
                break;
            }
        }
        nodes.stop_and_join();

        ClusterReport {
            power_nodes: selector.select(&current),
            vector: current,
            cycles,
            converged,
            pushes_sent: counters.pushes_sent.load(Ordering::Relaxed),
            auth_failures: counters.auth_failures.load(Ordering::Relaxed),
            stale_pushes: counters.stale_pushes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossiptrust_core::matrix::TrustMatrixBuilder;
    use gossiptrust_core::power_iter::PowerIteration;
    use gossiptrust_core::power_nodes::Prior;

    fn authority(n: usize) -> TrustMatrix {
        // Node 0 is an unambiguous authority: everyone directs most trust
        // at it, and node 0 spreads its own trust thinly over all others
        // (so no single second hub can overtake it even when the adaptive
        // power-node prior concentrates the α-jump on one node).
        let mut b = TrustMatrixBuilder::new(n);
        for i in 1..n {
            b.record(NodeId::from_index(i), NodeId(0), 4.0);
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
            b.record(NodeId(0), NodeId::from_index(i), 1.0);
        }
        b.build()
    }

    #[test]
    fn in_memory_cluster_matches_oracle_ranking() {
        let n = 16;
        let m = authority(n);
        let params = Params::for_network(n);
        let report = Cluster::in_memory(NetConfig::fast_local().with_seed(1)).run(&m, &params);
        assert!(report.converged, "cluster must converge");
        assert!(report.pushes_sent > 0);
        assert_eq!(report.auth_failures, 0);
        // The threaded result agrees with the centralized oracle on ranking
        // and approximately on values. The cluster re-selects power nodes
        // adaptively, so compare against the matching adaptive oracle run
        // loosely: check the authority is ranked first and the RMS error
        // against a uniform-prior oracle stays moderate.
        assert_eq!(report.vector.ranking()[0], NodeId(0));
        let oracle = PowerIteration::new(params).solve(&m, &Prior::uniform(n));
        let err = oracle.vector.rms_relative_error(&report.vector).unwrap();
        assert!(err < 0.6, "rms vs uniform-prior oracle {err}");
    }

    #[test]
    fn lossy_cluster_still_converges() {
        let n = 12;
        let m = authority(n);
        // Loss puts a noise floor under the per-cycle gossip error (each
        // drop removes x and w mass together, so ratios wander), so the
        // outer threshold must sit well above it — the same ε/δ pairing
        // logic as Table 3, scaled to the injected fault rate. What must
        // survive untouched is the *ranking*.
        let params = Params::for_network(n).with_delta(0.1);
        let report = Cluster::in_memory(NetConfig::fast_local().with_seed(2).with_loss_rate(0.05))
            .run(&m, &params);
        assert!(report.converged);
        assert_eq!(report.vector.ranking()[0], NodeId(0));
    }

    #[test]
    fn udp_cluster_smoke() {
        let n = 8;
        let m = authority(n);
        let params = Params::for_network(n);
        let report = Cluster::udp(NetConfig::fast_local().with_seed(3)).run(&m, &params);
        assert!(report.converged);
        assert_eq!(report.vector.ranking()[0], NodeId(0));
    }

    #[test]
    fn stale_pushes_are_counted_not_merged() {
        // Loss + tiny network forces cycle boundaries where in-flight
        // pushes straggle; the counter proves the guard is exercised.
        let n = 8;
        let m = authority(n);
        let params = Params::for_network(n).with_delta(1e-4);
        let report = Cluster::in_memory(NetConfig::fast_local().with_seed(4)).run(&m, &params);
        // Not asserting > 0 (scheduling-dependent), but the run must still
        // be healthy and authenticated.
        assert!(report.converged);
        assert_eq!(report.auth_failures, 0);
    }
}
