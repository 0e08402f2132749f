//! Fully distributed execution: no coordinator barrier.
//!
//! The [`crate::cluster`] driver synchronizes cycles with an explicit
//! coordinator, which is convenient for measurement but is the one
//! centralized crutch in the workspace. This module removes it:
//!
//! * every push piggybacks a **converged bitmap** — one bit per node, set
//!   when that node's local detector has fired for the current cycle;
//!   bitmaps OR-merge on receipt, so "everyone has converged" spreads
//!   epidemically just like the scores themselves;
//! * a node **ends its cycle locally** once its own detector has fired
//!   and its bitmap is full: it extracts its vector estimate, selects
//!   power nodes from its *own* estimate, and seeds the next cycle;
//! * a **straggler** that receives a push from a later cycle jumps
//!   forward: it closes its current cycle immediately and reseeds, so the
//!   swarm never deadlocks on one slow node;
//! * the number of aggregation cycles is **fixed up front** from the
//!   paper's own convergence bound `d ≤ ⌈log_b δ⌉` with `b ≤ 1 − α`
//!   (every node computes the same number from public parameters), which
//!   makes termination collective *by construction* — the classic
//!   distributed-termination pitfall (nodes whose private `δ` tests fire
//!   at different cycles abandoning each other) cannot occur. Each node
//!   still evaluates the `δ` test locally and reports whether it passed.
//!
//! Cycle numbers keep the push streams of different cycles from mixing,
//! exactly as in the barrier mode.

use crate::node::{
    min_ticks, trust_row, ClusterCounters, Inbound, NodeConfig, NodeCore, NodeThreads,
};
use crate::transport::{Inbox, Transport};
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_iter::cycle_bound;
use gossiptrust_core::power_nodes::{PowerNodeSelector, Prior};
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_crypto::Pkg;
use gossiptrust_obs::Deadline;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

fn bitmap_words(n: usize) -> usize {
    n.div_ceil(64)
}

fn bitmap_full(bitmap: &[u64], n: usize) -> bool {
    let mut count = 0u32;
    for &w in bitmap {
        count += w.count_ones();
    }
    count as usize >= n
}

/// Configuration of an autonomous run.
#[derive(Clone, Debug)]
pub struct AutonomousConfig {
    /// Gossip tick period per node.
    pub tick: Duration,
    /// Gossip threshold `ε` (relative change per tick).
    pub epsilon: f64,
    /// Consecutive calm ticks for the local detector.
    pub patience: usize,
    /// Per-cycle tick budget (forces cycle end on pathological cycles).
    pub max_ticks: usize,
    /// RNG / key seed.
    pub seed: u64,
    /// Wall-clock budget for the whole run.
    pub deadline: Duration,
}

impl AutonomousConfig {
    /// Fast settings for local tests.
    pub fn fast_local() -> Self {
        AutonomousConfig {
            tick: Duration::from_millis(2),
            epsilon: 1e-4,
            patience: 2,
            max_ticks: 5_000,
            seed: 0,
            deadline: Duration::from_secs(120),
        }
    }
}

/// One node's final report.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Its converged global reputation vector.
    pub vector: ReputationVector,
    /// Aggregation cycles it ran.
    pub cycles: usize,
    /// Whether its local `δ` test fired (vs. hitting the cycle budget).
    pub converged: bool,
}

/// Result of an autonomous cluster run.
#[derive(Clone, Debug)]
pub struct AutonomousReport {
    /// Per-node reports (one per node that finished before the deadline).
    pub nodes: Vec<NodeReport>,
    /// Mean vector over reporting nodes.
    pub vector: ReputationVector,
    /// Fraction of nodes whose local δ test fired.
    pub converged_fraction: f64,
}

/// The fixed cycle count every node derives from public parameters: the
/// paper's bound `d ≤ ⌈log_b δ⌉` with the mixing guarantee `b ≤ 1 − α`
/// (plus slack for gossip noise), clamped to the configured budget.
fn planned_cycles(params: &Params) -> usize {
    let b = (1.0 - params.alpha).clamp(0.5, 0.95);
    let bound = cycle_bound(params.delta, b).unwrap_or(params.max_cycles);
    (bound + 3).min(params.max_cycles).max(2)
}

/// Run the fully distributed protocol, one thread per node, and collect
/// every node's local result. Every thread it starts has ended when it
/// returns; nodes that had not finished by `config.deadline` are stopped
/// and left out of the report.
///
/// (Generic over [`Transport`] so tests can inject loss or tampering; the
/// caller wires the network, e.g. [`crate::transport::InMemoryNetwork`].)
pub fn run_autonomous<T: Transport>(
    matrix: &TrustMatrix,
    params: &Params,
    config: AutonomousConfig,
    transports: Vec<T>,
    inboxes: Vec<Inbox>,
) -> AutonomousReport {
    let n = matrix.n();
    assert!(n >= 2, "need at least two nodes");
    assert_eq!(params.n, n, "params.n must match the matrix");
    let pkg = Pkg::from_seed(config.seed ^ 0xA070);
    let counters = Arc::new(ClusterCounters::default());
    let cores = (0..n)
        .map(|i| {
            let node = NodeConfig {
                id: i as u32,
                n,
                alpha: params.alpha,
                epsilon: config.epsilon,
                patience: config.patience,
                min_ticks: min_ticks(n),
                max_ticks: config.max_ticks,
                tick: config.tick,
                row: trust_row(matrix, i),
                key: pkg.issue(i as u32),
                verifier: pkg.verifier(),
                seed: config.seed,
            };
            NodeCore::new(node, Arc::clone(&counters))
        })
        .collect();
    let (done_tx, done_rx) = mpsc::channel::<NodeReport>();
    let nodes = NodeThreads::start(cores, transports, inboxes, {
        let params = params.clone();
        move |core, transport, inbox| {
            autonomous_node(core, &params, transport, inbox, done_tx.clone())
        }
    });

    // One overall deadline for the collection loop, not per-recv.
    let deadline = Deadline::after(config.deadline);
    let mut reports = Vec::with_capacity(n);
    while reports.len() < n {
        match done_rx.recv_timeout(deadline.remaining()) {
            Ok(report) => reports.push(report),
            Err(_) => break,
        }
    }
    nodes.stop_and_join();

    assert!(!reports.is_empty(), "no node finished before the deadline");
    let mut mean = vec![0.0; n];
    for r in &reports {
        for (m, &v) in mean.iter_mut().zip(r.vector.values()) {
            *m += v / reports.len() as f64;
        }
    }
    let converged_fraction =
        reports.iter().filter(|r| r.converged).count() as f64 / reports.len() as f64;
    AutonomousReport {
        vector: ReputationVector::from_weights(mean).expect("mean of normalized vectors"),
        nodes: reports,
        converged_fraction,
    }
}

/// What the coordinator-free loop keeps beside the shared [`NodeCore`]:
/// the converged bitmap and the outer loop a coordinator would run.
struct Autonomy {
    bitmap: Vec<u64>,
    self_converged: bool,
    previous_estimate: Option<ReputationVector>,
    cycles_run: usize,
    delta_passed: bool,
    planned_cycles: usize,
    selector: PowerNodeSelector,
}

impl Autonomy {
    /// Close the core's current cycle: extract, run the local outer δ test,
    /// pick power nodes locally, and either report (done) or seed the next
    /// cycle.
    fn end_cycle(&mut self, core: &mut NodeCore, params: &Params) -> Option<NodeReport> {
        let vector = core.end_cycle();
        self.cycles_run += 1;
        self.delta_passed |= self
            .previous_estimate
            .as_ref()
            .is_some_and(|prev| prev.avg_relative_error(&vector).expect("same n") < params.delta);
        // Deterministic collective termination: every node runs the same
        // pre-computed number of cycles (see `planned_cycles`).
        if self.cycles_run >= self.planned_cycles {
            return Some(NodeReport {
                node: NodeId(core.config().id),
                vector,
                cycles: self.cycles_run,
                converged: self.delta_passed,
            });
        }
        // Fully local power-node selection for the next cycle's prior.
        let prior = Prior::over_nodes(params.n, &self.selector.select(&vector)).to_dense();
        self.previous_estimate = Some(vector);
        self.bitmap.fill(0);
        self.self_converged = false;
        core.seed(core.cycle() + 1, &prior);
        None
    }
}

/// One coordinator-free node: gossip from the start, end each cycle when
/// the piggybacked bitmap says everyone's detector has fired, leave after
/// the planned number of cycles (or on `Stop`).
fn autonomous_node<T: Transport>(
    mut core: NodeCore,
    params: &Params,
    transport: T,
    inbox: Receiver<Inbound>,
    done: Sender<NodeReport>,
) {
    let NodeConfig { id, n, tick: period, max_ticks, .. } = *core.config();
    let mut state = Autonomy {
        bitmap: vec![0; bitmap_words(n)],
        self_converged: false,
        previous_estimate: None,
        cycles_run: 0,
        delta_passed: false,
        planned_cycles: planned_cycles(params),
        selector: PowerNodeSelector::new(params.max_power_nodes),
    };
    core.seed(1, &vec![1.0 / n as f64; n]);
    let mut next_tick = Deadline::after(period);
    loop {
        if next_tick.expired() {
            // The tick goes before the inbox, so a flood of pushes cannot
            // starve it; the next one is a full period from now.
            let (target, datagram) = core.tick(&state.bitmap);
            transport.send(target, datagram);
            if !state.self_converged && core.converged_now() {
                state.self_converged = true;
                state.bitmap[id as usize / 64] |= 1u64 << (id as usize % 64);
            }
            // Cycle end: everyone (as far as we know) is done, or the
            // tick budget forces progress (e.g. finished peers have
            // gone quiet in the very last cycle).
            if state.self_converged && (bitmap_full(&state.bitmap, n) || core.ticks() >= max_ticks)
            {
                if let Some(report) = state.end_cycle(&mut core, params) {
                    let _ = done.send(report);
                    return;
                }
            }
            next_tick = Deadline::after(period);
            continue;
        }
        let data = match inbox.recv_timeout(next_tick.remaining()) {
            Ok(Inbound::Datagram(data)) => data,
            // The coordinator's cycle messages mean nothing here.
            Ok(Inbound::StartCycle { .. } | Inbound::EndCycle { .. }) => continue,
            Err(RecvTimeoutError::Timeout) => continue,
            Ok(Inbound::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        };
        let Some(message) = core.open(&data) else {
            continue;
        };
        // Straggler catch-up: close our cycles now and jump to the sender's.
        while message.push.cycle > core.cycle() {
            if let Some(report) = state.end_cycle(&mut core, params) {
                let _ = done.send(report);
                return;
            }
        }
        if core.merge(&message.push) {
            for (b, w) in state.bitmap.iter_mut().zip(&message.converged) {
                *b |= w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InMemoryHandle, InMemoryNetwork};
    use gossiptrust_core::matrix::TrustMatrixBuilder;
    use gossiptrust_core::power_iter::PowerIteration;
    use gossiptrust_core::power_nodes::Prior;
    use std::sync::Arc;

    fn authority(n: usize) -> TrustMatrix {
        let mut b = TrustMatrixBuilder::new(n);
        for i in 1..n {
            b.record(NodeId::from_index(i), NodeId(0), 4.0);
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
            b.record(NodeId(0), NodeId::from_index(i), 1.0);
        }
        b.build()
    }

    #[test]
    fn bitmap_helpers() {
        assert_eq!(bitmap_words(1), 1);
        assert_eq!(bitmap_words(64), 1);
        assert_eq!(bitmap_words(65), 2);
        let mut bm = vec![0u64; 2];
        assert!(!bitmap_full(&bm, 65));
        bm[0] = u64::MAX;
        bm[1] = 1;
        assert!(bitmap_full(&bm, 65));
    }

    #[test]
    fn coordinator_free_run_matches_oracle() {
        let n = 12;
        let matrix = authority(n);
        let params = Params::for_network(n);
        let (net, inboxes) = InMemoryNetwork::new(n, 2048, 0.0, 0);
        let transports: Vec<InMemoryHandle> =
            (0..n).map(|_| InMemoryHandle::new(Arc::clone(&net))).collect();
        let report = run_autonomous(
            &matrix,
            &params,
            AutonomousConfig { seed: 7, ..AutonomousConfig::fast_local() },
            transports,
            inboxes,
        );
        assert_eq!(report.nodes.len(), n, "every node must report");
        assert!(report.converged_fraction > 0.5, "fraction {}", report.converged_fraction);
        // Rankings agree with the oracle's top choice.
        assert_eq!(report.vector.ranking()[0], NodeId(0));
        let oracle = PowerIteration::new(params).solve(&matrix, &Prior::uniform(n));
        assert_eq!(oracle.vector.ranking()[0], NodeId(0));
        // Nodes agree among themselves (same consensus).
        for r in &report.nodes {
            assert_eq!(r.vector.ranking()[0], NodeId(0), "node {} disagrees", r.node);
        }
    }

    #[test]
    fn survives_message_loss() {
        let n = 10;
        let matrix = authority(n);
        let mut params = Params::for_network(n);
        params.delta = 5e-2; // loss raises the noise floor (Table 3 logic)
        let (net, inboxes) = InMemoryNetwork::new(n, 2048, 0.05, 3);
        let transports: Vec<InMemoryHandle> =
            (0..n).map(|_| InMemoryHandle::new(Arc::clone(&net))).collect();
        let report = run_autonomous(
            &matrix,
            &params,
            AutonomousConfig { seed: 9, ..AutonomousConfig::fast_local() },
            transports,
            inboxes,
        );
        assert!(!report.nodes.is_empty());
        assert_eq!(report.vector.ranking()[0], NodeId(0));
    }
}
