//! The per-node gossip core and the barrier-mode node loop.
//!
//! [`NodeCore`] is everything one peer does in a cycle, with no clock, no
//! channel and no thread in it: seed `x_j ← v_i·[(1−α)·s_ij + α·p_j]` from
//! **its own** previous estimate of its own score (no global state is
//! consulted), halve the `(x, w)` vector and sign the other half for a
//! uniformly random peer, verify and merge what arrives, and run the local
//! ε/patience detector. Two loops drive it, each one thread per node
//! blocking on a single inbox until the next tick: [`run_node`] here,
//! where a coordinator's messages start and end a cycle, and the
//! coordinator-free one in [`crate::autonomous`], where the bitmap
//! piggybacked on every push does.

use crate::codec::Push;
use crate::transport::{Inbox, Transport};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_crypto::{IdentityKey, SignedEnvelope, Verifier};
use gossiptrust_obs::Deadline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What a node's inbox carries, in arrival order: datagrams from the
/// transport and the driver's control messages.
pub enum Inbound {
    /// A datagram from another node (a signed [`GossipMessage`]).
    Datagram(Bytes),
    /// Begin aggregation cycle `cycle` with the dense mixing prior `prior`.
    StartCycle {
        /// Cycle index (1-based).
        cycle: u32,
        /// Dense prior distribution `p` (power nodes or uniform).
        prior: Arc<Vec<f64>>,
    },
    /// Stop gossiping and report the node's local estimate.
    EndCycle {
        /// Where the estimate goes.
        reply: Sender<ReputationVector>,
    },
    /// Terminate the thread.
    Stop,
}

/// Shared cluster counters.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    /// Pushes sent by all nodes.
    pub pushes_sent: AtomicU64,
    /// Pushes rejected by signature or format verification.
    pub auth_failures: AtomicU64,
    /// Pushes discarded because they belonged to another cycle.
    pub stale_pushes: AtomicU64,
}

/// Static per-node configuration.
pub struct NodeConfig {
    /// This node's id.
    pub id: u32,
    /// Network size.
    pub n: usize,
    /// Greedy factor `α`.
    pub alpha: f64,
    /// Gossip threshold `ε` (relative change).
    pub epsilon: f64,
    /// Consecutive calm ticks required.
    pub patience: usize,
    /// Minimum ticks before convergence may be declared.
    pub min_ticks: usize,
    /// Tick budget per cycle (after which the detector fires regardless,
    /// so a pathological cycle cannot hang the cluster).
    pub max_ticks: usize,
    /// Gossip tick period.
    pub tick: Duration,
    /// This node's normalized trust row `(j, s_ij)`; empty = dangling
    /// (treated as uniform, like everywhere else in the workspace).
    pub row: Vec<(u32, f64)>,
    /// Identity signing key.
    pub key: IdentityKey,
    /// Verification capability.
    pub verifier: Verifier,
    /// RNG seed (combined with the id).
    pub seed: u64,
}

/// Node `i`'s row of `matrix` in the shape [`NodeConfig::row`] takes.
pub fn trust_row(matrix: &TrustMatrix, i: usize) -> Vec<(u32, f64)> {
    let (cols, vals) = matrix.row(NodeId::from_index(i));
    cols.iter().zip(vals).map(|(&c, &v)| (c, v)).collect()
}

/// The fewest ticks after which a node may declare convergence: `⌈log₂ n⌉`,
/// the time a value needs to reach everyone at all.
pub(crate) fn min_ticks(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

/// What travels in one datagram, inside the sender's signed envelope: the
/// halved vector plus the sender's converged bitmap (one bit per node it
/// knows, transitively, to have converged this cycle; empty in barrier
/// mode, where the coordinator keeps that count).
#[derive(Clone, Debug, PartialEq)]
pub struct GossipMessage {
    /// The ordinary gossip push.
    pub push: Push,
    /// Bitmap of nodes known to have converged this cycle.
    pub converged: Vec<u64>,
}

impl GossipMessage {
    /// Serialize: `push_len: u32 | push | bitmap_words: u32 | bitmap`.
    pub fn encode(&self) -> Bytes {
        let push = self.push.encode();
        let mut buf = BytesMut::with_capacity(8 + push.len() + 8 * self.converged.len());
        buf.put_u32_le(push.len() as u32);
        buf.put_slice(&push);
        buf.put_u32_le(self.converged.len() as u32);
        for &w in &self.converged {
            buf.put_u64_le(w);
        }
        buf.freeze()
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(mut data: &[u8]) -> Option<GossipMessage> {
        if data.len() < 4 {
            return None;
        }
        let push_len = data.get_u32_le() as usize;
        if data.len() < push_len + 4 {
            return None;
        }
        let push = Push::decode(&data[..push_len])?;
        data.advance(push_len);
        let words = data.get_u32_le() as usize;
        if data.len() != 8 * words {
            return None;
        }
        let converged = (0..words).map(|_| data.get_u64_le()).collect();
        Some(GossipMessage { push, converged })
    }
}

/// One peer's push-sum state and protocol steps.
pub struct NodeCore {
    config: NodeConfig,
    counters: Arc<ClusterCounters>,
    rng: StdRng,
    xs: Vec<f64>,
    ws: Vec<f64>,
    prev_beta: Vec<f64>,
    streak: usize,
    ticks: usize,
    cycle: u32,
    v_own: f64,
    gossiping: bool,
}

impl NodeCore {
    /// An idle node: no cycle seeded yet, own score at the uniform `1/n`.
    pub fn new(config: NodeConfig, counters: Arc<ClusterCounters>) -> Self {
        let n = config.n;
        assert!(n >= 2, "a node needs a peer to push to");
        assert!((config.id as usize) < n, "node id {} outside 0..{n}", config.id);
        let rng = StdRng::seed_from_u64(
            config.seed ^ (config.id as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        NodeCore {
            config,
            counters,
            rng,
            xs: vec![0.0; n],
            ws: vec![0.0; n],
            prev_beta: vec![f64::NAN; n],
            streak: 0,
            ticks: 0,
            cycle: 0,
            v_own: 1.0 / n as f64,
            gossiping: false,
        }
    }

    /// This node's static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The cycle last seeded (0 before the first).
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Pushes sent since the last seeding.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Between [`seed`](Self::seed) and [`end_cycle`](Self::end_cycle).
    pub fn gossiping(&self) -> bool {
        self.gossiping
    }

    /// Begin `cycle`: `x_j ← v_i·[(1−α)·s_ij + α·p_j]`, `w ← e_i`, detector
    /// reset.
    pub fn seed(&mut self, cycle: u32, prior: &[f64]) {
        let NodeConfig { id, n, alpha, ref row, .. } = self.config;
        let vi = self.v_own;
        for (x, &pj) in self.xs.iter_mut().zip(prior) {
            *x = vi * alpha * pj;
        }
        if row.is_empty() {
            let share = vi * (1.0 - alpha) / n as f64;
            for x in self.xs.iter_mut() {
                *x += share;
            }
        } else {
            for &(j, s) in row {
                self.xs[j as usize] += vi * (1.0 - alpha) * s;
            }
        }
        self.ws.fill(0.0);
        self.ws[id as usize] = 1.0;
        self.prev_beta.fill(f64::NAN);
        self.streak = 0;
        self.ticks = 0;
        self.cycle = cycle;
        self.gossiping = true;
    }

    /// One gossip step: keep half of `(x, w)` and return the other half,
    /// signed, with the uniformly random peer it is for. `converged` is the
    /// bitmap to piggyback.
    pub fn tick(&mut self, converged: &[u64]) -> (u32, Bytes) {
        for v in self.xs.iter_mut().chain(self.ws.iter_mut()) {
            *v *= 0.5;
        }
        let raw = self.rng.random_range(0..self.config.n - 1);
        let target = if raw >= self.config.id as usize {
            raw + 1
        } else {
            raw
        } as u32;
        let message = GossipMessage {
            push: Push {
                sender: self.config.id,
                cycle: self.cycle,
                xs: self.xs.clone(),
                ws: self.ws.clone(),
            },
            converged: converged.to_vec(),
        };
        self.counters.pushes_sent.fetch_add(1, Ordering::Relaxed);
        self.ticks += 1;
        (target, self.config.key.seal(&message.encode()).encode())
    }

    /// Authenticate a datagram: envelope, signature, message format, the
    /// payload naming the same sender as the signature, and a vector of this
    /// network's length. Anything else is counted as an auth failure.
    pub fn open(&self, data: &[u8]) -> Option<GossipMessage> {
        let message = SignedEnvelope::decode(data).and_then(|envelope| {
            let payload = self.config.verifier.open(&envelope)?;
            let message = GossipMessage::decode(&payload)?;
            // A payload that claims another sender than its signature is
            // spoofing.
            (message.push.sender == envelope.sender && message.push.xs.len() == self.config.n)
                .then_some(message)
        });
        if message.is_none() {
            self.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
        }
        message
    }

    /// Add an authenticated push of the cycle in progress to `(x, w)`. A
    /// push from any other cycle, or one that arrives while this node is not
    /// gossiping, is counted as stale and left out; returns whether it was
    /// merged.
    pub fn merge(&mut self, push: &Push) -> bool {
        if push.cycle != self.cycle || !self.gossiping {
            self.counters.stale_pushes.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        for (d, s) in self.xs.iter_mut().zip(&push.xs) {
            *d += s;
        }
        for (d, s) in self.ws.iter_mut().zip(&push.ws) {
            *d += s;
        }
        true
    }

    /// The local detector, run once per tick: every component defined and
    /// none moved by more than `ε` (relatively) for `patience` ticks in a row,
    /// after at least `min_ticks`. An exhausted tick budget fires it
    /// regardless, so no cycle can hang on one node.
    pub fn converged_now(&mut self) -> bool {
        if self.ticks >= self.config.max_ticks {
            return true;
        }
        let mut max_change: f64 = 0.0;
        let mut defined = true;
        for ((&x, &w), prev) in self.xs.iter().zip(&self.ws).zip(self.prev_beta.iter_mut()) {
            if w > 0.0 {
                let beta = x / w;
                max_change = if prev.is_nan() {
                    f64::INFINITY
                } else {
                    max_change.max((beta - *prev).abs() / beta.abs().max(f64::MIN_POSITIVE))
                };
                *prev = beta;
            } else {
                defined = false;
                *prev = f64::NAN;
            }
        }
        if defined && max_change <= self.config.epsilon {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.streak >= self.config.patience && self.ticks >= self.config.min_ticks
    }

    /// Stop gossiping and extract this node's estimate `x_j / w_j` of the
    /// whole vector, normalized; its own component seeds the next cycle.
    pub fn end_cycle(&mut self) -> ReputationVector {
        // Sanitize: a ratio can overflow to Inf when a component's consensus
        // weight is subnormal (repeated halving while the thread is starved),
        // and a cycle cut short can catch a node with no usable estimate at
        // all — fall back to uniform rather than take the thread down.
        let mut estimate: Vec<f64> = self
            .xs
            .iter()
            .zip(&self.ws)
            .map(|(&x, &w)| {
                let beta = if w > 0.0 { x / w } else { 0.0 };
                if beta.is_finite() {
                    beta.max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        if estimate.iter().sum::<f64>() <= 0.0 {
            estimate.fill(1.0);
        }
        let vector = ReputationVector::from_weights(estimate).expect("sanitized estimates");
        self.v_own = vector.score(NodeId(self.config.id)).max(f64::MIN_POSITIVE);
        self.gossiping = false;
        vector
    }
}

/// Run one barrier-mode node until `Stop`: idle until `StartCycle`, then
/// tick every `config.tick` and merge what arrives in between, telling the
/// coordinator `(id, cycle)` once when the local detector fires; `EndCycle`
/// extracts the estimate.
pub fn run_node<T: Transport>(
    mut core: NodeCore,
    transport: T,
    inbox: Receiver<Inbound>,
    converged_tx: Sender<(u32, u32)>,
) {
    let period = core.config().tick;
    let mut next_tick = Deadline::after(period);
    let mut notified = false;
    loop {
        let inbound = if !core.gossiping() {
            match inbox.recv() {
                Ok(inbound) => inbound,
                Err(_) => return,
            }
        } else if next_tick.expired() {
            // The tick goes before the inbox, so a flood of pushes cannot
            // starve it; the next one is a full period from now.
            let (target, datagram) = core.tick(&[]);
            transport.send(target, datagram);
            if core.converged_now() && !notified {
                notified = true;
                let _ = converged_tx.send((core.config().id, core.cycle()));
            }
            next_tick = Deadline::after(period);
            continue;
        } else {
            match inbox.recv_timeout(next_tick.remaining()) {
                Ok(inbound) => inbound,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        match inbound {
            Inbound::Datagram(data) => {
                if let Some(message) = core.open(&data) {
                    core.merge(&message.push);
                }
            }
            Inbound::StartCycle { cycle, prior } => {
                core.seed(cycle, &prior);
                notified = false;
                next_tick = Deadline::after(period);
            }
            Inbound::EndCycle { reply } => {
                let _ = reply.send(core.end_cycle());
            }
            Inbound::Stop => return,
        }
    }
}

/// A cluster's running node threads: the control side of every inbox and
/// the join handles. Both drivers end through [`stop_and_join`]
/// (`NodeThreads::stop_and_join`), whichever way their run ended.
pub struct NodeThreads {
    control: Vec<SyncSender<Inbound>>,
    handles: Vec<JoinHandle<()>>,
}

impl NodeThreads {
    /// Spawn one `gt-node-<id>` thread per core, running `run(core,
    /// transport, inbox)`. (Not named `spawn`: gt-lint's call graph matches
    /// by name, and the serving roots call `thread::Builder::spawn`.)
    pub fn start<T: Transport>(
        cores: Vec<NodeCore>,
        transports: Vec<T>,
        inboxes: Vec<Inbox>,
        run: impl Fn(NodeCore, T, Receiver<Inbound>) + Clone + Send + 'static,
    ) -> Self {
        assert_eq!(transports.len(), cores.len(), "one transport per node");
        assert_eq!(inboxes.len(), cores.len(), "one inbox per node");
        let mut control = Vec::with_capacity(cores.len());
        let mut handles = Vec::with_capacity(cores.len());
        for ((core, transport), Inbox { tx, rx }) in cores.into_iter().zip(transports).zip(inboxes)
        {
            control.push(tx);
            let run = run.clone();
            let handle = thread::Builder::new()
                .name(format!("gt-node-{}", core.config().id))
                .spawn(move || run(core, transport, rx))
                .expect("spawn node thread");
            handles.push(handle);
        }
        NodeThreads { control, handles }
    }

    /// Send every node its own `message()`. Blocks while an inbox is full
    /// (its node is draining it); a node that has already left is skipped.
    pub fn broadcast(&self, message: impl Fn() -> Inbound) {
        for tx in &self.control {
            let _ = tx.send(message());
        }
    }

    /// Tell every node to stop and wait until all of them (and, through the
    /// transports they own, every receive thread) have ended.
    pub fn stop_and_join(self) {
        self.broadcast(|| Inbound::Stop);
        for handle in self.handles {
            handle.join().expect("node thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossiptrust_crypto::Pkg;

    /// `n` idle cores over a ring-plus-hub matrix row set, sharing counters.
    fn cores(n: usize) -> (Vec<NodeCore>, Arc<ClusterCounters>, Pkg) {
        let pkg = Pkg::from_seed(7);
        let counters = Arc::new(ClusterCounters::default());
        let cores = (0..n)
            .map(|i| {
                let config = NodeConfig {
                    id: i as u32,
                    n,
                    alpha: 0.15,
                    epsilon: 1e-4,
                    patience: 2,
                    min_ticks: min_ticks(n),
                    max_ticks: 1_000,
                    tick: Duration::ZERO,
                    row: vec![(0, 0.75), (((i + 1) % n) as u32, 0.25)],
                    key: pkg.issue(i as u32),
                    verifier: pkg.verifier(),
                    seed: 11,
                };
                NodeCore::new(config, Arc::clone(&counters))
            })
            .collect();
        (cores, counters, pkg)
    }

    fn mass(cores: &[NodeCore]) -> (Vec<f64>, Vec<f64>) {
        let n = cores.len();
        let sum = |pick: fn(&NodeCore) -> &Vec<f64>| {
            (0..n)
                .map(|j| cores.iter().map(|c| pick(c)[j]).sum::<f64>())
                .collect::<Vec<f64>>()
        };
        (sum(|c| &c.xs), sum(|c| &c.ws))
    }

    #[test]
    fn gossip_message_roundtrip() {
        let m = GossipMessage {
            push: Push { sender: 3, cycle: 2, xs: vec![0.1, 0.2], ws: vec![0.5, 0.0] },
            converged: vec![0b1011],
        };
        assert_eq!(GossipMessage::decode(&m.encode()).unwrap(), m);
        assert!(GossipMessage::decode(&[1, 2]).is_none());
        let mut truncated = m.encode().to_vec();
        truncated.pop();
        assert!(GossipMessage::decode(&truncated).is_none());
    }

    #[test]
    fn hand_delivered_pushes_conserve_mass_per_component() {
        let n = 6;
        let (mut cores, counters, _) = cores(n);
        let prior = vec![1.0 / n as f64; n];
        for core in cores.iter_mut() {
            core.seed(1, &prior);
        }
        let (x0, w0) = mass(&cores);
        // Seeding puts v_i = 1/n of mass into x per node and one unit of
        // weight on each node's own component.
        assert!((x0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w0.iter().all(|&w| w == 1.0));

        let mut merged = 0;
        for round in 0..40 {
            let sender = round % n;
            let (target, datagram) = cores[sender].tick(&[]);
            assert_ne!(target as usize, sender, "a node never pushes to itself");
            let receiver = &mut cores[target as usize];
            let message = receiver.open(&datagram).expect("genuine push");
            assert!(receiver.merge(&message.push));
            merged += 1;
        }
        let (x1, w1) = mass(&cores);
        for j in 0..n {
            assert!((x1[j] - x0[j]).abs() <= 1e-15, "Σx[{j}] {} → {}", x0[j], x1[j]);
            assert!((w1[j] - w0[j]).abs() <= 1e-15, "Σw[{j}] {} → {}", w0[j], w1[j]);
        }
        assert_eq!(counters.pushes_sent.load(Ordering::Relaxed), merged);
        assert_eq!(counters.auth_failures.load(Ordering::Relaxed), 0);
        assert_eq!(counters.stale_pushes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn other_cycle_and_wrong_length_are_counted_not_merged() {
        let n = 4;
        let (mut cores, counters, pkg) = cores(n);
        let prior = vec![0.25; n];
        cores[0].seed(2, &prior);
        cores[1].seed(1, &prior);
        let before = (cores[0].xs.clone(), cores[0].ws.clone());

        // Node 1 is still in cycle 1: authentic, but stale for node 0.
        let (_, datagram) = cores[1].tick(&[]);
        let message = cores[0].open(&datagram).expect("authentic");
        assert!(!cores[0].merge(&message.push));
        assert_eq!(counters.stale_pushes.load(Ordering::Relaxed), 1);

        // The right cycle while the node is not gossiping is stale as well.
        cores[2].seed(2, &prior);
        let (_, datagram) = cores[2].tick(&[]);
        cores[3].seed(2, &prior);
        cores[3].end_cycle();
        let message = cores[3].open(&datagram).expect("authentic");
        assert!(!cores[3].merge(&message.push));
        assert_eq!(counters.stale_pushes.load(Ordering::Relaxed), 2);

        // A correctly signed vector of another network's length.
        let short = GossipMessage {
            push: Push { sender: 1, cycle: 2, xs: vec![0.5; n - 1], ws: vec![0.5; n - 1] },
            converged: vec![],
        };
        let datagram = pkg.issue(1).seal(&short.encode()).encode();
        assert!(cores[0].open(&datagram).is_none());
        assert_eq!(counters.auth_failures.load(Ordering::Relaxed), 1);

        assert_eq!((cores[0].xs.clone(), cores[0].ws.clone()), before);
    }

    #[test]
    fn spoofed_sender_and_garbage_are_auth_failures() {
        let n = 4;
        let (mut cores, counters, pkg) = cores(n);
        cores[0].seed(1, &[0.25; 4]);
        // Node 2's key signs a payload that claims to come from node 3.
        let spoof = GossipMessage {
            push: Push { sender: 3, cycle: 1, xs: vec![1.0; n], ws: vec![1.0; n] },
            converged: vec![],
        };
        let datagram = pkg.issue(2).seal(&spoof.encode()).encode();
        assert!(cores[0].open(&datagram).is_none());
        assert_eq!(counters.auth_failures.load(Ordering::Relaxed), 1);

        // One flipped payload byte breaks the tag.
        let (_, datagram) = cores[1].tick(&[]);
        let mut corrupted = datagram.to_vec();
        corrupted[12] ^= 0xFF;
        assert!(cores[0].open(&corrupted).is_none());
        assert!(cores[0].open(b"not an envelope").is_none());
        assert_eq!(counters.auth_failures.load(Ordering::Relaxed), 3);
        assert!(cores[0].open(&datagram).is_some(), "the untouched datagram still opens");
    }

    #[test]
    fn detector_needs_patience_min_ticks_and_every_component() {
        let n = 4;
        let (mut cores, _, _) = cores(n);
        let core = &mut cores[0];
        core.seed(1, &[0.25; 4]);
        // Only the node's own component has weight: undefined elsewhere.
        core.ticks = 10;
        assert!(!core.converged_now());
        // Every component defined and still: fires on the `patience`-th calm
        // tick after the one that first records the ratios.
        core.ws.fill(1.0);
        assert!(!core.converged_now(), "first sight of a ratio is a change");
        assert!(!core.converged_now(), "streak 1 < patience 2");
        assert!(core.converged_now());
        // A moved component resets the streak.
        core.xs[2] *= 1.01;
        assert!(!core.converged_now());
        // min_ticks holds a calm node back; the tick budget overrides all.
        core.ticks = 0;
        assert!(!core.converged_now());
        assert!(!core.converged_now());
        core.ticks = core.config.max_ticks;
        core.xs[1] *= 2.0;
        assert!(core.converged_now());
    }
}
