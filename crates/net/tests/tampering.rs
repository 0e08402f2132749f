//! Security integration test: a man-in-the-middle transport that corrupts
//! or replays gossip pushes. The identity-based signatures must reject
//! every tampered message, and the protocol must still converge on the
//! surviving genuine traffic.

mod common;

use bytes::Bytes;
use common::authority;
use gossiptrust_core::prelude::*;
use gossiptrust_crypto::Pkg;
use gossiptrust_net::cluster::{Cluster, NetConfig};
use gossiptrust_net::node::{
    run_node, trust_row, ClusterCounters, Inbound, NodeConfig, NodeCore, NodeThreads,
};
use gossiptrust_net::transport::{InMemoryHandle, InMemoryNetwork, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Flips one byte in every `period`-th message.
struct TamperingTransport {
    inner: InMemoryHandle,
    counter: Arc<AtomicU64>,
    period: u64,
}

impl Transport for TamperingTransport {
    fn send(&self, to: u32, data: Bytes) {
        let seq = self.counter.fetch_add(1, Ordering::Relaxed);
        if seq.is_multiple_of(self.period) && data.len() > 20 {
            let mut corrupted = data.to_vec();
            corrupted[12] ^= 0xFF; // flip a payload byte past the header
            self.inner.send(to, Bytes::from(corrupted));
        } else {
            self.inner.send(to, data);
        }
    }
}

/// Drive a hand-built cluster of node threads over the tampering transport
/// for one cycle and verify that (a) corrupted pushes are rejected by
/// signature verification, (b) genuine traffic still reaches
/// near-consensus.
#[test]
fn tampered_pushes_are_rejected_and_gossip_survives() {
    let n = 10usize;
    let matrix = authority(n);
    let (net, inboxes) = InMemoryNetwork::new(n, 1024, 0.0, 0);
    let tamper_counter = Arc::new(AtomicU64::new(0));
    let pkg = Pkg::from_seed(0xBEEF);
    let counters = Arc::new(ClusterCounters::default());
    let (converged_tx, converged_rx) = mpsc::channel::<(u32, u32)>();

    let cores = (0..n)
        .map(|i| {
            let config = NodeConfig {
                id: i as u32,
                n,
                alpha: 0.15,
                epsilon: 1e-4,
                patience: 2,
                min_ticks: 4,
                max_ticks: 4_000,
                tick: Duration::from_millis(2),
                row: trust_row(&matrix, i),
                key: pkg.issue(i as u32),
                verifier: pkg.verifier(),
                seed: 99,
            };
            NodeCore::new(config, Arc::clone(&counters))
        })
        .collect();
    let transports = (0..n)
        .map(|_| TamperingTransport {
            inner: InMemoryHandle::new(Arc::clone(&net)),
            counter: Arc::clone(&tamper_counter),
            period: 10, // corrupt every 10th push (~10% MITM rate)
        })
        .collect();
    let nodes = NodeThreads::start(cores, transports, inboxes, move |core, transport, inbox| {
        run_node(core, transport, inbox, converged_tx.clone())
    });

    // One cycle with a uniform prior.
    let prior = Arc::new(vec![1.0 / n as f64; n]);
    nodes.broadcast(|| Inbound::StartCycle { cycle: 1, prior: Arc::clone(&prior) });
    let mut reported = vec![false; n];
    let mut count = 0;
    while count < n {
        match converged_rx.recv_timeout(Duration::from_secs(60)) {
            Ok((node, 1)) if !reported[node as usize] => {
                reported[node as usize] = true;
                count += 1;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    assert_eq!(count, n, "all nodes should converge despite tampering");

    // Collect estimates and stop.
    let (reply_tx, reply_rx) = mpsc::channel();
    nodes.broadcast(|| Inbound::EndCycle { reply: reply_tx.clone() });
    drop(reply_tx);
    let estimates: Vec<ReputationVector> = reply_rx.iter().collect();
    assert_eq!(estimates.len(), n);
    nodes.stop_and_join();

    // Every corrupted push must have been rejected.
    let auth_failures = counters.auth_failures.load(Ordering::Relaxed);
    assert!(auth_failures > 0, "the MITM corrupted messages; some must be counted");

    // The genuine traffic still carries the cycle to a usable answer
    // (corrupted pushes lose their mass — like link loss, the ratios
    // survive approximately). The bound is a sanity check, not a
    // precision claim: under scheduler load the tick interleaving (and
    // hence which 10% of pushes the MITM hits) varies, and the precise
    // loss-vs-error trade is pinned by the deterministic engine tests.
    let mut exact = vec![0.0; n];
    matrix.transpose_mul(&vec![1.0 / n as f64; n], &mut exact).unwrap();
    Prior::uniform(n).mix_into(&mut exact, 0.15);
    let mean: Vec<f64> = (0..n)
        .map(|j| estimates.iter().map(|e| e.values()[j]).sum::<f64>() / n as f64)
        .collect();
    let mean_rel: f64 = (0..n)
        .map(|j| (mean[j] - exact[j]).abs() / exact[j].max(1e-12))
        .sum::<f64>()
        / n as f64;
    assert!(mean_rel < 1.5, "estimates too far off: {mean_rel}");
}

/// The standard cluster over a clean transport counts zero auth failures —
/// the negative control for the test above.
#[test]
fn clean_transport_has_no_auth_failures() {
    let n = 8;
    let matrix = authority(n);
    let report = Cluster::in_memory(NetConfig::fast_local().with_seed(123))
        .run(&matrix, &Params::for_network(n));
    assert!(report.converged);
    assert_eq!(report.auth_failures, 0);
}
