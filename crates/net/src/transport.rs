//! Transport abstraction and the in-process channel transport.

use crate::node::Inbound;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// A per-node handle for sending datagrams to other nodes.
///
/// Sends are best-effort: a transport may drop messages (loss injection,
/// full queues, UDP) — exactly the failure mode push-sum is designed to
/// tolerate.
pub trait Transport: Send + Sync + 'static {
    /// Send `data` to node `to`. Never blocks.
    fn send(&self, to: u32, data: Bytes);
}

/// One node's bounded inbox: the transport delivers datagrams into `tx`
/// (dropping them when it is full), the driver sends its control messages
/// through a clone of the same `tx`, and the node thread owns `rx`.
pub struct Inbox {
    /// Sending side; clone it for every producer.
    pub tx: SyncSender<Inbound>,
    /// Receiving side, moved into the node thread.
    pub rx: Receiver<Inbound>,
}

impl Inbox {
    /// An inbox holding at most `cap` undelivered messages.
    pub fn new(cap: usize) -> Self {
        let (tx, rx) = sync_channel(cap.max(1));
        Inbox { tx, rx }
    }
}

/// Counters shared by the in-memory network.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Messages handed to the transport.
    pub sent: AtomicU64,
    /// Messages dropped by injected loss or full queues.
    pub dropped: AtomicU64,
}

/// An in-process network: one bounded queue per node, with optional
/// i.i.d. loss injection (deterministic per message via a counter hash, so
/// the loss pattern is reproducible even though thread scheduling is not).
pub struct InMemoryNetwork {
    senders: Vec<SyncSender<Inbound>>,
    loss_rate: f64,
    loss_seq: AtomicU64,
    loss_seed: u64,
    counters: Arc<NetCounters>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl InMemoryNetwork {
    /// Build a network of `n` endpoints with queue capacity `cap`; returns
    /// the shared network plus each node's inbox.
    pub fn new(n: usize, cap: usize, loss_rate: f64, loss_seed: u64) -> (Arc<Self>, Vec<Inbox>) {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate in [0,1]");
        let inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::new(cap)).collect();
        let net = Arc::new(InMemoryNetwork {
            senders: inboxes.iter().map(|inbox| inbox.tx.clone()).collect(),
            loss_rate,
            loss_seq: AtomicU64::new(0),
            loss_seed,
            counters: Arc::new(NetCounters::default()),
        });
        (net, inboxes)
    }

    /// Shared counters.
    pub fn counters(&self) -> Arc<NetCounters> {
        Arc::clone(&self.counters)
    }

    fn should_drop(&self) -> bool {
        if self.loss_rate <= 0.0 {
            return false;
        }
        let seq = self.loss_seq.fetch_add(1, Ordering::Relaxed);
        let u = mix(seq ^ self.loss_seed) as f64 / u64::MAX as f64;
        u < self.loss_rate
    }
}

/// A node-scoped handle onto an [`InMemoryNetwork`].
#[derive(Clone)]
pub struct InMemoryHandle {
    net: Arc<InMemoryNetwork>,
}

impl InMemoryHandle {
    /// Handle for any node (the sender identity travels in the payload).
    pub fn new(net: Arc<InMemoryNetwork>) -> Self {
        InMemoryHandle { net }
    }
}

impl Transport for InMemoryHandle {
    fn send(&self, to: u32, data: Bytes) {
        self.net.counters.sent.fetch_add(1, Ordering::Relaxed);
        if self.net.should_drop() {
            self.net.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // try_send: a full queue (or a peer that has already left) behaves
        // like a drop, which is the honest model for gossip over a
        // congested link.
        if self.net.senders[to as usize]
            .try_send(Inbound::Datagram(data))
            .is_err()
        {
            self.net.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datagram(inbox: &Inbox) -> Option<Bytes> {
        match inbox.rx.try_recv() {
            Ok(Inbound::Datagram(data)) => Some(data),
            _ => None,
        }
    }

    #[test]
    fn messages_arrive_at_the_right_node() {
        let (net, inboxes) = InMemoryNetwork::new(3, 16, 0.0, 0);
        let h = InMemoryHandle::new(net);
        h.send(1, Bytes::from_static(b"to-1"));
        h.send(2, Bytes::from_static(b"to-2"));
        assert_eq!(datagram(&inboxes[1]).unwrap(), Bytes::from_static(b"to-1"));
        assert_eq!(datagram(&inboxes[2]).unwrap(), Bytes::from_static(b"to-2"));
        assert!(datagram(&inboxes[0]).is_none());
    }

    #[test]
    fn loss_rate_drops_messages() {
        let (net, inboxes) = InMemoryNetwork::new(2, 10_000, 0.5, 42);
        let h = InMemoryHandle::new(Arc::clone(&net));
        for _ in 0..2_000 {
            h.send(1, Bytes::from_static(b"x"));
        }
        let counters = net.counters();
        let dropped = counters.dropped.load(Ordering::Relaxed);
        assert!((800..1200).contains(&dropped), "dropped {dropped}");
        let mut received = 0;
        while datagram(&inboxes[1]).is_some() {
            received += 1;
        }
        assert_eq!(received as u64 + dropped, 2_000);
    }

    #[test]
    fn full_queue_counts_as_drop() {
        let (net, _inboxes) = InMemoryNetwork::new(1, 2, 0.0, 0);
        let h = InMemoryHandle::new(Arc::clone(&net));
        for _ in 0..5 {
            h.send(0, Bytes::from_static(b"x"));
        }
        assert_eq!(net.counters().dropped.load(Ordering::Relaxed), 3);
    }
}
