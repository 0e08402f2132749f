//! UDP/localhost transport: one socket per node, one datagram per push.
//!
//! Demonstrates the protocol over a real lossy, reordering medium. Each
//! node binds an ephemeral `127.0.0.1` socket; the address book is shared
//! up front (a deployed unstructured overlay would learn addresses from
//! its bootstrap/neighbor exchange).

use crate::node::Inbound;
use crate::transport::{Inbox, Transport};
use bytes::Bytes;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Maximum datagram we send (safe for loopback; vectors for n ≲ 4000 fit).
pub const MAX_DATAGRAM: usize = 65_000;

/// How long a receive thread sleeps in `recv_from` before it looks at its
/// stop flag again; bounds how long dropping an endpoint takes.
const STOP_POLL: Duration = Duration::from_millis(20);

/// A UDP endpoint bound for one node. Dropping it stops and joins its
/// receive thread.
pub struct UdpEndpoint {
    socket: Arc<UdpSocket>,
    peers: Arc<Vec<SocketAddr>>,
    stop: Arc<AtomicBool>,
    receiver: Option<JoinHandle<()>>,
}

impl UdpEndpoint {
    /// Bind `n` loopback endpoints and spawn their `gt-udp-<i>` receive
    /// threads. Returns per-node `(transport handle, inbox)` pairs.
    pub fn bind_cluster(n: usize) -> Vec<(UdpEndpoint, Inbox)> {
        let sockets: Vec<Arc<UdpSocket>> = (0..n)
            .map(|_| {
                let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
                socket
                    .set_read_timeout(Some(STOP_POLL))
                    .expect("nonzero read timeout");
                Arc::new(socket)
            })
            .collect();
        let peers: Arc<Vec<SocketAddr>> =
            Arc::new(sockets.iter().map(|s| s.local_addr().expect("local addr")).collect());
        sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let inbox = Inbox::new(1024);
                let stop = Arc::new(AtomicBool::new(false));
                let receiver = thread::Builder::new()
                    .name(format!("gt-udp-{i}"))
                    .spawn({
                        let (socket, stop, tx) =
                            (Arc::clone(&socket), Arc::clone(&stop), inbox.tx.clone());
                        move || receive_loop(&socket, &stop, &tx)
                    })
                    .expect("spawn udp receive thread");
                let endpoint = UdpEndpoint {
                    socket,
                    peers: Arc::clone(&peers),
                    stop,
                    receiver: Some(receiver),
                };
                (endpoint, inbox)
            })
            .collect()
    }

    /// This endpoint's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.socket.local_addr().expect("local addr")
    }
}

/// Datagrams to inbox messages, until `stop` is set (looked at after every
/// datagram and every read timeout), the inbox closes or the socket fails.
fn receive_loop(socket: &UdpSocket, stop: &AtomicBool, tx: &SyncSender<Inbound>) {
    let mut buf = vec![0u8; MAX_DATAGRAM];
    // SeqCst: the flag is all the two threads share, read once per wake.
    while !stop.load(Ordering::SeqCst) {
        let len = match socket.recv_from(&mut buf) {
            Ok((len, _)) => len,
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => continue,
                _ => return,
            },
        };
        // A full inbox drops the datagram, like the kernel would.
        let datagram = Inbound::Datagram(Bytes::copy_from_slice(&buf[..len]));
        if let Err(TrySendError::Disconnected(_)) = tx.try_send(datagram) {
            return;
        }
    }
}

impl Drop for UdpEndpoint {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(receiver) = self.receiver.take() {
            // The receive loop has no panic of its own to report.
            let _ = receiver.join();
        }
    }
}

impl Transport for UdpEndpoint {
    fn send(&self, to: u32, data: Bytes) {
        debug_assert!(data.len() <= MAX_DATAGRAM, "datagram too large: {}", data.len());
        // Best-effort: send errors (e.g. buffer full) are silent drops,
        // like real UDP.
        let _ = self.socket.send_to(&data, self.peers[to as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datagram_within_2s(inbox: &Inbox) -> Bytes {
        match inbox
            .rx
            .recv_timeout(Duration::from_secs(2))
            .expect("timely delivery")
        {
            Inbound::Datagram(data) => data,
            _ => panic!("only datagrams travel over UDP"),
        }
    }

    #[test]
    fn datagrams_route_between_endpoints() {
        let mut cluster = UdpEndpoint::bind_cluster(3);
        let (ep2, inbox2) = cluster.remove(2);
        let (ep0, _inbox0) = cluster.remove(0);
        assert_ne!(ep0.local_addr(), ep2.local_addr());
        ep0.send(2, Bytes::from_static(b"hello"));
        assert_eq!(datagram_within_2s(&inbox2), Bytes::from_static(b"hello"));
    }

    #[test]
    fn large_payload_fits() {
        let mut cluster = UdpEndpoint::bind_cluster(2);
        let (_ep1, inbox1) = cluster.remove(1);
        let (ep0, _inbox0) = cluster.remove(0);
        let payload = Bytes::from(vec![7u8; 32_000]);
        ep0.send(1, payload.clone());
        assert_eq!(datagram_within_2s(&inbox1), payload);
    }
}
