//! # gossiptrust-net
//!
//! A GossipTrust runtime of real concurrent peers: the same Algorithm-2
//! protocol as the lock-step engine in `gossiptrust-gossip`, but executed
//! by one `std::thread` per node exchanging real, signed messages. Each
//! node is a single blocking loop over one inbox (datagrams and control
//! messages alike) that wakes for its next gossip tick; there is no
//! executor, and every thread a driver starts has been joined when the
//! driver returns. Thread-per-node is sized for demos and tests (n in the
//! tens to low hundreds), which is what this crate is for.
//!
//! * [`codec`] — the wire format for gossip pushes (bincode-free, hand
//!   rolled over `bytes`), carried inside signed envelopes from
//!   `gossiptrust-crypto` so tampered or spoofed pushes are dropped.
//! * [`transport`] — the [`transport::Transport`] abstraction plus the
//!   in-process channel transport (with loss injection) used by tests.
//! * [`udp`] — a UDP/localhost transport: every node binds its own socket,
//!   pushes are single datagrams.
//! * [`node`] — the per-node core (seeding, halve-and-push, verify-and-
//!   merge, local convergence detection) and the barrier-mode node loop.
//! * [`cluster`] — the experiment driver that spawns `n` node threads plus
//!   a coordinator implementing the cycle barrier. (A deployed system would
//!   detect global convergence with a gossip round of its own; the
//!   explicit barrier keeps the harness deterministic and measurable —
//!   documented in DESIGN.md.)
//! * [`autonomous`] — the same node core with no coordinator: a converged
//!   bitmap piggybacked on every push ends each cycle.
//!
//! ```
//! use gossiptrust_core::prelude::*;
//! use gossiptrust_net::cluster::{Cluster, NetConfig};
//!
//! let mut b = TrustMatrixBuilder::new(8);
//! for i in 1..8u32 {
//!     b.record(NodeId(i), NodeId(0), 1.0);
//! }
//! b.record(NodeId(0), NodeId(1), 1.0);
//! let matrix = b.build();
//! let report = Cluster::in_memory(NetConfig::fast_local()).run(&matrix, &Params::for_network(8));
//! assert!(report.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autonomous;
pub mod cluster;
pub mod codec;
pub mod node;
pub mod transport;
pub mod udp;

pub use autonomous::{run_autonomous, AutonomousConfig, AutonomousReport};
pub use cluster::{Cluster, ClusterReport, NetConfig};
pub use codec::{FeedbackBatch, Push};
pub use transport::{InMemoryNetwork, Transport};
