//! # GossipTrust
//!
//! A full reproduction of **"Gossip-based Reputation Aggregation for
//! Unstructured Peer-to-Peer Networks"** (Runfang Zhou & Kai Hwang,
//! IEEE IPDPS 2007) as a production-quality Rust workspace.
//!
//! GossipTrust computes global reputation scores for every peer of an
//! unstructured P2P network by evaluating the power iteration
//! `V(t+1) = Sᵀ·V(t)` over the normalized local-trust matrix — with each
//! matrix–vector product carried out by a *push-sum gossip protocol*
//! instead of a DHT, so the scheme needs no overlay structure at all.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `gossiptrust-core` | trust matrices, reputation vectors, power iteration, power nodes, convergence |
//! | [`gossip`] | `gossiptrust-gossip` | push-sum engine (Algorithms 1–2), aggregation cycles |
//! | [`simnet`] | `gossiptrust-simnet` | discrete-event simulator: overlays, churn, lossy links |
//! | [`workloads`] | `gossiptrust-workloads` | power-law feedback, threat models, file/query workloads |
//! | [`filesharing`] | `gossiptrust-filesharing` | the Fig. 5 P2P file-sharing application |
//! | [`baselines`] | `gossiptrust-baselines` | Chord DHT, EigenTrust, NoTrust, centralized oracle |
//! | [`storage`] | `gossiptrust-storage` | Bloom-filter reputation-rank storage |
//! | [`crypto`] | `gossiptrust-crypto` | SHA-256/HMAC + identity-based signing simulation |
//! | [`net`] | `gossiptrust-net` | thread-per-node gossip runtime (channels + UDP) |
//! | [`serve`] | `gossiptrust-serve` | epoch-driven reputation service: feedback ingest, versioned snapshots, TCP query front-end |
//! | [`obs`] | `gossiptrust-obs` | dependency-free metrics registry, Prometheus exposition, span tracing, the sanctioned clock surface |
//!
//! # Quickstart
//!
//! ```
//! use gossiptrust::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. Accumulate feedback into a trust matrix.
//! let mut builder = TrustMatrixBuilder::new(4);
//! builder.record(NodeId(1), NodeId(0), 5.0); // peer 1 trusts peer 0
//! builder.record(NodeId(2), NodeId(0), 5.0);
//! builder.record(NodeId(3), NodeId(0), 4.0);
//! builder.record(NodeId(0), NodeId(2), 2.0);
//! let matrix = builder.build();
//!
//! // 2. Aggregate global scores by gossip (uniform prior keeps this tiny
//! //    example directly comparable to the exact computation).
//! let params = Params::for_network(4);
//! let mut rng = StdRng::seed_from_u64(42);
//! let report = GossipTrustAggregator::new(params)
//!     .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(4)))
//!     .aggregate(&matrix, &mut rng);
//!
//! // 3. Peer 0 — trusted by everyone — ranks first.
//! assert_eq!(report.vector.ranking()[0], NodeId(0));
//! ```
//!
//! See `examples/` for runnable scenarios and the
//! `gossiptrust-experiments` crate for the harness that regenerates every
//! table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gossiptrust_baselines as baselines;
pub use gossiptrust_core as core;
pub use gossiptrust_crypto as crypto;
pub use gossiptrust_filesharing as filesharing;
pub use gossiptrust_gossip as gossip;
pub use gossiptrust_net as net;
pub use gossiptrust_obs as obs;
pub use gossiptrust_serve as serve;
pub use gossiptrust_simnet as simnet;
pub use gossiptrust_storage as storage;
pub use gossiptrust_workloads as workloads;

/// One-stop imports for typical use.
pub mod prelude {
    pub use gossiptrust_core::prelude::*;
    pub use gossiptrust_gossip::cycle::{AggregationReport, GossipTrustAggregator, PriorPolicy};
    pub use gossiptrust_gossip::{PushSumNetwork, UniformChooser};
    pub use gossiptrust_workloads::population::{PeerKind, Population, ThreatConfig};
    pub use gossiptrust_workloads::scenario::{Scenario, ScenarioConfig};
}
