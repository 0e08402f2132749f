//! # gossiptrust-gossip
//!
//! The push-sum gossip protocol engine at the heart of GossipTrust
//! (Algorithms 1 and 2 of Zhou & Hwang, IPDPS 2007).
//!
//! Three layers:
//!
//! * [`pushsum`] — **Algorithm 1**: the scalar push-sum protocol that
//!   aggregates a *single* peer's global score. Every node holds a gossip
//!   pair `(x, w)`; each step it keeps half and pushes half to a random
//!   node; the ratio `x/w` converges to the weighted sum `Σ_i s_ij·v_i` on
//!   every node simultaneously.
//! * [`engine`] — **Algorithm 2 (inner loop)**: the vectorized engine that
//!   runs `n` push-sum instances concurrently, one per peer score, with
//!   per-node convergence detection, message-loss / node-failure injection
//!   and full instrumentation.
//! * [`cycle`] — **Algorithm 2 (outer loop)**: the aggregation-cycle driver
//!   that seeds each cycle from the previous global vector, applies the
//!   greedy-factor power-node mixing, and iterates cycles until the global
//!   reputation vector converges within `δ`.
//!
//! The engine is *synchronous-round* and fully deterministic given a seed:
//! one [`engine::VectorGossipEngine::step`] models the paper's "gossip step"
//! in which every node sends once and then merges everything it received.
//! Its state lives in four flat slab-partitioned n×n arenas (`x` and `w`,
//! double-buffered) computed by a persistent worker pool, and the ε test
//! reads the previous ratios off the arena a step merges from instead of
//! remembering them; the parallel step is bit-identical to the sequential
//! one for any thread count (see the [`engine`] module docs for the
//! determinism contract and the `GT_THREADS` knob). An asynchronous,
//! message-passing implementation of the same protocol lives in the
//! `gossiptrust-net` crate.
//!
//! ```
//! use gossiptrust_core::prelude::*;
//! use gossiptrust_gossip::cycle::{GossipTrustAggregator, PriorPolicy};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Tiny 4-node network with a clear authority structure.
//! let mut b = TrustMatrixBuilder::new(4);
//! for i in 1..4u32 {
//!     b.record(NodeId(i), NodeId(0), 5.0);
//! }
//! b.record(NodeId(0), NodeId(1), 1.0);
//! let matrix = b.build();
//!
//! let params = Params::for_network(4);
//! let mut rng = StdRng::seed_from_u64(7);
//! let report = GossipTrustAggregator::new(params.clone())
//!     .with_prior_policy(PriorPolicy::Fixed(Prior::uniform(4)))
//!     .aggregate(&matrix, &mut rng);
//!
//! // The gossiped result agrees with exact centralized power iteration.
//! let exact = PowerIteration::new(params).solve(&matrix, &Prior::uniform(4));
//! let err = exact.vector.rms_relative_error(&report.vector).unwrap();
//! assert!(err < 0.05, "rms error {err}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chooser;
pub mod cycle;
pub mod engine;
pub mod pushsum;
pub mod stats;

pub use chooser::{ScriptedChooser, TargetChooser, UniformChooser};
pub use cycle::{AggregationReport, CycleStats, GossipTrustAggregator, PriorPolicy};
pub use engine::{EngineConfig, EngineObs, StepOutcome, VectorGossipEngine};
pub use pushsum::{PushSumNetwork, PushSumOutcome};
pub use stats::GossipStats;
