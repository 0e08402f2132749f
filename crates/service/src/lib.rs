//! # gossiptrust-serve
//!
//! The epoch-driven reputation **service**: everything else in the
//! workspace runs one aggregation and exits; this crate turns GossipTrust
//! into a long-running daemon that continuously folds transaction feedback
//! into trust matrices, re-aggregates them in the background, and serves
//! reputation queries against immutable, versioned score snapshots.
//!
//! The paper itself frames GossipTrust as a continuously refreshed
//! substrate (the Fig. 5 application re-aggregates every 1000 queries); the
//! differential-gossip line of work (Gupta & Singh, arXiv:1210.4301)
//! motivates treating aggregation as a recurring, resource-bounded
//! background job — which is exactly the shape a serving layer needs.
//!
//! ## Architecture
//!
//! ```text
//!   ingest (many writers)          epoch loop (one thread)        queries (many readers)
//!   ─────────────────────          ───────────────────────        ──────────────────────
//!   FeedbackLog                    EpochManager                   SnapshotCell
//!   sharded, append-only   ──►     folds the log into the   ──►   swaps in an immutable
//!   per-shard mutexes only         next epoch's CSR matrix,       Arc<ScoreSnapshot>;
//!                                  drives gossip::cycle on a      get_score / top_k /
//!                                  persistent engine + pool,      rank_of never block on
//!                                  publishes a new snapshot       an in-flight aggregation
//! ```
//!
//! * [`log`] — the sharded, append-only [`log::FeedbackLog`]: ratings
//!   accumulate into per-rater [`gossiptrust_core::local::LocalTrust`] rows
//!   and fold into a CSR `TrustMatrix` at each epoch boundary.
//! * [`snapshot`] — immutable, versioned [`snapshot::ScoreSnapshot`]s
//!   (scores, exact ranks, Bloom-filter rank buckets from
//!   `gossiptrust-storage`) and the [`snapshot::SnapshotCell`] publication
//!   point readers race through.
//! * [`epoch`] — the background [`epoch::EpochManager`] loop: every
//!   `GT_EPOCH_MS` (or on demand) it re-aggregates with
//!   `GossipTrustAggregator::aggregate_with_engine`, reusing one
//!   [`gossiptrust_gossip::engine::VectorGossipEngine`] and its persistent
//!   worker pool across epochs. A failed or non-converged epoch keeps the
//!   previous snapshot live and increments a degradation counter.
//! * [`service`] — the in-process [`service::ServiceHandle`] front-end,
//!   with a bounded-backlog admission gate (`GT_INGEST_QUEUE`) that sheds
//!   retriably instead of buffering without bound.
//! * [`server`] — the blocking `std::net` line-delimited-JSON TCP
//!   front-end, one thread per connection; bulk ingest reuses the binary
//!   `gossiptrust-net` codec ([`gossiptrust_net::codec::FeedbackBatch`]).
//!   Hardened with a connection-limit accept gate (`GT_CONN_LIMIT`) and a
//!   per-line read deadline (`GT_READ_TIMEOUT_MS`) that reaps slow-loris
//!   clients.
//! * [`wal`] — the CRC-framed crash-recovery write-ahead log
//!   (`GT_WAL_DIR`): every acknowledged feedback event is durable before
//!   the ack, and startup replays the longest valid prefix (tolerating a
//!   torn tail from a mid-write crash).
//! * [`chaos`] — the deterministic, seed-driven fault injector
//!   (`GT_CHAOS_SEED`) behind the `chaos_soak` experiment: dropped /
//!   delayed / duplicated / truncated response frames, stalled clients,
//!   epoch panics and overruns — all from one seeded RNG, never ambient
//!   entropy.
//! * [`obs`] — the [`obs::ServiceObs`] bundle from `gossiptrust-obs`: one
//!   shared metrics registry + span tracer holding everything the service
//!   counts or times — epoch outcomes, queries, sheds, connection and WAL
//!   accounting, gossip totals, chaos faults dealt, query/ingest/request
//!   latencies, per-phase epoch timing, WAL append timing and the gossip
//!   engine's step hook. The `metrics` verb and the `GT_METRICS_ADDR`
//!   listener render it as Prometheus text; the `stats` verb's
//!   [`obs::StatsReport`] loads the same handles.
//!
//! ## Concurrency contract
//!
//! One model — plain `std` threads, no async runtime: the **epoch thread**
//! (fold → gossip cycles → publish, the only writer of the snapshot cell),
//! the **engine pool** (gossip step workers, driven only by the epoch
//! thread), and **one thread per TCP connection** behind the accept gate —
//! the WAL has no thread of its own: a connection commits its own records.
//! What may block what: a connection thread parks on its own socket, on
//! the WAL mutex (`feedback` / `batch`; held by another connection for one
//! ~1 µs `write_all` + `flush`) or on the epoch it asked for (the `epoch`
//! verb) — and on nothing else another connection holds beyond the
//! per-shard ingest locks below. The epoch thread never waits on a
//! connection; the scrape listener serves inline on its own accept thread.
//!
//! Reads (`get_score`, `top_k`, `rank_of`) clone an `Arc` out of the
//! [`snapshot::SnapshotCell`] and then run entirely on the immutable
//! snapshot: no lock is ever held while an aggregation is in flight, so
//! queries can never block on (or observe a torn state of) an epoch. The
//! only mutexes on the write path are the WAL lock and the per-shard ingest
//! locks of the [`log::FeedbackLog`]. (The workspace pins its dependency set, so the
//! cell uses `std::sync`'s reader–writer lock for the pointer swap instead
//! of an external atomic-`Arc` crate; the critical section is a single
//! refcount increment — see `SnapshotCell` docs.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod epoch;
pub mod json;
pub mod log;
pub mod obs;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod wal;

pub use chaos::{ChaosConfig, ChaosInjector, ChaosReport};
pub use epoch::EpochOutcome;
pub use log::{FeedbackEvent, FeedbackLog};
pub use obs::{ServiceObs, StatsReport};
pub use server::{serve, serve_metrics_on};
pub use service::{
    RankView, ReputationService, ScoreView, ServeError, ServiceConfig, ServiceHandle, TopKView,
};
pub use snapshot::{ScoreSnapshot, SnapshotCell};
pub use wal::{GroupCommitObs, GroupCommitWal, Wal, WalReplay};
