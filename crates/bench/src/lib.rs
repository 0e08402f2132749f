//! Criterion micro-benchmarks for GossipTrust components.
//!
//! The benchmark targets live in `benches/`:
//!
//! * `pushsum` — one synchronous scalar push-sum step at several `n`.
//! * `matvec` — the sparse `Sᵀ·v` product (the per-cycle exact cost).
//! * `aggregation` — one vector-gossip step and one full small aggregation.
//! * `bloom` — Bloom filter insert/query and rank-storage build.
//! * `crypto` — SHA-256, HMAC and envelope seal/verify throughput.
//! * `dht` — Chord lookup routing.
//!
//! These complement (not replace) the experiment harness in
//! `gossiptrust-experiments`, which regenerates the paper's tables and
//! figures; criterion tracks the raw component costs over time.

#![forbid(unsafe_code)]
