//! Sharded, append-only feedback log.
//!
//! Writers call [`FeedbackLog::record`] concurrently; each rating lands in
//! the shard owning its rater and accumulates into that rater's
//! [`LocalTrust`] row. At an epoch boundary the [`crate::epoch`] loop calls
//! [`FeedbackLog::fold`], which assembles the rows into the next epoch's
//! CSR [`TrustMatrix`] without pausing ingest: each shard lock is held only
//! long enough to clone its rows, so writers on other shards never stall
//! and writers on the same shard stall only for the clone.
//!
//! Shards are striped by rater id (`shard = rater % shards`, local slot
//! `rater / shards`), so a hot sequential id range still spreads across
//! every shard. The log is append-only in the trust-semantics sense:
//! ratings only ever accumulate (negative feedback clamps at zero inside
//! [`LocalTrust::add_feedback`]); nothing is ever compacted or dropped.

use gossiptrust_core::id::NodeId;
use gossiptrust_core::local::LocalTrust;
use gossiptrust_core::matrix::TrustMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A single transaction rating: `rater` scored `target` with `score`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedbackEvent {
    /// The peer issuing the rating (the matrix row).
    pub rater: NodeId,
    /// The peer being rated (the matrix column).
    pub target: NodeId,
    /// Raw feedback amount added to `r_ij` (negative clamps at zero).
    pub score: f64,
}

/// One lock's worth of raters: the strided slice of `LocalTrust` rows whose
/// rater index is congruent to this shard's index modulo the shard count.
struct Shard {
    rows: Vec<LocalTrust>,
}

/// Sharded, append-only accumulation of local-trust rows for `n` peers.
pub struct FeedbackLog {
    n: usize,
    shards: Vec<Mutex<Shard>>,
    /// Total events ever recorded (monotonic; the `stats` verb reports it).
    events: AtomicU64,
    /// Events that had been recorded when the most recent [`FeedbackLog::fold`]
    /// started — the drained watermark of the ingest queue. `events -
    /// folded_events` is the unfolded backlog the admission gate bounds.
    folded_events: AtomicU64,
}

impl FeedbackLog {
    /// Create a log for `n` peers striped over `shards` locks.
    ///
    /// `shards` is clamped to `1..=n.max(1)` — more shards than peers would
    /// leave empty locks around for no benefit.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        let shard_rows = |s: usize| {
            // Peers s, s + shards, s + 2*shards, ... — ceil((n - s) / shards).
            if s < n {
                (n - s).div_ceil(shards)
            } else {
                0
            }
        };
        let shards = (0..shards)
            .map(|s| Mutex::new(Shard { rows: vec![LocalTrust::new(); shard_rows(s)] }))
            .collect();
        Self { n, shards, events: AtomicU64::new(0), folded_events: AtomicU64::new(0) }
    }

    /// Number of peers the log covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ingest shards (lock granularity).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total events recorded since creation.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Events recorded since the most recent fold started — the unfolded
    /// backlog the [`crate::service`] admission gate bounds. Conservative
    /// under concurrency: events racing a fold may count as pending even
    /// though the fold picked them up, which errs toward shedding early
    /// rather than buffering past the bound.
    pub fn pending_events(&self) -> u64 {
        self.events
            .load(Ordering::Relaxed)
            .saturating_sub(self.folded_events.load(Ordering::Relaxed))
    }

    /// Record one rating. Locks only the rater's shard.
    ///
    /// # Panics
    ///
    /// Panics when `rater` or `target` is out of range for this log — an
    /// out-of-range id is a caller bug, not a runtime condition (the TCP
    /// front-end validates ids before calling in).
    pub fn record(&self, event: FeedbackEvent) {
        let (rater, target) = (event.rater.index(), event.target.index());
        assert!(rater < self.n, "rater {rater} out of range for n = {}", self.n);
        assert!(target < self.n, "target {target} out of range for n = {}", self.n);
        let shards = self.shards.len();
        let mut shard = self.shards[rater % shards].lock().unwrap_or_else(|e| e.into_inner());
        shard.rows[rater / shards].add_feedback(event.target, event.score);
        drop(shard);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a batch of ratings from one rater, taking its shard lock once.
    pub fn record_batch(&self, rater: NodeId, ratings: &[(NodeId, f64)]) {
        let r = rater.index();
        assert!(r < self.n, "rater {r} out of range for n = {}", self.n);
        for &(target, _) in ratings {
            assert!(
                target.index() < self.n,
                "target {} out of range for n = {}",
                target.index(),
                self.n
            );
        }
        let shards = self.shards.len();
        let mut shard = self.shards[r % shards].lock().unwrap_or_else(|e| e.into_inner());
        for &(target, score) in ratings {
            shard.rows[r / shards].add_feedback(target, score);
        }
        drop(shard);
        self.events.fetch_add(ratings.len() as u64, Ordering::Relaxed);
    }

    /// Assemble the current rows into a normalized CSR trust matrix.
    ///
    /// Each shard lock is held only for the clone of its rows; the (row
    /// normalization + CSR build) runs on the clone, outside any lock.
    /// Peers that have issued no feedback become dangling rows, which
    /// [`TrustMatrix::from_rows`] completes to uniform (the standard
    /// stochastic-matrix completion).
    pub fn fold(&self) -> TrustMatrix {
        // Capture the watermark before cloning any shard: events recorded
        // while the clone sweep runs may or may not make this fold, so
        // they conservatively stay "pending" until the next one.
        let watermark = self.events.load(Ordering::Relaxed);
        let rows = self.raw_rows();
        self.folded_events.fetch_max(watermark, Ordering::Relaxed);
        TrustMatrix::from_rows(&rows)
    }

    /// [`FeedbackLog::fold`] under the signature `benchmark/src/twin.rs`
    /// calls; the argument sized a striped clone sweep that is gone (the
    /// stage is 0.1–0.5 % of an epoch). Delete with the benchmark refresh of
    /// ROADMAP item 1a.
    pub fn fold_parallel(&self, _threads: usize) -> TrustMatrix {
        self.fold()
    }

    /// Clone out the raw (unnormalized) local-trust rows, shard lock by
    /// shard lock. This is the audit surface the chaos soak uses to prove
    /// no acknowledged feedback was lost: every acknowledged `(rater,
    /// target, amount)` must be covered by the accumulated raw rows.
    pub fn raw_rows(&self) -> Vec<LocalTrust> {
        let shards = self.shards.len();
        let mut rows = vec![LocalTrust::new(); self.n];
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (slot, row) in guard.rows.iter().enumerate() {
                rows[s + slot * shards] = row.clone();
            }
        }
        rows
    }

    /// Seed the log from pre-existing rows (e.g. a generated workload), so
    /// the first epoch starts from a realistic matrix instead of uniform.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != n`.
    pub fn seed_rows(&self, rows: &[LocalTrust]) {
        assert_eq!(rows.len(), self.n, "seed_rows length must equal n");
        let shards = self.shards.len();
        let mut recorded = 0u64;
        for s in 0..shards {
            let mut guard = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
            for slot in 0..guard.rows.len() {
                let row = &rows[s + slot * shards];
                for (target, amount) in row.iter_raw() {
                    guard.rows[slot].add_feedback(target, amount);
                    recorded += 1;
                }
            }
        }
        self.events.fetch_add(recorded, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fold_roundtrip() {
        let log = FeedbackLog::new(8, 3);
        log.record(FeedbackEvent { rater: NodeId(0), target: NodeId(1), score: 2.0 });
        log.record(FeedbackEvent { rater: NodeId(0), target: NodeId(2), score: 2.0 });
        log.record(FeedbackEvent { rater: NodeId(7), target: NodeId(0), score: 1.0 });
        assert_eq!(log.events(), 3);
        let m = log.fold();
        assert_eq!(m.n(), 8);
        assert_eq!(m.entry(NodeId(0), NodeId(1)), 0.5);
        assert_eq!(m.entry(NodeId(0), NodeId(2)), 0.5);
        assert_eq!(m.entry(NodeId(7), NodeId(0)), 1.0);
        assert!(m.is_row_stochastic(1e-9));
    }

    #[test]
    fn striping_covers_every_rater_exactly_once() {
        for shards in 1..=5 {
            let log = FeedbackLog::new(5, shards);
            for i in 0..5 {
                log.record(FeedbackEvent {
                    rater: NodeId::from_index(i),
                    target: NodeId::from_index((i + 1) % 5),
                    score: 1.0,
                });
            }
            let m = log.fold();
            for i in 0..5 {
                assert_eq!(
                    m.entry(NodeId::from_index(i), NodeId::from_index((i + 1) % 5)),
                    1.0,
                    "shards = {shards}, rater = {i}"
                );
            }
        }
    }

    #[test]
    fn fold_is_cumulative_across_epochs() {
        let log = FeedbackLog::new(4, 2);
        log.record(FeedbackEvent { rater: NodeId(1), target: NodeId(2), score: 1.0 });
        let first = log.fold();
        assert_eq!(first.entry(NodeId(1), NodeId(2)), 1.0);
        // New feedback accumulates on top of the old — the log is append-only.
        log.record(FeedbackEvent { rater: NodeId(1), target: NodeId(3), score: 3.0 });
        let second = log.fold();
        assert_eq!(second.entry(NodeId(1), NodeId(2)), 0.25);
        assert_eq!(second.entry(NodeId(1), NodeId(3)), 0.75);
    }

    #[test]
    fn seed_rows_matches_equivalent_records() {
        let mut rows = vec![LocalTrust::new(); 6];
        rows[2].add_feedback(NodeId(4), 5.0);
        rows[5].add_feedback(NodeId(0), 1.0);
        rows[5].add_feedback(NodeId(1), 1.0);
        let seeded = FeedbackLog::new(6, 4);
        seeded.seed_rows(&rows);
        assert_eq!(seeded.events(), 3);

        let recorded = FeedbackLog::new(6, 4);
        recorded.record(FeedbackEvent { rater: NodeId(2), target: NodeId(4), score: 5.0 });
        recorded.record_batch(NodeId(5), &[(NodeId(0), 1.0), (NodeId(1), 1.0)]);
        assert_eq!(seeded.fold().to_dense(), recorded.fold().to_dense());
    }

    #[test]
    fn pending_events_track_the_fold_watermark() {
        let log = FeedbackLog::new(4, 2);
        assert_eq!(log.pending_events(), 0);
        log.record(FeedbackEvent { rater: NodeId(0), target: NodeId(1), score: 1.0 });
        log.record(FeedbackEvent { rater: NodeId(1), target: NodeId(2), score: 1.0 });
        assert_eq!(log.pending_events(), 2);
        log.fold();
        assert_eq!(log.pending_events(), 0, "a fold drains the backlog");
        log.record(FeedbackEvent { rater: NodeId(2), target: NodeId(3), score: 1.0 });
        assert_eq!(log.pending_events(), 1);
    }

    #[test]
    fn raw_rows_expose_accumulated_amounts() {
        let log = FeedbackLog::new(6, 4);
        log.record(FeedbackEvent { rater: NodeId(2), target: NodeId(4), score: 5.0 });
        log.record(FeedbackEvent { rater: NodeId(2), target: NodeId(4), score: 2.5 });
        let rows = log.raw_rows();
        assert!((rows[2].raw(NodeId(4)) - 7.5).abs() < 1e-12);
        assert_eq!(rows[3].out_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rater_panics() {
        let log = FeedbackLog::new(3, 2);
        log.record(FeedbackEvent { rater: NodeId(3), target: NodeId(0), score: 1.0 });
    }

    #[test]
    fn fold_parallel_is_bit_identical_to_fold() {
        for (n, shards) in [(1, 1), (7, 3), (64, 8), (100, 16), (300, 16)] {
            let log = FeedbackLog::new(n, shards);
            for i in 0..n * 3 {
                log.record(FeedbackEvent {
                    rater: NodeId::from_index(i % n),
                    target: NodeId::from_index((i * 7 + 1) % n),
                    score: (i % 5) as f64 + 0.25,
                });
            }
            let sequential = log.fold().to_dense();
            for threads in [1, 2, 3, 8, 32] {
                let parallel = log.fold_parallel(threads).to_dense();
                let same = sequential
                    .iter()
                    .flatten()
                    .zip(parallel.iter().flatten())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n = {n}, shards = {shards}, threads = {threads}");
            }
        }
    }

    #[test]
    fn fold_parallel_advances_the_watermark() {
        let log = FeedbackLog::new(8, 4);
        log.record(FeedbackEvent { rater: NodeId(0), target: NodeId(1), score: 1.0 });
        assert_eq!(log.pending_events(), 1);
        log.fold_parallel(4);
        assert_eq!(log.pending_events(), 0, "a parallel fold drains the backlog");
    }

    #[test]
    fn concurrent_ingest_loses_nothing() {
        use std::sync::Arc;
        let log = Arc::new(FeedbackLog::new(16, 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.record(FeedbackEvent {
                            rater: NodeId::from_index((t * 4 + i) % 16),
                            target: NodeId::from_index((i + 1) % 16),
                            score: 1.0,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("ingest thread panicked");
        }
        assert_eq!(log.events(), 400);
        let m = log.fold();
        assert!(m.is_row_stochastic(1e-9));
    }
}
