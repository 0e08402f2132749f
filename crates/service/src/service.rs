//! The in-process service front-end: lifecycle + query/ingest handle.
//!
//! [`ReputationService::start`] wires the three shared pieces together
//! (feedback log, snapshot cell, observability bundle), spawns the
//! epoch-loop thread, and hands out cloneable [`ServiceHandle`]s. A handle
//! is `Send + Sync + Clone` and cheap to pass to every ingest and query
//! thread (a few `Arc`s and an `mpsc` sender).
//!
//! Queries pin one published snapshot for their whole execution: the
//! version returned inside each view is the version every field of that
//! view came from, which is what makes torn reads impossible by
//! construction.

use crate::chaos::{ChaosConfig, ChaosInjector, ChaosReport};
use crate::epoch::{EpochCommand, EpochManager, EpochOutcome};
use crate::log::{FeedbackEvent, FeedbackLog};
use crate::obs::{ServiceObs, StatsReport};
use crate::snapshot::{ScoreSnapshot, SnapshotCell};
use crate::wal::{GroupCommitObs, GroupCommitWal, Wal};
use gossiptrust_core::id::NodeId;
use gossiptrust_core::params::Params;
use gossiptrust_obs::Stopwatch;
use gossiptrust_storage::ranks::RankStorageConfig;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// GossipTrust parameters; `params.n` fixes the peer population.
    pub params: Params,
    /// Ingest shard count of the feedback log.
    pub shards: usize,
    /// Bloom rank-bucket configuration for published snapshots.
    pub rank_config: RankStorageConfig,
    /// Base RNG seed; epoch `e` runs with `EpochManager::epoch_seed(base, e)`.
    pub base_seed: u64,
    /// Period of the automatic epoch loop; `None` = epochs run only on
    /// [`ServiceHandle::run_epoch_now`] (the mode tests use).
    pub epoch_interval: Option<Duration>,
    /// Epoch numbers whose aggregation is deliberately crippled (failure
    /// injection for degradation tests and chaos drills).
    pub fail_epochs: Vec<u64>,
    /// Bound on the unfolded ingest backlog (`GT_INGEST_QUEUE`); further
    /// ingest sheds with the retriable [`ServeError::Overloaded`] until an
    /// epoch folds the backlog down.
    pub ingest_queue: usize,
    /// Directory of the crash-recovery write-ahead log (`GT_WAL_DIR`);
    /// `None` = no WAL, feedback lives only in memory.
    pub wal_dir: Option<PathBuf>,
    /// Abandon an epoch whose fold + aggregate overruns this budget
    /// (`GT_EPOCH_DEADLINE_MS`); `None` = no deadline.
    pub epoch_deadline: Option<Duration>,
    /// Seeded fault injection for the epoch path (`GT_CHAOS_SEED` arms the
    /// soak mix in the serve binary); `None` = no injected faults.
    pub chaos: Option<ChaosConfig>,
    /// Capacity of the observability trace ring, in events
    /// (`GT_OBS_EVENTS`).
    pub obs_events: usize,
}

impl ServiceConfig {
    /// Defaults for an `n`-peer network: Table 2 parameters, 16 ingest
    /// shards, default rank buckets, manual epochs.
    pub fn new(n: usize) -> Self {
        ServiceConfig {
            params: Params::for_network(n),
            shards: 16,
            rank_config: RankStorageConfig::default(),
            base_seed: 42,
            epoch_interval: None,
            fail_epochs: Vec::new(),
            ingest_queue: 65_536,
            wal_dir: None,
            epoch_deadline: None,
            chaos: None,
            obs_events: 4096,
        }
    }

    /// Read the epoch period from `GT_EPOCH_MS` (strictly parsed — a
    /// malformed value panics), falling back to `default_ms`.
    pub fn with_epoch_interval_from_env(mut self, default_ms: u64) -> Self {
        let ms = gossiptrust_core::params::strict_positive_env("GT_EPOCH_MS").unwrap_or(default_ms);
        self.epoch_interval = Some(Duration::from_millis(ms));
        self
    }

    /// Builder-style setter for the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder-style setter for the ingest-backlog bound.
    pub fn with_ingest_queue(mut self, capacity: usize) -> Self {
        self.ingest_queue = capacity;
        self
    }

    /// Builder-style setter for the WAL directory (enables crash recovery).
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Builder-style setter for the epoch deadline.
    pub fn with_epoch_deadline(mut self, deadline: Duration) -> Self {
        self.epoch_deadline = Some(deadline);
        self
    }

    /// Builder-style setter for epoch-path fault injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Builder-style setter for the trace-ring capacity.
    pub fn with_obs_events(mut self, events: usize) -> Self {
        self.obs_events = events;
        self
    }
}

/// Errors surfaced by the query/ingest API (and mapped onto the wire by
/// the TCP front-end).
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A peer id at or beyond the population size.
    UnknownPeer {
        /// The offending id.
        peer: u32,
        /// The population size.
        n: usize,
    },
    /// The epoch loop has shut down.
    Stopped,
    /// A malformed request (TCP front-end parse errors land here).
    BadRequest(String),
    /// The unfolded ingest backlog is at capacity; the request was shed.
    /// Retriable — the next epoch fold drains the backlog.
    Overloaded {
        /// Unfolded events pending at shed time.
        pending: u64,
        /// The configured backlog bound (`GT_INGEST_QUEUE`).
        capacity: u64,
    },
    /// The write-ahead log could not persist the feedback; the event was
    /// NOT applied (the durability guarantee is applied ⊇ acknowledged).
    Wal(String),
}

impl ServeError {
    /// Whether a client should retry this error after backing off.
    pub fn retriable(&self) -> bool {
        matches!(self, ServeError::Overloaded { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownPeer { peer, n } => {
                write!(f, "unknown peer {peer} (population is 0..{n})")
            }
            ServeError::Stopped => write!(f, "service is shut down"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded { pending, capacity } => {
                write!(f, "overloaded: {pending} events pending (capacity {capacity}), retry later")
            }
            ServeError::Wal(msg) => write!(f, "write-ahead log failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One peer's score, pinned to the snapshot it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreView {
    /// The queried peer.
    pub peer: NodeId,
    /// Its global reputation score in the pinned snapshot.
    pub score: f64,
    /// Version of the snapshot answering this query.
    pub version: u64,
    /// Epoch that produced the snapshot.
    pub epoch: u64,
}

/// One peer's rank, exact and Bloom-approximate, from one snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankView {
    /// The queried peer.
    pub peer: NodeId,
    /// Exact 0-based rank (0 = most reputable).
    pub exact_rank: u32,
    /// Approximate rank level from the Bloom buckets (false positives can
    /// only promote, per the paper's storage scheme).
    pub bloom_level: usize,
    /// Number of Bloom rank levels in the snapshot.
    pub levels: usize,
    /// Version of the snapshot answering this query.
    pub version: u64,
}

/// The top-`k` peers by score, from one snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKView {
    /// `(peer, score)` pairs, descending by score (ties by ascending id).
    pub peers: Vec<(NodeId, f64)>,
    /// Version of the snapshot answering this query.
    pub version: u64,
}

/// Cloneable, thread-safe handle for ingest and queries.
#[derive(Clone)]
pub struct ServiceHandle {
    log: Arc<FeedbackLog>,
    cell: Arc<SnapshotCell>,
    commands: Sender<EpochCommand>,
    /// Crash-recovery WAL behind one mutex; every ingest commits here on
    /// its own thread (one `write_all` + `flush` under the lock) *before*
    /// applying to the in-memory log, so a `kill -9` can lose
    /// unacknowledged events but never acknowledged ones (at-least-once on
    /// replay).
    wal: Option<Arc<GroupCommitWal>>,
    /// Admission-gate bound on `log.pending_events()`.
    ingest_capacity: u64,
    /// Shared observability bundle — the one registry the epoch loop, the
    /// gossip engine, the front-ends and any chaos injector record into.
    obs: Arc<ServiceObs>,
}

impl ServiceHandle {
    /// Peer population size.
    pub fn n(&self) -> usize {
        self.log.n()
    }

    fn check_peer(&self, peer: NodeId) -> Result<(), ServeError> {
        if peer.index() < self.n() {
            Ok(())
        } else {
            Err(ServeError::UnknownPeer { peer: peer.0, n: self.n() })
        }
    }

    /// The bounded-queue admission gate: shed (retriably) when the
    /// unfolded backlog is already at capacity. Load-shedding at admission
    /// keeps memory bounded and converts overload into explicit, visible
    /// backpressure instead of unbounded buffering.
    fn admit(&self) -> Result<(), ServeError> {
        let pending = self.log.pending_events();
        if pending >= self.ingest_capacity {
            self.obs.requests_shed.inc();
            return Err(ServeError::Overloaded { pending, capacity: self.ingest_capacity });
        }
        Ok(())
    }

    /// Ingest one rating into the next epoch's matrix.
    ///
    /// Sheds with [`ServeError::Overloaded`] when the unfolded backlog is
    /// at capacity. With a WAL configured, the event is durable before the
    /// `Ok` acknowledgment.
    pub fn record(&self, rater: NodeId, target: NodeId, score: f64) -> Result<(), ServeError> {
        let sw = Stopwatch::start();
        self.check_peer(rater)?;
        self.check_peer(target)?;
        self.admit()?;
        let event = FeedbackEvent { rater, target, score };
        if let Some(wal) = &self.wal {
            let append = Stopwatch::start();
            wal.append(&event).map_err(ServeError::Wal)?;
            self.obs.wal_append_ns.record(append.elapsed_ns());
            self.obs.wal_appended_records.inc();
        }
        self.log.record(event);
        self.obs.ingest_ns.record(sw.elapsed_ns());
        Ok(())
    }

    /// Ingest a batch of ratings from one rater (one shard lock, one WAL
    /// write). Admission is checked once for the whole batch.
    pub fn record_batch(&self, rater: NodeId, ratings: &[(NodeId, f64)]) -> Result<(), ServeError> {
        let sw = Stopwatch::start();
        self.check_peer(rater)?;
        for &(target, _) in ratings {
            self.check_peer(target)?;
        }
        self.admit()?;
        if let Some(wal) = &self.wal {
            let append = Stopwatch::start();
            wal.append_batch(rater, ratings).map_err(ServeError::Wal)?;
            self.obs.wal_append_ns.record(append.elapsed_ns());
            self.obs.wal_appended_records.add(ratings.len() as u64);
        }
        self.log.record_batch(rater, ratings);
        self.obs.ingest_ns.record(sw.elapsed_ns());
        Ok(())
    }

    /// Pin the latest published snapshot (for multi-call consistency).
    pub fn snapshot(&self) -> Arc<ScoreSnapshot> {
        self.cell.load()
    }

    /// Look up one peer's score in the latest snapshot.
    pub fn get_score(&self, peer: NodeId) -> Result<ScoreView, ServeError> {
        let sw = Stopwatch::start();
        self.check_peer(peer)?;
        let snap = self.cell.load();
        self.obs.queries_served.inc();
        let view = ScoreView {
            peer,
            score: snap.vector.score(peer),
            version: snap.version,
            epoch: snap.epoch,
        };
        self.obs.query_ns.record(sw.elapsed_ns());
        Ok(view)
    }

    /// The top-`k` peers by score in the latest snapshot (`k` is clamped
    /// to the population size).
    pub fn top_k(&self, k: usize) -> TopKView {
        let sw = Stopwatch::start();
        let snap = self.cell.load();
        self.obs.queries_served.inc();
        let peers = snap
            .ranking
            .iter()
            .take(k)
            .map(|&id| (id, snap.vector.score(id)))
            .collect();
        let view = TopKView { peers, version: snap.version };
        self.obs.query_ns.record(sw.elapsed_ns());
        view
    }

    /// One peer's exact rank and Bloom rank level in the latest snapshot.
    pub fn rank_of(&self, peer: NodeId) -> Result<RankView, ServeError> {
        let sw = Stopwatch::start();
        self.check_peer(peer)?;
        let snap = self.cell.load();
        self.obs.queries_served.inc();
        let view = RankView {
            peer,
            exact_rank: snap.exact_rank(peer),
            bloom_level: snap.bloom_rank_level(peer),
            levels: snap.ranks.levels(),
            version: snap.version,
        };
        self.obs.query_ns.record(sw.elapsed_ns());
        Ok(view)
    }

    /// Current service counters.
    pub fn stats_report(&self) -> StatsReport {
        self.obs.stats_report()
    }

    /// Total feedback events ingested so far.
    pub fn events_ingested(&self) -> u64 {
        self.log.events()
    }

    /// Unfolded ingest backlog (what the admission gate bounds).
    pub fn pending_events(&self) -> u64 {
        self.log.pending_events()
    }

    /// Clone out the raw accumulated local-trust rows — the audit surface
    /// the chaos soak uses to prove no acknowledged feedback was lost.
    pub fn raw_rows(&self) -> Vec<gossiptrust_core::local::LocalTrust> {
        self.log.raw_rows()
    }

    /// The shared observability bundle (registry + tracer + handles).
    pub fn obs(&self) -> Arc<ServiceObs> {
        Arc::clone(&self.obs)
    }

    /// The full Prometheus text exposition of this service right now.
    pub fn metrics_text(&self) -> String {
        self.obs.registry.render()
    }

    /// Run one epoch immediately and wait for its outcome.
    pub fn run_epoch_now(&self) -> Result<EpochOutcome, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.commands
            .send(EpochCommand::RunNow(tx))
            .map_err(|_| ServeError::Stopped)?;
        rx.recv().map_err(|_| ServeError::Stopped)
    }
}

/// The running service: owns the epoch-loop thread.
///
/// Dropping (or calling [`ReputationService::shutdown`]) stops the loop;
/// outstanding [`ServiceHandle`]s keep answering queries against the last
/// published snapshot but can no longer trigger epochs.
pub struct ReputationService {
    handle: ServiceHandle,
    commands: Sender<EpochCommand>,
    worker: Option<JoinHandle<()>>,
    chaos: Option<Arc<ChaosInjector>>,
}

impl ReputationService {
    /// Validate `config`, replay the WAL (if configured), publish the
    /// bootstrap snapshot, and spawn the epoch loop.
    ///
    /// # Panics
    ///
    /// Panics when `config.params` fails validation, when the WAL
    /// directory cannot be opened or belongs to a different population, or
    /// when the chaos config is over-unity — a service with out-of-domain
    /// configuration should not come up at all.
    pub fn start(config: ServiceConfig) -> Self {
        config.params.validate().expect("invalid service parameters");
        let n = config.params.n;
        let log = Arc::new(FeedbackLog::new(n, config.shards));
        let cell = Arc::new(SnapshotCell::new(ScoreSnapshot::bootstrap(
            n,
            config.base_seed,
            config.rank_config,
        )));
        let obs = Arc::new(ServiceObs::new(config.obs_events));
        let wal = config.wal_dir.as_ref().map(|dir| {
            let (wal, replay) = Wal::open(dir, n)
                .unwrap_or_else(|e| panic!("cannot open WAL in {}: {e}", dir.display()));
            // Replay straight into the log (not through the handle): the
            // records are already durable, and replay bypasses both the
            // admission gate and re-appending.
            for event in &replay.events {
                log.record(*event);
            }
            obs.wal_replayed_records.add(replay.events.len() as u64);
            // From here on the recovered file sits behind the ingest lock.
            let commit_obs = GroupCommitObs {
                group_records: Some(Arc::clone(&obs.wal_group_records)),
                commit_ns: Some(Arc::clone(&obs.wal_commit_ns)),
            };
            Arc::new(GroupCommitWal::new(wal, commit_obs))
        });
        let chaos = config.chaos.map(|c| Arc::new(ChaosInjector::new(c, &obs.registry)));
        let mut manager = EpochManager::new(
            Arc::clone(&log),
            Arc::clone(&cell),
            Arc::clone(&obs),
            config.params,
            config.rank_config,
            config.base_seed,
            config.fail_epochs,
        );
        if let Some(deadline) = config.epoch_deadline {
            manager = manager.with_deadline(deadline);
        }
        if let Some(injector) = &chaos {
            manager = manager.with_chaos(Arc::clone(injector));
        }
        let (tx, rx) = mpsc::channel();
        let interval = config.epoch_interval;
        let worker = std::thread::Builder::new()
            .name("gt-epoch".into())
            .spawn(move || manager.run_loop(interval, rx))
            .expect("spawn epoch loop");
        let handle = ServiceHandle {
            log,
            cell,
            commands: tx.clone(),
            wal,
            ingest_capacity: config.ingest_queue.max(1) as u64,
            obs,
        };
        ReputationService { handle, commands: tx, worker: Some(worker), chaos }
    }

    /// Counters of the faults the epoch-path injector has dealt so far
    /// (`None` when the service runs without chaos).
    pub fn chaos_report(&self) -> Option<ChaosReport> {
        self.chaos.as_ref().map(|c| c.report())
    }

    /// A cloneable ingest/query handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Seed the feedback log from pre-existing local-trust rows (e.g. a
    /// generated workload) before the first epoch.
    pub fn seed_rows(&self, rows: &[gossiptrust_core::local::LocalTrust]) {
        self.handle.log.seed_rows(rows);
    }

    /// Stop the epoch loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = self.commands.send(EpochCommand::Shutdown);
            let _ = worker.join();
        }
    }
}

impl Drop for ReputationService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_service(n: usize) -> ReputationService {
        let service = ReputationService::start(ServiceConfig::new(n));
        let h = service.handle();
        for i in 0..n {
            h.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0 + (i % 2) as f64)
                .expect("in range");
        }
        service
    }

    #[test]
    fn bootstrap_serves_uniform_before_first_epoch() {
        let service = ReputationService::start(ServiceConfig::new(10));
        let h = service.handle();
        let view = h.get_score(NodeId(3)).expect("in range");
        assert_eq!(view.version, 0);
        assert!((view.score - 0.1).abs() < 1e-12);
        service.shutdown();
    }

    #[test]
    fn epoch_now_publishes_and_queries_see_it() {
        let service = ring_service(20);
        let h = service.handle();
        let outcome = h.run_epoch_now().expect("loop alive");
        assert!(outcome.published);
        let view = h.get_score(NodeId(0)).expect("in range");
        assert_eq!(view.version, 1);
        let top = h.top_k(5);
        assert_eq!(top.peers.len(), 5);
        assert_eq!(top.version, 1);
        let rank = h.rank_of(top.peers[0].0).expect("in range");
        assert_eq!(rank.exact_rank, 0);
        assert_eq!(h.stats_report().queries_served, 3);
        service.shutdown();
    }

    #[test]
    fn unknown_peer_is_an_error_not_a_panic() {
        let service = ReputationService::start(ServiceConfig::new(5));
        let h = service.handle();
        assert_eq!(h.get_score(NodeId(5)), Err(ServeError::UnknownPeer { peer: 5, n: 5 }));
        assert!(h.record(NodeId(0), NodeId(9), 1.0).is_err());
        service.shutdown();
    }

    #[test]
    fn handle_reports_stopped_after_shutdown() {
        let service = ReputationService::start(ServiceConfig::new(5));
        let h = service.handle();
        service.shutdown();
        assert_eq!(h.run_epoch_now(), Err(ServeError::Stopped));
        // Queries still answer from the last snapshot.
        assert!(h.get_score(NodeId(1)).is_ok());
    }

    #[test]
    fn top_k_clamps_to_population() {
        let service = ring_service(6);
        let h = service.handle();
        h.run_epoch_now().expect("loop alive");
        assert_eq!(h.top_k(100).peers.len(), 6);
        service.shutdown();
    }

    #[test]
    fn admission_gate_sheds_retriably_and_recovers_after_a_fold() {
        let service = ReputationService::start(ServiceConfig::new(8).with_ingest_queue(4));
        let h = service.handle();
        for i in 0..4 {
            h.record(NodeId::from_index(i), NodeId::from_index((i + 1) % 8), 1.0)
                .expect("under capacity");
        }
        let err = h.record(NodeId(0), NodeId(1), 1.0).expect_err("backlog at capacity");
        assert_eq!(err, ServeError::Overloaded { pending: 4, capacity: 4 });
        assert!(err.retriable(), "overload must be advertised as retriable");
        assert!(h.record_batch(NodeId(0), &[(NodeId(1), 1.0)]).is_err());
        assert_eq!(h.stats_report().requests_shed, 2);
        // An epoch folds the backlog down; ingest admits again.
        h.run_epoch_now().expect("loop alive");
        assert_eq!(h.pending_events(), 0);
        assert!(h.record(NodeId(0), NodeId(1), 1.0).is_ok());
        service.shutdown();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gt-svc-test-{}-{tag}-{serial}", std::process::id()))
    }

    /// Flatten the raw rows into comparable `(rater, target, amount)`
    /// triples, preserving per-row insertion order.
    fn flat_rows(h: &ServiceHandle) -> Vec<(usize, Vec<(NodeId, f64)>)> {
        h.raw_rows()
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.iter_raw().collect()))
            .collect()
    }

    /// A WAL I/O failure must surface as a typed `ServeError::Wal` on the
    /// ingesting connection, with no ack and no in-memory application
    /// (applied ⊇ acknowledged holds even when the disk dies).
    #[test]
    fn wal_write_failure_is_typed_and_applies_nothing() {
        let dir = scratch_dir("walfail");
        let (wal, _) = Wal::open(&dir, 6).expect("open");
        let path = wal.path().to_path_buf();
        drop(wal);
        // A read-only fd: every commit fails.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .open(&path)
            .expect("reopen read-only");
        let header_len = file.metadata().expect("stat").len();
        let doomed =
            GroupCommitWal::new(Wal::at(file, path, header_len), GroupCommitObs::default());
        let (commands, _rx) = mpsc::channel();
        let handle = ServiceHandle {
            log: Arc::new(FeedbackLog::new(6, 2)),
            cell: Arc::new(SnapshotCell::new(ScoreSnapshot::bootstrap(
                6,
                1,
                RankStorageConfig::default(),
            ))),
            commands,
            wal: Some(Arc::new(doomed)),
            ingest_capacity: 100,
            obs: Arc::new(ServiceObs::new(64)),
        };
        let err = handle
            .record(NodeId(0), NodeId(1), 1.0)
            .expect_err("commit must fail");
        assert!(matches!(err, ServeError::Wal(_)), "failure must be typed: {err:?}");
        assert!(!err.retriable(), "a WAL failure is not a backpressure signal");
        let err = handle
            .record_batch(NodeId(2), &[(NodeId(3), 1.0), (NodeId(4), 2.0)])
            .expect_err("batch commit must fail");
        assert!(matches!(err, ServeError::Wal(_)));
        assert_eq!(handle.events_ingested(), 0, "failed commits must not apply to the log");
        assert!(
            handle.raw_rows().iter().all(|row| row.iter_raw().next().is_none()),
            "no row may have gained an entry"
        );
        assert_eq!(handle.stats_report().wal_appended_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_restart_replays_acknowledged_feedback_exactly() {
        let dir = scratch_dir("restart");
        let before = {
            let service = ReputationService::start(ServiceConfig::new(6).with_wal_dir(&dir));
            let h = service.handle();
            h.record(NodeId(0), NodeId(1), 2.5).expect("in range");
            h.record(NodeId(0), NodeId(1), 1.5).expect("in range");
            h.record_batch(NodeId(4), &[(NodeId(2), 1.0), (NodeId(5), 3.0)])
                .expect("in range");
            assert_eq!(h.stats_report().wal_appended_records, 4);
            let rows = flat_rows(&h);
            service.shutdown();
            rows
        };
        // "Restart": a fresh service on the same WAL dir replays every
        // acknowledged event into an identical accumulated state.
        let service = ReputationService::start(ServiceConfig::new(6).with_wal_dir(&dir));
        let h = service.handle();
        assert_eq!(h.stats_report().wal_replayed_records, 4);
        assert_eq!(h.events_ingested(), 4);
        assert_eq!(flat_rows(&h), before);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
