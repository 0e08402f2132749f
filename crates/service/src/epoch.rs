//! The epoch loop: fold the feedback log, re-aggregate, publish.
//!
//! One [`EpochManager`] owns the persistent [`VectorGossipEngine`] (and its
//! worker pool) for the lifetime of the service and drives it through
//! [`GossipTrustAggregator::aggregate_with_engine`] once per epoch — each
//! epoch reuses the warmed-up pool instead of spawning threads, and each
//! epoch's gossip activity is recovered from the engine's monotonic
//! counters with [`GossipStats::diff`].
//!
//! Epochs are deterministic: epoch `e` always aggregates with the RNG seed
//! [`EpochManager::epoch_seed`]`(base_seed, e)` and warm-starts from the
//! previously published vector, so any published snapshot can be re-derived
//! bit-for-bit offline from its recorded `(matrix, start, seed)` triple
//! (the engine's parallel step is bit-identical to sequential for any
//! thread count, so even the thread knob does not perturb this).
//!
//! ## Graceful degradation
//!
//! An epoch publishes only when the aggregation converged (outer loop and
//! every gossip cycle) and produced finite scores. Anything else leaves the
//! previous snapshot serving and bumps the degradation counter — a
//! reputation service should keep answering with slightly stale, known-good
//! scores rather than serve a half-converged vector.

use crate::chaos::ChaosInjector;
use crate::log::FeedbackLog;
use crate::obs::ServiceObs;
use crate::snapshot::{ScoreSnapshot, SnapshotCell};
use gossiptrust_core::params::Params;
use gossiptrust_gossip::cycle::GossipTrustAggregator;
use gossiptrust_gossip::engine::{EngineConfig, VectorGossipEngine};
use gossiptrust_gossip::stats::GossipStats;
use gossiptrust_gossip::{TargetChooser, UniformChooser};
use gossiptrust_obs::Stopwatch;
use gossiptrust_storage::ranks::RankStorageConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Fibonacci-hash multiplier used to derive per-epoch RNG seeds.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// What one epoch did, as reported to callers of `run_epoch_now`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochOutcome {
    /// 1-based epoch number.
    pub epoch: u64,
    /// Whether a new snapshot was published (false = degraded).
    pub published: bool,
    /// The snapshot version serving *after* this epoch (unchanged when
    /// degraded).
    pub live_version: u64,
    /// Power-iteration cycles the aggregation ran.
    pub cycles: usize,
    /// Whether the outer aggregation loop converged.
    pub converged: bool,
    /// Gossip activity of exactly this epoch (a panicked one reports what
    /// the engine had counted when the body unwound).
    pub gossip: GossipStats,
    /// Wall-clock milliseconds (fold + aggregate + snapshot build).
    pub wall_ms: f64,
    /// Whether the epoch body panicked and was contained by the watchdog
    /// (engine rebuilt, previous snapshot kept serving).
    pub panicked: bool,
    /// Whether the epoch completed but blew its deadline and was abandoned
    /// (result discarded, previous snapshot kept serving).
    pub overran: bool,
}

/// Control messages for the epoch loop thread.
pub enum EpochCommand {
    /// Run one epoch immediately and send its outcome back.
    RunNow(Sender<EpochOutcome>),
    /// Stop the loop (the thread exits after the current epoch, if any).
    Shutdown,
}

/// Drives epochs over a [`FeedbackLog`], publishing into a [`SnapshotCell`].
pub struct EpochManager {
    log: Arc<FeedbackLog>,
    cell: Arc<SnapshotCell>,
    aggregator: GossipTrustAggregator,
    engine: VectorGossipEngine,
    rank_config: RankStorageConfig,
    base_seed: u64,
    epoch: u64,
    version: u64,
    /// Epoch numbers whose aggregation is deliberately crippled so it
    /// cannot converge — the failure-injection hook the degradation tests
    /// (and chaos drills) use.
    fail_epochs: Vec<u64>,
    /// Abandon epochs that overrun this wall-clock budget (`None` = never).
    deadline: Option<Duration>,
    /// Seeded epoch-path fault injector (`None` = no injected faults).
    chaos: Option<Arc<ChaosInjector>>,
    /// Observability bundle: the epoch counters, one span per epoch (fold →
    /// aggregate → publish children) and the per-phase histograms.
    obs: Arc<ServiceObs>,
}

impl EpochManager {
    /// Build a manager for the `log`/`cell`/`obs` triple.
    ///
    /// The persistent engine (and its worker pool, sized per
    /// `params.resolved_threads()`) is created here, with its step-timing
    /// hook in `obs`'s registry, and reused for every healthy epoch.
    pub fn new(
        log: Arc<FeedbackLog>,
        cell: Arc<SnapshotCell>,
        obs: Arc<ServiceObs>,
        params: Params,
        rank_config: RankStorageConfig,
        base_seed: u64,
        fail_epochs: Vec<u64>,
    ) -> Self {
        let n = log.n();
        assert_eq!(params.n, n, "params.n must match the feedback log");
        let engine_config = EngineConfig::from_params(&params, n);
        let mut engine = VectorGossipEngine::new(n, engine_config.clone());
        engine.set_obs(Some(obs.engine.clone()));
        let aggregator = GossipTrustAggregator::new(params).with_engine_config(engine_config);
        // Versions continue from whatever snapshot is already live (the
        // bootstrap snapshot at service start).
        let version = cell.load().version;
        EpochManager {
            log,
            cell,
            aggregator,
            engine,
            rank_config,
            base_seed,
            epoch: 0,
            version,
            fail_epochs,
            deadline: None,
            chaos: None,
            obs,
        }
    }

    /// Builder-style setter: abandon epochs overrunning `deadline`.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style setter: inject epoch-path faults from `chaos`.
    pub fn with_chaos(mut self, chaos: Arc<ChaosInjector>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The deterministic RNG seed of epoch `epoch` under `base_seed`.
    pub fn epoch_seed(base_seed: u64, epoch: u64) -> u64 {
        base_seed ^ epoch.wrapping_mul(SEED_MIX)
    }

    /// Run exactly one epoch: fold → aggregate → publish (or degrade).
    ///
    /// The whole fold + aggregate body runs under the watchdog: a panic is
    /// contained (`catch_unwind`), counted, and answered by rebuilding the
    /// engine; a completed body that overran the deadline is abandoned.
    /// Either way the previous snapshot keeps serving — queries never
    /// observe a missing or half-built snapshot.
    pub fn run_epoch(&mut self) -> EpochOutcome {
        self.run_epoch_with(&UniformChooser)
    }

    /// [`run_epoch`](Self::run_epoch) with the gossip target chooser left
    /// open, so a test can make the aggregation itself fail.
    fn run_epoch_with<C: TargetChooser>(&mut self, chooser: &C) -> EpochOutcome {
        self.epoch += 1;
        let epoch = self.epoch;
        self.obs.epochs_attempted.inc();
        let t0 = Stopwatch::start();
        // The epoch span: children (fold/aggregate/publish) open inside the
        // watchdog body; an injected panic unwinds them cleanly (the
        // torn-span guard stands down while panicking).
        let span = self.obs.tracer.span("epoch");
        let seed = Self::epoch_seed(self.base_seed, epoch);
        let fault = self.chaos.as_ref().and_then(|c| c.epoch_fault());
        let crippled = self.fail_epochs.contains(&epoch);
        // Read outside the watchdog body: however the body ends — publish,
        // degrade, overrun, unwind — the engine's counts since here are
        // this epoch's gossip burn.
        let before = self.engine.stats();

        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(fault) = fault {
                // Injected panic or overrun — materialized in `chaos`, the
                // one sanctioned fault site on the serving path.
                fault.materialize();
            }

            let fold_span = span.child("fold");
            let matrix = Arc::new(self.log.fold());
            let start = self.cell.load().vector.clone();
            self.obs.epoch_fold_ns.record(fold_span.elapsed_ns());
            drop(fold_span);
            let mut rng = StdRng::seed_from_u64(seed);

            let aggregate_span = span.child("aggregate");
            let report = if crippled {
                // Injected failure: a throwaway aggregator whose gossip budget
                // (2 steps) is below the engine's own min_steps floor, so no
                // cycle can ever report convergence. The persistent engine and
                // its counters are untouched.
                let crippled_params = Params { max_cycles: 1, ..self.aggregator.params().clone() };
                let crippled_config =
                    EngineConfig { max_steps: 2, threads: 1, ..self.engine.config().clone() };
                GossipTrustAggregator::new(crippled_params)
                    .with_engine_config(crippled_config)
                    .aggregate_with(&matrix, &start, chooser, &mut rng)
            } else {
                self.aggregator.aggregate_with_engine(
                    &mut self.engine,
                    &matrix,
                    &start,
                    chooser,
                    &mut rng,
                )
            };
            self.obs.epoch_aggregate_ns.record(aggregate_span.elapsed_ns());
            drop(aggregate_span);
            (matrix, start, report)
        }));

        let wall_ms = t0.elapsed_ms_f64();
        self.obs.epoch_total_ns.record(t0.elapsed_ns());
        self.obs.last_epoch_wall_us.set((wall_ms * 1_000.0) as i64);
        // The one writer of the gossip totals, ahead of every arm below
        // (and of the engine rebuild): the work was burned whether or not
        // its result is published.
        let delta = match &body {
            // The throw-away engine is gone; its report holds its counts.
            Ok((_, _, report)) if crippled => report.total_stats(),
            _ => self.engine.stats().diff(&before),
        };
        self.obs.absorb_gossip(&delta);
        // What an epoch that publishes nothing reports; each outcome class
        // below overrides only what it adds.
        let kept = EpochOutcome {
            epoch,
            published: false,
            live_version: self.version,
            cycles: 0,
            converged: false,
            gossip: delta,
            wall_ms,
            panicked: false,
            overran: false,
        };
        let (matrix, start, report) = match body {
            Ok(parts) => parts,
            Err(_) => {
                // The panic may have left the worker pool or vector buffers
                // half-stepped; a fresh engine is the only state we can
                // trust — the half-stepped state must not leak into later
                // epochs. The previous snapshot keeps serving.
                self.engine = VectorGossipEngine::new(self.log.n(), self.engine.config().clone());
                self.engine.set_obs(Some(self.obs.engine.clone()));
                self.obs.epochs_panicked.inc();
                return EpochOutcome { panicked: true, ..kept };
            }
        };
        let ran = EpochOutcome { cycles: report.cycles, converged: report.converged, ..kept };

        if self.deadline.is_some_and(|d| t0.elapsed() > d) {
            // The result arrived too late to be worth publishing: by now a
            // fresher fold exists, and a service that blocks its epoch loop
            // on stragglers falls permanently behind. Discard, keep serving
            // the previous snapshot.
            self.obs.epochs_overrun.inc();
            return EpochOutcome { overran: true, ..ran };
        }

        let healthy = report.converged
            && report.per_cycle.iter().all(|c| c.gossip_converged)
            && report.vector.values().iter().all(|v| v.is_finite());

        if healthy {
            #[cfg(feature = "invariants")]
            gossiptrust_core::invariants::check_row_stochastic(&matrix, "EpochManager::run_epoch");
            let publish_span = span.child("publish");
            self.version += 1;
            self.cell.publish(ScoreSnapshot::from_vector(
                self.version,
                epoch,
                seed,
                start,
                Some(matrix),
                report.vector.clone(),
                self.rank_config,
                delta,
                report.cycles,
                report.converged,
                wall_ms,
            ));
            self.obs.epoch_publish_ns.record(publish_span.elapsed_ns());
            drop(publish_span);
            #[cfg(feature = "invariants")]
            self.verify_replay();
            self.obs.epochs_published.inc();
        } else {
            self.obs.epochs_degraded.inc();
        }
        EpochOutcome { published: healthy, live_version: self.version, ..ran }
    }

    /// Re-derive the just-published snapshot from its recorded
    /// `(matrix, start, seed)` triple with a fresh aggregator and require
    /// the score hashes to match **exactly** — the snapshot-replay
    /// determinism contract, enforced after every publish while the
    /// `invariants` feature is on.
    #[cfg(feature = "invariants")]
    fn verify_replay(&self) {
        let snap = self.cell.load();
        let matrix = snap.matrix.as_ref().expect("published snapshot records its matrix");
        let replay = GossipTrustAggregator::new(self.aggregator.params().clone())
            .with_engine_config(self.engine.config().clone())
            .aggregate_with(
                matrix,
                &snap.start,
                &UniformChooser,
                &mut StdRng::seed_from_u64(snap.seed),
            );
        let published = score_hash(snap.vector.values());
        let replayed = score_hash(replay.vector.values());
        assert_eq!(
            replayed, published,
            "invariant violated [EpochManager::run_epoch]: epoch {} snapshot (version {}) \
             does not replay bit-for-bit from its recorded (matrix, start, seed): \
             replay hash {replayed:#018x} vs published {published:#018x}",
            snap.epoch, snap.version
        );
    }

    /// The epoch-loop thread body: tick every `interval` (or only on
    /// command when `interval` is `None`), handling [`EpochCommand`]s
    /// between ticks. Returns when told to shut down or when all command
    /// senders are gone.
    pub fn run_loop(mut self, interval: Option<Duration>, commands: Receiver<EpochCommand>) {
        loop {
            let command = match interval {
                Some(period) => match commands.recv_timeout(period) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => {
                        self.run_epoch();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => None,
                },
                None => commands.recv().ok(),
            };
            match command {
                Some(EpochCommand::RunNow(reply)) => {
                    let outcome = self.run_epoch();
                    // A dropped reply receiver just means the caller gave up
                    // waiting; the epoch still ran and published.
                    let _ = reply.send(outcome);
                }
                Some(EpochCommand::Shutdown) | None => return,
            }
        }
    }
}

/// FNV-1a over the raw bit patterns of a score vector — the stable
/// fingerprint the snapshot-replay invariant compares. Bit patterns, not
/// values: the contract is bit-for-bit reproducibility, so `-0.0` vs
/// `0.0` (or any rounding drift) must be visible to the hash.
#[cfg(feature = "invariants")]
fn score_hash(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in scores {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FeedbackEvent;
    use gossiptrust_core::id::NodeId;

    fn setup(
        n: usize,
        fail: Vec<u64>,
    ) -> (Arc<FeedbackLog>, Arc<SnapshotCell>, Arc<ServiceObs>, EpochManager) {
        let log = Arc::new(FeedbackLog::new(n, 4));
        let cell = Arc::new(SnapshotCell::new(ScoreSnapshot::bootstrap(
            n,
            7,
            RankStorageConfig::default(),
        )));
        let obs = Arc::new(ServiceObs::new(256));
        let params = Params::for_network(n).with_threads(2);
        let mgr = EpochManager::new(
            Arc::clone(&log),
            Arc::clone(&cell),
            Arc::clone(&obs),
            params,
            RankStorageConfig::default(),
            7,
            fail,
        );
        (log, cell, obs, mgr)
    }

    fn ring_feedback(log: &FeedbackLog, n: usize) {
        for i in 0..n {
            log.record(FeedbackEvent {
                rater: NodeId::from_index(i),
                target: NodeId::from_index((i + 1) % n),
                score: 2.0 + (i % 3) as f64,
            });
        }
    }

    #[test]
    fn healthy_epoch_publishes_next_version() {
        let (log, cell, obs, mut mgr) = setup(24, vec![]);
        ring_feedback(&log, 24);
        let outcome = mgr.run_epoch();
        assert!(outcome.published, "ring matrix must converge");
        assert_eq!(outcome.live_version, 1);
        let snap = cell.load();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.epoch, 1);
        assert!(snap.matrix.is_some());
        assert!(outcome.gossip.steps > 0, "epoch delta must capture activity");
        assert_eq!(obs.epochs_published.get(), 1);
        assert_eq!(obs.epochs_degraded.get(), 0);
    }

    #[test]
    fn injected_failure_degrades_and_keeps_previous_snapshot() {
        let (log, cell, obs, mut mgr) = setup(24, vec![2]);
        ring_feedback(&log, 24);
        assert!(mgr.run_epoch().published);
        let before = cell.load();
        let failed = mgr.run_epoch();
        assert!(!failed.published, "epoch 2 is crippled and must degrade");
        assert!(!failed.converged);
        let after = cell.load();
        assert_eq!(after.version, before.version, "previous snapshot stays live");
        assert_eq!(obs.epochs_degraded.get(), 1);
        // The loop recovers on the next (healthy) epoch.
        let recovered = mgr.run_epoch();
        assert!(recovered.published);
        assert_eq!(cell.load().version, before.version + 1);
        assert_eq!(cell.load().epoch, 3, "epoch numbering skips the failed epoch");
    }

    #[test]
    fn epochs_are_reproducible_from_recorded_inputs() {
        let (log, cell, _obs, mut mgr) = setup(24, vec![]);
        ring_feedback(&log, 24);
        mgr.run_epoch();
        let snap = cell.load();
        let matrix = snap.matrix.as_ref().expect("published snapshot records its matrix");
        let params = Params::for_network(24).with_threads(2);
        let replay = GossipTrustAggregator::new(params.clone())
            .with_engine_config(EngineConfig::from_params(&params, 24))
            .aggregate_with(
                matrix,
                &snap.start,
                &UniformChooser,
                &mut StdRng::seed_from_u64(snap.seed),
            );
        assert_eq!(
            replay.vector.values(),
            snap.vector.values(),
            "published scores must replay bit-for-bit from (matrix, start, seed)"
        );
    }

    /// With the `invariants` feature on, every healthy `run_epoch` above
    /// already re-derives its snapshot internally; this test seeds a
    /// *tampered* snapshot and proves the replay checker trips on it.
    #[cfg(feature = "invariants")]
    #[test]
    #[should_panic(expected = "does not replay bit-for-bit")]
    fn tampered_snapshot_trips_the_replay_checker() {
        use gossiptrust_core::vector::ReputationVector;
        let (log, cell, _obs, mut mgr) = setup(24, vec![]);
        ring_feedback(&log, 24);
        assert!(mgr.run_epoch().published);
        // Overwrite the published scores with something the recorded
        // (matrix, start, seed) cannot reproduce.
        let mut snap = (*cell.load()).clone();
        snap.version += 1;
        snap.vector = ReputationVector::from_weights((1..=24).map(|i| i as f64).collect()).unwrap();
        cell.publish(snap);
        mgr.verify_replay();
    }

    #[test]
    fn watchdog_contains_injected_panics_and_recovers() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let (log, cell, obs, mgr) = setup(24, vec![]);
        let chaos = Arc::new(ChaosInjector::new(
            ChaosConfig { epoch_panic_per_mille: 1000, ..ChaosConfig::disabled(9) },
            &obs.registry,
        ));
        let mut mgr = mgr.with_chaos(Arc::clone(&chaos));
        ring_feedback(&log, 24);
        let before = cell.load();
        let outcome = mgr.run_epoch();
        assert!(outcome.panicked, "a certain-panic injector must trip the watchdog");
        assert!(!outcome.published);
        assert_eq!(cell.load().version, before.version, "previous snapshot stays live");
        assert_eq!(obs.epochs_panicked.get(), 1);
        assert_eq!(chaos.report().epochs_panicked, 1);
        // Disarm the chaos: the rebuilt engine must aggregate and publish.
        mgr.chaos = None;
        let recovered = mgr.run_epoch();
        assert!(recovered.published, "rebuilt engine must recover");
        assert!(!recovered.panicked);
        assert_eq!(cell.load().version, before.version + 1);
    }

    #[test]
    fn deadline_abandons_overrunning_epochs() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let (log, cell, obs, mgr) = setup(24, vec![]);
        let chaos = Arc::new(ChaosInjector::new(
            ChaosConfig {
                epoch_overrun_per_mille: 1000,
                overrun_ms: 30,
                ..ChaosConfig::disabled(9)
            },
            &obs.registry,
        ));
        let mut mgr = mgr.with_deadline(Duration::from_millis(5)).with_chaos(chaos);
        ring_feedback(&log, 24);
        let outcome = mgr.run_epoch();
        assert!(outcome.overran, "a 30ms stall under a 5ms deadline must be abandoned");
        assert!(!outcome.published);
        assert_eq!(cell.load().version, 0, "abandoned result must not publish");
        assert_eq!(obs.epochs_overrun.get(), 1);
        // Disarm the chaos: the same manager publishes again. This half is
        // about the stall being gone, not about how fast 24 nodes
        // aggregate — under `--features invariants` the shadow run alone
        // takes longer than 5 ms — so it gets a deadline no build misses.
        mgr.chaos = None;
        mgr.deadline = Some(Duration::from_secs(60));
        assert!(mgr.run_epoch().published);
        assert_eq!(cell.load().version, 1);
    }

    #[test]
    fn epochs_emit_spans_and_phase_timings() {
        use gossiptrust_obs::trace::EventKind;
        let (log, _cell, obs, mut mgr) = setup(24, vec![]);
        ring_feedback(&log, 24);
        assert!(mgr.run_epoch().published);
        let events = obs.tracer.events();
        let starts: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Start).collect();
        let epoch_id = starts.iter().find(|e| e.name == "epoch").expect("epoch span").span_id;
        for phase in ["fold", "aggregate", "publish"] {
            let child = starts
                .iter()
                .find(|e| e.name == phase)
                .unwrap_or_else(|| panic!("published epoch must emit a {phase} child span"));
            assert_eq!(child.parent_id, epoch_id, "{phase} must be a child of the epoch span");
        }
        assert_eq!(obs.epoch_fold_ns.count(), 1);
        assert_eq!(obs.epoch_aggregate_ns.count(), 1);
        assert_eq!(obs.epoch_publish_ns.count(), 1);
        assert_eq!(obs.epoch_total_ns.count(), 1);
        assert!(obs.engine.step_ns.count() > 0, "the engine's step hook is attached");
        // Aggregate dominates the epoch; its histogram must say so.
        assert!(obs.epoch_total_ns.max() >= obs.epoch_aggregate_ns.max());
    }

    #[test]
    fn contained_panic_leaves_no_torn_spans() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        use gossiptrust_obs::trace::EventKind;
        let (log, _cell, obs, mgr) = setup(24, vec![]);
        let chaos = Arc::new(ChaosInjector::new(
            ChaosConfig { epoch_panic_per_mille: 1000, ..ChaosConfig::disabled(9) },
            &obs.registry,
        ));
        let mut mgr = mgr.with_chaos(chaos);
        ring_feedback(&log, 24);
        assert!(mgr.run_epoch().panicked);
        // The watchdog epoch still closes its span; every Start has an End.
        let events = obs.tracer.events();
        let starts = events.iter().filter(|e| e.kind == EventKind::Start).count();
        let ends = events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(starts, ends, "spans must balance even through a contained panic");
    }

    /// A chooser that panics once its budget of targets is spent — the
    /// only way to unwind an epoch from *inside* the aggregation.
    struct DiesAfter(std::cell::Cell<u32>);

    impl TargetChooser for DiesAfter {
        fn choose<R: rand::Rng + ?Sized>(
            &self,
            sender: usize,
            step: usize,
            n: usize,
            rng: &mut R,
        ) -> usize {
            let left = self.0.get();
            assert!(left > 0, "test chooser: dying mid-aggregation");
            self.0.set(left - 1);
            UniformChooser.choose(sender, step, n, rng)
        }
    }

    /// The five gossip totals have one writer, and it runs in every arm:
    /// an epoch that unwinds mid-aggregation and a crippled one (whose
    /// steps ran on a throw-away engine) both land in `gt_gossip_*_total`,
    /// which always equal the sum of the diffs the epochs reported.
    #[test]
    fn gossip_totals_are_the_sum_of_every_epochs_diff() {
        let (log, cell, obs, mut mgr) = setup(24, vec![2]);
        ring_feedback(&log, 24);
        let mut sum = GossipStats::default();

        // Three full steps' worth of targets, then the chooser panics.
        let torn = mgr.run_epoch_with(&DiesAfter(std::cell::Cell::new(3 * 24)));
        assert!(torn.panicked && !torn.published);
        assert_eq!(torn.gossip.steps, 3, "the unwound epoch reports the steps it burned");
        assert!(torn.gossip.bytes_streamed > 0);
        sum.absorb(&torn.gossip);
        assert_eq!(obs.stats_report().gossip, sum);
        assert!(sum.steps > 0);

        let crippled = mgr.run_epoch();
        assert!(!crippled.published && !crippled.panicked);
        assert!(crippled.gossip.steps > 0 && crippled.gossip.bytes_streamed > 0);
        sum.absorb(&crippled.gossip);
        assert_eq!(obs.stats_report().gossip, sum);

        // The rebuilt engine publishes, and still counts from its own zero.
        let healthy = mgr.run_epoch();
        assert!(healthy.published, "rebuilt engine must recover");
        sum.absorb(&healthy.gossip);
        let report = obs.stats_report();
        assert_eq!(report.gossip, sum, "burn is absorbed whether or not the epoch published");
        assert!(
            (report.gossip.bytes_streamed_per_step() - sum.bytes_streamed_per_step()).abs() < 1e-9
        );
        assert_eq!(cell.load().version, 1);
        // What the scrape shows is that same sum, all five lines of it.
        let scrape = obs.registry.render();
        for (name, v) in [
            ("gt_gossip_steps_total", sum.steps),
            ("gt_gossip_messages_sent_total", sum.messages_sent),
            ("gt_gossip_messages_dropped_total", sum.messages_dropped),
            ("gt_gossip_triplets_sent_total", sum.triplets_sent),
            ("gt_gossip_bytes_streamed_total", sum.bytes_streamed),
        ] {
            assert!(scrape.contains(&format!("{name} {v}\n")), "{name} != {v}:\n{scrape}");
        }
    }

    /// Every epoch lands in exactly one outcome class: published, degraded,
    /// panicked and overrun partition `epochs_attempted`, and the last
    /// epoch's wall time is kept whichever class it fell in.
    #[test]
    fn epoch_outcomes_partition_into_four_classes() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let (log, _cell, obs, mut mgr) = setup(24, vec![2]);
        ring_feedback(&log, 24);
        assert!(mgr.run_epoch().published);
        let degraded = mgr.run_epoch();
        assert!(!degraded.published && !degraded.panicked && !degraded.overran);
        assert!((obs.stats_report().last_epoch_wall_ms - degraded.wall_ms).abs() < 2e-3);

        let armed = |config| Some(Arc::new(ChaosInjector::new(config, &obs.registry)));
        mgr.chaos = armed(ChaosConfig { epoch_panic_per_mille: 1000, ..ChaosConfig::disabled(9) });
        let panicked = mgr.run_epoch();
        assert!(panicked.panicked);
        assert_eq!(panicked.gossip, GossipStats::default(), "it died before the engine ran");
        assert!((obs.stats_report().last_epoch_wall_ms - panicked.wall_ms).abs() < 2e-3);

        mgr.chaos = armed(ChaosConfig {
            epoch_overrun_per_mille: 1000,
            overrun_ms: 30,
            ..ChaosConfig::disabled(9)
        });
        mgr.deadline = Some(Duration::from_millis(5));
        let overran = mgr.run_epoch();
        assert!(overran.overran && overran.gossip.steps > 0);
        assert!((obs.stats_report().last_epoch_wall_ms - overran.wall_ms).abs() < 2e-3);

        let r = obs.stats_report();
        assert_eq!(r.epochs_attempted, 4);
        // Neither failure class double-counts as published or degraded.
        assert_eq!(
            (r.epochs_published, r.epochs_degraded, r.epochs_panicked, r.epochs_overrun),
            (1, 1, 1, 1)
        );
        assert_eq!(obs.chaos.report().epochs_panicked, 1);
        assert_eq!(obs.chaos.report().epochs_overrun, 1);
    }

    #[test]
    fn epoch_seed_is_injective_enough() {
        let seeds: Vec<u64> = (1..=64).map(|e| EpochManager::epoch_seed(42, e)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "epoch seeds must not collide");
    }
}
