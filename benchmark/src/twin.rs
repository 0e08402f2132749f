//! The decomposed epoch: `EpochManager::run_epoch` rebuilt from public
//! items, with a span around each stage.
//!
//! `ServiceHandle::run_epoch_now()` is one opaque call; to attribute its
//! time the traced run drives a *twin* — its own `FeedbackLog`,
//! `SnapshotCell` and `VectorGossipEngine`, fed the same events — through
//! `FeedbackLog::fold_parallel` → per cycle {`TrustMatrix::transpose_mul`
//! (the exact iterate), `VectorGossipEngine::seed`, a `par_step` loop,
//! `mean_estimate`} → `ScoreSnapshot::from_vector` → `SnapshotCell::publish`.
//! The loop below is `GossipTrustAggregator::aggregate_with_engine` line for
//! line; the traced run proves it by requiring the twin's vector to be
//! **bit-identical** to the service's under the same seed.

use crate::inputs::Batch;
use crate::trace::{Trace, NONE};
use gossiptrust_core::convergence::VectorConvergence;
use gossiptrust_core::metrics::rms_relative_error;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::{PowerNodeSelector, Prior};
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_gossip::engine::{EngineConfig, VectorGossipEngine};
use gossiptrust_gossip::stats::GossipStats;
use gossiptrust_gossip::UniformChooser;
use gossiptrust_serve::epoch::EpochManager;
use gossiptrust_serve::{FeedbackLog, ScoreSnapshot, ServiceConfig, SnapshotCell};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What one decomposed epoch did.
pub struct TwinOutcome {
    pub cycles: usize,
    pub converged: bool,
    pub gossip: GossipStats,
    pub gossip_error_max: f64,
    pub nnz: usize,
}

/// The service's epoch path, taken apart.
pub struct EpochTwin {
    log: Arc<FeedbackLog>,
    cell: SnapshotCell,
    engine: VectorGossipEngine,
    params: Params,
    config: ServiceConfig,
    threads: usize,
    epoch: u64,
    version: u64,
}

impl EpochTwin {
    /// Same construction as `ReputationService::start` + `EpochManager::new`.
    pub fn new(config: &ServiceConfig) -> Self {
        let n = config.params.n;
        let engine_config = EngineConfig::from_params(&config.params, n);
        EpochTwin {
            log: Arc::new(FeedbackLog::new(n, config.shards)),
            cell: SnapshotCell::new(ScoreSnapshot::bootstrap(
                n,
                config.base_seed,
                config.rank_config,
            )),
            threads: engine_config.threads,
            engine: VectorGossipEngine::new(n, engine_config),
            params: config.params.clone(),
            config: config.clone(),
            epoch: 0,
            version: 0,
        }
    }

    /// Ingest the same batches the service was given, in the same order.
    pub fn record(&self, batches: &[Batch]) {
        for b in batches {
            self.log.record_batch(b.rater, &b.ratings);
        }
    }

    /// The live snapshot (what the service would answer queries from).
    pub fn snapshot(&self) -> Arc<ScoreSnapshot> {
        self.cell.load()
    }

    /// One epoch: fold → aggregate → build → publish, a span per stage.
    pub fn run_epoch<T: Trace>(&mut self, tr: &mut T) -> TwinOutcome {
        self.epoch += 1;
        let epoch = self.epoch;
        let n = self.params.n;
        let root = tr.begin("epoch", NONE, epoch);
        let seed = EpochManager::epoch_seed(self.config.base_seed, epoch);

        let span = tr.begin("log.fold", root, epoch);
        let matrix = Arc::new(self.log.fold_parallel(self.threads));
        tr.end(span);
        let start = self.cell.load().vector.clone();
        let mut rng = StdRng::seed_from_u64(seed);

        // GossipTrustAggregator::aggregate_with_engine, PowerNodesEachCycle.
        let before = self.engine.stats();
        let selector = PowerNodeSelector::new(self.params.max_power_nodes);
        let mut outer = VectorConvergence::new(self.params.delta);
        outer.observe(&start);
        let mut current = start.clone();
        let mut prior = Prior::uniform(n);
        let mut cycles = 0;
        let mut converged = false;
        let mut all_gossip_converged = true;
        let mut gossip_error_max = 0.0f64;
        let max_steps = self.engine.config().max_steps;
        for _ in 1..=self.params.max_cycles {
            let cycle = tr.begin("cycle", root, epoch);
            let span = tr.begin("matrix.transpose_mul", cycle, epoch);
            let mut exact = vec![0.0; n];
            matrix
                .transpose_mul(current.values(), &mut exact)
                .expect("dimensions match");
            tr.end(span);
            prior.mix_into(&mut exact, self.params.alpha);

            let span = tr.begin("engine.seed", cycle, epoch);
            self.engine.seed(&matrix, &current, &prior, self.params.alpha);
            tr.end(span);

            // VectorGossipEngine::run (par_step is the sequential step when
            // the engine has one thread).
            let mut gossip_converged = false;
            for _ in 0..max_steps {
                let span = tr.begin("engine.step", cycle, epoch);
                let out = self.engine.par_step(&UniformChooser, &mut rng);
                tr.end(span);
                if out.all_converged {
                    gossip_converged = true;
                    break;
                }
            }
            all_gossip_converged &= gossip_converged;

            let span = tr.begin("engine.extract", cycle, epoch);
            let estimate = self.engine.mean_estimate();
            tr.end(span);
            gossip_error_max = gossip_error_max.max(rms_relative_error(&exact, &estimate));
            let next =
                ReputationVector::from_weights(estimate.iter().map(|&x| x.max(0.0)).collect())
                    .expect("gossiped scores stay positive overall");
            let hit_delta = outer.observe(&next);
            current = next;
            prior = selector.prior(&current);
            cycles += 1;
            tr.end(cycle);
            if hit_delta {
                converged = true;
                break;
            }
        }
        let gossip = self.engine.stats().diff(&before);

        let healthy =
            converged && all_gossip_converged && current.values().iter().all(|v| v.is_finite());
        if healthy {
            self.version += 1;
            let span = tr.begin("snapshot.build", root, epoch);
            let snapshot = ScoreSnapshot::from_vector(
                self.version,
                epoch,
                seed,
                start,
                Some(Arc::clone(&matrix)),
                current,
                self.config.rank_config,
                gossip,
                cycles,
                converged,
                0.0,
            );
            tr.end(span);
            let span = tr.begin("snapshot.publish", root, epoch);
            self.cell.publish(snapshot);
            tr.end(span);
        }
        tr.end(root);
        TwinOutcome { cycles, converged: healthy, gossip, gossip_error_max, nnz: matrix.nnz() }
    }
}

/// Whether two score vectors are the same bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::FeedbackGraph;
    use crate::trace::{NoTrace, SpanBuf};
    use gossiptrust_serve::ReputationService;

    #[test]
    fn twin_reproduces_run_epoch_now_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let graph = FeedbackGraph::generate(48, &mut rng);
        let base = graph.base(3, &mut rng);
        let delta = graph.delta(200, &mut rng);
        let mut config = ServiceConfig::new(48).with_seed(5);
        config.params.threads = 2;
        let service = ReputationService::start(config.clone());
        let handle = service.handle();
        let mut twin = EpochTwin::new(&config);
        let mut buf = SpanBuf::new(std::time::Instant::now(), 10_000);
        for round in [&base, &delta] {
            for b in round.iter() {
                handle.record_batch(b.rater, &b.ratings).expect("in range");
            }
            twin.record(round);
            let outcome = handle.run_epoch_now().expect("loop alive");
            let mine = twin.run_epoch(&mut buf);
            assert!(outcome.published && mine.converged);
            assert_eq!(outcome.cycles, mine.cycles);
            assert_eq!(outcome.gossip, mine.gossip);
            assert!(bit_identical(
                handle.snapshot().vector.values(),
                twin.snapshot().vector.values()
            ));
        }
        assert_eq!(buf.dropped(), 0);
        assert!(buf.spans().iter().any(|s| s.name == "engine.step"));
        // Untraced, the twin still computes the same thing.
        let mut again = EpochTwin::new(&config);
        again.record(&base);
        again.run_epoch(&mut NoTrace);
        service.shutdown();
    }
}
