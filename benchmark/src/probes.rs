//! Stand-alone layer probes for the traced run: each drives one layer's
//! public API in isolation, so a layer metric does not depend on what the
//! rest of the workload happened to be doing.

use crate::inputs::{Batch, BATCH_RATINGS};
use crate::stats::{median, Sample};
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::Prior;
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_gossip::engine::{EngineConfig, VectorGossipEngine};
use gossiptrust_gossip::UniformChooser;
use gossiptrust_serve::{
    FeedbackEvent, FeedbackLog, GroupCommitObs, GroupCommitWal, ServiceHandle, Wal,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// STREAM triad `a[i] = b[i] + s·c[i]` over three arrays totalling
/// `footprint` bytes, split across `threads` persistent workers; GB/s (10⁹
/// bytes) counting 24 bytes per element, median of `reps` timed rounds after
/// one warm-up round. A round is as many sweeps as it takes to stream
/// ≥ 64 MB, and the workers meet at a barrier around every round, so a
/// cache-sized footprint is charged neither for thread spawns nor for the
/// barrier.
pub fn triad_gbps(footprint: u64, threads: usize, reps: usize) -> f64 {
    let threads = threads.max(1);
    let len = (footprint / 24).max(1024) as usize;
    let sweeps = (64 << 20) / (24 * len) + 1;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let chunk = len.div_ceil(threads);
    let barrier = Barrier::new(threads + 1);
    let mut rates = Vec::with_capacity(reps);
    std::thread::scope(|scope| {
        for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..=reps {
                    barrier.wait();
                    for sweep in 0..sweeps {
                        let s = 0.5 + (round * sweeps + sweep) as f64;
                        for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                            *x = y + s * z;
                        }
                        black_box(&mut *a);
                    }
                    barrier.wait();
                }
            });
        }
        for round in 0..=reps {
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            if round > 0 {
                rates.push((24 * len * sweeps) as f64 / t.elapsed().as_secs_f64() / 1e9);
            }
        }
    });
    median(&rates)
}

/// Wall of `steps` gossip steps on a fresh engine with `threads` workers.
fn timed_steps(matrix: &TrustMatrix, params: &Params, threads: usize, steps: usize) -> Duration {
    let n = matrix.n();
    let config = EngineConfig::from_params(params, n).with_threads(threads);
    let mut engine = VectorGossipEngine::new(n, config);
    engine.seed(matrix, &ReputationVector::uniform(n), &Prior::uniform(n), params.alpha);
    let mut rng = StdRng::seed_from_u64(1);
    // One untimed step spawns the worker pool.
    engine.par_step(&UniformChooser, &mut rng);
    let t = Instant::now();
    for _ in 0..steps {
        black_box(engine.par_step(&UniformChooser, &mut rng));
    }
    t.elapsed()
}

/// `threads = 1` wall ÷ `threads = nproc` wall over 50 steps each, median
/// of three alternating repetitions.
pub fn par_speedup(matrix: &TrustMatrix, params: &Params, nproc: usize) -> f64 {
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let one = timed_steps(matrix, params, 1, 50).as_secs_f64();
            let many = timed_steps(matrix, params, nproc, 50).as_secs_f64();
            one / many
        })
        .collect();
    median(&ratios)
}

/// ns per call of `op`, as the median over `blocks` blocks of `per_block`
/// calls (a single call is shorter than two clock reads).
fn ns_per_call(blocks: usize, per_block: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(blocks);
    let mut i = 0;
    for _ in 0..blocks {
        let t = Instant::now();
        for _ in 0..per_block {
            op(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_block as f64);
    }
    median(&samples)
}

/// `(record ns/event, record_batch ns/32-rating batch)` on a stand-alone
/// `FeedbackLog`, one writer.
pub fn log_ns(n: usize, shards: usize, base: &[Batch]) -> (f64, f64) {
    let events: Vec<FeedbackEvent> = base
        .iter()
        .flat_map(|b| {
            b.ratings
                .iter()
                .map(|&(target, score)| FeedbackEvent { rater: b.rater, target, score })
        })
        .collect();
    let log = FeedbackLog::new(n, shards);
    let record = ns_per_call(200, 1000, |i| log.record(events[i % events.len()]));
    let batches: Vec<&Batch> = base.iter().filter(|b| b.ratings.len() >= BATCH_RATINGS).collect();
    let record_batch = if batches.is_empty() {
        0.0
    } else {
        ns_per_call(100, 200, |i| {
            let b = batches[i % batches.len()];
            log.record_batch(b.rater, &b.ratings[..BATCH_RATINGS]);
        })
    };
    (record, record_batch)
}

/// ns per `SnapshotCell::load`, through `ServiceHandle::snapshot`.
pub fn snapshot_load_ns(handle: &ServiceHandle) -> f64 {
    ns_per_call(200, 1000, |_| {
        black_box(handle.snapshot());
    })
}

/// What the stand-alone WAL probe measured.
pub struct WalProbe {
    pub append_ns_p50: f64,
    pub append_batch_ns_p50: f64,
    pub bytes_per_event: f64,
    pub replay_ns_per_event: f64,
}

/// A stand-alone `GroupCommitWal` under two submitters (the service's
/// knobs: 512-record groups, 200 µs drain), then `Wal::open` on what they
/// wrote. `dir` is created and removed.
pub fn wal(dir: &Path, n: usize, appends: usize, batches: usize) -> std::io::Result<WalProbe> {
    let _ = std::fs::remove_dir_all(dir);
    let (wal, _) = Wal::open(dir, n)?;
    let path = wal.path().to_path_buf();
    let group =
        GroupCommitWal::start(wal, 512, Duration::from_micros(200), GroupCommitObs::default());
    let ratings: Vec<(NodeId, f64)> =
        (0..BATCH_RATINGS).map(|i| (NodeId((i % n) as u32), 1.0)).collect();
    let (mut single, mut batch) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u32)
            .map(|w| {
                let (group, ratings) = (&group, &ratings);
                scope.spawn(move || {
                    let event =
                        FeedbackEvent { rater: NodeId(w), target: NodeId(w + 1), score: 1.0 };
                    let mut single = Vec::with_capacity(appends);
                    for _ in 0..appends {
                        let t = Instant::now();
                        group.append(&event).expect("probe WAL append");
                        single.push(t.elapsed().as_nanos() as f64);
                    }
                    let mut batch = Vec::with_capacity(batches);
                    for _ in 0..batches {
                        let t = Instant::now();
                        group
                            .append_batch(NodeId(w), ratings)
                            .expect("probe WAL append_batch");
                        batch.push(t.elapsed().as_nanos() as f64);
                    }
                    (single, batch)
                })
            })
            .collect();
        for worker in workers {
            let (s, b) = worker.join().expect("WAL probe submitter");
            single.extend(s);
            batch.extend(b);
        }
    });
    drop(group);
    let events = (2 * (appends + batches * BATCH_RATINGS)) as f64;
    let bytes = std::fs::metadata(&path)?.len() as f64;
    let t = Instant::now();
    let (reopened, replay) = Wal::open(dir, n)?;
    let replay_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(replay.events.len() as f64, events, "the probe's own WAL must replay in full");
    drop(reopened);
    std::fs::remove_dir_all(dir)?;
    Ok(WalProbe {
        append_ns_p50: Sample::new(single).p(0.5),
        append_batch_ns_p50: Sample::new(batch).p(0.5),
        bytes_per_event: bytes / events,
        replay_ns_per_event: replay_ns / events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gbps(3 << 20, 2, 3) > 0.0);
    }

    #[test]
    fn wal_probe_accounts_every_byte() {
        let dir = crate::out_dir().join(format!("walprobe-test-{}", std::process::id()));
        let probe = wal(&dir, 64, 50, 5).expect("probe runs");
        // 16-byte header amortised over 24-byte records.
        assert!((24.0..24.1).contains(&probe.bytes_per_event), "{}", probe.bytes_per_event);
        assert!(probe.append_ns_p50 > 0.0 && probe.replay_ns_per_event > 0.0);
        assert!(!dir.exists());
    }
}
