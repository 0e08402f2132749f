//! A minimized model of the engine's **buffer-swap** step protocol (see
//! `WorkerPool` / `finish_step` in `engine.rs`): the current state lives in
//! persistent `Arc` arenas, one slab per executor with a fixed owner
//! (caller = slab 0, worker `b` = slab `b`); each round the caller hands
//! every worker its one owned write task plus an `Arc` clone of the read
//! state; workers fill their write buffer from the arenas, release the
//! `Arc`, and send the task back over one shared result channel; the
//! caller computes slab 0, reclaims the read state with `Arc::try_unwrap`
//! / `Arc::get_mut`, and publishes by `mem::swap`ping every freshly
//! written buffer with its read arena.
//!
//! The model checks the four properties the engine's safety rests on,
//! under scheduling jitter and many rounds:
//!
//! 1. **ownership conservation** — every task comes back exactly once per
//!    round (never lost, never duplicated);
//! 2. **release-before-publish** — `Arc::try_unwrap` on the shared read
//!    handle and `Arc::get_mut` on every read arena succeed every round,
//!    i.e. every worker dropped its references *before* reporting back;
//! 3. **round isolation** — each task is advanced exactly once per round
//!    (a stale or double delivery would show up in the generation count);
//! 4. **swap publication** — after the swap the arenas hold exactly the
//!    values written this round (no torn or skipped slab).
//!
//! This is the loom-style model for the protocol minus the exhaustive
//! scheduler (loom is not a dependency of this workspace); the nightly
//! ThreadSanitizer CI job runs this same test with a data-race detector
//! underneath.

#![forbid(unsafe_code)]

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Stand-in for `StepRead`: the round tag plus `Arc` handles onto the
/// persistent read arenas (shared, immutable during a round).
struct Read {
    round: u64,
    arenas: Vec<Arc<Vec<u64>>>,
}

/// Stand-in for `SlabTask`: the double-buffered write side of one slab,
/// owned by exactly one party at a time.
struct Task {
    slab: usize,
    generation: u64,
    buf: Vec<u64>,
}

struct Job {
    read: Arc<Read>,
    task: Task,
}

const WORKERS: usize = 3;
const SLABS: usize = WORKERS + 1; // one per executor; slab 0 is the caller's
const ROUNDS: u64 = 400;
const PAYLOAD: usize = 64;

/// The model kernel both the caller and the workers run: next state =
/// current arena value + round (so arena contents after round `R` must be
/// `1 + 2 + … + R`, which pins the swap publication).
fn fill(read: &Read, task: &mut Task) {
    task.generation += 1;
    assert_eq!(
        task.generation, read.round,
        "task {} advanced out of lockstep with the round",
        task.slab
    );
    let src = &read.arenas[task.slab];
    for (d, &s) in task.buf.iter_mut().zip(src.iter()) {
        *d = s.wrapping_add(read.round);
    }
}

#[test]
fn buffer_swap_rounds_conserve_tasks_and_release_reads() {
    let (result_tx, result_rx) = mpsc::channel::<Task>();
    let mut job_txs = Vec::with_capacity(WORKERS);
    let mut handles = Vec::with_capacity(WORKERS);
    for w in 0..WORKERS {
        let (tx, rx) = mpsc::channel::<Job>();
        let result_tx = result_tx.clone();
        handles.push(thread::spawn(move || {
            // Deterministic per-worker jitter (LCG — no ambient entropy)
            // to vary the interleaving between rounds.
            let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15 ^ (w as u64 + 1);
            while let Ok(Job { read, mut task }) = rx.recv() {
                fill(&read, &mut task);
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if lcg.is_multiple_of(3) {
                    thread::yield_now();
                }
                // The protocol's load-bearing line: release the shared
                // read state BEFORE reporting back, so the caller's
                // `Arc::try_unwrap` / `Arc::get_mut` can reclaim it.
                drop(read);
                if result_tx.send(task).is_err() {
                    break;
                }
            }
        }));
        job_txs.push(tx);
    }

    // Persistent read arenas + one write task per slab, exactly the
    // engine's layout.
    let mut arenas: Vec<Arc<Vec<u64>>> = (0..SLABS).map(|_| Arc::new(vec![0; PAYLOAD])).collect();
    let mut tasks: Vec<Option<Task>> = (0..SLABS)
        .map(|slab| Some(Task { slab, generation: 0, buf: vec![0; PAYLOAD] }))
        .collect();

    for round in 1..=ROUNDS {
        let read = Arc::new(Read { round, arenas: arenas.clone() });
        // Fixed ownership, every round: slab `b ≥ 1` goes to worker `b`,
        // the caller computes slab 0 meanwhile.
        for (tx, slot) in job_txs.iter().zip(&mut tasks[1..]) {
            let task = slot.take().expect("task checked out twice");
            tx.send(Job { read: Arc::clone(&read), task }).expect("worker exited");
        }
        fill(&read, tasks[0].as_mut().expect("task 0 checked out"));
        for _ in 0..WORKERS {
            let task = result_rx.recv().expect("worker panicked");
            let k = task.slab;
            assert!(tasks[k].is_none(), "task {k} returned twice in one round");
            tasks[k] = Some(task);
        }
        // Property 2a: every worker released the shared handle before its
        // result arrived, so the caller's reference is the only one left.
        let read = Arc::try_unwrap(read)
            .unwrap_or_else(|_| panic!("round {round}: a worker reported before releasing"));
        assert_eq!(read.round, round);
        drop(read); // releases the per-round arena clones
                    // Property 2b + 4: reclaim each arena and publish by buffer swap —
                    // the freshly written buffer becomes the readable state, the old
                    // state becomes the slab's write buffer for the next round.
        for (k, arena) in arenas.iter_mut().enumerate() {
            let task = tasks[k].as_mut().expect("task missing at publish");
            let cur = Arc::get_mut(arena)
                .unwrap_or_else(|| panic!("round {round}: arena {k} still shared at publish"));
            std::mem::swap(cur, &mut task.buf);
        }
    }

    // Properties 1, 3 and 4, cumulatively: every task advanced exactly
    // once per round, and every published arena slot absorbed every
    // round's increment.
    let expected_sum: u64 = (1..=ROUNDS).sum();
    for task in tasks.iter().map(|t| t.as_ref().expect("task missing at shutdown")) {
        assert_eq!(task.generation, ROUNDS, "task {}", task.slab);
    }
    for (k, arena) in arenas.iter().enumerate() {
        assert!(arena.iter().all(|&v| v == expected_sum), "arena {k}");
    }

    // Shutdown exactly like `WorkerPool::drop`: closing the job channels
    // ends the worker loops; joining must not deadlock.
    drop(job_txs);
    for h in handles {
        h.join().expect("worker panicked during shutdown");
    }
}

/// Shutdown with jobs still in flight must not deadlock or lose a task:
/// the drain pattern the engine relies on when the pool is dropped
/// mid-stream.
#[test]
fn shutdown_with_inflight_jobs_is_clean() {
    let (result_tx, result_rx) = mpsc::channel::<Task>();
    let (tx, rx) = mpsc::channel::<Job>();
    let handle = thread::spawn(move || {
        while let Ok(Job { read, mut task }) = rx.recv() {
            task.generation += read.round;
            drop(read);
            if result_tx.send(task).is_err() {
                break;
            }
        }
    });
    for round in 1..=32u64 {
        let read = Arc::new(Read { round, arenas: Vec::new() });
        tx.send(Job { read, task: Task { slab: 0, generation: 0, buf: vec![] } })
            .expect("worker exited early");
    }
    // Close the job channel with results unread, then drain: all 32 tasks
    // must still come back before the channel disconnects.
    drop(tx);
    let mut seen = 0;
    while let Ok(task) = result_rx.recv() {
        assert!(task.generation > 0);
        seen += 1;
    }
    assert_eq!(seen, 32);
    handle.join().expect("worker panicked");
}
