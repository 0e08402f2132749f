//! A minimized model of the engine's **buffer-swap** step protocol (see
//! `WorkerPool` / `finish_step` in `engine.rs`): the current state lives in
//! persistent `Arc` arenas, one slab per executor with a fixed owner
//! (caller = slab 0, worker `b` = slab `b`); each round the caller hands
//! every worker its one owned write task plus an `Arc` clone of the read
//! state; workers fill their write buffer from the arenas, release the
//! `Arc`, and send the task back over one shared result channel; the
//! caller computes slab 0, reclaims the read state with `Arc::try_unwrap`
//! / `Arc::get_mut`, and publishes by `mem::swap`ping every freshly
//! written buffer with its read arena. Both blocking receives of that
//! exchange — the worker's for its next job, the caller's for a result —
//! poll `try_recv` a bounded number of times before they park
//! (`recv_spin_then_park`, re-typed here as the engine's is private), and a
//! worker that dies mid-round says so on the result channel, which its
//! siblings' sender clones would otherwise keep open.
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
//! Each holds on the pure-park path (budget 0) and with a spin in front.
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

/// What a worker sends instead of its task when it dies mid-round.
#[derive(Debug)]
struct WorkerPanicked;

type TaskResult = Result<Task, WorkerPanicked>;

/// The engine's `DeathNotice`: a worker holds its result sender in this
/// guard for its whole life, so unwinding reports the death.
struct DeathNotice(mpsc::Sender<TaskResult>);

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if thread::panicking() {
            let _ = self.0.send(Err(WorkerPanicked));
        }
    }
}

/// The engine's hand-off receive: up to `budget` polls with a yield every
/// 256th, then park. A disconnect seen while polling is returned at once.
fn recv_spin_then_park<T>(rx: &mpsc::Receiver<T>, budget: u32) -> Result<T, mpsc::RecvError> {
    for poll in 1..=budget {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) if poll % 256 == 0 => thread::yield_now(),
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv()
}

/// The engine's worker loop, with deterministic per-worker jitter (LCG —
/// no ambient entropy) to vary the interleaving between rounds, and an
/// optional round in which this worker's kernel panics.
fn spawn_worker(
    w: usize,
    rx: mpsc::Receiver<Job>,
    result_tx: mpsc::Sender<TaskResult>,
    budget: u32,
    panic_at: Option<u64>,
) -> thread::JoinHandle<()> {
    let notice = DeathNotice(result_tx);
    thread::spawn(move || {
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15 ^ (w as u64 + 1);
        while let Ok(Job { read, mut task }) = recv_spin_then_park(&rx, budget) {
            assert_ne!(Some(read.round), panic_at, "worker {w}: injected kernel panic");
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
            if notice.0.send(Ok(task)).is_err() {
                break;
            }
        }
    })
}

const WORKERS: usize = 3;
const SLABS: usize = WORKERS + 1; // one per executor; slab 0 is the caller's

/// What `WorkerPool` holds: a job sender per worker, the shared result
/// receiver, the join handles.
type Pool = (Vec<mpsc::Sender<Job>>, mpsc::Receiver<TaskResult>, Vec<thread::JoinHandle<()>>);

/// `WorkerPool::new`: `WORKERS` threads, each with its own job channel and
/// a clone of the one result sender — only the workers keep result
/// senders. `panic_at` = (worker, round) injects one kernel panic.
fn spawn_pool(budget: u32, panic_at: Option<(usize, u64)>) -> Pool {
    let (result_tx, result_rx) = mpsc::channel::<TaskResult>();
    let mut job_txs = Vec::with_capacity(WORKERS);
    let mut handles = Vec::with_capacity(WORKERS);
    for w in 0..WORKERS {
        let (tx, rx) = mpsc::channel::<Job>();
        let panic_at = panic_at.and_then(|(victim, round)| (victim == w).then_some(round));
        handles.push(spawn_worker(w, rx, result_tx.clone(), budget, panic_at));
        job_txs.push(tx);
    }
    (job_txs, result_rx, handles)
}
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

/// The pure-park path, and a spin short enough that on any box some
/// receives catch their message polling and others run out and park.
const BUDGETS: [u32; 2] = [0, 256];

#[test]
fn buffer_swap_rounds_conserve_tasks_and_release_reads() {
    for budget in BUDGETS {
        buffer_swap_rounds(budget);
    }
}

fn buffer_swap_rounds(budget: u32) {
    let (job_txs, result_rx, handles) = spawn_pool(budget, None);

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
            let task = recv_spin_then_park(&result_rx, budget)
                .expect("workers exited")
                .expect("worker panicked");
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

/// A worker whose kernel panics on a chosen round fails that round for
/// the caller instead of hanging it: with three workers the two survivors
/// keep the result channel open, so only the dying worker's own notice
/// can end the caller's wait. Shutdown afterwards is clean — the
/// survivors leave their receive (spinning or parked) on the disconnect.
#[test]
fn a_worker_that_panics_mid_round_fails_the_round_and_shutdown_is_clean() {
    const PANIC_ROUND: u64 = 5;
    const VICTIM: usize = 1;
    for budget in BUDGETS {
        let (job_txs, result_rx, handles) = spawn_pool(budget, Some((VICTIM, PANIC_ROUND)));

        let arenas: Vec<Arc<Vec<u64>>> = (0..SLABS).map(|_| Arc::new(vec![0; PAYLOAD])).collect();
        let mut died_in = None;
        'rounds: for round in 1..=PANIC_ROUND {
            // No publish between rounds: every task restarts at the
            // round's generation, the arenas stay as they are.
            let read = Arc::new(Read { round, arenas: arenas.clone() });
            for (w, tx) in job_txs.iter().enumerate() {
                let task = Task { slab: w + 1, generation: round - 1, buf: vec![0; PAYLOAD] };
                tx.send(Job { read: Arc::clone(&read), task }).expect("worker exited");
            }
            for _ in 0..WORKERS {
                match recv_spin_then_park(&result_rx, budget).expect("survivors hold senders") {
                    Ok(task) => assert!(
                        round < PANIC_ROUND || task.slab != VICTIM + 1,
                        "the victim returned a task from the round it died in"
                    ),
                    Err(WorkerPanicked) => {
                        died_in = Some(round);
                        break 'rounds;
                    }
                }
            }
        }
        assert_eq!(died_in, Some(PANIC_ROUND), "budget {budget}");

        drop(job_txs);
        let panicked: Vec<usize> = handles
            .into_iter()
            .enumerate()
            .filter_map(|(w, h)| h.join().is_err().then_some(w))
            .collect();
        assert_eq!(panicked, [VICTIM], "budget {budget}");
    }
}

/// Shutdown with jobs still in flight must not deadlock or lose a task:
/// the drain pattern the engine relies on when the pool is dropped
/// mid-stream.
#[test]
fn shutdown_with_inflight_jobs_is_clean() {
    for budget in BUDGETS {
        let (result_tx, result_rx) = mpsc::channel::<Task>();
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = thread::spawn(move || {
            while let Ok(Job { read, mut task }) = recv_spin_then_park(&rx, budget) {
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
        // Close the job channel with results unread, then drain: all 32
        // tasks must still come back before the channel disconnects.
        drop(tx);
        let mut seen = 0;
        while let Ok(task) = recv_spin_then_park(&result_rx, budget) {
            assert!(task.generation > 0);
            seen += 1;
        }
        assert_eq!(seen, 32, "budget {budget}");
        handle.join().expect("worker panicked");
    }
}
