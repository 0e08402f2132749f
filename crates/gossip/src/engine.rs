//! Algorithm 2 (inner loop) — the vectorized gossip engine.
//!
//! Runs `n` push-sum instances concurrently: node `i`'s state is the pair of
//! length-`n` arrays `x_i[·]`, `w_i[·]` — the paper's reputation vector of
//! triplets `⟨x_j, j, w_j⟩` in struct-of-arrays form. One [`VectorGossipEngine::step`]
//! models a gossip step: every alive node keeps half of its vector and
//! pushes the other half to a random node; all pushes of a step are merged
//! synchronously.
//!
//! The engine supports fault injection (message loss, dead nodes) and gossip
//! disturbance (forged pushes) used by the robustness experiments, and full
//! instrumentation.
//!
//! ## Memory layout & the step kernel
//!
//! Node state lives in **flat row-major arenas**: one contiguous `Vec<f64>`
//! holds many node rows back to back (`row i = &buf[r·n .. (r+1)·n]`), so a
//! step streams each row linearly instead of chasing `n` separate heap
//! allocations. The arenas are partitioned into *slabs* (one slab = one
//! contiguous arena owning a block of consecutive rows), **one per
//! step-executing thread**, with a fixed owner for the engine's life: the
//! caller thread computes slab 0, pool worker `b` computes slab `b`. The
//! slab is the unit of write ownership during a step: each slab's double
//! buffer is held by exactly one thread while a step is in flight, so
//! parallel writes never alias without any locking or unsafe code.
//!
//! The per-row kernel ([`step_slab`]) is one sweep: write the retained
//! half, fold the row's senders' contributions (plus any forged
//! disturbance mass), then the ε test of the merged row against the row it
//! was merged from (see *Convergence detection*). Uniform gossip gives a
//! row Poisson(1) senders, so the 0- and 1-sender cases are fused into a
//! single pass over the row. The inner loops are fixed-stride `f64` walks
//! over whole rows, shaped for auto-vectorization. The state is four n×n
//! arenas — `x` and `w`, each double-buffered — and nothing else scales
//! with n².
//!
//! ## Determinism contract
//!
//! [`par_step`](VectorGossipEngine::par_step) is **bit-identical** to the
//! sequential [`step`](VectorGossipEngine::step) for the same RNG state, for
//! any thread count, including under message loss, dead nodes and gossip
//! disturbance. Three rules make this hold:
//!
//! 1. gossip targets and loss decisions are always drawn *sequentially* on
//!    the caller thread, in ascending sender order;
//! 2. deliveries are grouped **by receiver** and each receiver folds its
//!    senders in ascending order (fixed floating-point addition order); the
//!    sequential step uses the *same* receiver-grouped kernel;
//! 3. per-row work (retain + merge + convergence bookkeeping) touches only
//!    that row's state, so slab boundaries and slab ownership cannot
//!    change any value.
//!
//! The sequential `step` is the reference: the bit-identity test matrix
//! and the `invariants` feature's per-step shadow run compare the pool's
//! results against it.
//!
//! ## Scheduling
//!
//! Under uniform targets a contiguous share of the rows carries a
//! near-equal share of the senders, so the split is static. The workers
//! are a persistent pool (an epoch at n = 256 is ≈ 460 steps; spawning
//! threads per step would show there). The shared read state is passed as
//! persistent `Arc` arenas (cheap per-step `Arc` clones — the slab
//! payloads are never moved or copied), and the freshly written slabs are
//! published by **buffer swap** with the read arenas once all writers are
//! done.
//!
//! A step is one hand-off out and one back per worker, ≈ 460 times per
//! n = 256 epoch, so the price of a hand-off is the price of the
//! parallel step. On the 2-vCPU reference box a `send` to a worker
//! parked in `recv` costs the sender 17–20 µs (futex wake, IPI, a HLT
//! exit on the guest) and the result then arrives 59–77 µs after the
//! caller finished a slab that took 108–129 µs: the 2-thread step ran
//! 164–192 µs against 131–147 µs sequential. Both receives of the
//! exchange — the worker's for its next job, the caller's for a result —
//! therefore poll `try_recv` up to `SPIN_BUDGET` times (≈ 27 ns a poll,
//! ≈ 0.5 ms) before they park; caught polling, the same hand-offs cost
//! 2.6–3.1 µs and 8–24 µs, and the benchmark's traced n = 256 step went
//! from 165–190 µs to 112–125 µs. The spinner yields its timeslice every 256
//! polls, so a peer that is runnable but not running (another engine or
//! a client thread holds the hardware thread) gets the CPU instead of
//! waiting out the spin; on an idle machine the yield returns at once.
//! After the budget an idle worker is parked exactly as before — an
//! engine between epochs burns one budget per worker, then nothing.
//! Spinning needs a hardware thread per executor: with more slabs than
//! `available_parallelism` the budget is 0 (`spin_budget`; 8 slabs on
//! the 2-thread box: 266 µs/step parked, 2 325 µs/step spinning without
//! the rule), decided once when the pool is created.
//!
//! Two threads that never sleep are placed by the scheduler's periodic
//! balancing alone, and on that box's guest kernel it is slow: two
//! CPU-bound processes pinned one to a vCPU each take what one takes
//! alone (the vCPUs are independent hardware), but unpinned they share
//! one vCPU for 0.3–1.6 s while the other idles and take 2× (5 of 6
//! trials) — an idle CPU is only picked reliably when a thread *wakes*.
//! The parked pool re-placed its worker at every step; this one does at
//! every park, i.e. once per epoch (the gap between two epochs outlasts
//! the budget). In between, a third task can push caller and worker onto
//! one vCPU: 1.4–6.4 % of the sampled steps of `epoch_n256` runs, where
//! the yield above keeps the step near the sequential one's cost. It is
//! also why single `par_speedup` readings (a 50-step probe) swing
//! 0.8–1.3 there.
//!
//! ## Convergence detection
//!
//! Node `i` considers itself converged when
//!
//! 1. every component's consensus factor `w_j > 0` (otherwise the estimate
//!    is the paper's `∞` case),
//! 2. the maximum *relative* change of its estimates since the previous
//!    step is ≤ ε, for `patience` consecutive steps, and
//! 3. at least `min_steps` (default `⌈log₂ n⌉`) steps have elapsed, since
//!    push-sum needs that long for weights to spread at all.
//!
//! The relative (rather than absolute) change matches §3's accuracy goal —
//! "the estimated score `v` within `[(1−ε)v, (1+ε)v]`" — and keeps the
//! detector scale-free as `n` grows (global scores shrink like `1/n`).
//!
//! Condition 2 compares two consecutive triplets the node already holds,
//! so the kernel keeps no memory of the previous ratios: it derives
//! `x_j/w_j` of the step before from the read row it has just merged from
//! (`row_passes`). A ratio with no previous weight (`w_j = 0` one step
//! earlier — every `j ≠ i` right after [`VectorGossipEngine::seed`]) has
//! no previous value and fails, whatever the division yields. The test
//! walks the row in blocks of `EPS_BLOCK` elements, branch-free inside a
//! block, and returns at the first block holding a failure: far from
//! convergence that is the row's first block, and only a cycle's last few
//! steps walk whole rows. A row nobody pushed to was only halved; where
//! halving is exact (no operand within a factor 2 of the subnormals)
//! every ratio is unchanged bit for bit and the row passes without a
//! division (`halving_keeps_ratios`). A dead node's detector is cleared
//! by [`VectorGossipEngine::kill`]; its frozen state is its previous row
//! when it returns.

use crate::chooser::TargetChooser;
use crate::stats::GossipStats;
use gossiptrust_core::id::NodeId;
use gossiptrust_core::matrix::TrustMatrix;
use gossiptrust_core::params::Params;
use gossiptrust_core::power_nodes::Prior;
use gossiptrust_core::vector::ReputationVector;
use gossiptrust_obs::{Histogram, Stopwatch};
use rand::Rng;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Sentinel in the per-step send table: "this node pushed nothing".
const NO_SEND: u32 = u32::MAX;

/// Observability hook of the gossip engine: per-step wall time, recorded
/// into an externally owned histogram.
///
/// The engine holds an `Option<EngineObs>`; the `None` default makes the
/// hook a true no-op — no clock read, no atomic — so an unobserved engine
/// pays nothing (the `obs_overhead` bin pins the observed cost < 2%).
/// Attach with [`VectorGossipEngine::set_obs`]; the handle is an `Arc` into
/// a [`Registry`](gossiptrust_obs::Registry), so a service, a bench and a
/// scrape endpoint can all watch the same engine. Counts (steps, messages,
/// bytes) are not a hook: read [`VectorGossipEngine::stats`] and
/// [`GossipStats::diff`] it, as the service's epoch loop does.
#[derive(Clone, Debug)]
pub struct EngineObs {
    /// Wall time of one full step (draw + kernel + publish), nanoseconds.
    pub step_ns: Arc<Histogram>,
}

/// Tuning knobs of the vector gossip engine.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Gossip error threshold `ε`.
    pub epsilon: f64,
    /// Consecutive below-`ε` steps required (≥ 1).
    pub patience: usize,
    /// Minimum steps before convergence may be declared.
    pub min_steps: usize,
    /// Hard step budget for one aggregation cycle.
    pub max_steps: usize,
    /// Probability that a pushed message is lost in transit.
    pub loss_rate: f64,
    /// How many leading steps of each cycle gossip disturbers forge in
    /// (see [`VectorGossipEngine::set_corruption`]). Push-sum has no
    /// damping, so an attacker forging *every* step inflates without
    /// bound and the cycle never converges; a bounded window leaves a
    /// fixed phantom bias the consensus settles on.
    pub corruption_steps: usize,
    /// Worker threads for [`VectorGossipEngine::par_step`].
    /// `1` = fully sequential. Results are bit-identical for every value.
    pub threads: usize,
}

impl EngineConfig {
    /// Derive from [`Params`] for an `n`-node network
    /// (`min_steps = ⌈log₂ n⌉`, `threads` per
    /// [`Params::resolved_threads`]: the explicit setting, else
    /// `GT_THREADS`, else the machine's available parallelism).
    pub fn from_params(params: &Params, n: usize) -> Self {
        EngineConfig {
            epsilon: params.epsilon,
            patience: params.gossip_patience,
            min_steps: (n.max(2) as f64).log2().ceil() as usize,
            max_steps: params.max_gossip_steps,
            loss_rate: 0.0,
            corruption_steps: 3,
            threads: params.resolved_threads(),
        }
    }

    /// Builder-style setter for the message loss rate.
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate must be in [0,1]");
        self.loss_rate = loss_rate;
        self
    }

    /// Builder-style setter for the worker thread count (≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be at least 1");
        self.threads = threads;
        self
    }
}

/// Outcome of a single gossip step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepOutcome {
    /// True when every alive node's detector has fired (and `min_steps`
    /// elapsed).
    pub all_converged: bool,
}

/// One contiguous block of consecutive node rows, stored row-major in two
/// flat arenas (`xs`, `ws` of `rows·n` elements each). Row `i` (global id)
/// lives at local offset `i - lo`.
#[derive(Clone, Debug)]
struct Slab {
    lo: usize,
    n: usize,
    xs: Vec<f64>,
    ws: Vec<f64>,
}

impl Slab {
    fn zeroed(lo: usize, rows: usize, n: usize) -> Self {
        Slab { lo, n, xs: vec![0.0; rows * n], ws: vec![0.0; rows * n] }
    }

    fn rows(&self) -> usize {
        self.xs.len() / self.n
    }

    fn x_row(&self, i: usize) -> &[f64] {
        let r = i - self.lo;
        &self.xs[r * self.n..(r + 1) * self.n]
    }

    fn w_row(&self, i: usize) -> &[f64] {
        let r = i - self.lo;
        &self.ws[r * self.n..(r + 1) * self.n]
    }
}

/// Per-node gossip disturbance: the component ids whose pushed x the
/// node inflates, and the inflation factor (`None` = honest node).
type CorruptionTable = Vec<Option<(Vec<u32>, f64)>>;

/// The write-side of one slab during a step: the double-buffered next
/// state and the per-row result of the ε test (`true` = every ratio of
/// the row is defined and moved by ≤ ε this step). Owned by exactly one
/// worker while a step is in flight.
#[derive(Clone, Debug)]
struct SlabTask {
    slab: Slab,
    out: Vec<bool>,
}

/// Everything a step reads but never writes: the pre-step state (`Arc`
/// handles onto the engine's persistent read arenas — cloning these is a
/// refcount bump, the slab payloads never move), liveness, the disturbance
/// table, and the receiver-grouped send lists in CSR form (`senders of i =
/// flat[offsets[i]..offsets[i+1]]`, ascending). Shared immutably by all
/// workers via `Arc`.
struct StepRead {
    epsilon: f64,
    rows_per: usize,
    slabs: Vec<Arc<Slab>>,
    alive: Arc<Vec<bool>>,
    corruption: Arc<CorruptionTable>,
    corrupt_active: bool,
    offsets: Vec<u32>,
    flat: Vec<u32>,
}

impl StepRead {
    fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let s = &self.slabs[i / self.rows_per];
        (s.x_row(i), s.w_row(i))
    }

    fn senders(&self, i: usize) -> &[u32] {
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Gossip disturbance: add the forged extra mass sender `s` claims on top
/// of its honest half (the receiver cannot tell — only signatures on
/// *values* could, and push-sum values are sender-claimed). Forging is
/// confined to the first `corruption_steps` of the cycle. `px` is the
/// sender's x row, `nx` the receiver's write row.
#[inline]
fn forge(read: &StepRead, s: usize, px: &[f64], nx: &mut [f64]) {
    if read.corrupt_active {
        if let Some((targets, factor)) = &read.corruption[s] {
            for &j in targets {
                let j = j as usize;
                nx[j] += 0.5 * px[j] * (factor - 1.0);
            }
        }
    }
}

/// Elements per block of the ε test: the unit the test is vectorised over
/// and the granularity at which a row's test stops at its first failure.
const EPS_BLOCK: usize = 32;

/// Whether any element of one block fails the ε test. `(nx, nw)` is the
/// merged row, `(sx, sw)` the same node's row one step earlier; element
/// `j` fails when either ratio is undefined (`w` not positive — the
/// paper's `∞` case — or the previous ratio `NaN`) or the ratio moved by
/// more than ε relative to its new value. A `NaN` relative change (an
/// infinite or `NaN` new ratio) does not fail. Branch-free, so the block
/// compiles to packed divides and compares.
#[inline]
fn block_fails(nx: &[f64], nw: &[f64], sx: &[f64], sw: &[f64], epsilon: f64) -> bool {
    let mut fails = false;
    for (((&nx, &nw), &sx), &sw) in nx.iter().zip(nw).zip(sx).zip(sw) {
        let b = nx / nw;
        let prev = sx / sw;
        let rel = (b - prev).abs() / b.abs().max(f64::MIN_POSITIVE);
        let defined = (nw > 0.0) & (sw > 0.0) & !prev.is_nan();
        fails |= !defined | (rel > epsilon);
    }
    fails
}

/// The ε test of one row: no element fails. The previous ratios are
/// derived from the read row the merge streamed anyway, and the walk
/// returns at the first block that holds a failure — far from
/// convergence that is the first block of the row.
fn row_passes(nx: &[f64], nw: &[f64], sx: &[f64], sw: &[f64], epsilon: f64) -> bool {
    nx.chunks(EPS_BLOCK)
        .zip(nw.chunks(EPS_BLOCK))
        .zip(sx.chunks(EPS_BLOCK).zip(sw.chunks(EPS_BLOCK)))
        .all(|((nx, nw), (sx, sw))| !block_fails(nx, nw, sx, sw, epsilon))
}

/// Whether halving the row `(sx, sw)` is exact and leaves every ratio
/// defined: each `w` is finite and ≥ 2·`MIN_POSITIVE`, each `x` is zero or
/// has magnitude ≥ 2·`MIN_POSITIVE`. Then `(0.5·x)/(0.5·w)` and `x/w`
/// round the same real quotient from exact operands, so a row that only
/// halved this step (no sender) keeps every ratio bit for bit and passes
/// the ε test without a division. Rows holding subnormal-adjacent, `NaN`
/// or infinite-`w` values decline and take [`row_passes`].
fn halving_keeps_ratios(sx: &[f64], sw: &[f64]) -> bool {
    const EXACT: f64 = 2.0 * f64::MIN_POSITIVE;
    sx.chunks(EPS_BLOCK).zip(sw.chunks(EPS_BLOCK)).all(|(sx, sw)| {
        let mut keeps = true;
        for (&x, &w) in sx.iter().zip(sw) {
            let a = x.abs();
            keeps &= (EXACT..=f64::MAX).contains(&w) & ((a >= EXACT) | (a <= 0.0));
        }
        keeps
    })
}

/// The step kernel: for every row the worker owns, (a) write the retained
/// half (or the frozen copy for a dead node), (b) fold the deliveries of
/// this row's senders in ascending order — each sender's forged
/// disturbance mass immediately after its honest add — and (c) run the ε
/// test of the merged row against the read row. Used verbatim by both
/// the sequential and the parallel step, which is what makes those
/// bit-identical.
fn step_slab(read: &StepRead, task: &mut SlabTask) {
    let n = task.slab.n;
    let lo = task.slab.lo;
    for r in 0..task.slab.rows() {
        let i = lo + r;
        let (sx, sw) = read.row(i);
        let nx = &mut task.slab.xs[r * n..(r + 1) * n];
        let nw = &mut task.slab.ws[r * n..(r + 1) * n];
        if !read.alive[i] {
            // Frozen state carries over unchanged (a dead node also
            // receives nothing: its senders were filtered at draw time).
            nx.copy_from_slice(sx);
            nw.copy_from_slice(sw);
            task.out[r] = true;
            continue;
        }
        // Uniform gossip gives a row Poisson(1) senders, so 0 and 1
        // dominate; fuse their retain+merge into a single pass over the
        // row (the same per-element op sequence as the general arm —
        // `0.5·s` then `+ 0.5·p` — just without round-tripping the
        // intermediate through the write slice, which cannot change a bit).
        let senders = read.senders(i);
        match *senders {
            [] => {
                for (d, &s) in nx.iter_mut().zip(sx) {
                    *d = 0.5 * s;
                }
                for (d, &s) in nw.iter_mut().zip(sw) {
                    *d = 0.5 * s;
                }
            }
            [s] => {
                let s = s as usize;
                let (px, pw) = read.row(s);
                for ((d, &o), &p) in nx.iter_mut().zip(sx).zip(px) {
                    *d = 0.5 * o + 0.5 * p;
                }
                for ((d, &o), &p) in nw.iter_mut().zip(sw).zip(pw) {
                    *d = 0.5 * o + 0.5 * p;
                }
                forge(read, s, px, nx);
            }
            _ => {
                for (d, &s) in nx.iter_mut().zip(sx) {
                    *d = 0.5 * s;
                }
                for (d, &s) in nw.iter_mut().zip(sw) {
                    *d = 0.5 * s;
                }
                for &s in senders {
                    let s = s as usize;
                    let (px, pw) = read.row(s);
                    for (d, &v) in nx.iter_mut().zip(px) {
                        *d += 0.5 * v;
                    }
                    for (d, &v) in nw.iter_mut().zip(pw) {
                        *d += 0.5 * v;
                    }
                    forge(read, s, px, nx);
                }
            }
        }
        task.out[r] = (senders.is_empty() && halving_keeps_ratios(sx, sw))
            || row_passes(nx, nw, sx, sw, read.epsilon);
    }
}

/// A job handed to a pool worker: the shared read-state plus the slab it
/// exclusively writes this step.
struct StepJob {
    read: Arc<StepRead>,
    task: SlabTask,
}

/// `try_recv` polls a hand-off receive makes before it parks in `recv`.
/// Sized on the 2-vCPU reference box (≈ 27 ns per poll, so ≈ 0.5 ms):
/// 2 000 polls already recover the whole gain at n = 256, but one step's
/// caller/worker imbalance at n = 1000 is 40–170 µs and a receive that
/// parks there pays the wake again (`epoch_n1000` p50 1.02× the parked
/// pool's with 2 000, 0.88× with 20 000). An engine between epochs burns
/// one budget per worker and then sleeps. See *Scheduling* in the module
/// docs.
const SPIN_BUDGET: u32 = 20_000;

/// Polls between two `yield_now` calls of a spinning receive (≈ 7 µs).
/// The awaited thread may be runnable but not running — a second engine
/// or a client thread has its hardware thread — and then every poll until
/// the scheduler steps in is wasted on both sides: the workspace's debug
/// test suites, two 2-slab engines at a time on two hardware threads, ran
/// 2.5–6× longer without the yield and as before with it, while the
/// uncontended hand-off does not see it (`epoch_n256` p50 0.72× the
/// parked pool's either way).
const YIELD_EVERY: u32 = 256;

/// The spin budget of a pool driving `slabs` executors (caller included)
/// on a machine with `hardware_threads`: spinning only pays while every
/// executor has a hardware thread of its own to spin on. Oversubscribed
/// by construction, every spinner holds the thread another executor
/// needs (n = 256, 8 slabs on 2 hardware threads: 266 µs/step parked,
/// 2 325 µs spinning), so the budget is 0 and every receive parks at
/// once.
fn spin_budget(slabs: usize, hardware_threads: usize) -> u32 {
    if slabs > hardware_threads {
        0
    } else {
        SPIN_BUDGET
    }
}

/// One receive of the ownership ping-pong: poll `try_recv` up to `budget`
/// times, yielding every [`YIELD_EVERY`] polls, then park in `recv`. A
/// disconnect seen while spinning is returned at once.
fn recv_spin_then_park<T>(rx: &mpsc::Receiver<T>, budget: u32) -> Result<T, mpsc::RecvError> {
    for poll in 1..=budget {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) if poll % YIELD_EVERY == 0 => thread::yield_now(),
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv()
}

/// What a worker sends instead of its task when it dies mid-step.
#[derive(Debug)]
struct WorkerPanicked;

/// Held by a worker for its whole life: if the thread unwinds (a panic
/// inside `step_slab`), report it on the result channel. The other
/// workers' sender clones keep that channel open, so without this the
/// caller would wait forever for a task that is gone.
struct DeathNotice(mpsc::Sender<Result<SlabTask, WorkerPanicked>>);

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if thread::panicking() {
            let _ = self.0.send(Err(WorkerPanicked));
        }
    }
}

/// The persistent worker pool: one long-lived thread per slab but the
/// first (the caller thread computes slab 0), created once per engine on
/// the first parallel step and reused for every subsequent step and cycle
/// — no per-step thread spawns. Work is exchanged by *ownership*: each
/// step worker `b` receives slab `b`'s `SlabTask` by value and sends it
/// back when done, so no locking or unsafe aliasing is involved. Both
/// receives of that exchange spin briefly before they park
/// ([`recv_spin_then_park`]).
#[derive(Debug)]
struct WorkerPool {
    job_txs: Vec<mpsc::Sender<StepJob>>,
    result_rx: mpsc::Receiver<Result<SlabTask, WorkerPanicked>>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Fixed at creation from [`spin_budget`].
    budget: u32,
}

impl WorkerPool {
    /// `workers` threads named `gt-gossip-<b>` (`b` = the slab each owns),
    /// all receiving with `budget` polls before they park.
    fn new(workers: usize, budget: u32) -> Self {
        let (result_tx, result_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for b in 1..=workers {
            let (tx, rx) = mpsc::channel::<StepJob>();
            let notice = DeathNotice(result_tx.clone());
            let worker = move || {
                while let Ok(StepJob { read, mut task }) = recv_spin_then_park(&rx, budget) {
                    step_slab(&read, &mut task);
                    // Release the shared state before reporting back so the
                    // main thread can reclaim it with `Arc::try_unwrap`.
                    drop(read);
                    if notice.0.send(Ok(task)).is_err() {
                        break;
                    }
                }
            };
            let handle = thread::Builder::new()
                .name(format!("gt-gossip-{b}"))
                .spawn(worker)
                .expect("spawn gossip worker thread");
            handles.push(handle);
            job_txs.push(tx);
        }
        WorkerPool { job_txs, result_rx, handles, budget }
    }

    /// The next finished task, from whichever worker reports first.
    /// Panics if a worker died instead of finishing its slab.
    fn recv_task(&self) -> SlabTask {
        recv_spin_then_park(&self.result_rx, self.budget)
            .expect("gossip workers exited")
            .expect("gossip worker panicked")
    }

    /// Close the job channels — which ends every worker loop, spinning or
    /// parked — and join the threads. Returns how many had panicked.
    fn shut_down(&mut self) -> usize {
        self.job_txs.clear();
        self.handles.drain(..).filter_map(|h| h.join().err()).count()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// The synchronous-round vector gossip engine.
#[derive(Debug)]
pub struct VectorGossipEngine {
    n: usize,
    config: EngineConfig,
    /// Rows per slab: slab `k` holds rows `k·rows_per ..`.
    rows_per: usize,
    /// Current state: persistent slab-partitioned flat arenas behind
    /// `Arc`s, one slab per step-executing thread (caller + pool workers).
    /// During a step every thread reads them through cheap `Arc`
    /// clones; `finish_step` reclaims uniqueness and swaps each freshly
    /// written buffer in. The payloads are allocated once and never move.
    cur: Vec<Arc<Slab>>,
    /// Write buffers + convergence memory, one task per slab. `None` only
    /// transiently while a task is checked out to a pool worker.
    tasks: Vec<Option<SlabTask>>,
    streaks: Vec<usize>,
    alive: Arc<Vec<bool>>,
    /// Gossip disturbance: per-node list of components whose pushed x the
    /// node inflates, and the inflation factor (None = honest).
    corruption: Arc<CorruptionTable>,
    stats: GossipStats,
    step_idx: usize,
    // Reused per-step scratch (send table + CSR build): a step never
    // allocates in proportion to n² or to the deliveries. What it does
    // allocate is the read-state bundle — the `Vec` of slab `Arc` handles
    // in `make_read` (one pointer per slab) and, in `par_step`, the
    // `Arc<StepRead>` the workers share — both freed when the step ends.
    sends: Vec<u32>,
    csr_offsets: Vec<u32>,
    csr_cursor: Vec<u32>,
    csr_flat: Vec<u32>,
    /// Lazily spawned on the first parallel step; lives as long as the
    /// engine. Never cloned.
    pool: Option<WorkerPool>,
    /// Step-timing/bytes hooks; `None` (the default) compiles the
    /// instrumentation down to a branch on a cold field.
    obs: Option<EngineObs>,
}

impl Clone for VectorGossipEngine {
    fn clone(&self) -> Self {
        VectorGossipEngine {
            n: self.n,
            config: self.config.clone(),
            rows_per: self.rows_per,
            // Deep-copy the read arenas: the clone must own its buffers
            // uniquely or the buffer-swap publish would see a shared Arc.
            cur: self.cur.iter().map(|s| Arc::new((**s).clone())).collect(),
            tasks: self.tasks.clone(),
            streaks: self.streaks.clone(),
            alive: self.alive.clone(),
            corruption: self.corruption.clone(),
            stats: self.stats,
            step_idx: self.step_idx,
            sends: self.sends.clone(),
            csr_offsets: self.csr_offsets.clone(),
            csr_cursor: self.csr_cursor.clone(),
            csr_flat: self.csr_flat.clone(),
            // The clone spawns its own pool on demand.
            pool: None,
            obs: self.obs.clone(),
        }
    }
}

impl VectorGossipEngine {
    /// Engine with all state zeroed; call [`seed`](Self::seed) before
    /// stepping.
    pub fn new(n: usize, config: EngineConfig) -> Self {
        assert!(n >= 2, "gossip needs at least two nodes");
        assert!(config.patience >= 1, "patience must be >= 1");
        assert!(config.epsilon >= 0.0, "epsilon must be non-negative");
        // One slab per step-executing thread. Rounding `rows_per` up can
        // leave fewer slabs than configured threads (n = 9, threads = 4 →
        // 3 slabs of 3 rows); everything downstream counts the slabs
        // actually built, never `config.threads`.
        let rows_per = n.div_ceil(config.threads.clamp(1, n));
        let mut cur = Vec::new();
        let mut tasks = Vec::new();
        let mut lo = 0;
        while lo < n {
            let rows = rows_per.min(n - lo);
            cur.push(Arc::new(Slab::zeroed(lo, rows, n)));
            tasks.push(Some(SlabTask { slab: Slab::zeroed(lo, rows, n), out: vec![true; rows] }));
            lo += rows;
        }
        VectorGossipEngine {
            n,
            config,
            rows_per,
            cur,
            tasks,
            streaks: vec![0; n],
            alive: Arc::new(vec![true; n]),
            corruption: Arc::new(vec![None; n]),
            stats: GossipStats::default(),
            step_idx: 0,
            sends: vec![NO_SEND; n],
            csr_offsets: vec![0; n + 1],
            csr_cursor: vec![0; n],
            csr_flat: Vec::with_capacity(n),
            pool: None,
            obs: None,
        }
    }

    /// Attach (or with `None`, detach) the step-timing and bytes-streamed
    /// hooks. Observation never changes results: the recorded values flow
    /// out of the engine only.
    pub fn set_obs(&mut self, obs: Option<EngineObs>) {
        self.obs = obs;
    }

    /// Make `node` a *gossip disturber*: every pair it pushes has the `x`
    /// values of `targets` multiplied by `factor` (> 1 injects phantom
    /// reputation mass for those components — the "disturbance by
    /// malicious peers" the paper's robustness experiments measure; the
    /// node's own retained half stays honest, so the corruption is pure
    /// message forgery). `factor = 1` or an empty target list restores
    /// honesty.
    pub fn set_corruption(&mut self, node: NodeId, targets: Vec<u32>, factor: f64) {
        assert!(factor >= 0.0, "factor must be non-negative");
        assert!(targets.iter().all(|&t| (t as usize) < self.n), "corruption target out of range");
        let table = Arc::make_mut(&mut self.corruption);
        if targets.is_empty() || factor == 1.0 {
            table[node.index()] = None;
        } else {
            table[node.index()] = Some((targets, factor));
        }
    }

    /// Seed a new aggregation cycle per Algorithm 2, lines 5–11, with the
    /// greedy-factor mixing folded into the weighted scores:
    ///
    /// ```text
    /// x_i[j] ← v_i(t−1) · [ (1−α)·s_ij + α·p_j ]
    /// w_i[j] ← 1  iff  j == i
    /// ```
    ///
    /// Summed over `i` this yields `(1−α)(Sᵀ·V)_j + α·p_j` because
    /// `Σ_i v_i = 1`, i.e. exactly one centralized iteration of Eq. 2.
    pub fn seed(
        &mut self,
        matrix: &TrustMatrix,
        v_prev: &ReputationVector,
        prior: &Prior,
        alpha: f64,
    ) {
        assert_eq!(matrix.n(), self.n, "matrix size mismatch");
        assert_eq!(v_prev.n(), self.n, "vector size mismatch");
        assert_eq!(prior.n(), self.n, "prior size mismatch");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let n = self.n;
        let p = prior.to_dense();
        for slab in &mut self.cur {
            let slab = Arc::get_mut(slab).expect("no step in flight");
            for r in 0..slab.rows() {
                let i = slab.lo + r;
                let id = NodeId::from_index(i);
                let vi = v_prev.score(id);
                let xi = &mut slab.xs[r * n..(r + 1) * n];
                // α-jump share, spread per the prior.
                for (x, &pj) in xi.iter_mut().zip(&p) {
                    *x = vi * alpha * pj;
                }
                // (1−α) share along the trust row.
                if matrix.row_is_dangling(id) {
                    let share = vi * (1.0 - alpha) / n as f64;
                    for x in xi.iter_mut() {
                        *x += share;
                    }
                } else {
                    let (cols, vals) = matrix.row(id);
                    for (&c, &s) in cols.iter().zip(vals) {
                        xi[c as usize] += vi * (1.0 - alpha) * s;
                    }
                }
                let wi = &mut slab.ws[r * n..(r + 1) * n];
                wi.fill(0.0);
                wi[i] = 1.0;
            }
        }
        self.streaks.fill(0);
        self.step_idx = 0;
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// Mark a node dead: it stops sending and receiving; pushes addressed to
    /// it are lost. Its state is frozen (the mass it holds leaves the
    /// computation — exactly what a crash does to push-sum), and so is its
    /// detector: a revived node starts its `patience` count over.
    pub fn kill(&mut self, node: NodeId) {
        Arc::make_mut(&mut self.alive)[node.index()] = false;
        self.streaks[node.index()] = 0;
    }

    /// Revive a node (it re-enters gossip with its frozen state).
    pub fn revive(&mut self, node: NodeId) {
        Arc::make_mut(&mut self.alive)[node.index()] = true;
    }

    /// Whether `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// `(x, w)` state row of node `i`.
    fn row(&self, i: usize) -> (&[f64], &[f64]) {
        let s = &self.cur[i / self.rows_per];
        (s.x_row(i), s.w_row(i))
    }

    /// Total `(Σx[j], Σw[j])` over all nodes for component `j` — conserved
    /// while no messages are lost and no nodes die.
    pub fn component_mass(&self, j: NodeId) -> (f64, f64) {
        let j = j.index();
        let mut x = 0.0;
        let mut w = 0.0;
        for i in 0..self.n {
            let (xs, ws) = self.row(i);
            x += xs[j];
            w += ws[j];
        }
        (x, w)
    }

    /// Node `i`'s current estimate of the full score vector:
    /// `β_j = x_j/w_j`, with 0 where `w_j = 0` (no information yet).
    pub fn extract(&self, i: NodeId) -> Vec<f64> {
        let (xs, ws) = self.row(i.index());
        xs.iter()
            .zip(ws)
            .map(|(&x, &w)| if w > 0.0 { x / w } else { 0.0 })
            .collect()
    }

    /// The mean of all alive nodes' estimates — the lowest-variance readout
    /// of the consensus, used by the cycle driver. Streams the flat arenas
    /// row-major (one linear pass).
    pub fn mean_estimate(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n];
        let mut count = 0usize;
        for i in 0..self.n {
            if !self.alive[i] {
                continue;
            }
            count += 1;
            let (xs, ws) = self.row(i);
            for (a, (&x, &w)) in acc.iter_mut().zip(xs.iter().zip(ws)) {
                if w > 0.0 {
                    *a += x / w;
                }
            }
        }
        assert!(count > 0, "no alive nodes");
        for a in acc.iter_mut() {
            *a /= count as f64;
        }
        acc
    }

    /// Maximum over components of (max−min) spread of estimates across
    /// alive nodes — a global consensus-quality oracle used in tests.
    /// Single row-major pass over the flat arenas, tracking per-component
    /// running min/max (the old column-major walk was the worst possible
    /// access pattern for the row-major layout).
    pub fn consensus_spread(&self) -> f64 {
        let mut lo = vec![f64::INFINITY; self.n];
        let mut hi = vec![f64::NEG_INFINITY; self.n];
        for i in 0..self.n {
            if !self.alive[i] {
                continue;
            }
            let (xs, ws) = self.row(i);
            for j in 0..self.n {
                let w = ws[j];
                if w <= 0.0 {
                    return f64::INFINITY;
                }
                let b = xs[j] / w;
                lo[j] = lo[j].min(b);
                hi[j] = hi[j].max(b);
            }
        }
        lo.iter().zip(&hi).map(|(&l, &h)| h - l).fold(0.0, f64::max)
    }

    /// Phase 0 of a step, always sequential: draw every alive node's gossip
    /// target and loss decision in ascending sender order (the RNG
    /// consumption order both step flavours share), update the message
    /// counters, and build the receiver-grouped CSR send lists (senders
    /// ascending within each receiver). Returns whether disturbance is
    /// active this step.
    fn draw_sends<C: TargetChooser, R: Rng + ?Sized>(&mut self, chooser: &C, rng: &mut R) -> bool {
        let n = self.n;
        for i in 0..n {
            self.sends[i] = NO_SEND;
            if !self.alive[i] {
                continue;
            }
            let t = chooser.choose(i, self.step_idx, n, rng);
            self.stats.messages_sent += 1;
            self.stats.triplets_sent += n as u64;
            let lost = !self.alive[t]
                || (self.config.loss_rate > 0.0 && rng.random::<f64>() < self.config.loss_rate);
            if lost {
                self.stats.messages_dropped += 1;
            } else {
                self.sends[i] = t as u32;
            }
        }
        // Counting sort into CSR: offsets, then fill ascending.
        self.csr_offsets.fill(0);
        for &t in &self.sends {
            if t != NO_SEND {
                self.csr_offsets[t as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.csr_offsets[i + 1] += self.csr_offsets[i];
        }
        self.csr_cursor.copy_from_slice(&self.csr_offsets[..n]);
        self.csr_flat.clear();
        self.csr_flat.resize(self.csr_offsets[n] as usize, 0);
        for (i, &t) in self.sends.iter().enumerate() {
            if t != NO_SEND {
                let c = &mut self.csr_cursor[t as usize];
                self.csr_flat[*c as usize] = i as u32;
                *c += 1;
            }
        }
        self.step_idx < self.config.corruption_steps && self.corruption.iter().any(Option::is_some)
    }

    /// Package the read-only step state: `Arc` handles onto the persistent
    /// read arenas (a refcount bump per slab — the payloads never move)
    /// plus the CSR buffers, which are moved out and handed back by
    /// [`Self::restore_read`].
    fn make_read(&mut self, corrupt_active: bool) -> StepRead {
        StepRead {
            epsilon: self.config.epsilon,
            rows_per: self.rows_per,
            slabs: self.cur.clone(),
            alive: self.alive.clone(),
            corruption: self.corruption.clone(),
            corrupt_active,
            offsets: std::mem::take(&mut self.csr_offsets),
            flat: std::mem::take(&mut self.csr_flat),
        }
    }

    fn restore_read(&mut self, read: StepRead) {
        self.csr_offsets = read.offsets;
        self.csr_flat = read.flat;
        // Dropping `read` here releases its slab `Arc` clones, restoring
        // unique ownership of the read arenas to the engine.
    }

    /// Publish the step by **buffer swap**: reclaim unique ownership of
    /// each read arena (every step participant has dropped its `Arc`
    /// clones by now) and swap the task's freshly written slab with it —
    /// the written buffer becomes the readable state, the old state
    /// becomes the task's write buffer for the next step. Then fold the
    /// per-row convergence results into the streak counters and account
    /// the step's estimated memory traffic.
    fn finish_step(&mut self) -> StepOutcome {
        for (cur, task) in self.cur.iter_mut().zip(&mut self.tasks) {
            let task = task.as_mut().expect("all tasks returned");
            let cur = Arc::get_mut(cur).expect("readers released at publish");
            std::mem::swap(cur, &mut task.slab);
        }
        self.step_idx += 1;
        self.stats.steps += 1;
        self.stats.bytes_streamed += crate::stats::step_bytes_estimate(self.n, self.csr_flat.len());

        let mut all = true;
        for task in &self.tasks {
            let task = task.as_ref().expect("all tasks returned");
            let lo = task.slab.lo;
            for (r, &passed) in task.out.iter().enumerate() {
                let i = lo + r;
                if !self.alive[i] {
                    continue;
                }
                self.streaks[i] = if passed { self.streaks[i] + 1 } else { 0 };
                all &= self.streaks[i] >= self.config.patience;
            }
        }
        StepOutcome { all_converged: all && self.step_idx >= self.config.min_steps }
    }

    /// Execute one synchronous gossip step, sequentially.
    pub fn step<C: TargetChooser, R: Rng + ?Sized>(
        &mut self,
        chooser: &C,
        rng: &mut R,
    ) -> StepOutcome {
        // One cold branch when unobserved; one clock read when observed.
        let sw = self.obs.as_ref().map(|_| Stopwatch::start());
        let corrupt_active = self.draw_sends(chooser, rng);
        #[cfg(feature = "invariants")]
        let expected = self.expected_masses_after(corrupt_active);
        let read = self.make_read(corrupt_active);
        for task in &mut self.tasks {
            step_slab(&read, task.as_mut().expect("no step in flight"));
        }
        self.restore_read(read);
        let outcome = self.finish_step();
        #[cfg(feature = "invariants")]
        self.assert_masses(&expected, "VectorGossipEngine::step");
        if let (Some(sw), Some(obs)) = (sw, self.obs.as_ref()) {
            obs.step_ns.record(sw.elapsed_ns());
        }
        outcome
    }

    /// A data-parallel [`step`](Self::step) over the engine's persistent
    /// worker pool, producing **bit-identical** results to the sequential
    /// step for the same RNG state — including under message loss, dead
    /// nodes and gossip disturbance (see the module docs for the
    /// determinism contract). With one slab (`threads = 1`) this *is* the
    /// sequential step. The pool is spawned on the first call and reused
    /// across steps and cycles.
    pub fn par_step<C: TargetChooser, R: Rng + ?Sized>(
        &mut self,
        chooser: &C,
        rng: &mut R,
    ) -> StepOutcome {
        if self.cur.len() == 1 {
            // Delegation: the sequential step carries the instrumentation,
            // so the step is never timed twice.
            return self.step(chooser, rng);
        }
        let sw = self.obs.as_ref().map(|_| Stopwatch::start());
        let corrupt_active = self.draw_sends(chooser, rng);
        #[cfg(feature = "invariants")]
        let expected = self.expected_masses_after(corrupt_active);
        if self.pool.is_none() {
            let slabs = self.cur.len();
            let hardware_threads = thread::available_parallelism().map_or(1, |p| p.get());
            self.pool = Some(WorkerPool::new(slabs - 1, spin_budget(slabs, hardware_threads)));
        }
        let read = Arc::new(self.make_read(corrupt_active));
        // Shadow run of the sequential kernel over a copy of every task:
        // the bit-identity contract checked against the pool's results
        // below, every step, while the feature is on.
        #[cfg(feature = "invariants")]
        let shadow: Vec<SlabTask> = {
            let mut shadow: Vec<SlabTask> = self
                .tasks
                .iter()
                .map(|t| t.clone().expect("no step in flight"))
                .collect();
            for task in &mut shadow {
                step_slab(&read, task);
            }
            shadow
        };
        // Slab `b ≥ 1` goes to worker `b`; the caller thread computes
        // slab 0 meanwhile.
        let pool = self.pool.as_ref().expect("pool just created");
        for (tx, slot) in pool.job_txs.iter().zip(&mut self.tasks[1..]) {
            let task = slot.take().expect("no step in flight");
            tx.send(StepJob { read: Arc::clone(&read), task })
                .expect("gossip worker exited");
        }
        step_slab(&read, self.tasks[0].as_mut().expect("no step in flight"));
        for _ in 1..self.tasks.len() {
            let task = pool.recv_task();
            let k = task.slab.lo / self.rows_per;
            self.tasks[k] = Some(task);
        }
        let read = Arc::try_unwrap(read)
            .unwrap_or_else(|_| unreachable!("workers released the read state"));
        self.restore_read(read);
        #[cfg(feature = "invariants")]
        self.assert_par_matches_shadow(&shadow);
        let outcome = self.finish_step();
        #[cfg(feature = "invariants")]
        self.assert_masses(&expected, "VectorGossipEngine::par_step");
        if let (Some(sw), Some(obs)) = (sw, self.obs.as_ref()) {
            obs.step_ns.record(sw.elapsed_ns());
        }
        outcome
    }

    /// Per-component `(Σx, Σw)` totals this step *should* end with,
    /// derived from the send table before the step runs: the pre-step
    /// totals, minus half the row of every alive sender whose push is
    /// lost (loss-rate drop or dead receiver), plus the phantom mass
    /// every *delivered* push from a disturber forges while the
    /// corruption window is active. Injected faults are accounted, not
    /// tolerated — so the conservation check stays exact under them.
    #[cfg(feature = "invariants")]
    fn expected_masses_after(&self, corrupt_active: bool) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let mut ex = vec![0.0; n];
        let mut ew = vec![0.0; n];
        for i in 0..n {
            let (xs, ws) = self.row(i);
            for j in 0..n {
                ex[j] += xs[j];
                ew[j] += ws[j];
            }
        }
        for i in 0..n {
            let delivered = self.sends[i] != NO_SEND;
            if self.alive[i] && !delivered {
                let (xs, ws) = self.row(i);
                for j in 0..n {
                    ex[j] -= 0.5 * xs[j];
                    ew[j] -= 0.5 * ws[j];
                }
            }
            if corrupt_active && delivered {
                if let Some((targets, factor)) = &self.corruption[i] {
                    let (xs, _) = self.row(i);
                    for &j in targets {
                        ex[j as usize] += 0.5 * xs[j as usize] * (factor - 1.0);
                    }
                }
            }
        }
        (ex, ew)
    }

    /// Check every component's post-step mass against the accounting from
    /// [`Self::expected_masses_after`].
    #[cfg(feature = "invariants")]
    fn assert_masses(&self, expected: &(Vec<f64>, Vec<f64>), context: &str) {
        use gossiptrust_core::invariants::check_mass;
        let n = self.n;
        let mut ax = vec![0.0; n];
        let mut aw = vec![0.0; n];
        for i in 0..n {
            let (xs, ws) = self.row(i);
            for j in 0..n {
                ax[j] += xs[j];
                aw[j] += ws[j];
            }
        }
        for j in 0..n {
            check_mass(j, expected.0[j], ax[j], context);
            check_mass(j, expected.1[j], aw[j], context);
        }
    }

    /// Compare the pool-computed tasks against the sequential shadow run
    /// **bit for bit** (`to_bits`) — the determinism contract, enforced
    /// every parallel step while the feature is on.
    #[cfg(feature = "invariants")]
    fn assert_par_matches_shadow(&self, shadow: &[SlabTask]) {
        for (k, (task, shadow)) in self.tasks.iter().zip(shadow).enumerate() {
            let task = task.as_ref().expect("all tasks returned");
            let same_bits = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            assert!(
                same_bits(&task.slab.xs, &shadow.slab.xs)
                    && same_bits(&task.slab.ws, &shadow.slab.ws),
                "invariant violated [VectorGossipEngine::par_step]: slab {k} diverged \
                 from the sequential kernel (bit-identity contract)"
            );
            assert_eq!(
                task.out, shadow.out,
                "invariant violated [VectorGossipEngine::par_step]: slab {k} convergence \
                 results diverged from the sequential kernel"
            );
        }
    }

    /// Run until all alive nodes converge or the step budget is exhausted.
    /// Returns the number of steps taken in this call and whether
    /// convergence was reached.
    pub fn run<C: TargetChooser, R: Rng + ?Sized>(
        &mut self,
        chooser: &C,
        rng: &mut R,
    ) -> (usize, bool) {
        let mut steps = 0;
        while steps < self.config.max_steps {
            let out = self.par_step(chooser, rng);
            steps += 1;
            if out.all_converged {
                return (steps, true);
            }
        }
        (steps, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::UniformChooser;
    use gossiptrust_core::matrix::TrustMatrixBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: usize) -> TrustMatrix {
        let mut b = TrustMatrixBuilder::new(n);
        for i in 1..n {
            b.record(NodeId::from_index(i), NodeId(0), 1.0);
        }
        b.record(NodeId(0), NodeId(1), 1.0);
        b.build()
    }

    fn config(n: usize) -> EngineConfig {
        EngineConfig::from_params(&Params::for_network(n), n)
    }

    /// One lossless gossip cycle must reproduce the exact matrix–vector
    /// product on every node.
    #[test]
    fn converges_to_exact_matvec() {
        let n = 24;
        let m = star(n);
        let v0 = ReputationVector::uniform(n);
        let prior = Prior::uniform(n);
        let alpha = 0.15;
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &v0, &prior, alpha);
        let mut rng = StdRng::seed_from_u64(11);
        let (_, converged) = engine.run(&UniformChooser, &mut rng);
        assert!(converged);
        // Exact target.
        let mut exact = vec![0.0; n];
        m.transpose_mul(v0.values(), &mut exact).unwrap();
        prior.mix_into(&mut exact, alpha);
        for i in 0..n {
            let est = engine.extract(NodeId::from_index(i));
            for j in 0..n {
                let rel = (est[j] - exact[j]).abs() / exact[j].max(1e-12);
                assert!(rel < 1e-3, "node {i} comp {j}: {} vs {}", est[j], exact[j]);
            }
        }
    }

    #[test]
    fn seeding_sums_to_one_centralized_iteration() {
        let n = 10;
        let m = star(n);
        let v0 = ReputationVector::uniform(n);
        let prior = Prior::over_nodes(n, &[NodeId(0), NodeId(1)]);
        let alpha = 0.3;
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &v0, &prior, alpha);
        let mut exact = vec![0.0; n];
        m.transpose_mul(v0.values(), &mut exact).unwrap();
        prior.mix_into(&mut exact, alpha);
        #[allow(clippy::needless_range_loop)] // index drives multiple arrays
        for j in 0..n {
            let (x, w) = engine.component_mass(NodeId::from_index(j));
            assert!((x - exact[j]).abs() < 1e-12, "component {j}");
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_conserved_without_loss() {
        let n = 12;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.0);
        let before: Vec<(f64, f64)> =
            (0..n).map(|j| engine.component_mass(NodeId::from_index(j))).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            engine.step(&UniformChooser, &mut rng);
        }
        for (j, &(x0, w0)) in before.iter().enumerate() {
            let (x1, w1) = engine.component_mass(NodeId::from_index(j));
            assert!((x0 - x1).abs() < 1e-12, "x mass of comp {j}");
            assert!((w0 - w1).abs() < 1e-12, "w mass of comp {j}");
        }
    }

    /// Attaching the obs hooks must be invisible to results: an observed
    /// engine is bit-identical to a bare one, step for step, while its
    /// histogram holds one sample per step the engine counted.
    #[test]
    fn observation_is_bit_transparent() {
        let n = 16;
        let m = star(n);
        let mut bare = VectorGossipEngine::new(n, config(n).with_threads(2));
        let mut seen = bare.clone();
        bare.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        seen.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let obs = EngineObs { step_ns: Arc::new(Histogram::new()) };
        seen.set_obs(Some(obs.clone()));
        let mut rng_a = StdRng::seed_from_u64(29);
        let mut rng_b = StdRng::seed_from_u64(29);
        for _ in 0..20 {
            bare.par_step(&UniformChooser, &mut rng_a);
            seen.par_step(&UniformChooser, &mut rng_b);
        }
        let a = bare.mean_estimate();
        let b = seen.mean_estimate();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "observed engine must be bit-identical");
        }
        assert_eq!(obs.step_ns.count(), seen.stats().steps);
        assert_eq!(seen.stats(), bare.stats(), "the hook leaves the engine's own counts alone");
    }

    #[test]
    fn loss_drops_messages_but_still_converges_roughly() {
        let n = 24;
        let m = star(n);
        let cfg = config(n).with_loss_rate(0.10);
        let mut engine = VectorGossipEngine::new(n, cfg);
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(17);
        let (_, converged) = engine.run(&UniformChooser, &mut rng);
        assert!(converged, "lossy gossip should still converge");
        assert!(engine.stats().messages_dropped > 0);
        // The ratios still approximate the exact product on average:
        // push-sum loses x and w *together*, so ratios stay roughly (not
        // exactly) unbiased; individual components can drift when the drops
        // hit a component's consensus weight early, so we check the mean.
        let mut exact = vec![0.0; n];
        m.transpose_mul(&vec![1.0 / n as f64; n], &mut exact).unwrap();
        Prior::uniform(n).mix_into(&mut exact, 0.15);
        let est = engine.mean_estimate();
        let mean_rel: f64 =
            (0..n).map(|j| (est[j] - exact[j]).abs() / exact[j]).sum::<f64>() / n as f64;
        assert!(mean_rel < 0.35, "mean rel err {mean_rel}");
    }

    #[test]
    fn dead_node_freezes_and_others_converge() {
        let n = 16;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        // Let node 5's consensus weight spread before the crash; if a node
        // dies before its w seed ever leaves it, its own score component
        // becomes unaggregatable in this cycle (all of w_5 is frozen).
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..6 {
            engine.step(&UniformChooser, &mut rng);
        }
        engine.kill(NodeId(5));
        assert!(!engine.is_alive(NodeId(5)));
        let frozen = engine.extract(NodeId(5));
        let (_, converged) = engine.run(&UniformChooser, &mut rng);
        assert!(converged);
        assert_eq!(engine.extract(NodeId(5)), frozen, "dead node state must not change");
    }

    #[test]
    fn consensus_spread_shrinks() {
        let n = 16;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..4 {
            engine.step(&UniformChooser, &mut rng);
        }
        let early = engine.consensus_spread();
        for _ in 0..60 {
            engine.step(&UniformChooser, &mut rng);
        }
        let late = engine.consensus_spread();
        assert!(late < early || early == f64::INFINITY, "spread {early} -> {late}");
        assert!(late < 1e-3);
    }

    /// `mean_estimate` and `consensus_spread` are defined in terms of the
    /// per-node `extract` readout; pin the row-major implementations to
    /// that definition.
    #[test]
    fn readouts_match_extract() {
        let n = 12;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n).with_threads(3));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(41);
        // Step until every node's consensus weight has spread (w > 0
        // everywhere) so extract's 0-fallback never fires and the oracles
        // below match the readouts' definitions exactly.
        for _ in 0..200 {
            engine.step(&UniformChooser, &mut rng);
            if engine.consensus_spread().is_finite() {
                break;
            }
        }
        assert!(engine.consensus_spread().is_finite());
        engine.kill(NodeId(7));
        let per_node: Vec<Vec<f64>> =
            (0..n).map(|i| engine.extract(NodeId::from_index(i))).collect();
        let alive: Vec<usize> = (0..n).filter(|&i| i != 7).collect();
        // Oracle mean over alive nodes' extract values.
        let mut mean = vec![0.0; n];
        for &i in &alive {
            for (m, &v) in mean.iter_mut().zip(&per_node[i]) {
                *m += v;
            }
        }
        for v in mean.iter_mut() {
            *v /= alive.len() as f64;
        }
        let got = engine.mean_estimate();
        for j in 0..n {
            assert!((got[j] - mean[j]).abs() < 1e-15, "mean comp {j}");
        }
        // Oracle spread over alive nodes' extract values (all w > 0, so
        // this matches consensus_spread's definition).
        let worst = (0..n)
            .map(|j| {
                let column = || alive.iter().map(|&i| per_node[i][j]);
                let lo = column().fold(f64::INFINITY, f64::min);
                let hi = column().fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        let got = engine.consensus_spread();
        assert!((got - worst).abs() < 1e-15, "spread {got} vs oracle {worst}");
    }

    #[test]
    fn consensus_spread_is_infinite_while_weights_are_missing() {
        let n = 8;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        // Right after seeding every node only holds its own weight.
        assert_eq!(engine.consensus_spread(), f64::INFINITY);
    }

    #[test]
    fn min_steps_is_respected() {
        let n = 8;
        let m = star(n);
        let mut cfg = config(n);
        cfg.min_steps = 20;
        let mut engine = VectorGossipEngine::new(n, cfg);
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(31);
        let (steps, converged) = engine.run(&UniformChooser, &mut rng);
        assert!(converged);
        assert!(steps >= 20, "converged after only {steps} steps");
    }

    #[test]
    fn reseeding_resets_detectors() {
        let n = 8;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n));
        let v0 = ReputationVector::uniform(n);
        engine.seed(&m, &v0, &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(37);
        let (_, c1) = engine.run(&UniformChooser, &mut rng);
        assert!(c1);
        // New cycle must run again (not instantly report converged).
        engine.seed(&m, &v0, &Prior::uniform(n), 0.15);
        let out = engine.step(&UniformChooser, &mut rng);
        assert!(!out.all_converged);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_single_node() {
        let _ = VectorGossipEngine::new(1, config(2));
    }

    #[test]
    fn corrupt_sender_inflates_its_component() {
        let n = 16;
        let m = star(n);
        let run = |corrupt: bool| {
            let mut engine = VectorGossipEngine::new(n, config(n));
            engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
            if corrupt {
                engine.set_corruption(NodeId(5), vec![5], 4.0);
            }
            let mut rng = StdRng::seed_from_u64(9);
            engine.run(&UniformChooser, &mut rng);
            let est = engine.mean_estimate();
            ReputationVector::from_weights(est.iter().map(|&x| x.max(0.0)).collect()).unwrap()
        };
        let honest = run(false);
        let corrupted = run(true);
        assert!(
            corrupted.score(NodeId(5)) > honest.score(NodeId(5)) * 1.2,
            "forged mass should inflate node 5: {} vs {}",
            corrupted.score(NodeId(5)),
            honest.score(NodeId(5))
        );
    }

    #[test]
    fn corruption_can_be_cleared() {
        let n = 8;
        let mut engine = VectorGossipEngine::new(n, config(n));
        engine.set_corruption(NodeId(1), vec![1], 3.0);
        engine.set_corruption(NodeId(1), vec![], 3.0); // cleared
        engine.set_corruption(NodeId(2), vec![2], 1.0); // factor 1 = honest
        let m = star(n);
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        // With all corruption cleared, mass is conserved.
        let before: Vec<(f64, f64)> =
            (0..n).map(|j| engine.component_mass(NodeId::from_index(j))).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            engine.step(&UniformChooser, &mut rng);
        }
        for (j, &(x0, _)) in before.iter().enumerate() {
            let (x1, _) = engine.component_mass(NodeId::from_index(j));
            assert!((x0 - x1).abs() < 1e-12, "comp {j}");
        }
    }

    /// Pathologically skewed target distribution: every sender pushes to
    /// node 0 or node 1, so the first two rows carry the whole sender load
    /// — the worst case for the static slab split and the many-sender
    /// kernel arm, and unreachable with `UniformChooser`. Self-pushes
    /// (sender 0/1 drawing itself) are allowed by the trait and exercise
    /// the merge-back path.
    struct HotspotChooser;

    impl TargetChooser for HotspotChooser {
        fn choose<R: Rng + ?Sized>(
            &self,
            _sender: usize,
            _step: usize,
            n: usize,
            rng: &mut R,
        ) -> usize {
            rng.random_range(0..2.min(n))
        }
    }

    /// Drive a sequential reference and one pool engine per thread count
    /// through 12 lockstep steps over the full fault matrix — message loss
    /// × gossip disturbance × dead nodes — asserting bit-identical state,
    /// outcomes and counters after every step. The small sizes are the
    /// ones where `⌈n / threads⌉` rows per slab leave fewer slabs than
    /// configured threads (n = 9, threads = 4 → 3; n = 5, threads = 8 → 5).
    fn assert_bit_identity_matrix<C: TargetChooser>(chooser: &C, label: &str) {
        for n in [5usize, 9, 32] {
            let m = star(n);
            let node = |k: usize| (k % n) as u32;
            for loss in [0.0, 0.15] {
                for corrupt in [false, true] {
                    for dead in [false, true] {
                        let build = |threads: usize| {
                            let mut e = VectorGossipEngine::new(
                                n,
                                config(n).with_loss_rate(loss).with_threads(threads),
                            );
                            e.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
                            if corrupt {
                                e.set_corruption(NodeId(node(5)), vec![node(5), node(11)], 4.0);
                                e.set_corruption(NodeId(node(6)), vec![node(6)], 2.5);
                            }
                            if dead {
                                e.kill(NodeId(node(9)));
                            }
                            e
                        };
                        let mut seq = build(1);
                        let mut rng_seq = StdRng::seed_from_u64(77);
                        let mut pars: Vec<(VectorGossipEngine, StdRng)> = [1usize, 2, 3, 4, 8]
                            .iter()
                            .map(|&t| (build(t), StdRng::seed_from_u64(77)))
                            .collect();
                        for step in 0..12 {
                            let a = seq.step(chooser, &mut rng_seq);
                            for (par, rng_par) in pars.iter_mut() {
                                let t = par.config().threads;
                                let b = par.par_step(chooser, rng_par);
                                assert_eq!(
                                    a, b,
                                    "outcome diverged ({label}, n={n}, step={step}, threads={t}, \
                                     loss={loss}, corrupt={corrupt}, dead={dead})"
                                );
                                for i in 0..n {
                                    let id = NodeId::from_index(i);
                                    assert_eq!(
                                        seq.extract(id),
                                        par.extract(id),
                                        "node {i} state diverged ({label}, n={n}, threads={t})"
                                    );
                                }
                                assert_eq!(seq.stats(), par.stats());
                            }
                        }
                        // One executor per slab actually built: the caller
                        // plus exactly one worker for every further slab.
                        for (par, _) in &pars {
                            let workers = par.pool.as_ref().map_or(0, |p| p.handles.len());
                            assert_eq!(workers + 1, par.cur.len(), "n={n}");
                            assert!(par.cur.len() <= par.config().threads.min(n), "n={n}");
                        }
                    }
                }
            }
        }
    }

    /// The pool-parallel step must be bit-identical to the sequential step
    /// for the same RNG stream — the full fault matrix at thread counts
    /// 1–4 and 8, under uniform gossip targets.
    #[test]
    fn par_step_is_bit_identical_to_step() {
        assert_bit_identity_matrix(&UniformChooser, "uniform");
    }

    /// Same matrix under a maximally uneven sender load (all pushes land
    /// on the first two rows): the thread owning them does nearly all the
    /// merging under the static split, and none of it may change a bit.
    #[test]
    fn par_step_is_bit_identical_under_skewed_sender_load() {
        assert_bit_identity_matrix(&HotspotChooser, "hotspot");
    }

    /// The persistent pool survives reseeding: a parallel engine driven
    /// across two full aggregation cycles matches the sequential reference
    /// exactly.
    #[test]
    fn pool_is_reused_across_cycles() {
        let n = 24;
        let m = star(n);
        let mut seq = VectorGossipEngine::new(n, config(n).with_threads(1));
        let mut par = VectorGossipEngine::new(n, config(n).with_threads(4));
        let v0 = ReputationVector::uniform(n);
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        for _cycle in 0..2 {
            seq.seed(&m, &v0, &Prior::uniform(n), 0.15);
            par.seed(&m, &v0, &Prior::uniform(n), 0.15);
            let (steps_a, conv_a) = seq.run(&UniformChooser, &mut rng_a);
            let (steps_b, conv_b) = par.run(&UniformChooser, &mut rng_b);
            assert_eq!((steps_a, conv_a), (steps_b, conv_b));
            for i in 0..n {
                let id = NodeId::from_index(i);
                assert_eq!(seq.extract(id), par.extract(id), "node {i}");
            }
            assert_eq!(seq.stats(), par.stats());
        }
    }

    #[test]
    fn cloned_engine_is_independent_and_identical() {
        let n = 16;
        let m = star(n);
        let mut a = VectorGossipEngine::new(n, config(n).with_threads(2));
        a.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(3);
        a.par_step(&UniformChooser, &mut rng); // pool is live
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        a.par_step(&UniformChooser, &mut rng_a);
        b.par_step(&UniformChooser, &mut rng_b);
        for i in 0..n {
            let id = NodeId::from_index(i);
            assert_eq!(a.extract(id), b.extract(id), "node {i}");
        }
    }

    #[test]
    fn par_step_converges_like_step() {
        let n = 24;
        let m = star(n);
        let mut engine = VectorGossipEngine::new(n, config(n).with_threads(4));
        engine.seed(&m, &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(5);
        let mut converged = false;
        for _ in 0..engine.config().max_steps {
            if engine.par_step(&UniformChooser, &mut rng).all_converged {
                converged = true;
                break;
            }
        }
        assert!(converged);
        let mut exact = vec![0.0; n];
        m.transpose_mul(&vec![1.0 / n as f64; n], &mut exact).unwrap();
        Prior::uniform(n).mix_into(&mut exact, 0.15);
        let est = engine.mean_estimate();
        for j in 0..n {
            let rel = (est[j] - exact[j]).abs() / exact[j];
            assert!(rel < 1e-3, "comp {j}: {rel}");
        }
    }

    /// The same ping-pong traffic through the pure-park path (budget 0) and
    /// the pure-spin path (a budget that never runs out): every message
    /// arrives once, in order, on both sides of the exchange.
    #[test]
    fn hand_off_receive_delivers_on_the_park_and_the_spin_path() {
        for budget in [0, u32::MAX] {
            let (job_tx, job_rx) = mpsc::channel::<u64>();
            let (result_tx, result_rx) = mpsc::channel::<u64>();
            let echo = thread::spawn(move || {
                while let Ok(v) = recv_spin_then_park(&job_rx, budget) {
                    result_tx.send(v + 1).expect("caller is waiting");
                }
            });
            for round in 0..200 {
                job_tx.send(round).expect("echo thread is alive");
                assert_eq!(
                    recv_spin_then_park(&result_rx, budget),
                    Ok(round + 1),
                    "budget {budget}"
                );
            }
            drop(job_tx);
            echo.join().expect("echo thread exits on disconnect");
            // The echo thread's sender is gone with it.
            assert_eq!(recv_spin_then_park(&result_rx, budget), Err(mpsc::RecvError));
        }
    }

    /// A sender dropped while the receiver spins ends the receive with
    /// the disconnect — it must not spin out its budget (minutes, here)
    /// first. Messages queued before the drop are still delivered.
    #[test]
    fn hand_off_receive_returns_a_disconnect_seen_mid_spin() {
        let (tx, rx) = mpsc::channel::<u8>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let dropper = thread::spawn(move || {
            go_rx.recv().expect("released by the receiver");
            tx.send(7).expect("receiver is alive");
            drop(tx);
        });
        go_tx.send(()).expect("dropper is waiting");
        assert_eq!(recv_spin_then_park(&rx, u32::MAX), Ok(7));
        assert_eq!(recv_spin_then_park(&rx, u32::MAX), Err(mpsc::RecvError));
        dropper.join().expect("dropper finished");
    }

    /// The budget is a function of the machine alone: spin while every
    /// executor has a hardware thread, park at once when they do not.
    #[test]
    fn spin_budget_is_zero_when_slabs_outnumber_hardware_threads() {
        assert_eq!(spin_budget(2, 2), SPIN_BUDGET);
        assert_eq!(spin_budget(2, 64), SPIN_BUDGET);
        assert_eq!(spin_budget(8, 8), SPIN_BUDGET);
        assert_eq!(spin_budget(3, 2), 0);
        assert_eq!(spin_budget(8, 2), 0);
        assert_eq!(spin_budget(2, 1), 0);
    }

    /// Aggregation → idle → aggregation on one engine: while the caller is
    /// busy elsewhere (here: running the sequential reference) the workers
    /// run out their budget and park, and the next aggregation wakes them.
    /// Vector, cycles and per-cycle `GossipStats` equal a fresh sequential
    /// engine's both times, spinning (2 slabs) or not (8 slabs on any box
    /// with fewer than 8 hardware threads).
    #[test]
    fn aggregations_around_an_idle_period_match_a_fresh_sequential_engine() {
        use crate::cycle::GossipTrustAggregator;
        let n = 24;
        let m = star(n);
        let start = ReputationVector::uniform(n);
        let aggregator = |threads: usize| {
            GossipTrustAggregator::new(Params::for_network(n))
                .with_engine_config(config(n).with_threads(threads))
        };
        for threads in [2, 8] {
            let par = aggregator(threads);
            let mut engine = VectorGossipEngine::new(n, config(n).with_threads(threads));
            for seed in [21, 22] {
                let reference = aggregator(1).aggregate_with(
                    &m,
                    &start,
                    &UniformChooser,
                    &mut StdRng::seed_from_u64(seed),
                );
                let report = par.aggregate_with_engine(
                    &mut engine,
                    &m,
                    &start,
                    &UniformChooser,
                    &mut StdRng::seed_from_u64(seed),
                );
                assert!(reference.converged);
                assert_eq!(report, reference, "threads={threads}, seed={seed}");
            }
        }
    }

    /// Dropping the engine right after a step — workers just back in
    /// their receive, spinning or parked — ends and joins every one of
    /// them.
    #[test]
    fn dropping_the_engine_after_a_step_joins_every_worker() {
        let n = 16;
        for threads in [2, 8] {
            let mut engine = VectorGossipEngine::new(n, config(n).with_threads(threads));
            engine.seed(&star(n), &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
            engine.par_step(&UniformChooser, &mut StdRng::seed_from_u64(1));
            // `Drop` is `shut_down`; calling it by hand shows its result.
            let mut pool = engine.pool.take().expect("pool is live after a parallel step");
            assert_eq!(pool.handles.len(), threads - 1);
            assert_eq!(pool.shut_down(), 0, "no worker panicked");
            assert!(pool.handles.is_empty());
            // Every worker's result sender went with its thread.
            assert!(matches!(pool.result_rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
            drop(engine);
        }
    }

    /// A worker that panics inside `step_slab` fails the step: the other
    /// workers' senders keep the result channel open, so the caller only
    /// learns of it because the dying worker says so. Two workers, the
    /// second one's task sabotaged (a result vector too short for its
    /// rows); parked and spinning.
    #[test]
    fn a_panicking_worker_fails_the_step_instead_of_hanging_it() {
        let n = 12;
        let mut engine = VectorGossipEngine::new(n, config(n).with_threads(3));
        engine.seed(&star(n), &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let corrupt_active = engine.draw_sends(&UniformChooser, &mut StdRng::seed_from_u64(9));
        let read = Arc::new(engine.make_read(corrupt_active));
        for budget in [0, SPIN_BUDGET] {
            let mut pool = WorkerPool::new(2, budget);
            for (b, tx) in pool.job_txs.iter().enumerate() {
                let mut task = engine.tasks[b + 1].clone().expect("no step in flight");
                if b == 1 {
                    task.out.clear();
                }
                tx.send(StepJob { read: Arc::clone(&read), task })
                    .expect("worker is alive");
            }
            let collected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (pool.recv_task(), pool.recv_task())
            }));
            let payload = collected.expect_err("collecting the step's results must fail");
            let message = payload.downcast_ref::<String>().expect("an `expect` message");
            assert!(message.contains("gossip worker panicked"), "budget {budget}: {message}");
            assert_eq!(pool.shut_down(), 1, "exactly the sabotaged worker died");
        }
    }

    /// A node's detector dies with it: two passes before the crash must
    /// not count toward `patience` after revival.
    #[test]
    fn revived_node_starts_its_patience_over() {
        let n = 8;
        let mut engine = VectorGossipEngine::new(n, config(n));
        assert_eq!(engine.config().patience, 2, "the test is about patience = 2");
        engine.seed(&star(n), &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        let mut rng = StdRng::seed_from_u64(43);
        let (_, converged) = engine.run(&UniformChooser, &mut rng);
        assert!(converged);
        // Tighten far below ε so every later step is a pass for every row.
        for _ in 0..60 {
            engine.step(&UniformChooser, &mut rng);
        }
        assert!(engine.streaks[3] >= 2);
        engine.kill(NodeId(3));
        assert!(engine.step(&UniformChooser, &mut rng).all_converged, "the rest stays converged");
        engine.revive(NodeId(3));
        let first = engine.step(&UniformChooser, &mut rng);
        assert_eq!(engine.streaks[3], 1, "the revived row passes, once");
        assert!(!first.all_converged, "one fresh pass is not patience = 2");
        assert!(engine.step(&UniformChooser, &mut rng).all_converged);
    }

    /// The detector this engine used to run, kept as the test oracle: an
    /// explicit per-node memory of the previous ratios (`NaN` = undefined)
    /// compared against the merged row in a second pass, with the
    /// `f64::max` fold and the `defined && change ≤ ε` verdict, plus its
    /// own streak bookkeeping.
    struct MemoryOracle {
        n: usize,
        epsilon: f64,
        beta: Vec<f64>,
        streaks: Vec<usize>,
        steps: usize,
    }

    impl MemoryOracle {
        fn new(n: usize, epsilon: f64) -> Self {
            MemoryOracle { n, epsilon, beta: vec![f64::NAN; n * n], streaks: vec![0; n], steps: 0 }
        }

        /// What `seed` does to the detector state.
        fn reset(&mut self) {
            self.beta.fill(f64::NAN);
            self.streaks.fill(0);
            self.steps = 0;
        }

        /// Node `i` merged to `(x, w)`: compare against, then overwrite,
        /// its memory.
        fn observe(&mut self, i: usize, x: &[f64], w: &[f64]) -> bool {
            let beta = &mut self.beta[i * self.n..(i + 1) * self.n];
            let mut change: f64 = 0.0;
            let mut defined = true;
            for j in 0..self.n {
                if w[j] > 0.0 {
                    let b = x[j] / w[j];
                    let prev = beta[j];
                    if prev.is_nan() {
                        change = f64::INFINITY;
                    } else {
                        let denom = b.abs().max(f64::MIN_POSITIVE);
                        change = change.max((b - prev).abs() / denom);
                    }
                    beta[j] = b;
                } else {
                    defined = false;
                    beta[j] = f64::NAN;
                }
            }
            defined && change <= self.epsilon
        }

        /// Observe every alive row of the engine's post-step state and
        /// return the per-row verdicts (`None` = dead) and `all_converged`.
        fn step(&mut self, engine: &VectorGossipEngine) -> (Vec<Option<bool>>, bool) {
            self.steps += 1;
            let mut all = true;
            let mut rows = vec![None; self.n];
            for (i, slot) in rows.iter_mut().enumerate() {
                if !engine.alive[i] {
                    continue;
                }
                let (x, w) = engine.row(i);
                let passed = self.observe(i, x, w);
                self.streaks[i] = if passed { self.streaks[i] + 1 } else { 0 };
                all &= self.streaks[i] >= engine.config.patience;
                *slot = Some(passed);
            }
            (rows, all && self.steps >= engine.config.min_steps)
        }
    }

    /// The oracle's verdict on one transition `(sx, sw) → (nx, nw)` of a
    /// single node: remember the first row, judge the second.
    fn oracle_row(nx: &[f64], nw: &[f64], sx: &[f64], sw: &[f64], epsilon: f64) -> bool {
        let mut oracle = MemoryOracle::new(nx.len(), epsilon);
        oracle.observe(0, sx, sw);
        oracle.observe(0, nx, nw)
    }

    fn row_results(engine: &VectorGossipEngine) -> Vec<bool> {
        engine
            .tasks
            .iter()
            .flat_map(|t| t.as_ref().expect("no step in flight").out.iter().copied())
            .collect()
    }

    fn state_bits(engine: &VectorGossipEngine) -> Vec<u64> {
        (0..engine.n)
            .flat_map(|i| {
                let (x, w) = engine.row(i);
                x.iter().chain(w)
            })
            .map(|v| v.to_bits())
            .collect()
    }

    /// Engine and oracle in lockstep, all the way to convergence, through
    /// a node that dies at step 3 and returns at step 9 and a re-`seed` at
    /// step 14: the same verdict for every alive row on every step, the
    /// same `all_converged`, and — across thread counts — the same step
    /// count and the same state bits. Sizes sit below, at and across the
    /// block size, with a ragged last block.
    #[test]
    fn row_test_agrees_with_the_memory_oracle_to_convergence() {
        for n in [5usize, 31, 32, 33, 70] {
            let m = star(n);
            let v0 = ReputationVector::uniform(n);
            for loss in [0.0, 0.15] {
                for corrupt in [false, true] {
                    let mut reference: Option<(usize, Vec<u64>)> = None;
                    for threads in [1usize, 2, 3] {
                        let label =
                            format!("n={n} loss={loss} corrupt={corrupt} threads={threads}");
                        let cfg = config(n).with_loss_rate(loss).with_threads(threads);
                        let mut engine = VectorGossipEngine::new(n, cfg);
                        if corrupt {
                            engine.set_corruption(NodeId(1), vec![1, 3], 4.0);
                            engine.set_corruption(NodeId(4), vec![4], 2.5);
                        }
                        let mut oracle = MemoryOracle::new(n, engine.config.epsilon);
                        let mut rng = StdRng::seed_from_u64(61);
                        engine.seed(&m, &v0, &Prior::uniform(n), 0.15);
                        let mut total = 0;
                        let mut passes_seen = 0;
                        let mut lockstep =
                            |engine: &mut VectorGossipEngine,
                             oracle: &mut MemoryOracle,
                             total: &mut usize| {
                                let out = engine.par_step(&UniformChooser, &mut rng);
                                let (rows, all) = oracle.step(engine);
                                for (i, (&got, want)) in
                                    row_results(engine).iter().zip(rows).enumerate()
                                {
                                    if let Some(want) = want {
                                        assert_eq!(got, want, "row {i}, step {total} ({label})");
                                        passes_seen += usize::from(got);
                                    }
                                }
                                assert_eq!(out.all_converged, all, "step {total} ({label})");
                                *total += 1;
                                all
                            };
                        for step in 0..14 {
                            if step == 3 {
                                engine.kill(NodeId(2));
                                oracle.streaks[2] = 0;
                            }
                            if step == 9 {
                                engine.revive(NodeId(2));
                            }
                            lockstep(&mut engine, &mut oracle, &mut total);
                        }
                        engine.seed(&m, &v0, &Prior::uniform(n), 0.15);
                        oracle.reset();
                        let budget = engine.config.max_steps;
                        while !lockstep(&mut engine, &mut oracle, &mut total) {
                            assert!(total < budget, "no convergence ({label})");
                        }
                        assert!(passes_seen >= n, "passing rows were compared ({label})");
                        let end = (total, state_bits(&engine));
                        match &reference {
                            None => reference = Some(end),
                            Some(reference) => assert!(*reference == end, "{label}"),
                        }
                    }
                }
            }
        }
    }

    /// A 70-element transition (two full blocks and a ragged one of 6)
    /// whose every ratio stays at 0.25, with element `j` overwritten.
    fn crafted(j: usize, nx: f64, nw: f64, sx: f64, sw: f64) -> [Vec<f64>; 4] {
        let mut rows = [
            vec![0.1875; 70],
            vec![0.75; 70],
            vec![0.25; 70],
            vec![1.0; 70],
        ];
        for (row, v) in rows.iter_mut().zip([nx, nw, sx, sw]) {
            row[j] = v;
        }
        rows
    }

    /// The row test on crafted rows, each case at the block edges (first
    /// element, both sides of each block boundary, last element of the
    /// ragged block) and checked against the oracle as well as against
    /// the stated verdict.
    #[test]
    fn row_test_on_crafted_rows() {
        let eps = 1e-4;
        let inf = f64::INFINITY;
        let nan = f64::NAN;
        #[rustfmt::skip]
        let cases: &[(&str, [f64; 4], bool)] = &[
            // (what, [nx, nw, sx, sw] of the crafted element, passes)
            ("unchanged ratio",            [0.1875, 0.75, 0.25, 1.0],   true),
            ("ratio moved by 1 %",         [0.1875 * 1.01, 0.75, 0.25, 1.0], false),
            ("no previous weight: undefined, though prev = +inf", [0.1875, 0.75, 0.25, 0.0], false),
            ("…even when the new ratio is +inf too", [inf, 0.75, 0.25, 0.0], false),
            ("no previous mass at all",    [0.1875, 0.75, 0.0, 0.0],   false),
            ("no new weight",              [0.1875, 0.0, 0.25, 1.0],    false),
            ("negative-zero new weight",   [0.1875, -0.0, 0.25, 1.0],   false),
            ("negative-zero old weight",   [0.1875, 0.75, 0.25, -0.0],  false),
            ("negative-zero masses",       [-0.0, 0.75, -0.0, 1.0],     true),
            ("NaN new ratio is dropped by the fold", [nan, 0.75, 0.25, 1.0], true),
            ("NaN previous ratio is undefined", [0.1875, 0.75, nan, 1.0], false),
            ("inf/inf previous ratio is undefined", [0.1875, 0.75, inf, inf], false),
            ("inf new ratio: NaN change, dropped", [inf, 0.75, 0.25, 1.0], true),
            ("inf previous ratio: infinite change", [0.1875, 0.75, inf, 1.0], false),
            ("inf → inf: NaN change, dropped", [inf, 0.75, inf, 1.0],  true),
            ("zero ratio stays zero",      [0.0, 0.75, 0.0, 1.0],       true),
        ];
        for &(what, [nx, nw, sx, sw], passes) in cases {
            for j in [0usize, 31, 32, 63, 64, 69] {
                let [nx, nw, sx, sw] = crafted(j, nx, nw, sx, sw);
                assert_eq!(row_passes(&nx, &nw, &sx, &sw, eps), passes, "{what}, element {j}");
                assert_eq!(
                    oracle_row(&nx, &nw, &sx, &sw, eps),
                    passes,
                    "oracle: {what}, element {j}"
                );
            }
        }
        // The boundary itself: the change of the crafted element is
        // exactly `d` (1 − prev is exact, and the new ratio is 1), so ε = d
        // passes and ε one ulp lower fails.
        let prev: f64 = 1.0 - 1e-4;
        let d = 1.0 - prev;
        let below = f64::from_bits(d.to_bits() - 1);
        for j in [0usize, 31, 32, 63, 64, 69] {
            let [nx, nw, sx, sw] = crafted(j, 1.0, 1.0, prev, 1.0);
            assert!(row_passes(&nx, &nw, &sx, &sw, d), "change = ε, element {j}");
            assert!(oracle_row(&nx, &nw, &sx, &sw, d));
            assert!(!row_passes(&nx, &nw, &sx, &sw, below), "change = ε + 1 ulp, element {j}");
            assert!(!oracle_row(&nx, &nw, &sx, &sw, below));
        }
    }

    /// The no-sender shortcut on every pairing of awkward `x` and `w`
    /// (signed zeros, subnormals whose half rounds, the neighbours of
    /// `MIN_POSITIVE` and of twice it, huge, infinite, `NaN`): it accepts
    /// exactly the rows the table marks, an accepted row's ratios are
    /// bit-for-bit unchanged by the halving, and the kernel's verdict —
    /// shortcut or general test — is the oracle's.
    #[test]
    fn no_sender_shortcut_declines_inexact_halvings() {
        let min = f64::MIN_POSITIVE;
        let next = |v: f64| f64::from_bits(v.to_bits() + 1);
        let before = |v: f64| f64::from_bits(v.to_bits() - 1);
        #[rustfmt::skip]
        let awkward = [
            // (value, accepted as |x|, accepted as w)
            (0.0,                 true,  false),
            (f64::from_bits(1),   false, false),
            (f64::from_bits(2),   false, false),
            (f64::from_bits(3),   false, false),
            (before(min),         false, false),
            (min,                 false, false),
            (next(min),           false, false),
            (before(2.0 * min),   false, false),
            (2.0 * min,           true,  true),
            (next(2.0 * min),     true,  true),
            (1e-3,                true,  true),
            (1.0,                 true,  true),
            (f64::MAX,            true,  true),
            (f64::INFINITY,       true,  false),
            (f64::NAN,            false, false),
        ];
        let eps = 1e-4;
        let halved = |row: &[f64]| row.iter().map(|&v| 0.5 * v).collect::<Vec<f64>>();
        for &(w, _, w_ok) in &awkward {
            for &(ax, x_ok, _) in &awkward {
                for x in [ax, -ax] {
                    for j in [0usize, 31, 32, 69] {
                        let [_, _, sx, sw] = crafted(j, 0.0, 0.0, x, w);
                        let (nx, nw) = (halved(&sx), halved(&sw));
                        let shortcut = halving_keeps_ratios(&sx, &sw);
                        assert_eq!(shortcut, x_ok && w_ok, "x={x:e} w={w:e} element {j}");
                        let general = row_passes(&nx, &nw, &sx, &sw, eps);
                        let oracle = oracle_row(&nx, &nw, &sx, &sw, eps);
                        assert_eq!(general, oracle, "general test, x={x:e} w={w:e} element {j}");
                        if shortcut {
                            assert!(general, "shortcut unsound, x={x:e} w={w:e}");
                            assert_eq!(
                                (nx[j] / nw[j]).to_bits(),
                                (sx[j] / sw[j]).to_bits(),
                                "ratio moved, x={x:e} w={w:e}"
                            );
                        }
                    }
                }
            }
        }
        // Where halving is not exact the ratio really moves: three units
        // of the last subnormal place over one lose the weight entirely.
        let [_, _, sx, sw] = crafted(69, 0.0, 0.0, f64::from_bits(3), f64::from_bits(1));
        let (nx, nw) = (halved(&sx), halved(&sw));
        assert_eq!(nx[69].to_bits(), 2, "0.5 · 3 units rounds to even");
        assert_eq!(nw[69].to_bits(), 0, "0.5 · 1 unit rounds to zero");
        assert!(!halving_keeps_ratios(&sx, &sw));
        assert!(!row_passes(&nx, &nw, &sx, &sw, eps));
    }
}

/// Tests of the `invariants` feature's engine-side checks: the faulted
/// fast path must *pass* the accounting (faults are accounted, not
/// tolerated), and a seeded discrepancy must *trip* it.
#[cfg(all(test, feature = "invariants"))]
mod invariant_tests {
    use super::*;
    use crate::chooser::UniformChooser;
    use gossiptrust_core::matrix::TrustMatrixBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> TrustMatrix {
        let mut b = TrustMatrixBuilder::new(n);
        for i in 0..n {
            b.record(NodeId::from_index(i), NodeId::from_index((i + 1) % n), 1.0);
        }
        b.build()
    }

    fn seeded(n: usize, threads: usize, loss: f64) -> VectorGossipEngine {
        let config = EngineConfig::from_params(&Params::for_network(n), n)
            .with_threads(threads)
            .with_loss_rate(loss);
        let mut engine = VectorGossipEngine::new(n, config);
        engine.seed(&ring(n), &ReputationVector::uniform(n), &Prior::uniform(n), 0.15);
        engine
    }

    /// Loss, a dead node and an active disturber together: every step's
    /// internal mass accounting and the par/seq shadow check must hold.
    #[test]
    fn faulted_steps_satisfy_the_accounting() {
        let n = 48;
        let mut engine = seeded(n, 4, 0.25);
        engine.kill(NodeId(5));
        engine.set_corruption(NodeId(2), vec![0, 7], 5.0);
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..12 {
            engine.par_step(&UniformChooser, &mut rng);
        }
        // And sequentially, same fault mix.
        let mut engine = seeded(n, 1, 0.25);
        engine.kill(NodeId(9));
        engine.set_corruption(NodeId(3), vec![1], 4.0);
        for _ in 0..12 {
            engine.step(&UniformChooser, &mut rng);
        }
    }

    /// A conservation accounting that disagrees with the state by half a
    /// node's component — the smallest bug class the checker exists for —
    /// must panic.
    #[test]
    #[should_panic(expected = "diverged from conservation accounting")]
    fn leaked_mass_trips_the_checker() {
        let n = 16;
        let engine = seeded(n, 1, 0.0);
        let mut ex = Vec::with_capacity(n);
        let mut ew = Vec::with_capacity(n);
        for j in 0..n {
            let (x, w) = engine.component_mass(NodeId::from_index(j));
            ex.push(x);
            ew.push(w);
        }
        // Pretend component 0 should hold half a node's share more than
        // the state actually does.
        ex[0] += 0.5 / n as f64;
        engine.assert_masses(&(ex, ew), "test");
    }
}
