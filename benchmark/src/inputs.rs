//! Seeded inputs: the paper's §6.1 feedback workload as *events*, the
//! per-epoch deltas, and the pre-rendered request-line schedules.
//!
//! Everything here is a pure function of the seed and runs before the clock
//! starts; the program under test only ever sees the generated inputs.

use gossiptrust_core::id::NodeId;
use gossiptrust_net::codec::FeedbackBatch;
use gossiptrust_serve::server::hex_encode;
use gossiptrust_workloads::{DegreeSequence, PeerKind, Population, ThreatConfig, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Paper Table 2 / §6.1: average and maximum feedback out-degree.
const D_AVG: usize = 20;
const D_MAX: usize = 200;
/// Zipf exponent of target popularity (who gets rated is skewed).
const TARGET_SKEW: f64 = 0.8;
/// Fraction γ of independent malicious raters (they invert their ratings).
const MALICIOUS: f64 = 0.1;
/// The deployments every seed runs against: who the peers are, who rates
/// whom, and the rated history before the service starts are three fixed
/// draws from the §6.1 generator (2007 = the paper's year), one per session
/// of a run, so no number is fitted to a single matrix. `--seed` draws what
/// another day on the same deployments would see differently: the gossip
/// partner choices, the feedback deltas and the request schedules. Drawing
/// the graphs from `--seed` too makes the *amount of work* a function of the
/// seed — measured at n = 1000: cold epochs of 11 to 25 aggregation cycles,
/// 1.9 s to 4.5 s, depending on whether the power-node set flips between
/// cycles — and the acceptance procedure compares runs across seeds
/// (README, "What the seed draws").
pub const DEPLOYMENT_SEEDS: [u64; 3] = [2007, 2008, 2009];
/// Ratings carried by one `batch` request.
pub const BATCH_RATINGS: usize = 32;

/// One rater's ratings, as `ServiceHandle::record_batch` takes them.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub rater: NodeId,
    pub ratings: Vec<(NodeId, f64)>,
}

/// Count the events a slice of batches carries.
#[cfg(test)]
pub fn events_in(batches: &[Batch]) -> u64 {
    batches.iter().map(|b| b.ratings.len() as u64).sum()
}

/// The feedback graph: who rates whom, and how honestly.
///
/// Out-degrees follow `DegreeSequence::new(20, 200)`, targets follow a
/// `Zipf(n, 0.8)` popularity law over a random permutation (popularity is
/// independent of id and honesty), and each transaction on an edge is rated
/// 1 when the target served an authentic file (probability = the target's
/// authenticity rate) and 0 otherwise — inverted by malicious raters. This
/// is `gossiptrust_workloads::feedback::generate` unrolled into per-event
/// form, because the service ingests events, not finished matrices.
pub struct FeedbackGraph {
    pub n: usize,
    population: Population,
    /// `(rater, target)` feedback edges, grouped by rater in id order.
    edges: Vec<(u32, u32)>,
    /// `edges[first_edge[r]..first_edge[r + 1]]` are rater `r`'s edges.
    first_edge: Vec<usize>,
}

impl FeedbackGraph {
    /// Fixed deployment number `deployment` of `n` peers and its seeding
    /// history (`per_edge` rated transactions on every edge).
    pub fn dataset(n: usize, per_edge: usize, deployment: usize) -> (Self, Vec<Batch>) {
        let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEEDS[deployment]);
        let graph = Self::generate(n, &mut rng);
        let base = graph.base(per_edge, &mut rng);
        (graph, base)
    }

    pub fn generate(n: usize, rng: &mut StdRng) -> Self {
        assert!(n >= 2, "feedback needs at least two peers");
        let population = Population::generate(n, &ThreatConfig::independent(MALICIOUS), rng);
        let degrees = DegreeSequence::new(D_AVG, D_MAX);
        let target_zipf = Zipf::new(n, TARGET_SKEW);
        let mut popularity: Vec<u32> = (0..n as u32).collect();
        popularity.shuffle(rng);
        let mut edges = Vec::new();
        let mut first_edge = Vec::with_capacity(n + 1);
        for rater in 0..n as u32 {
            first_edge.push(edges.len());
            let degree = degrees.sample(rng).clamp(1, n - 1);
            let begin = edges.len();
            let mut attempts = 0;
            while edges.len() - begin < degree && attempts < 40 * degree + 40 {
                attempts += 1;
                let target = popularity[target_zipf.sample(rng) - 1];
                if target != rater && !edges[begin..].contains(&(rater, target)) {
                    edges.push((rater, target));
                }
            }
        }
        first_edge.push(edges.len());
        FeedbackGraph { n, population, edges, first_edge }
    }

    #[cfg(test)]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The rating `rater` reports for one transaction with `target`.
    fn rate(&self, rater: u32, target: u32, rng: &mut StdRng) -> f64 {
        let authentic = rng.random::<f64>() < self.population.authenticity(NodeId(target));
        let honest = matches!(self.population.kind(NodeId(rater)), PeerKind::Honest);
        if authentic == honest {
            1.0
        } else {
            0.0
        }
    }

    /// The seeding history: `per_edge` rated transactions on every edge,
    /// one batch per rater.
    pub fn base(&self, per_edge: usize, rng: &mut StdRng) -> Vec<Batch> {
        (0..self.n as u32)
            .map(|rater| {
                let mine = &self.edges
                    [self.first_edge[rater as usize]..self.first_edge[rater as usize + 1]];
                let mut ratings = Vec::with_capacity(mine.len() * per_edge);
                for &(_, target) in mine {
                    for _ in 0..per_edge {
                        ratings.push((NodeId(target), self.rate(rater, target, rng)));
                    }
                }
                Batch { rater: NodeId(rater), ratings }
            })
            .collect()
    }

    fn random_edge(&self, rng: &mut StdRng) -> (u32, u32) {
        self.edges[rng.random_range(0..self.edges.len())]
    }

    /// `events` fresh transactions on existing edges, grouped by rater.
    pub fn delta(&self, events: usize, rng: &mut StdRng) -> Vec<Batch> {
        let mut picked: Vec<(u32, u32, f64)> = (0..events)
            .map(|_| {
                let (rater, target) = self.random_edge(rng);
                (rater, target, self.rate(rater, target, rng))
            })
            .collect();
        picked.sort_by_key(|&(rater, _, _)| rater);
        let mut batches: Vec<Batch> = Vec::new();
        for (rater, target, score) in picked {
            match batches.last_mut() {
                Some(b) if b.rater == NodeId(rater) => b.ratings.push((NodeId(target), score)),
                _ => batches
                    .push(Batch { rater: NodeId(rater), ratings: vec![(NodeId(target), score)] }),
            }
        }
        batches
    }
}

/// The protocol's verbs (server.rs's table). The workload schedules draw
/// from six of them; `Ping`, `Epoch` and `Metrics` appear only in the
/// protocol self-test's one-of-each schedule.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Ping,
    Score,
    Rank,
    TopK,
    Stats,
    Feedback,
    Batch,
    Epoch,
    Metrics,
}

/// A pre-rendered request schedule: one text blob, a line index, and what
/// the checker needs to know about each line.
pub struct LinePool {
    text: String,
    bounds: Vec<(u32, u32)>,
    kinds: Vec<OpKind>,
    /// Peer id (`score`/`rank`), `k` (`top_k`), or events carried
    /// (`feedback`/`batch`).
    args: Vec<u32>,
}

impl LinePool {
    /// Room for `lines` lines of at most `line_bytes` each, reserved up
    /// front (untouched capacity is not resident): a blob that grows by
    /// doubling leaves a copy behind at a size the seed decides, which moved
    /// `serve_ingest`'s peak RSS between 34 and 40 MB.
    fn with_capacity(lines: usize, line_bytes: usize) -> Self {
        LinePool {
            text: String::with_capacity(lines * line_bytes),
            bounds: Vec::with_capacity(lines),
            kinds: Vec::with_capacity(lines),
            args: Vec::with_capacity(lines),
        }
    }

    fn push(&mut self, kind: OpKind, arg: u32, render: impl FnOnce(&mut String)) {
        let start = self.text.len() as u32;
        render(&mut self.text);
        self.bounds.push((start, self.text.len() as u32));
        self.kinds.push(kind);
        self.args.push(arg);
    }

    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    pub fn line(&self, i: usize) -> &str {
        let (lo, hi) = self.bounds[i];
        &self.text[lo as usize..hi as usize]
    }

    pub fn kind(&self, i: usize) -> OpKind {
        self.kinds[i]
    }

    pub fn arg(&self, i: usize) -> u32 {
        self.args[i]
    }

    /// Request bytes of the whole schedule (newlines included).
    pub fn wire_bytes(&self) -> u64 {
        self.text.len() as u64 + self.len() as u64
    }

    /// Feedback events the whole schedule carries.
    pub fn events(&self) -> u64 {
        (0..self.len())
            .filter(|&i| matches!(self.kinds[i], OpKind::Feedback | OpKind::Batch))
            .map(|i| self.args[i] as u64)
            .sum()
    }

    /// FNV-1a over the schedule's bytes and line boundaries: same seed →
    /// same hash, byte for byte.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for i in 0..self.len() {
            self.line(i).bytes().for_each(&mut eat);
            eat(b'\n');
        }
        h
    }
}

fn query_line(pool: &mut LinePool, kind: OpKind, arg: u32) {
    pool.push(kind, arg, |s| {
        let _ = match kind {
            OpKind::Score => write!(s, "{{\"op\":\"score\",\"peer\":{arg}}}"),
            OpKind::Rank => write!(s, "{{\"op\":\"rank\",\"peer\":{arg}}}"),
            OpKind::TopK => write!(s, "{{\"op\":\"top_k\",\"k\":{arg}}}"),
            OpKind::Stats => write!(s, "{{\"op\":\"stats\"}}"),
            OpKind::Ping => write!(s, "{{\"op\":\"ping\"}}"),
            OpKind::Epoch => write!(s, "{{\"op\":\"epoch\"}}"),
            OpKind::Metrics => write!(s, "{{\"op\":\"metrics\"}}"),
            OpKind::Feedback | OpKind::Batch => unreachable!("ingest lines carry a payload"),
        };
    });
}

/// Upper bounds on a rendered line: a query (`{"op":"top_k","k":100}` and
/// shorter), and a `batch` of `BATCH_RATINGS` hex-encoded ratings (~0.8 KB).
const QUERY_LINE_BYTES: usize = 48;
const BATCH_LINE_BYTES: usize = 1024;

/// Zipf exponent of which peers get queried (over the published ranking).
const QUERY_SKEW: f64 = 0.9;

/// `serve_read` schedule: `score` 60 %, `rank` 25 %, `top_k` k=10 10 %,
/// `top_k` k=100 4 %, `stats` 1 %; peers drawn Zipf(0.9) over `ranking`.
pub fn read_schedule(ranking: &[NodeId], lines: usize, rng: &mut StdRng) -> LinePool {
    let zipf = Zipf::new(ranking.len(), QUERY_SKEW);
    let mut pool = LinePool::with_capacity(lines, QUERY_LINE_BYTES);
    for _ in 0..lines {
        let peer = ranking[zipf.sample(rng) - 1].0;
        match rng.random_range(0..100u32) {
            0..=59 => query_line(&mut pool, OpKind::Score, peer),
            60..=84 => query_line(&mut pool, OpKind::Rank, peer),
            85..=94 => query_line(&mut pool, OpKind::TopK, 10),
            95..=98 => query_line(&mut pool, OpKind::TopK, 100),
            _ => query_line(&mut pool, OpKind::Stats, 0),
        }
    }
    pool
}

/// `serve_ingest` schedule: `feedback` 60 %, `batch` (32 ratings, hex
/// `FeedbackBatch`) 25 %, `score` 8 %, `rank` 7 %.
pub fn ingest_schedule(graph: &FeedbackGraph, lines: usize, rng: &mut StdRng) -> LinePool {
    let mut pool = LinePool::with_capacity(lines, BATCH_LINE_BYTES);
    for _ in 0..lines {
        match rng.random_range(0..100u32) {
            0..=59 => {
                let (rater, target) = graph.random_edge(rng);
                let score = graph.rate(rater, target, rng);
                pool.push(OpKind::Feedback, 1, |s| {
                    let _ = write!(
                        s,
                        "{{\"op\":\"feedback\",\"rater\":{rater},\"target\":{target},\"score\":{score}}}"
                    );
                });
            }
            60..=84 => {
                let (rater, _) = graph.random_edge(rng);
                let mine = &graph.edges
                    [graph.first_edge[rater as usize]..graph.first_edge[rater as usize + 1]];
                let ratings = (0..BATCH_RATINGS)
                    .map(|_| {
                        let (_, target) = mine[rng.random_range(0..mine.len())];
                        (target, graph.rate(rater, target, rng))
                    })
                    .collect();
                let frame = FeedbackBatch { rater, epoch_hint: 0, ratings }.encode();
                pool.push(OpKind::Batch, BATCH_RATINGS as u32, |s| {
                    let _ = write!(s, "{{\"op\":\"batch\",\"data\":\"{}\"}}", hex_encode(&frame));
                });
            }
            85..=92 => query_line(&mut pool, OpKind::Score, rng.random_range(0..graph.n as u32)),
            _ => query_line(&mut pool, OpKind::Rank, rng.random_range(0..graph.n as u32)),
        }
    }
    pool
}

/// One line of every verb, for the protocol-table self-test.
#[cfg(test)]
pub fn one_of_each(graph: &FeedbackGraph, rng: &mut StdRng) -> LinePool {
    let mut pool = LinePool::with_capacity(9, BATCH_LINE_BYTES);
    for (kind, arg) in [
        (OpKind::Ping, 0),
        (OpKind::Score, 1),
        (OpKind::Rank, 1),
        (OpKind::TopK, 3),
        (OpKind::Stats, 0),
        (OpKind::Epoch, 0),
        (OpKind::Metrics, 0),
    ] {
        query_line(&mut pool, kind, arg);
    }
    let ingest = ingest_schedule(graph, 64, rng);
    for want in [OpKind::Feedback, OpKind::Batch] {
        let i = (0..ingest.len())
            .find(|&i| ingest.kind(i) == want)
            .expect("64 lines hold both kinds");
        let (line, arg) = (ingest.line(i).to_string(), ingest.arg(i));
        pool.push(want, arg, |s| s.push_str(&line));
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedules(seed: u64) -> (u64, u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = FeedbackGraph::generate(64, &mut rng);
        let ranking: Vec<NodeId> = NodeId::all(64).collect();
        let read = read_schedule(&ranking, 500, &mut rng);
        let ingest = ingest_schedule(&graph, 500, &mut rng);
        let base = graph.base(5, &mut rng);
        let mut h = 0u64;
        for b in &base {
            for &(t, s) in &b.ratings {
                h = h
                    .wrapping_mul(31)
                    .wrapping_add(((b.rater.0 as u64) << 32) | t.0 as u64)
                    ^ s.to_bits();
            }
        }
        (read.hash(), ingest.hash(), h)
    }

    /// Satellite self-test: same seed → byte-identical request schedule,
    /// different seed → a different one.
    #[test]
    fn same_seed_same_schedule_different_seed_different() {
        assert_eq!(schedules(7), schedules(7));
        let (a, b) = (schedules(7), schedules(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn graph_follows_the_paper_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = FeedbackGraph::generate(1000, &mut rng);
        let mean = graph.edge_count() as f64 / 1000.0;
        assert!((12.0..=30.0).contains(&mean), "mean out-degree {mean} far from d_avg = 20");
        let max = (0..1000)
            .map(|r| graph.first_edge[r + 1] - graph.first_edge[r])
            .max()
            .unwrap();
        assert!((60..=D_MAX).contains(&max), "max out-degree {max}");
        assert!(graph.edges.iter().all(|&(r, t)| r != t && (t as usize) < 1000));
        let base = graph.base(5, &mut rng);
        assert_eq!(events_in(&base), 5 * graph.edge_count() as u64);
        let delta = graph.delta(2000, &mut rng);
        assert_eq!(events_in(&delta), 2000);
        assert!(delta.windows(2).all(|w| w[0].rater < w[1].rater), "one batch per rater");
    }

    #[test]
    fn mixes_match_the_declared_shares() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = FeedbackGraph::generate(256, &mut rng);
        let pool = ingest_schedule(&graph, 20_000, &mut rng);
        let share =
            |k: OpKind| (0..pool.len()).filter(|&i| pool.kind(i) == k).count() as f64 / 20_000.0;
        assert!((share(OpKind::Feedback) - 0.60).abs() < 0.02);
        assert!((share(OpKind::Batch) - 0.25).abs() < 0.02);
        assert!((share(OpKind::Score) + share(OpKind::Rank) - 0.15).abs() < 0.02);
        let expected = (0..pool.len())
            .map(|i| match pool.kind(i) {
                OpKind::Feedback => 1,
                OpKind::Batch => BATCH_RATINGS as u64,
                _ => 0,
            })
            .sum::<u64>();
        assert_eq!(pool.events(), expected);
        assert!(pool.wire_bytes() > pool.len() as u64);
        // The reserved room holds every line: the blobs never reallocate.
        assert!((0..pool.len()).all(|i| pool.line(i).len() <= BATCH_LINE_BYTES));
        let ranking: Vec<NodeId> = NodeId::all(1000).collect();
        let reads = read_schedule(&ranking, 2_000, &mut rng);
        assert!((0..reads.len()).all(|i| reads.line(i).len() <= QUERY_LINE_BYTES));
    }
}
