//! Property-based tests for the workload generators.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_core::id::NodeId;
use gossiptrust_workloads::feedback::{self, FeedbackConfig};
use gossiptrust_workloads::files::FileCatalog;
use gossiptrust_workloads::population::{PeerKind, Population, ThreatConfig};
use gossiptrust_workloads::powerlaw::{BoundedPareto, DegreeSequence, TwoSegmentZipf, Zipf};
use gossiptrust_workloads::queries::QueryWorkload;
use gossiptrust_workloads::saroiu::SaroiuFiles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// Zipf: pmf sums to 1, is monotone nonincreasing, and samples stay in
/// range for any exponent.
#[test]
fn zipf_invariants() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0001);
    for case in 0..CASES {
        let (n, s) = (draw.random_range(1usize..300), draw.random_range(0.0..3.0));
        let seed = draw.random_range(0u64..500);
        let ctx = format!("case {case}: n {n}, s {s}, seed {seed}");
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{ctx}: pmf sums to {total}");
        for r in 1..n {
            assert!(z.pmf(r) >= z.pmf(r + 1) - 1e-12, "{ctx}: pmf rises at rank {r}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            assert!((1..=n).contains(&r), "{ctx}: sampled rank {r}");
        }
    }
}

/// The two-segment query law is a valid distribution with a head that
/// decays no faster than the tail.
#[test]
fn two_segment_invariants() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0002);
    for case in 0..CASES {
        let n = draw.random_range(10usize..2_000);
        let brk = draw.random_range(1usize..500).min(n);
        let t = TwoSegmentZipf::new(n, brk, 0.63, 1.24);
        let total: f64 = (1..=n).map(|r| t.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}: n {n}, break {brk}: sums to {total}");
        for r in 1..n {
            assert!(t.pmf(r) >= t.pmf(r + 1) - 1e-12, "case {case}: n {n}, break {brk}: rank {r}");
        }
    }
}

/// Bounded Pareto samples stay in [xmin, xmax].
#[test]
fn pareto_bounds() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0003);
    for case in 0..CASES {
        let xmin = draw.random_range(0.5..50.0);
        let xmax = xmin + draw.random_range(1.0..1000.0);
        let (a, seed) = (draw.random_range(0.2..3.0), draw.random_range(0u64..300));
        let p = BoundedPareto::new(xmin, xmax, a);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            let x = p.sample(&mut rng);
            assert!(
                x >= xmin - 1e-9 && x <= xmax + 1e-9,
                "case {case}: pareto [{xmin}, {xmax}], a {a}, seed {seed}: x = {x}"
            );
        }
    }
}

/// The fitted degree distribution hits its target mean within 10% for
/// any (d_avg, d_max) pair a nonincreasing law can reach: over
/// `1..=d_max` no such law has a mean above the uniform one's,
/// `(d_max + 1) / 2`.
#[test]
fn degree_sequence_mean() {
    let mut draw = StdRng::seed_from_u64(0xDE6);
    // The corners of the property's domain, then seeded draws from inside.
    let corners = [(2, 12), (2, 301), (49, 97), (49, 348)];
    let drawn: Vec<(usize, usize)> = (0..200)
        .map(|_| {
            let d_avg = draw.random_range(2usize..50);
            (d_avg, d_avg + draw.random_range(10usize..300))
        })
        .filter(|&(d_avg, d_max)| 2 * d_avg <= d_max + 1)
        .collect();
    assert!(drawn.len() > 150, "the reachable pairs are most of the range");
    for (case, (d_avg, d_max)) in corners.into_iter().chain(drawn).enumerate() {
        let d = DegreeSequence::new(d_avg, d_max);
        assert!(
            (d.mean() - d_avg as f64).abs() / (d_avg as f64) < 0.1,
            "case {case}: d_max {d_max}: fit mean {} target {d_avg}",
            d.mean()
        );
    }
    // Past the reachable means the fit saturates at the uniform law.
    let d = DegreeSequence::new(49, 59);
    assert!(d.exponent() < 1e-9 && (d.mean() - 30.0).abs() < 1e-6, "{d:?}");
}

/// Populations: exact malicious count, kinds consistent with γ, and
/// authenticity ranges respected.
#[test]
fn population_invariants() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0005);
    for case in 0..CASES {
        let (n, gamma) = (draw.random_range(2usize..300), draw.random_range(0.0..1.0));
        let seed = draw.random_range(0u64..500);
        let ctx = format!("case {case}: n {n}, gamma {gamma}, seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
        let expected = (gamma * n as f64).floor() as usize;
        assert_eq!(pop.malicious_peers().len(), expected, "{ctx}");
        assert_eq!(pop.honest_peers().len(), n - expected, "{ctx}");
        for i in 0..n {
            let id = NodeId::from_index(i);
            let a = pop.authenticity(id);
            let range = match pop.kind(id) {
                PeerKind::Honest => 0.90..=1.0,
                _ => 0.05..=0.20,
            };
            assert!(range.contains(&a), "{ctx}: peer {i} ({:?}) authenticity {a}", pop.kind(id));
        }
    }
}

/// Collusion groups partition the malicious peers exactly.
#[test]
fn collusion_partition() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0006);
    for case in 0..CASES {
        let (n, gamma) = (draw.random_range(10usize..200), draw.random_range(0.05..0.5));
        let (size, seed) = (draw.random_range(2usize..8), draw.random_range(0u64..300));
        let ctx = format!("case {case}: n {n}, gamma {gamma}, group size {size}, seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::collusive(gamma, size), &mut rng);
        let groups: Vec<usize> = (0..pop.collusion_group_count())
            .map(|g| pop.collusion_group(g as u32).len())
            .collect();
        assert_eq!(groups.iter().sum::<usize>(), pop.malicious_peers().len(), "{ctx}: {groups:?}");
        assert!(groups.iter().all(|&len| (1..=size).contains(&len)), "{ctx}: {groups:?}");
    }
}

/// Feedback generation: both matrices are row-stochastic, honest rows
/// are identical across them, and edge counts agree.
#[test]
fn feedback_matrix_invariants() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0007);
    for case in 0..CASES {
        let (n, gamma) = (draw.random_range(6usize..80), draw.random_range(0.0..0.5));
        let seed = draw.random_range(0u64..200);
        let ctx = format!("case {case}: n {n}, gamma {gamma}, seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
        let cfg = FeedbackConfig {
            d_avg: 3,
            d_max: (n / 2).max(4),
            transactions_per_edge: 4,
            target_skew: 0.8,
        };
        let out = feedback::generate(&pop, &cfg, &mut rng);
        assert!(out.honest.is_row_stochastic(1e-9), "{ctx}: honest matrix");
        assert!(out.polluted.is_row_stochastic(1e-9), "{ctx}: polluted matrix");
        for i in 0..n {
            let id = NodeId::from_index(i);
            if !pop.kind(id).is_malicious() {
                assert_eq!(out.honest.row(id), out.polluted.row(id), "{ctx}: honest row {i}");
            }
        }
    }
}

/// File catalogs place every file on at least one distinct-peer set.
#[test]
fn catalog_invariants() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0008);
    for case in 0..CASES {
        let (n, files) = (draw.random_range(3usize..60), draw.random_range(1usize..400));
        let seed = draw.random_range(0u64..200);
        let ctx = format!("case {case}: n {n}, {files} files, seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let c = FileCatalog::generate(n, files, 1.2, &SaroiuFiles::default(), &mut rng);
        assert_eq!(c.num_files(), files, "{ctx}");
        for f in 0..files as u32 {
            let hs = c.holders(f);
            assert!(!hs.is_empty(), "{ctx}: file {f} unplaced");
            assert!(hs.windows(2).all(|w| w[0] < w[1]), "{ctx}: file {f} holders {hs:?}");
            assert!(hs.iter().all(|&p| (p as usize) < n), "{ctx}: file {f} holders {hs:?}");
        }
    }
}

/// Queries stay within the catalog and peer ranges.
#[test]
fn query_ranges() {
    let mut draw = StdRng::seed_from_u64(0xB0B5_0009);
    for case in 0..CASES {
        let (n, files) = (draw.random_range(1usize..100), draw.random_range(1usize..500));
        let seed = draw.random_range(0u64..200);
        let w = QueryWorkload::new(n, files);
        for q in w.sample_batch(200, &mut StdRng::seed_from_u64(seed)) {
            assert!(
                q.requester.index() < n && (q.file as usize) < files,
                "case {case}: n {n}, {files} files, seed {seed}: {q:?}"
            );
        }
    }
}
