//! Property-based tests for the workload generators.

use gossiptrust_core::id::NodeId;
use gossiptrust_workloads::feedback::{self, FeedbackConfig};
use gossiptrust_workloads::files::FileCatalog;
use gossiptrust_workloads::population::{PeerKind, Population, ThreatConfig};
use gossiptrust_workloads::powerlaw::{BoundedPareto, DegreeSequence, TwoSegmentZipf, Zipf};
use gossiptrust_workloads::queries::QueryWorkload;
use gossiptrust_workloads::saroiu::SaroiuFiles;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipf: pmf sums to 1, is monotone nonincreasing, and samples stay in
    /// range for any exponent.
    #[test]
    fn zipf_invariants(n in 1usize..300, s in 0.0f64..3.0, seed in 0u64..500) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(z.pmf(r) >= z.pmf(r + 1) - 1e-12);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    /// The two-segment query law is a valid distribution with a head that
    /// decays no faster than the tail.
    #[test]
    fn two_segment_invariants(n in 10usize..2_000, brk in 1usize..500) {
        let brk = brk.min(n);
        let t = TwoSegmentZipf::new(n, brk, 0.63, 1.24);
        let total: f64 = (1..=n).map(|r| t.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(t.pmf(r) >= t.pmf(r + 1) - 1e-12, "rank {}", r);
        }
    }

    /// Bounded Pareto samples stay in [xmin, xmax].
    #[test]
    fn pareto_bounds(xmin in 0.5f64..50.0, span in 1.0f64..1000.0, a in 0.2f64..3.0, seed in 0u64..300) {
        let p = BoundedPareto::new(xmin, xmin + span, a);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..300 {
            let x = p.sample(&mut rng);
            prop_assert!(x >= xmin - 1e-9 && x <= xmin + span + 1e-9, "x = {}", x);
        }
    }

    /// The fitted degree distribution hits its target mean within 10% for
    /// any (d_avg, d_max) pair a nonincreasing law can reach: over
    /// `1..=d_max` no such law has a mean above the uniform one's,
    /// `(d_max + 1) / 2`.
    #[test]
    fn degree_sequence_mean(d_avg in 2usize..50, extra in 10usize..300) {
        let d_max = d_avg + extra;
        prop_assume!(2 * d_avg <= d_max + 1);
        let d = DegreeSequence::new(d_avg, d_max);
        prop_assert!((d.mean() - d_avg as f64).abs() / (d_avg as f64) < 0.1,
            "fit mean {} target {}", d.mean(), d_avg);
    }

    /// Populations: exact malicious count, kinds consistent with γ, and
    /// authenticity ranges respected.
    #[test]
    fn population_invariants(n in 2usize..300, gamma in 0.0f64..1.0, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
        let expected = (gamma * n as f64).floor() as usize;
        prop_assert_eq!(pop.malicious_peers().len(), expected);
        prop_assert_eq!(pop.honest_peers().len(), n - expected);
        for i in 0..n {
            let id = NodeId::from_index(i);
            let a = pop.authenticity(id);
            match pop.kind(id) {
                PeerKind::Honest => prop_assert!((0.90..=1.0).contains(&a)),
                _ => prop_assert!((0.05..=0.20).contains(&a)),
            }
        }
    }

    /// Collusion groups partition the malicious peers exactly.
    #[test]
    fn collusion_partition(n in 10usize..200, gamma in 0.05f64..0.5, size in 2usize..8, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::collusive(gamma, size), &mut rng);
        let malicious = pop.malicious_peers();
        let groups = pop.collusion_group_count();
        let total_in_groups: usize = (0..groups).map(|g| pop.collusion_group(g as u32).len()).sum();
        prop_assert_eq!(total_in_groups, malicious.len());
        for g in 0..groups {
            let members = pop.collusion_group(g as u32);
            prop_assert!(members.len() <= size);
            prop_assert!(!members.is_empty());
        }
    }

    /// Feedback generation: both matrices are row-stochastic, honest rows
    /// are identical across them, and edge counts agree.
    #[test]
    fn feedback_matrix_invariants(n in 6usize..80, gamma in 0.0f64..0.5, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::generate(n, &ThreatConfig::independent(gamma), &mut rng);
        let cfg = FeedbackConfig {
            d_avg: 3,
            d_max: (n / 2).max(4),
            transactions_per_edge: 4,
            target_skew: 0.8,
        };
        let out = feedback::generate(&pop, &cfg, &mut rng);
        prop_assert!(out.honest.is_row_stochastic(1e-9));
        prop_assert!(out.polluted.is_row_stochastic(1e-9));
        for i in 0..n {
            let id = NodeId::from_index(i);
            if !pop.kind(id).is_malicious() {
                prop_assert_eq!(out.honest.row(id), out.polluted.row(id), "honest row {} differs", i);
            }
        }
    }

    /// File catalogs place every file on at least one distinct-peer set.
    #[test]
    fn catalog_invariants(n in 3usize..60, files in 1usize..400, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = FileCatalog::generate(n, files, 1.2, &SaroiuFiles::default(), &mut rng);
        prop_assert_eq!(c.num_files(), files);
        for f in 0..files as u32 {
            let hs = c.holders(f);
            prop_assert!(!hs.is_empty(), "file {} unplaced", f);
            for w in hs.windows(2) {
                prop_assert!(w[0] < w[1], "file {} holders not strictly sorted", f);
            }
            prop_assert!(hs.iter().all(|&p| (p as usize) < n));
        }
    }

    /// Queries stay within the catalog and peer ranges.
    #[test]
    fn query_ranges(n in 1usize..100, files in 1usize..500, seed in 0u64..200) {
        let w = QueryWorkload::new(n, files);
        let mut rng = StdRng::seed_from_u64(seed);
        for q in w.sample_batch(200, &mut rng) {
            prop_assert!(q.requester.index() < n);
            prop_assert!((q.file as usize) < files);
        }
    }
}

// Seeded twins of the two contract-bearing properties above (the sampled
// laws stay inside their bounds; the degree fit hits its mean): plain
// `#[test]`s over fixed-seed parameter draws from the same ranges, so they
// execute where `proptest!` expands to nothing.

#[test]
fn sample_bounds_seeded() {
    let mut draw = StdRng::seed_from_u64(0xB0B5);
    for case in 0..48 {
        let mut rng = StdRng::seed_from_u64(case);

        let xmin = draw.random_range(0.5..50.0);
        let xmax = xmin + draw.random_range(1.0..1000.0);
        let p = BoundedPareto::new(xmin, xmax, draw.random_range(0.2..3.0));
        for _ in 0..300 {
            let x = p.sample(&mut rng);
            assert!(x >= xmin - 1e-9 && x <= xmax + 1e-9, "pareto [{xmin}, {xmax}]: x = {x}");
        }

        let n = draw.random_range(1usize..300);
        let z = Zipf::new(n, draw.random_range(0.0..3.0));
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            assert!((1..=n).contains(&r), "zipf over 1..={n}: r = {r}");
        }
    }
}

#[test]
fn degree_sequence_mean_seeded() {
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
    for (d_avg, d_max) in corners.into_iter().chain(drawn) {
        let d = DegreeSequence::new(d_avg, d_max);
        assert!(
            (d.mean() - d_avg as f64).abs() / (d_avg as f64) < 0.1,
            "d_max {d_max}: fit mean {} target {d_avg}",
            d.mean()
        );
    }
    // Past the reachable means the fit saturates at the uniform law.
    let d = DegreeSequence::new(49, 59);
    assert!(d.exponent() < 1e-9 && (d.mean() - 30.0).abs() < 1e-6, "{d:?}");
}
