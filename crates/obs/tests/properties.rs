//! Property tests for the histogram bucket scheme: every sample must land
//! in a bucket that contains it, readout must bound the true quantiles,
//! and merge must be associative.
//!
//! Each property is one `#[test]` over fixed-seed samples (exhaustive where
//! the domain is small). The generator is inline so this crate keeps zero
//! dependencies, dev included.

use gossiptrust_obs::metrics::BUCKETS;
use gossiptrust_obs::Histogram;

const CASES: usize = 128;

/// splitmix64 (Steele, Lea & Flood): one 64-bit draw per call.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `lo..hi` draws, each `draw(state)`.
fn draw_vec(state: &mut u64, lo: u64, hi: u64, draw: impl Fn(&mut u64) -> u64) -> Vec<u64> {
    let len = lo + splitmix64(state) % (hi - lo);
    (0..len).map(|_| draw(state)).collect()
}

/// record → bucket → bounds round-trip: the bucket chosen for `v` always
/// contains `v`, and bucket indices are monotone in `v`.
#[test]
fn bucket_contains_its_sample() {
    // Every power-of-two edge of the u64 line, then 10 000 seeded draws
    // shifted to a seeded magnitude (raw draws would all sit in the top
    // octaves).
    let mut samples = vec![0, 1, u64::MAX];
    for k in 1..64 {
        let p = 1u64 << k;
        samples.extend([p - 1, p, p + 1]);
    }
    let mut state = 0x0B5_5EED;
    samples.extend((0..10_000).map(|_| splitmix64(&mut state) >> (splitmix64(&mut state) % 64)));
    for v in samples {
        let i = Histogram::bucket_index(v);
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo <= v && v <= hi, "v={v} not in bucket {i} [{lo}, {hi}]");
        assert!(v == 0 || Histogram::bucket_index(v - 1) <= i, "index not monotone below {v}");
        assert!(v == u64::MAX || Histogram::bucket_index(v + 1) >= i, "not monotone above {v}");
    }
}

/// Bucket bounds tile the u64 line: each bucket starts right after the
/// previous one ends, and the first and last pin the two ends. Exhaustive
/// (there are only `BUCKETS` of them).
#[test]
fn buckets_tile_without_gaps() {
    assert_eq!(Histogram::bucket_bounds(0).0, 0);
    assert_eq!(Histogram::bucket_bounds(BUCKETS - 1).1, u64::MAX);
    for i in 0..BUCKETS - 1 {
        let (_, hi) = Histogram::bucket_bounds(i);
        let (lo_next, _) = Histogram::bucket_bounds(i + 1);
        assert_eq!(hi + 1, lo_next, "gap or overlap after bucket {i}");
    }
}

/// Snapshot quantiles bracket the true quantiles: never below the exact
/// rank value, never more than one bucket width above, and always clamped
/// to the exact max.
#[test]
fn quantiles_bound_the_true_values() {
    let mut state = 0x0B5_0003;
    for case in 0..CASES {
        let mut samples = draw_vec(&mut state, 1, 200, |s| splitmix64(s) % 1_000_000);
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let ctx = format!("case {case}: sorted samples {samples:?}");
        let snap = h.snapshot();
        assert_eq!(snap.count, samples.len() as u64, "{ctx}");
        assert_eq!(snap.max, *samples.last().expect("non-empty"), "{ctx}");
        for (q, got) in [(0.50, snap.p50), (0.90, snap.p90), (0.99, snap.p99)] {
            let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let (_, hi) = Histogram::bucket_bounds(Histogram::bucket_index(truth));
            assert!(got >= truth, "{ctx}: q={q}: got {got} < true {truth}");
            assert!(got <= hi.min(snap.max), "{ctx}: q={q}: got {got} > bucket cap {hi}");
        }
    }
}

/// Merge associativity: (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) agree on every
/// bucket, and on count/sum/max.
#[test]
fn merge_is_associative() {
    let mut state = 0x0B5_0004;
    for case in 0..CASES {
        // Raw 64-bit draws shifted down 8 keep sums away from u64 overflow;
        // the bucket logic still sees 56 bits of range.
        let [a, b, c] = [(); 3].map(|()| draw_vec(&mut state, 0, 50, |s| splitmix64(s) >> 8));
        let fill = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let left = fill(&a);
        left.absorb(&fill(&b));
        left.absorb(&fill(&c));

        let bc = fill(&b);
        bc.absorb(&fill(&c));
        let right = fill(&a);
        right.absorb(&bc);

        let ctx = format!("case {case}: a {a:?}, b {b:?}, c {c:?}");
        assert_eq!(left.bucket_counts(), right.bucket_counts(), "{ctx}");
        assert_eq!(left.snapshot(), right.snapshot(), "{ctx}");
    }
}
