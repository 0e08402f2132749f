//! Property-based tests for the Bloom-filter storage layer.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_core::vector::ReputationVector;
use gossiptrust_storage::{BloomFilter, CountingBloomFilter, RankStorage, RankStorageConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: usize = 200;

/// Up to `sizes` distinct seeded keys (colliding draws collapse, as in a
/// set), never fewer than one when `sizes` starts at 1.
fn draw_keys(rng: &mut StdRng, sizes: std::ops::Range<usize>) -> Vec<u64> {
    let keys: BTreeSet<u64> = (0..rng.random_range(sizes)).map(|_| rng.random()).collect();
    keys.into_iter().collect()
}

/// Bloom filters never produce false negatives.
#[test]
fn bloom_no_false_negatives() {
    let mut rng = StdRng::seed_from_u64(0xB100_0001);
    for case in 0..CASES {
        let keys = draw_keys(&mut rng, 1..500);
        let fp = rng.random_range(0.001..0.2);
        let mut f = BloomFilter::with_rate(keys.len(), fp);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k), "case {case}: false negative for {k} (fp {fp}, keys {keys:?})");
        }
    }
}

/// Counting filters: removal of inserted keys never breaks membership
/// of the keys that remain.
#[test]
fn counting_removal_preserves_others() {
    let mut rng = StdRng::seed_from_u64(0xB100_0002);
    for case in 0..CASES {
        let keep = draw_keys(&mut rng, 1..200);
        let mut drop = draw_keys(&mut rng, 1..200);
        drop.retain(|k| !keep.contains(k));
        let mut f = CountingBloomFilter::with_rate(keep.len() + drop.len() + 8, 0.01);
        for &k in keep.iter().chain(&drop) {
            f.insert(k);
        }
        for &k in &drop {
            f.remove(k);
        }
        for &k in &keep {
            assert!(
                f.contains(k),
                "case {case}: removal broke remaining key {k} (keep {keep:?}, drop {drop:?})"
            );
        }
    }
}

/// Counting filters under the rank *demotion* path: peers slide from a
/// better bucket to a worse one (remove from old, insert into new).
/// After any sequence of demotions, every peer must still be found in
/// its current bucket — insert→remove→query never yields a false
/// negative for a still-present entry.
#[test]
fn counting_demotion_never_false_negative() {
    let mut rng = StdRng::seed_from_u64(0xB100_0003);
    for case in 0..CASES {
        let peers = draw_keys(&mut rng, 1..150);
        let fp = rng.random_range(0.001..0.1);
        let picks: Vec<usize> = (0..rng.random_range(0..300))
            .map(|_| rng.random_range(0..peers.len()))
            .collect();
        let capacity = peers.len() + 8;
        let mut buckets = [(); 3].map(|()| CountingBloomFilter::with_rate(capacity, fp));
        // Everyone starts in the best bucket.
        let mut level = vec![0usize; peers.len()];
        for &p in &peers {
            buckets[0].insert(p);
        }
        // Random demotion sequence: remove from the current bucket, insert
        // into the next-worse one (bottoms out at the worst bucket).
        for &i in &picks {
            if level[i] + 1 < buckets.len() {
                buckets[level[i]].remove(peers[i]);
                level[i] += 1;
                buckets[level[i]].insert(peers[i]);
            }
        }
        for (i, &p) in peers.iter().enumerate() {
            assert!(
                buckets[level[i]].contains(p),
                "case {case}: peer {p} missing from its current bucket {} \
                 (fp {fp}, peers {peers:?}, demotions {picks:?})",
                level[i]
            );
        }
    }
}

/// Counting semantics: a key inserted `c` times and removed `r < c`
/// times is still present (below the saturation regime, where removal
/// is exact).
#[test]
fn counting_partial_removal_keeps_key() {
    let mut rng = StdRng::seed_from_u64(0xB100_0004);
    for case in 0..CASES {
        let key: u64 = rng.random();
        let inserts = rng.random_range(2u8..14);
        let others = draw_keys(&mut rng, 0..50);
        let mut f = CountingBloomFilter::with_rate(64, 0.01);
        for &o in &others {
            f.insert(o);
        }
        for _ in 0..inserts {
            f.insert(key);
        }
        for _ in 0..(inserts - 1) {
            f.remove(key);
        }
        assert!(
            f.contains(key),
            "case {case}: one of {inserts} copies of {key} must remain visible (others {others:?})"
        );
    }
}

/// Rank storage: level assignments are promotion-only (a false positive
/// can only improve a peer's apparent rank) and every queried level is
/// in range.
#[test]
fn rank_storage_promotion_only() {
    let mut rng = StdRng::seed_from_u64(0xB100_0005);
    for case in 0..CASES {
        let n = rng.random_range(8usize..120);
        let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.01..10.0)).collect();
        let levels = rng.random_range(2usize..8).min(n);
        let fp = rng.random_range(0.001..0.1);
        let ctx = format!("case {case}: {levels} levels, fp {fp}, weights {weights:?}");
        let v = ReputationVector::from_weights(weights).unwrap();
        let storage = RankStorage::build(&v, RankStorageConfig { levels, fp_rate: fp });
        let per_bucket = n.div_ceil(levels);
        for (true_rank, &id) in v.ranking().iter().enumerate() {
            let true_level = true_rank / per_bucket;
            let stored = storage.rank_level(id);
            assert!(stored < levels, "{ctx}: {id}: stored {stored}");
            assert!(stored <= true_level, "{ctx}: {id}: stored {stored} > true {true_level}");
        }
    }
}
