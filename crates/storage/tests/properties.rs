//! Property-based tests for the Bloom-filter storage layer.

use gossiptrust_core::vector::ReputationVector;
use gossiptrust_storage::{BloomFilter, CountingBloomFilter, RankStorage, RankStorageConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

proptest! {
    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_no_false_negatives(
        keys in proptest::collection::hash_set(any::<u64>(), 1..500),
        fp in 0.001f64..0.2,
    ) {
        let mut f = BloomFilter::with_rate(keys.len(), fp);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k), "false negative for {}", k);
        }
    }

    /// Counting filters: removal of inserted keys never breaks membership
    /// of the keys that remain.
    #[test]
    fn counting_removal_preserves_others(
        keep in proptest::collection::hash_set(any::<u64>(), 1..200),
        drop in proptest::collection::hash_set(any::<u64>(), 1..200),
    ) {
        let drop: Vec<u64> = drop.difference(&keep).copied().collect();
        let mut f = CountingBloomFilter::with_rate(keep.len() + drop.len() + 8, 0.01);
        for &k in &keep {
            f.insert(k);
        }
        for &k in &drop {
            f.insert(k);
        }
        for &k in &drop {
            f.remove(k);
        }
        for &k in &keep {
            prop_assert!(f.contains(k), "removal broke remaining key {}", k);
        }
    }

    /// Counting filters under the rank *demotion* path: peers slide from a
    /// better bucket to a worse one (remove from old, insert into new).
    /// After any sequence of demotions, every peer must still be found in
    /// its current bucket — insert→remove→query never yields a false
    /// negative for a still-present entry.
    #[test]
    fn counting_demotion_never_false_negative(
        peers in proptest::collection::hash_set(any::<u64>(), 1..150),
        demote_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..300),
        fp in 0.001f64..0.1,
    ) {
        let peers: Vec<u64> = peers.into_iter().collect();
        let capacity = peers.len() + 8;
        let mut buckets = [
            CountingBloomFilter::with_rate(capacity, fp),
            CountingBloomFilter::with_rate(capacity, fp),
            CountingBloomFilter::with_rate(capacity, fp),
        ];
        // Everyone starts in the best bucket.
        let mut level = vec![0usize; peers.len()];
        for &p in &peers {
            buckets[0].insert(p);
        }
        // Random demotion sequence: remove from the current bucket, insert
        // into the next-worse one (bottoms out at the worst bucket).
        for pick in demote_picks {
            let i = pick.index(peers.len());
            if level[i] + 1 < buckets.len() {
                buckets[level[i]].remove(peers[i]);
                level[i] += 1;
                buckets[level[i]].insert(peers[i]);
            }
        }
        for (i, &p) in peers.iter().enumerate() {
            prop_assert!(
                buckets[level[i]].contains(p),
                "peer {} missing from its current bucket {}",
                p,
                level[i]
            );
        }
    }

    /// Counting semantics: a key inserted `c` times and removed `r < c`
    /// times is still present (below the saturation regime, where removal
    /// is exact).
    #[test]
    fn counting_partial_removal_keeps_key(
        key in any::<u64>(),
        inserts in 2u8..14,
        others in proptest::collection::hash_set(any::<u64>(), 0..50),
    ) {
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
        prop_assert!(f.contains(key), "one inserted copy must remain visible");
    }

    /// Rank storage: level assignments are promotion-only (a false positive
    /// can only improve a peer's apparent rank) and every queried level is
    /// in range.
    #[test]
    fn rank_storage_promotion_only(
        weights in proptest::collection::vec(0.01f64..10.0, 8..120),
        levels in 2usize..8,
        fp in 0.001f64..0.1,
    ) {
        let n = weights.len();
        let levels = levels.min(n);
        let v = ReputationVector::from_weights(weights).unwrap();
        let storage = RankStorage::build(&v, RankStorageConfig { levels, fp_rate: fp });
        let per_bucket = n.div_ceil(levels);
        for (true_rank, &id) in v.ranking().iter().enumerate() {
            let true_level = true_rank / per_bucket;
            let stored = storage.rank_level(id);
            prop_assert!(stored < levels);
            prop_assert!(stored <= true_level, "{}: stored {} > true {}", id, stored, true_level);
        }
    }
}

/// Seeded twin of `counting_demotion_never_false_negative`: the same
/// model over 200 fixed-seed demotion schedules, as a plain `#[test]` that
/// executes where `proptest!` expands to nothing.
#[test]
fn counting_demotion_never_false_negative_seeded() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: BTreeSet<u64> = (0..rng.random_range(1..150)).map(|_| rng.random()).collect();
        let peers: Vec<u64> = peers.into_iter().collect();
        let fp = rng.random_range(0.001..0.1);
        let capacity = peers.len() + 8;
        let mut buckets = [
            CountingBloomFilter::with_rate(capacity, fp),
            CountingBloomFilter::with_rate(capacity, fp),
            CountingBloomFilter::with_rate(capacity, fp),
        ];
        let mut level = vec![0usize; peers.len()];
        for &p in &peers {
            buckets[0].insert(p);
        }
        for _ in 0..rng.random_range(0..300) {
            let i = rng.random_range(0..peers.len());
            if level[i] + 1 < buckets.len() {
                buckets[level[i]].remove(peers[i]);
                level[i] += 1;
                buckets[level[i]].insert(peers[i]);
            }
        }
        for (i, &p) in peers.iter().enumerate() {
            assert!(
                buckets[level[i]].contains(p),
                "seed {seed}: peer {p} missing from its current bucket {}",
                level[i]
            );
        }
    }
}
