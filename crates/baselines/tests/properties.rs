//! Property-based tests for the DHT substrate and baselines.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_baselines::{Chord, NoTrust};
use gossiptrust_core::id::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

/// Chord routing from any start reaches the unique owner of any key,
/// within the O(log n) hop bound (with generous slack).
#[test]
fn chord_routing_correct_and_bounded() {
    let mut draw = StdRng::seed_from_u64(0xC40D_0001);
    for case in 0..CASES {
        let n = draw.random_range(1usize..400);
        let dht = Chord::build(n);
        let hop_cap = 2 * (n.max(2) as f64).log2().ceil() as usize + 4;
        for _ in 0..30 {
            let start = draw.random_range(0..n);
            let key: u64 = draw.random();
            let ctx = format!("case {case}: n {n}, start {start}, key {key}");
            let out = dht.lookup_from(NodeId::from_index(start), key);
            assert_eq!(out.owner, dht.owner_of(key), "{ctx}: wrong owner");
            assert!(out.hops <= hop_cap, "{ctx}: hops {} > cap {hop_cap}", out.hops);
        }
    }
}

/// Ownership is a function: the same key always resolves to the same
/// owner, from any starting node.
#[test]
fn chord_ownership_is_start_independent() {
    let mut draw = StdRng::seed_from_u64(0xC40D_0002);
    for case in 0..CASES {
        let (n, key): (usize, u64) = (draw.random_range(2..200), draw.random());
        let dht = Chord::build(n);
        let owner = dht.owner_of(key);
        for start in (0..n).step_by((n / 8).max(1)) {
            let found = dht.lookup_from(NodeId::from_index(start), key).owner;
            assert_eq!(found, owner, "case {case}: n {n}, key {key}, start {start}");
        }
    }
}

/// NoTrust selection always returns one of the offered holders.
#[test]
fn notrust_selects_within_holders() {
    let mut draw = StdRng::seed_from_u64(0xC40D_0003);
    for case in 0..CASES {
        let ids: Vec<NodeId> = (0..draw.random_range(1..50))
            .map(|_| NodeId(draw.random_range(0..10_000)))
            .collect();
        let seed = draw.random_range(0u64..500);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let pick = NoTrust.select(&ids, &mut rng);
            assert!(ids.contains(&pick), "case {case}: seed {seed}: {pick:?} not in {ids:?}");
        }
    }
}
