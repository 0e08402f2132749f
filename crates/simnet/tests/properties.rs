//! Property-based tests for the discrete-event substrate.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_core::id::NodeId;
use gossiptrust_simnet::{ChurnModel, EventQueue, LinkModel, Overlay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 128;

/// The event queue dequeues in nondecreasing time order with FIFO ties,
/// for any schedule built at time zero.
#[test]
fn event_queue_is_time_ordered() {
    let mut draw = StdRng::seed_from_u64(0x51A_0001);
    for case in 0..CASES {
        let times: Vec<u64> = (0..draw.random_range(1..200))
            .map(|_| draw.random_range(0..10_000))
            .collect();
        let ctx = format!("case {case}: times {times:?}");
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        // (time, payload index) pairs must come out in lexicographic order:
        // time never goes backwards, and ties leave in scheduling order.
        let mut last: Option<(u64, usize)> = None;
        let mut count = 0;
        while let Some((t, idx)) = q.pop() {
            count += 1;
            assert!(last < Some((t, idx)), "{ctx}: {:?} popped before {:?}", last, (t, idx));
            assert_eq!(times[idx], t, "{ctx}: payload {idx} matched to wrong time");
            last = Some((t, idx));
        }
        assert_eq!(count, times.len(), "{ctx}");
    }
}

/// Random k-out overlays are simple (no loops/duplicates), symmetric,
/// and respect the minimum degree.
#[test]
fn k_out_overlay_invariants() {
    let mut draw = StdRng::seed_from_u64(0x51A_0002);
    for case in 0..CASES {
        let (n, k) = (draw.random_range(4usize..80), draw.random_range(1usize..6));
        let seed = draw.random_range(0u64..500);
        let ctx = format!("case {case}: n {n}, k {k}, seed {seed}");
        let o = Overlay::random_k_out(n, k, &mut StdRng::seed_from_u64(seed));
        for i in 0..n {
            let id = NodeId::from_index(i);
            let mut ns = o.neighbors(id).to_vec();
            let len = ns.len();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), len, "{ctx}: duplicate edge at {i}");
            assert!(!ns.contains(&(i as u32)), "{ctx}: self loop at {i}");
            for &j in &ns {
                assert!(o.neighbors(NodeId(j)).contains(&(i as u32)), "{ctx}: asymmetric {i}-{j}");
            }
            assert!(o.degree(id) >= k.min(n - 1), "{ctx}: degree {} < k at {i}", o.degree(id));
        }
    }
}

/// Taking nodes offline only ever shrinks the online-neighbor sets and
/// the online-node list; bringing them back restores both exactly.
#[test]
fn offline_online_roundtrip() {
    let mut draw = StdRng::seed_from_u64(0x51A_0003);
    for case in 0..CASES {
        let (n, seed) = (draw.random_range(4usize..50), draw.random_range(0u64..500));
        let mut down: Vec<usize> = (0..draw.random_range(0..10))
            .map(|_| draw.random_range(0..50))
            .collect();
        down.sort_unstable();
        down.dedup();
        down.retain(|&d| d < n);
        let ctx = format!("case {case}: n {n}, seed {seed}, down {down:?}");
        let mut o = Overlay::random_k_out(n, 3, &mut StdRng::seed_from_u64(seed));
        let before_online = o.online_nodes();
        let before_neighbors: Vec<Vec<NodeId>> =
            (0..n).map(|i| o.online_neighbors(NodeId::from_index(i))).collect();
        for &d in &down {
            o.go_offline(NodeId::from_index(d));
        }
        for (i, before) in before_neighbors.iter().enumerate() {
            let after = o.online_neighbors(NodeId::from_index(i));
            assert!(
                after.len() <= before.len() && after.iter().all(|id| before.contains(id)),
                "{ctx}: node {i}'s online neighbours grew from {before:?} to {after:?}"
            );
        }
        for &d in &down {
            o.go_online(NodeId::from_index(d));
        }
        assert_eq!(o.online_nodes(), before_online, "{ctx}");
        for (i, before) in before_neighbors.iter().enumerate() {
            let after = o.online_neighbors(NodeId::from_index(i));
            assert_eq!(after.len(), before.len(), "{ctx}: node {i}");
        }
    }
}

/// Link samples always land within the configured latency window, and
/// the empirical drop rate tracks the configured one.
#[test]
fn link_model_bounds() {
    let mut draw = StdRng::seed_from_u64(0x51A_0004);
    for case in 0..CASES {
        let lo = draw.random_range(1u64..1000);
        let hi = lo + draw.random_range(0u64..1000);
        let (p, seed) = (draw.random_range(0.0..0.9), draw.random_range(0u64..200));
        let ctx = format!("case {case}: latency {lo}..={hi}, drop rate {p}, seed {seed}");
        let link = LinkModel { min_latency: lo, max_latency: hi, drop_rate: p };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drops = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            match link.sample(&mut rng) {
                Some(d) => assert!((lo..=hi).contains(&d), "{ctx}: latency {d}"),
                None => drops += 1,
            }
        }
        // 0.08 is 7 standard deviations of a 2 000-trial rate at p = 0.5.
        let emp = drops as f64 / trials as f64;
        assert!((emp - p).abs() < 0.08, "{ctx}: empirical drop rate {emp}");
    }
}

/// Churn availability equals session / (session + offline), and all
/// samples are positive.
#[test]
fn churn_availability() {
    let mut draw = StdRng::seed_from_u64(0x51A_0005);
    for case in 0..CASES {
        let (sess, off) =
            (draw.random_range(1u64..10_000_000), draw.random_range(1u64..10_000_000));
        let seed = draw.random_range(0u64..100);
        let ctx = format!("case {case}: session {sess}, offline {off}, seed {seed}");
        let c = ChurnModel::new(sess, off);
        let expect = sess as f64 / (sess + off) as f64;
        assert!((c.availability() - expect).abs() < 1e-12, "{ctx}: {}", c.availability());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            assert!(c.sample_session(&mut rng) >= 1, "{ctx}: empty session");
            assert!(c.sample_offline(&mut rng) >= 1, "{ctx}: empty offline spell");
        }
    }
}
