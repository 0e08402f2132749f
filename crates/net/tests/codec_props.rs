//! Property-based tests for the wire codec: every message round-trips
//! bit-for-bit, and the decoders reject truncated, oversized, and
//! garbage frames instead of panicking or over-allocating. The reputation
//! service's TCP front-end feeds attacker-controlled bytes straight into
//! these decoders, so the error paths are load-bearing.

use gossiptrust_net::codec::{FeedbackBatch, Push, MAX_BATCH_TARGETS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_push() -> impl Strategy<Value = Push> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec((any::<f64>(), any::<f64>()), 0..64),
    )
        .prop_map(|(sender, cycle, pairs)| {
            let (xs, ws) = pairs.into_iter().unzip();
            Push { sender, cycle, xs, ws }
        })
}

fn arb_batch() -> impl Strategy<Value = FeedbackBatch> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec((any::<u32>(), any::<f64>()), 0..64),
    )
        .prop_map(|(rater, epoch_hint, ratings)| FeedbackBatch { rater, epoch_hint, ratings })
}

/// Bit-exact f64 comparison (NaN payloads and signed zeros included).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// Push frames round-trip bit-for-bit, including NaN and ±0.0.
    #[test]
    fn push_roundtrip(push in arb_push()) {
        let decoded = Push::decode(&push.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded.sender, push.sender);
        prop_assert_eq!(decoded.cycle, push.cycle);
        prop_assert!(same_bits(&decoded.xs, &push.xs));
        prop_assert!(same_bits(&decoded.ws, &push.ws));
    }

    /// Any truncation of a valid Push frame is rejected.
    #[test]
    fn push_rejects_truncation(push in arb_push(), cut in any::<prop::sample::Index>()) {
        let raw = push.encode();
        let keep = cut.index(raw.len().max(1));
        if keep < raw.len() {
            prop_assert!(Push::decode(&raw[..keep]).is_none());
        }
    }

    /// Any extension of a valid Push frame is rejected (the length field
    /// must account for every byte).
    #[test]
    fn push_rejects_trailing_garbage(push in arb_push(), extra in proptest::collection::vec(any::<u8>(), 1..32)) {
        let mut raw = push.encode().to_vec();
        raw.extend_from_slice(&extra);
        prop_assert!(Push::decode(&raw).is_none());
    }

    /// FeedbackBatch frames round-trip bit-for-bit.
    #[test]
    fn batch_roundtrip(batch in arb_batch()) {
        let decoded = FeedbackBatch::decode(&batch.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded.rater, batch.rater);
        prop_assert_eq!(decoded.epoch_hint, batch.epoch_hint);
        prop_assert_eq!(decoded.ratings.len(), batch.ratings.len());
        for (d, o) in decoded.ratings.iter().zip(&batch.ratings) {
            prop_assert_eq!(d.0, o.0);
            prop_assert_eq!(d.1.to_bits(), o.1.to_bits());
        }
    }

    /// Any truncation of a valid batch frame is rejected.
    #[test]
    fn batch_rejects_truncation(batch in arb_batch(), cut in any::<prop::sample::Index>()) {
        let raw = batch.encode();
        let keep = cut.index(raw.len().max(1));
        if keep < raw.len() {
            prop_assert!(FeedbackBatch::decode(&raw[..keep]).is_none());
        }
    }

    /// A forged length field larger than the actual payload — up to and
    /// beyond MAX_BATCH_TARGETS — is rejected without allocating for the
    /// claimed size.
    #[test]
    fn batch_rejects_oversized_length_claim(
        rater in any::<u32>(),
        claimed in (MAX_BATCH_TARGETS as u32 + 1)..,
    ) {
        let mut raw = Vec::new();
        raw.extend_from_slice(&rater.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&claimed.to_le_bytes());
        prop_assert!(FeedbackBatch::decode(&raw).is_none());
    }

    /// Arbitrary byte soup never panics either decoder (it may decode, if
    /// the bytes happen to form a valid frame — the property is no-crash,
    /// not no-parse).
    #[test]
    fn decoders_never_panic_on_garbage(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Push::decode(&raw);
        let _ = FeedbackBatch::decode(&raw);
    }
}

// Seeded twins of the `FeedbackBatch` properties above: plain `#[test]`s
// over fixed-seed inputs, so the decoder the `batch` verb feeds with
// attacker bytes has a witness that executes where `proptest!` expands to
// nothing.

/// 64 seeded batches of 0–63 ratings; scores are raw 64-bit patterns (NaN
/// payloads, subnormals, infinities) with the signed zeros forced in.
fn seeded_batches() -> Vec<FeedbackBatch> {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    (0..64usize)
        .map(|k| {
            let mut ratings: Vec<(u32, f64)> =
                (0..k).map(|_| (rng.random(), f64::from_bits(rng.random()))).collect();
            for (slot, special) in ratings.iter_mut().zip([-0.0, 0.0, f64::NAN, -f64::NAN]) {
                slot.1 = special;
            }
            FeedbackBatch { rater: rng.random(), epoch_hint: rng.random(), ratings }
        })
        .collect()
}

#[test]
fn batch_roundtrip_seeded() {
    for batch in seeded_batches() {
        let decoded = FeedbackBatch::decode(&batch.encode()).expect("own encoding decodes");
        assert_eq!((decoded.rater, decoded.epoch_hint), (batch.rater, batch.epoch_hint));
        let bits = |b: &FeedbackBatch| -> Vec<(u32, u64)> {
            b.ratings.iter().map(|&(t, s)| (t, s.to_bits())).collect()
        };
        assert_eq!(bits(&decoded), bits(&batch));
    }
}

#[test]
fn batch_rejects_every_proper_prefix_and_trailing_bytes_seeded() {
    for batch in seeded_batches() {
        let raw = batch.encode().to_vec();
        for keep in 0..raw.len() {
            assert!(FeedbackBatch::decode(&raw[..keep]).is_none(), "prefix {keep}/{}", raw.len());
        }
        for extra in 1..32 {
            let mut longer = raw.clone();
            longer.resize(raw.len() + extra, 0xA5);
            assert!(FeedbackBatch::decode(&longer).is_none(), "{extra} trailing bytes");
        }
    }
}

#[test]
fn batch_rejects_count_above_cap_seeded() {
    let header = |claimed: u32| {
        let mut raw = vec![0u8; 8];
        raw.extend_from_slice(&claimed.to_le_bytes());
        raw
    };
    // A bare header claiming up to 4 Gi ratings: refused, not reserved for.
    for claimed in [MAX_BATCH_TARGETS as u32 + 1, 1 << 24, u32::MAX] {
        assert!(FeedbackBatch::decode(&header(claimed)).is_none(), "claimed {claimed}");
    }
    // Only the cap can refuse a frame whose payload matches its claim.
    let over = MAX_BATCH_TARGETS + 1;
    let mut consistent = header(over as u32);
    consistent.resize(12 + 12 * over, 0);
    assert!(FeedbackBatch::decode(&consistent).is_none(), "one past the cap");
    consistent.truncate(12 + 12 * MAX_BATCH_TARGETS);
    consistent[8..12].copy_from_slice(&(MAX_BATCH_TARGETS as u32).to_le_bytes());
    assert!(FeedbackBatch::decode(&consistent).is_some(), "exactly the cap");
}
