//! Property tests for the wire codec: every message round-trips
//! bit-for-bit, and the decoders reject truncated, oversized, and
//! garbage frames instead of panicking or over-allocating. The reputation
//! service's TCP front-end feeds attacker-controlled bytes straight into
//! these decoders, so the error paths are load-bearing.
//!
//! Each property is one `#[test]` over fixed-seed frames (every prefix and
//! every extension of each, where the domain is that small); a failing
//! assertion names the frame and the cut.

use gossiptrust_net::codec::{FeedbackBatch, Push, MAX_BATCH_TARGETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scores as raw 64-bit patterns (NaN payloads, subnormals, infinities),
/// with the signed zeros and both NaN signs forced into the first slots.
fn seeded_scores(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let mut scores: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.random())).collect();
    for (slot, special) in scores.iter_mut().zip([-0.0, 0.0, f64::NAN, -f64::NAN]) {
        *slot = special;
    }
    scores
}

/// 64 seeded pushes of 0–63 components.
fn seeded_pushes() -> Vec<Push> {
    let mut rng = StdRng::seed_from_u64(0xC0DED);
    (0..64usize)
        .map(|n| Push {
            sender: rng.random(),
            cycle: rng.random(),
            xs: seeded_scores(&mut rng, n),
            ws: seeded_scores(&mut rng, n),
        })
        .collect()
}

/// 64 seeded batches of 0–63 ratings.
fn seeded_batches() -> Vec<FeedbackBatch> {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    (0..64usize)
        .map(|k| {
            let targets = (0..k).map(|_| rng.random()).collect::<Vec<u32>>();
            let ratings = targets.into_iter().zip(seeded_scores(&mut rng, k)).collect();
            FeedbackBatch { rater: rng.random(), epoch_hint: rng.random(), ratings }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every proper prefix of `raw` and `raw` plus 1–31 seeded bytes must be
/// refused: the length field accounts for every byte of a frame.
fn assert_only_the_exact_frame_decodes<T>(
    frame: usize,
    raw: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    let len = raw.len();
    assert!(decode(raw).is_some(), "frame {frame}: own encoding must decode");
    for keep in 0..len {
        assert!(decode(&raw[..keep]).is_none(), "frame {frame}: prefix {keep}/{len} decoded");
    }
    let mut rng = StdRng::seed_from_u64(frame as u64);
    let mut longer = raw.to_vec();
    for _ in 1..32 {
        longer.push(rng.random());
        assert!(
            decode(&longer).is_none(),
            "frame {frame}: decoded with {:?} appended",
            &longer[len..]
        );
    }
}

/// Push frames round-trip bit-for-bit, including NaN payloads and ±0.0.
#[test]
fn push_roundtrip() {
    for (frame, push) in seeded_pushes().iter().enumerate() {
        let decoded = Push::decode(&push.encode()).expect("own encoding decodes");
        assert_eq!((decoded.sender, decoded.cycle), (push.sender, push.cycle), "frame {frame}");
        assert_eq!(bits(&decoded.xs), bits(&push.xs), "frame {frame}: {push:?}");
        assert_eq!(bits(&decoded.ws), bits(&push.ws), "frame {frame}: {push:?}");
    }
}

#[test]
fn push_rejects_every_proper_prefix_and_trailing_bytes() {
    for (frame, push) in seeded_pushes().iter().enumerate() {
        assert_only_the_exact_frame_decodes(frame, &push.encode(), Push::decode);
    }
}

/// FeedbackBatch frames round-trip bit-for-bit.
#[test]
fn batch_roundtrip() {
    for (frame, batch) in seeded_batches().iter().enumerate() {
        let decoded = FeedbackBatch::decode(&batch.encode()).expect("own encoding decodes");
        assert_eq!(
            (decoded.rater, decoded.epoch_hint),
            (batch.rater, batch.epoch_hint),
            "frame {frame}"
        );
        let rating_bits = |b: &FeedbackBatch| -> Vec<(u32, u64)> {
            b.ratings.iter().map(|&(t, s)| (t, s.to_bits())).collect()
        };
        assert_eq!(rating_bits(&decoded), rating_bits(batch), "frame {frame}: {batch:?}");
    }
}

#[test]
fn batch_rejects_every_proper_prefix_and_trailing_bytes() {
    for (frame, batch) in seeded_batches().iter().enumerate() {
        assert_only_the_exact_frame_decodes(frame, &batch.encode(), FeedbackBatch::decode);
    }
}

/// A forged length field beyond `MAX_BATCH_TARGETS` is rejected without
/// allocating for the claimed size.
#[test]
fn batch_rejects_count_above_cap() {
    let header = |rater: u32, claimed: u32| {
        let mut raw = rater.to_le_bytes().to_vec();
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&claimed.to_le_bytes());
        raw
    };
    // A bare header claiming up to 4 Gi ratings: refused, not reserved for.
    let mut rng = StdRng::seed_from_u64(0xCA9);
    let over_cap = MAX_BATCH_TARGETS as u32 + 1;
    let drawn: Vec<u32> = (0..64).map(|_| rng.random_range(over_cap..=u32::MAX)).collect();
    for claimed in [over_cap, 1 << 24, u32::MAX].into_iter().chain(drawn) {
        let raw = header(rng.random(), claimed);
        assert!(FeedbackBatch::decode(&raw).is_none(), "{raw:?} claims {claimed}");
    }
    // Only the cap can refuse a frame whose payload matches its claim.
    let mut consistent = header(0, over_cap);
    consistent.resize(12 + 12 * over_cap as usize, 0);
    assert!(FeedbackBatch::decode(&consistent).is_none(), "one past the cap");
    consistent.truncate(12 + 12 * MAX_BATCH_TARGETS);
    consistent[8..12].copy_from_slice(&(MAX_BATCH_TARGETS as u32).to_le_bytes());
    assert!(FeedbackBatch::decode(&consistent).is_some(), "exactly the cap");
}

/// Arbitrary byte soup never panics either decoder (it may decode, if the
/// bytes happen to form a valid frame — the property is no-crash, not
/// no-parse).
#[test]
fn decoders_never_panic_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0x6A7BA6E);
    for case in 0..1024 {
        let raw: Vec<u8> = (0..rng.random_range(0..256)).map(|_| rng.random()).collect();
        let decoded = std::panic::catch_unwind(|| {
            let _ = Push::decode(&raw);
            let _ = FeedbackBatch::decode(&raw);
        });
        assert!(decoded.is_ok(), "case {case}: a decoder panicked on {raw:?}");
    }
}
