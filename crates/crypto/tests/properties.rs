//! Property-based tests for the crypto layer.
//!
//! Each property is one `#[test]` looping `CASES` fixed-seed draws from its
//! input ranges; a failing assertion names the case and the drawn inputs.

use gossiptrust_crypto::{hmac_sha256, sha256, Pkg, Sha256, SignedEnvelope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 128;

/// `lens.start..lens.end` seeded bytes.
fn draw_bytes(draw: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..draw.random_range(lens)).map(|_| draw.random()).collect()
}

/// Incremental hashing equals one-shot hashing for any split points.
#[test]
fn incremental_sha256_equals_oneshot() {
    let mut draw = StdRng::seed_from_u64(0x5A_0001);
    for case in 0..CASES {
        let data = draw_bytes(&mut draw, 0..4096);
        let mut points: Vec<usize> = (0..draw.random_range(0..8))
            .map(|_| draw.random_range(0usize..4096) % (data.len() + 1))
            .collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &p in &points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), sha256(&data), "case {case}: cuts {points:?} of {data:?}");
    }
}

/// Digests are deterministic and sensitive to any single-bit flip.
#[test]
fn sha256_bit_flip_changes_digest() {
    let mut draw = StdRng::seed_from_u64(0x5A_0002);
    for case in 0..CASES {
        let data = draw_bytes(&mut draw, 1..512);
        let (byte, bit) = (draw.random_range(0..data.len()), draw.random_range(0u8..8));
        let mut flipped = data.clone();
        flipped[byte] ^= 1 << bit;
        assert_eq!(sha256(&data), sha256(&data), "case {case}: {data:?}");
        assert_ne!(
            sha256(&data),
            sha256(&flipped),
            "case {case}: byte {byte} bit {bit} of {data:?}"
        );
    }
}

/// HMAC verification accepts the genuine tag and rejects any tag for a
/// different key or message. Stated over drawn keys: by construction a key
/// and the same key with zero bytes appended (up to the block) share tags,
/// a pair independent draws do not produce.
#[test]
fn hmac_binds_key_and_message() {
    let mut draw = StdRng::seed_from_u64(0x5A_0003);
    for case in 0..CASES {
        let [key_a, key_b] = [(); 2].map(|()| draw_bytes(&mut draw, 1..80));
        let [msg_a, msg_b] = [(); 2].map(|()| draw_bytes(&mut draw, 0..256));
        let ctx =
            format!("case {case}: keys {key_a:?} / {key_b:?}, messages {msg_a:?} / {msg_b:?}");
        let tag = hmac_sha256(&key_a, &msg_a);
        assert_eq!(hmac_sha256(&key_a, &msg_a), tag, "{ctx}");
        if key_a != key_b {
            assert_ne!(hmac_sha256(&key_b, &msg_a), tag, "{ctx}: other key, same tag");
        }
        if msg_a != msg_b {
            assert_ne!(hmac_sha256(&key_a, &msg_b), tag, "{ctx}: other message, same tag");
        }
    }
}

/// Envelopes round-trip for arbitrary payloads, and every single-bit
/// corruption of the encoding is either unparseable or fails to verify.
#[test]
fn envelope_roundtrip_and_tamper_detection() {
    let mut draw = StdRng::seed_from_u64(0x5A_0004);
    for case in 0..CASES {
        let (seed, identity): (u64, u32) = (draw.random(), draw.random());
        let payload = draw_bytes(&mut draw, 0..512);
        let ctx = format!("case {case}: pkg seed {seed}, identity {identity}, payload {payload:?}");
        let pkg = Pkg::from_seed(seed);
        let verifier = pkg.verifier();
        let encoded = pkg.issue(identity).seal(&payload).encode();
        let decoded = SignedEnvelope::decode(&encoded).expect("genuine envelope decodes");
        assert!(verifier.open(&decoded).is_some(), "{ctx}: genuine envelope refused");

        // Every byte of the encoding, one drawn bit each: malformed is
        // rejected at parse time; what parses must fail authentication.
        for at in 0..encoded.len() {
            let bit = draw.random_range(0u8..8);
            let mut corrupted = encoded.to_vec();
            corrupted[at] ^= 1 << bit;
            if let Some(env) = SignedEnvelope::decode(&corrupted) {
                assert!(
                    verifier.open(&env).is_none(),
                    "{ctx}: byte {at} bit {bit} flipped, accepted"
                );
            }
        }
    }
}
