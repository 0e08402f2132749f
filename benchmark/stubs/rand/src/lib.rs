//! Offline stand-in for `rand` 0.9.
//!
//! Where no registry resolves offline, run.sh patches `rand` with this crate
//! (`--config stubs/offline.toml`). It implements exactly the surface the
//! gossiptrust crates call
//! (`Rng::{random, random_range, random_bool}`, `SeedableRng::seed_from_u64`,
//! `rngs::StdRng`, `seq::SliceRandom::shuffle`, `seq::index::sample`) over a
//! splitmix64 stream. The stream is deterministic per seed but is *not*
//! ChaCha12, so trajectories (and exact step counts) differ from a build
//! against the real crate, and a draw is cheaper; how much that moves a
//! gossip step (n target draws beside an n² sweep) has not been measured.

use std::ops::{Range, RangeInclusive};

/// The raw 64-bit source.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::random` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges `Rng::random_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` by widening multiply (Lemire, without the
/// rejection step: the bias is < 2⁻⁶⁴·span, irrelevant here).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::draw(rng)
    }
}

/// The user-facing extension trait, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// A uniformly distributed value of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniformly distributed value inside `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable sources.
pub trait SeedableRng: Sized {
    /// Build a source from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 (Steele, Lea & Flood 2014): one add, two xor-shift-multiply
    /// rounds per output; passes BigCrush, full 2⁶⁴ period.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// In-place slice operations.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }

    /// Index sampling without replacement.
    pub mod index {
        use super::super::{Rng, RngCore};

        /// The sampled indices.
        #[derive(Clone, Debug)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Number of indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no index was sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// The indices as a vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Iterate the indices.
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// `amount` distinct indices from `0..length`, in random order
        /// (partial Fisher–Yates over an index table).
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "cannot sample more indices than exist");
            let mut table: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.random_range(i..length);
                table.swap(i, j);
            }
            table.truncate(amount);
            IndexVec(table)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = a.random_range(3..17);
            assert_eq!(x, b.random_range(3..17));
            assert!((3..17).contains(&x));
            let u: f64 = a.random();
            assert_eq!(u.to_bits(), b.random::<f64>().to_bits());
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_sample_is_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut picked = super::seq::index::sample(&mut rng, 50, 20).into_vec();
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 20);
    }
}
