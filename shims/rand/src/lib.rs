//! Offline, dependency-free stand-in for the [`rand`](https://docs.rs/rand)
//! crate, API-compatible with the subset this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace carries
//! this shim as a path dependency. It provides:
//!
//! * [`RngCore`] / [`Rng`] / [`SeedableRng`] with `gen`, `gen_range`,
//!   `gen_bool` and `fill`,
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator (the stream
//!   differs from upstream `StdRng`, which is fine here: the workspace only
//!   relies on seeded determinism, never on upstream's exact stream),
//! * [`seq::SliceRandom`] with Fisher–Yates `shuffle` and `choose`.

use std::ops::{Range, RangeInclusive};

pub mod rngs;
pub mod seq;

/// A source of random bits.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from the full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator by expanding a `u64` with SplitMix64.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let value = splitmix64(&mut sm);
            for (dst, src) in chunk.iter_mut().zip(value.to_le_bytes()) {
                *dst = src;
            }
        }
        Self::from_seed(seed)
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types samplable uniformly over their full domain (the `Standard`
/// distribution in upstream `rand`).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for u128 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits → uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types samplable uniformly from a bounded range.
pub trait SampleUniform: Sized {
    /// Draws a value in `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $unsigned:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                assert!(
                    if inclusive { lo <= hi } else { lo < hi },
                    "cannot sample empty range"
                );
                // Width of the range as an unsigned span; `None` means the
                // full domain (only reachable for inclusive full ranges).
                let span = (hi as $unsigned)
                    .wrapping_sub(lo as $unsigned)
                    .checked_add(inclusive as $unsigned);
                let draw = match span {
                    None | Some(0) => rng.next_u64() as $unsigned,
                    // Lemire-style widening multiply: unbiased enough for
                    // simulation work, with no rejection loop.
                    Some(s) => {
                        (((rng.next_u64() as u128).wrapping_mul(s as u128)) >> 64) as $unsigned
                    }
                };
                lo.wrapping_add(draw as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64
);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                _inclusive: bool,
            ) -> Self {
                assert!(lo <= hi, "cannot sample empty range");
                let unit = <$t as StandardSample>::standard_sample(rng);
                let value = lo + (hi - lo) * unit;
                if value < hi || lo == hi { value } else { lo }
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, *self.start(), *self.end(), true)
    }
}

/// Destinations for [`Rng::fill`].
pub trait Fill {
    /// Fills `self` with random data from `rng`.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// Convenience methods layered on any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value uniformly over the type's standard domain
    /// (`[0, 1)` for floats, the full range for integers).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T: SampleUniform, G: SampleRange<T>>(&mut self, range: G) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        self.gen::<f64>() < p
    }

    /// Fills `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Commonly used items, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&f));
            let i = rng.gen_range(-10i64..=10);
            assert!((-10..=10).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_small_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_populates_arrays() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 32];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let original: Vec<u32> = (0..50).collect();
        let mut shuffled = original.clone();
        shuffled.shuffle(&mut rng);
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original);
        assert_ne!(shuffled, original, "50 elements should not shuffle to id");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn debug_prints_no_state() {
        let rng = StdRng::seed_from_u64(10);
        let printed = format!("{rng:?} {rng:#?}");
        assert_eq!(format!("{rng:?}"), "StdRng { .. }");
        for word in rng.state_words() {
            assert!(!printed.contains(&word.to_string()), "{printed}");
        }
    }

    #[test]
    fn works_through_mut_references_and_unsized_bounds() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(9);
        let x = draw(&mut rng);
        let _ = Rng::gen_range(&mut rng, -1.0..1.0f32);
        assert!((0.0..1.0).contains(&x));
    }
}
