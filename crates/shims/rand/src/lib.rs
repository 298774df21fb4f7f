//! Offline shim for the `rand` 0.8 API surface used by this workspace.
//!
//! See `crates/shims/README.md` for why this exists. The generator is
//! SplitMix64 — deterministic per seed, statistically solid for workload
//! generation, and dependency-free. The repository never compares random
//! streams against golden constants, only runs against runs, so the
//! numeric difference from upstream `StdRng` (ChaCha12) is unobservable.

#![forbid(unsafe_code)]

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Produces the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types constructible from a stream of random bits via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($ty:ty),*) => {$(
        impl Standard for $ty {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bounds usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $ty
            }
        }
        impl SampleRange<$ty> for core::ops::RangeInclusive<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $ty
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize);

/// The user-facing generator methods, blanket-implemented over
/// [`RngCore`] exactly as in `rand` 0.8.
pub trait Rng: RngCore {
    /// Draws one value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of [0, 1]");
        f64::draw(self) < p
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, matching the `rand` 0.8 trait of the same name.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Named generator types.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Clone, Debug)]
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
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub mod seq {
    //! Slice sampling helpers.

    use super::Rng;

    /// In-place random reordering, as in `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!((0..64).all(|_| !rng.gen_bool(0.0)));
        assert!((0..64).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5u32..=5);
            assert_eq!(y, 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn bool_draws_are_balanced() {
        let mut rng = StdRng::seed_from_u64(13);
        let ones = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_000..6_000).contains(&ones), "got {ones}");
    }
}
