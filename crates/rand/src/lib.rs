//! Vendored, dependency-free substitute for the subset of the `rand` 0.8
//! API this workspace uses (`StdRng::seed_from_u64`, `gen_range`,
//! `gen_bool`). The build environment has no access to crates.io, so the
//! workspace points its `rand` dependency at this crate.
//!
//! The generator is xoshiro256++ seeded through SplitMix64: fast, well
//! distributed, and fully deterministic. Streams differ from upstream
//! `StdRng` (ChaCha12), which is fine — every consumer in this workspace
//! only requires per-seed determinism, not a specific stream.

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Converts 64 random bits to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 53 mantissa bits.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range that can produce uniform samples of `T`.
pub trait SampleRange<T> {
    /// Draws one sample.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, n)` via 128-bit widening multiply (Lemire's
/// unbiased method).
#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut x = rng.next_u64();
    let mut m = u128::from(x) * u128::from(n);
    let mut lo = m as u64;
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            x = rng.next_u64();
            m = u128::from(x) * u128::from(n);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng.next_u64())
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + (hi - lo) * unit_f64(rng.next_u64())
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    /// Alias: the small generator is the same xoshiro256++ core.
    pub type SmallRng = StdRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        let matches = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u32 = r.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y: u64 = r.gen_range(0u64..1);
            assert_eq!(y, 0);
            let z: usize = r.gen_range(0usize..=4);
            assert!(z <= 4);
            let f: f64 = r.gen_range(-0.25f64..=0.25);
            assert!((-0.25..=0.25).contains(&f));
            let g: f64 = r.gen_range(f64::MIN_POSITIVE..1.0);
            assert!((0.0..1.0).contains(&g) && g > 0.0);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn uniform_int_covers_domain() {
        let mut r = StdRng::seed_from_u64(13);
        let mut seen = [0u32; 8];
        for _ in 0..8_000 {
            seen[r.gen_range(0usize..8)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 700, "bucket {i}: {count}");
        }
    }
}
