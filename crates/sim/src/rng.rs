//! Seedable, splittable pseudo-random number generation.
//!
//! The simulator needs reproducible, statistically sound randomness with
//! cheap per-node sub-streams. [`Xoshiro256StarStar`] (Blackman & Vigna)
//! seeded through SplitMix64 provides both without external dependencies;
//! it also implements [`wsn_phy::noise::UniformSource`] so the same stream
//! can drive CSMA backoffs, arrival offsets and chip-level noise.

use wsn_phy::noise::{SplitMix64, UniformSource};

/// The xoshiro256★★ generator.
///
/// # Examples
///
/// ```
/// use wsn_sim::Xoshiro256StarStar;
///
/// let mut a = Xoshiro256StarStar::seed_from_u64(7);
/// let mut b = Xoshiro256StarStar::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Independent per-node sub-streams:
/// let mut n0 = a.split(0);
/// let mut n1 = a.split(1);
/// assert_ne!(n0.next_u64(), n1.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the generator from a single word via SplitMix64 (as the
    /// authors of xoshiro recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is invalid; SplitMix64 cannot produce it from any
        // seed, but keep the guard for defense in depth.
        if s == [0, 0, 0, 0] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Xoshiro256StarStar { s }
    }

    /// Derives an independent sub-stream for entity `stream` (node index,
    /// superframe, …) without perturbing this generator.
    pub fn split(&self, stream: u64) -> Xoshiro256StarStar {
        // Mix the stream id into the state through SplitMix64 re-seeding.
        let mixed = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        Xoshiro256StarStar::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u32` in `0..n` (Lemire's method, bias-free for the widths
    /// used here).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn range_u32(&mut self, n: u32) -> u32 {
        assert!(n > 0, "range upper bound must be positive");
        ((self.next_u64() >> 32).wrapping_mul(n as u64) >> 32) as u32
    }

    /// Uniform `usize` in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` does not fit in `u32`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(u32::try_from(n).is_ok(), "index range too large");
        self.range_u32(n as u32) as usize
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "probability must not be NaN");
        self.next_f64() < p
    }
}

impl UniformSource for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_is_stable() {
        // Regression pin: changing the generator silently would invalidate
        // every recorded experiment.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(0);
        let again: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
        // And differs from a different seed.
        let mut rng3 = Xoshiro256StarStar::seed_from_u64(1);
        let other: Vec<u64> = (0..4).map(|_| rng3.next_u64()).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn uniform_f64_in_unit_interval_with_half_mean() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }

    #[test]
    fn range_u32_uniformity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.range_u32(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "bucket {i} count {c} far from uniform"
            );
        }
        for _ in 0..1000 {
            let n = 1 + rng.range_u32(9_999);
            assert!(rng.range_u32(n) < n, "bound {n}");
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let root = Xoshiro256StarStar::seed_from_u64(42);
        let mut a = root.split(0);
        let mut b = root.split(1);
        // Crude decorrelation check: agreement frequency of booleans ≈ 1/2.
        let agree = (0..10_000)
            .filter(|_| (a.next_u64() & 1) == (b.next_u64() & 1))
            .count();
        assert!((agree as f64 / 10_000.0 - 0.5).abs() < 0.03);
        // Splitting is pure: same stream id twice gives the same stream.
        let mut c = root.split(0);
        let mut d = root.split(0);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn integer_draw_is_the_truncated_float_draw() {
        // The CSMA backoff draws `next_bits` where it used to truncate
        // `next_f64() · 2^bits`; both generators must give the same integer
        // from the same word, for every backoff exponent and the widest
        // draw, or every backoff moves.
        fn check<U: UniformSource + Clone>(mut rng: U, case: u64) {
            for bits in (0..=8).chain([53]) {
                for draw in 0..10_000 {
                    let int = rng.clone().next_bits(bits);
                    let float = (rng.next_f64() * (1u64 << bits) as f64) as u64;
                    assert_eq!(int, float, "case {case}, bits {bits}, draw {draw}");
                }
            }
        }
        let mut seeds = Xoshiro256StarStar::seed_from_u64(0xB17);
        for case in 0..4 {
            let seed = seeds.next_u64();
            check(SplitMix64::new(seed), case);
            check(Xoshiro256StarStar::seed_from_u64(seed), case);
        }
    }

    #[test]
    #[should_panic(expected = "upper bound must be positive")]
    fn zero_range_panics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let _ = rng.range_u32(0);
    }
}
