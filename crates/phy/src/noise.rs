//! Randomness abstractions and special functions used by the bit-level
//! channel models.
//!
//! The PHY crate does not depend on an RNG implementation; Monte-Carlo
//! entry points are generic over [`UniformSource`]. A small, fast,
//! deterministic [`SplitMix64`] is provided so the crate is usable
//! standalone; `wsn-sim`'s higher-quality generator also implements the
//! trait.

/// A source of uniformly distributed 64-bit words, and the uniform samples
/// drawn from them.
///
/// An implementor provides [`next_u64`](Self::next_u64) only. Both samples
/// are provided, and both use the word's 53 high bits `m = next_u64() >> 11`:
///
/// * [`next_f64`](Self::next_f64) is `m · 2⁻⁵³`, in `[0, 1)`;
/// * [`next_bits`](Self::next_bits)`(bits)` is `m >> (53 − bits)`, in
///   `0..2^bits`.
///
/// The two agree: `next_bits(bits) == (next_f64() · 2^bits) as u64` for
/// every `bits ≤ 53` on the same word. `m < 2⁵³` is exact in `f64`, and so
/// is scaling it by `2^(bits − 53)`, so the float's truncation is the shift.
pub trait UniformSource {
    /// Returns the next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Returns the next uniform sample in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high bits → [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns the next uniform integer in `0..2^bits`, equal to
    /// `floor(next_f64() · 2^bits)` from the same word; `bits` is at most
    /// 53.
    #[inline(always)] // the CSMA backoff draw, once per engine event
    fn next_bits(&mut self, bits: u32) -> u64 {
        (self.next_u64() >> 11) >> (53 - bits)
    }
}

impl<T: UniformSource + ?Sized> UniformSource for &mut T {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Sebastiano Vigna's SplitMix64 generator: tiny, fast, and statistically
/// adequate for physical-layer Monte-Carlo.
///
/// # Examples
///
/// ```
/// use wsn_phy::noise::{SplitMix64, UniformSource};
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_f64(), b.next_f64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl UniformSource for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// Draws zero-mean, unit-variance Gaussian samples from a uniform source
/// using the Box–Muller transform, caching the second variate.
#[derive(Debug, Clone)]
pub struct GaussianSource<U> {
    uniform: U,
    cached: Option<f64>,
}

impl<U: UniformSource> GaussianSource<U> {
    /// Wraps a uniform source.
    pub fn new(uniform: U) -> Self {
        GaussianSource {
            uniform,
            cached: None,
        }
    }

    /// Returns the next standard-normal sample.
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        // Box–Muller on (0,1] × [0,1) to avoid ln(0).
        let u1 = 1.0 - self.uniform.next_f64();
        let u2 = self.uniform.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// Complementary error function.
///
/// Near the origin a Chebyshev fit (absolute error `< 1.2 × 10⁻⁷`) is used;
/// in the tail (`|x| ≥ 1.25`) the function is evaluated through the upper
/// incomplete gamma continued fraction `erfc(x) = Q(½, x²)`, which keeps the
/// *relative* error near machine precision — essential for the deep-tail
/// chip-error probabilities of the DSSS receiver model.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let ans = if z < 1.25 {
        erfc_chebyshev(z)
    } else {
        gammq_half(z * z)
    };
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Numerical Recipes' Chebyshev fit, adequate where `erfc` is not tiny.
fn erfc_chebyshev(z: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    t * poly.exp()
}

/// Upper regularized incomplete gamma `Q(½, x)` by Lentz's continued
/// fraction (converges rapidly for `x ≳ 1.5`).
fn gammq_half(x: f64) -> f64 {
    const A: f64 = 0.5;
    const LN_GAMMA_HALF: f64 = 0.572_364_942_924_700_1; // ln √π
    let mut b = x + 1.0 - A;
    let mut c = 1e308;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..200 {
        let an = -(i as f64) * (i as f64 - A);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 3e-16 {
            break;
        }
    }
    (-x + A * x.ln() - LN_GAMMA_HALF).exp() * h
}

/// The Gaussian tail probability `Q(x) = P(N(0,1) > x)`.
///
/// # Examples
///
/// ```
/// use wsn_phy::noise::q_function;
///
/// assert!((q_function(0.0) - 0.5).abs() < 1e-7);
/// assert!(q_function(6.0) < 1e-8);
/// ```
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut rng = SplitMix64::new(0xDEADBEEF);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_mean_is_half() {
        let mut rng = SplitMix64::new(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut g = GaussianSource::new(SplitMix64::new(99));
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn erfc_reference_values() {
        // Reference values from standard tables.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(0.5) - 0.479_500_1).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_734_981).abs() < 1e-10);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn erfc_deep_tail_relative_accuracy() {
        // erfc(4) = 1.541725790028002e-8, erfc(5) = 1.537459794428035e-12.
        let rel4 = (erfc(4.0) - 1.541_725_790_028_002e-8) / 1.541_725_790_028_002e-8;
        let rel5 = (erfc(5.0) - 1.537_459_794_428_035e-12) / 1.537_459_794_428_035e-12;
        assert!(rel4.abs() < 1e-10, "rel err at 4: {rel4:e}");
        assert!(rel5.abs() < 1e-10, "rel err at 5: {rel5:e}");
    }

    #[test]
    fn erfc_continuous_at_branch_point() {
        let below = erfc(1.25 - 1e-9);
        let above = erfc(1.25 + 1e-9);
        assert!(
            (below - above).abs() < 1e-6,
            "jump at branch: {below} vs {above}"
        );
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(1.0) - 0.158_655_3).abs() < 1e-6);
        assert!((q_function(3.0) - 1.349_898e-3).abs() < 1e-8);
        // Symmetry: Q(-x) = 1 - Q(x).
        assert!((q_function(-2.0) + q_function(2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gaussian_tail_fraction_matches_q() {
        let mut g = GaussianSource::new(SplitMix64::new(5));
        let n = 400_000;
        let above_one = (0..n).filter(|_| g.next_gaussian() > 1.0).count();
        let frac = above_one as f64 / n as f64;
        assert!((frac - q_function(1.0)).abs() < 0.005, "fraction {frac}");
    }
}
