//! Probability newtype, clamped into `[0, 1]`.

use core::fmt;
use core::ops::Mul;

/// A probability, guaranteed to lie in `[0, 1]`.
///
/// The analytical model of the paper composes many probabilities (bit error,
/// packet error, collision, channel-access failure, …); this newtype keeps
/// the compositions honest. Multiplication of two probabilities models the
/// joint probability of *independent* events — which is exactly the
/// independence assumption the paper's equations (9), (10) and (13) make.
///
/// # Examples
///
/// ```
/// use wsn_units::Probability;
///
/// let pr_col = Probability::clamped(0.1);
/// let pr_e = Probability::clamped(0.05);
/// // Paper eq. (9): Pr_tf = 1 − (1 − Pr_col)(1 − Pr_e)
/// let pr_tf = (pr_col.complement() * pr_e.complement()).complement();
/// assert!((pr_tf.value() - 0.145).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// The impossible event.
    pub const ZERO: Probability = Probability(0.0);

    /// Creates a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// Useful at the boundary with floating-point formulas that may
    /// produce `1.0 + ε` through rounding.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    #[inline]
    pub fn clamped(p: f64) -> Self {
        assert!(!p.is_nan(), "probability must not be NaN");
        Probability(p.clamp(0.0, 1.0))
    }

    /// Returns the raw value in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns `1 − p`, the probability of the complementary event.
    #[inline]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// Returns `pˣ` for a real-valued exponent `x ≥ 0`.
    ///
    /// Used by the packet-error formula `(1 − Pr_bit)^(8·(L−4))` when the
    /// exponent is computed rather than constant.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative (the result could exceed 1).
    #[inline]
    pub fn powf(self, x: f64) -> Probability {
        assert!(x >= 0.0, "exponent must be non-negative, got {x}");
        Probability(self.0.powf(x))
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl Mul for Probability {
    type Output = Probability;
    #[inline]
    fn mul(self, rhs: Probability) -> Probability {
        Probability(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_saturates() {
        assert_eq!(Probability::clamped(1.0 + 1e-12).value(), 1.0);
        assert_eq!(Probability::clamped(-1e-12).value(), 0.0);
        assert_eq!(Probability::clamped(0.3).value(), 0.3);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn clamped_rejects_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn complement_involution() {
        let p = Probability::clamped(0.37);
        assert!((p.complement().complement().value() - 0.37).abs() < 1e-15);
    }

    #[test]
    fn independent_joint() {
        let p = Probability::clamped(0.5) * Probability::clamped(0.5);
        assert_eq!(p.value(), 0.25);
    }

    #[test]
    fn powf_packet_error_formula() {
        // Pr_e = 1 − (1 − Pr_bit)^(8·(133−4)) at Pr_bit = 1e-4.
        let pr_bit = Probability::clamped(1e-4);
        let pr_e = pr_bit.complement().powf(8.0 * 129.0).complement();
        assert!((pr_e.value() - 0.0981).abs() < 1e-3);
    }
}
