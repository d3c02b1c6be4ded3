//! Time-span quantity.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of time, stored internally in seconds.
///
/// This is the model-domain (floating point) time used by the analytical
/// energy model. The discrete-event simulator uses integer nanosecond ticks
/// (`wsn-sim`) and converts at its boundary via [`Seconds::from_nanos`] /
/// [`Seconds::nanos`].
///
/// # Examples
///
/// ```
/// use wsn_units::Seconds;
///
/// // The 802.15.4 base superframe duration scaled by beacon order 6:
/// let t_ib = Seconds::from_millis(15.36) * 64.0;
/// assert!((t_ib.secs() - 0.98304).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a time span from seconds.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        Seconds(s)
    }

    /// Creates a time span from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }

    /// Creates a time span from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Seconds(us * 1e-6)
    }

    /// Creates a time span from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Returns the value in seconds.
    #[inline]
    pub const fn secs(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanoseconds.
    #[inline]
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns `true` if the value is finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        if s >= 1.0 {
            write!(f, "{:.4} s", self.0)
        } else if s >= 1e-3 {
            write!(f, "{:.4} ms", self.0 * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.4} µs", self.0 * 1e6)
        } else {
            write!(f, "{:.4} ns", self.0 * 1e9)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_roundtrips() {
        let t = Seconds::from_micros(320.0);
        assert!((t.secs() - 3.2e-4).abs() < 1e-15);
        assert!((t.millis() - 0.32).abs() < 1e-12);
        assert!((t.nanos() - 320_000.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic() {
        let a = Seconds::from_millis(2.0);
        let b = Seconds::from_millis(6.0);
        assert!(((a + b).millis() - 8.0).abs() < 1e-12);
        assert!(((b - a).millis() - 4.0).abs() < 1e-12);
        assert!(((a * 3.0).millis() - 6.0).abs() < 1e-12);
        assert!(((3.0 * a).millis() - 6.0).abs() < 1e-12);
        assert!(((b / 2.0).millis() - 3.0).abs() < 1e-12);
        assert!((b / a - 3.0).abs() < 1e-12);
    }

    #[test]
    fn comparisons() {
        assert!(Seconds::from_micros(192.0) < Seconds::from_micros(864.0));
        assert_eq!(
            Seconds::from_millis(1.0).max(Seconds::from_micros(970.0)),
            Seconds::from_millis(1.0)
        );
        assert_eq!(
            Seconds::from_millis(1.0).min(Seconds::from_micros(970.0)),
            Seconds::from_micros(970.0)
        );
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Seconds::from_secs(1.45)), "1.4500 s");
        assert_eq!(format!("{}", Seconds::from_millis(15.36)), "15.3600 ms");
        assert_eq!(format!("{}", Seconds::from_micros(194.0)), "194.0000 µs");
        assert_eq!(format!("{}", Seconds::from_nanos(62.5)), "62.5000 ns");
    }

    #[test]
    fn sum_accumulates() {
        let t: Seconds = (1..=3).map(|i| Seconds::from_secs(i as f64)).sum();
        assert_eq!(t.secs(), 6.0);
    }
}
