//! Energy quantity.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{Power, Seconds};

/// An energy quantity, stored internally in joules.
///
/// Produced by `Power × Seconds`; dividing by a [`Seconds`] or a [`Power`]
/// recovers the other factor.
///
/// # Examples
///
/// ```
/// use wsn_units::{Energy, Power, Seconds};
///
/// let e = Energy::from_microjoules(6.63);
/// let t = e / Power::from_milliwatts(35.28);
/// assert!((t.micros() - 187.9).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    #[inline]
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from millijoules.
    #[inline]
    pub fn from_millijoules(mj: f64) -> Self {
        Energy(mj * 1e-3)
    }

    /// Creates an energy from microjoules.
    #[inline]
    pub fn from_microjoules(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    #[inline]
    pub fn from_picojoules(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Returns the value in joules.
    #[inline]
    pub const fn joules(self) -> f64 {
        self.0
    }

    /// Returns the value in millijoules.
    #[inline]
    pub fn millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microjoules.
    #[inline]
    pub fn microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanojoules.
    #[inline]
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in picojoules.
    #[inline]
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns `true` if the value is finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0.abs();
        if j >= 1.0 {
            write!(f, "{:.4} J", self.0)
        } else if j >= 1e-3 {
            write!(f, "{:.4} mJ", self.0 * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.4} µJ", self.0 * 1e6)
        } else if j >= 1e-9 {
            write!(f, "{:.4} nJ", self.0 * 1e9)
        } else {
            write!(f, "{:.4} pJ", self.0 * 1e12)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    #[inline]
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Seconds) -> Power {
        Power::from_watts(self.0 / rhs.secs())
    }
}

impl Div<Power> for Energy {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Power) -> Seconds {
        Seconds::from_secs(self.0 / rhs.watts())
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_roundtrips() {
        let e = Energy::from_picojoules(691.0);
        assert!((e.joules() - 691e-12).abs() < 1e-24);
        assert!((e.nanojoules() - 0.691).abs() < 1e-12);
        let e2 = Energy::from_millijoules(1.5);
        assert!((e2.microjoules() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_microjoules(6.63) / Seconds::from_micros(194.0);
        assert!((p.milliwatts() - 34.175).abs() < 0.01);
    }

    #[test]
    fn energy_over_power_is_time() {
        let t = Energy::from_joules(1.0) / Power::from_watts(4.0);
        assert!((t.secs() - 0.25).abs() < 1e-15);
        // (P × t) / t recovers P and (P × t) / P recovers t.
        for (mw, ms) in [(1e-3, 1e4), (0.712, 970.0), (35.28, 4.256), (1e3, 1e-3)] {
            let (p, t) = (Power::from_milliwatts(mw), Seconds::from_millis(ms));
            assert!((((p * t) / t).milliwatts() - mw).abs() < mw * 1e-12);
            assert!((((p * t) / p).millis() - ms).abs() < ms * 1e-12);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_joules(2.0);
        let b = Energy::from_joules(6.0);
        assert_eq!((a + b).joules(), 8.0);
        assert_eq!((b - a).joules(), 4.0);
        assert_eq!((a * 3.0).joules(), 6.0);
        assert_eq!((3.0 * a).joules(), 6.0);
        assert_eq!((b / 2.0).joules(), 3.0);
        assert_eq!(b / a, 3.0);
    }

    #[test]
    fn sum_accumulates() {
        let total: Energy = vec![
            Energy::from_joules(0.5),
            Energy::from_joules(1.5),
            Energy::from_joules(2.0),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.joules(), 4.0);
        // Summation order does not matter at ledger precision.
        let parts = [0.0, 1e3, 3.3, 0.07, 999.9, 42.0].map(Energy::from_microjoules);
        let forward: Energy = parts.iter().copied().sum();
        let backward: Energy = parts.iter().rev().copied().sum();
        assert!((forward.joules() - backward.joules()).abs() < 1e-9 * (1.0 + forward.joules()));
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Energy::from_joules(2.0)), "2.0000 J");
        assert_eq!(format!("{}", Energy::from_millijoules(3.0)), "3.0000 mJ");
        assert_eq!(format!("{}", Energy::from_microjoules(6.63)), "6.6300 µJ");
        assert_eq!(format!("{}", Energy::from_nanojoules(135.0)), "135.0000 nJ");
        assert_eq!(format!("{}", Energy::from_picojoules(691.0)), "691.0000 pJ");
    }
}
