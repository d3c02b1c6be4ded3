//! Energy quantity.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul};

use crate::{Power, Seconds};

/// An energy quantity, stored internally in joules.
///
/// Produced by `Power × Seconds`; dividing by a [`Seconds`] recovers the
/// [`Power`].
///
/// # Examples
///
/// ```
/// use wsn_units::{Energy, Seconds};
///
/// let e = Energy::from_microjoules(6.63);
/// let p = e / Seconds::from_micros(194.0);
/// assert!((p.microwatts() - 34_175.3).abs() < 0.1);
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

    /// Creates an energy from microjoules.
    #[inline]
    pub fn from_microjoules(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Returns the value in joules.
    #[inline]
    pub const fn joules(self) -> f64 {
        self.0
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

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Seconds) -> Power {
        Power::from_watts(self.0 / rhs.secs())
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
        let e = Energy::from_microjoules(0.691);
        assert!((e.joules() - 691e-9).abs() < 1e-21);
        assert!((e.nanojoules() - 691.0).abs() < 1e-9);
        assert!((Energy::from_joules(1.5e-3).microjoules() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_microjoules(6.63) / Seconds::from_micros(194.0);
        assert!((p.microwatts() - 34_175.0).abs() < 10.0);
        // (P × t) / t recovers P.
        for (uw, ms) in [(1.0, 1e4), (712.0, 970.0), (35_280.0, 4.256), (1e6, 1e-3)] {
            let (p, t) = (Power::from_microwatts(uw), Seconds::from_millis(ms));
            assert!((((p * t) / t).microwatts() - uw).abs() < uw * 1e-12);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_joules(2.0);
        let b = Energy::from_joules(6.0);
        assert_eq!((a + b).joules(), 8.0);
        assert_eq!((a * 3.0).joules(), 6.0);
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
        assert_eq!(format!("{}", Energy::from_joules(3e-3)), "3.0000 mJ");
        assert_eq!(format!("{}", Energy::from_microjoules(6.63)), "6.6300 µJ");
        assert_eq!(format!("{}", Energy::from_joules(135e-9)), "135.0000 nJ");
        assert_eq!(format!("{}", Energy::from_joules(691e-12)), "691.0000 pJ");
    }
}
