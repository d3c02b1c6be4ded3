//! Linear power quantity.

use core::fmt;
use core::ops::Mul;

use crate::{Energy, Seconds};

/// A power quantity, stored internally in watts.
///
/// It supports the dimensional arithmetic used throughout the energy
/// model: `Power × Seconds = Energy` and scalar scaling.
///
/// # Examples
///
/// ```
/// use wsn_units::{Power, Seconds};
///
/// let idle = Power::from_microwatts(712.0);
/// let energy = idle * Seconds::from_millis(1.0);
/// assert!((energy.nanojoules() - 712.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Creates a power from watts.
    #[inline]
    pub const fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power from microwatts.
    #[inline]
    pub fn from_microwatts(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// Returns the value in watts.
    #[inline]
    pub const fn watts(self) -> f64 {
        self.0
    }

    /// Returns the value in microwatts.
    #[inline]
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0.abs();
        if w >= 1.0 {
            write!(f, "{:.4} W", self.0)
        } else if w >= 1e-3 {
            write!(f, "{:.4} mW", self.0 * 1e3)
        } else if w >= 1e-6 {
            write!(f, "{:.4} µW", self.0 * 1e6)
        } else {
            write!(f, "{:.4} nW", self.0 * 1e9)
        }
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Seconds> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::from_joules(self.0 * rhs.secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_scaling_roundtrips() {
        let p = Power::from_microwatts(712.0);
        assert!((p.watts() - 712e-6).abs() < 1e-15);
        assert!((p.microwatts() - 712.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_is_linear() {
        let a = Power::from_microwatts(2.0);
        assert_eq!((a * 2.0).microwatts().round(), 4.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_microwatts(35_280.0) * Seconds::from_micros(194.0);
        assert!((e.microjoules() - 6.84432).abs() < 1e-9);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Power::from_watts(1.5)), "1.5000 W");
        assert_eq!(format!("{}", Power::from_watts(35.28e-3)), "35.2800 mW");
        assert_eq!(format!("{}", Power::from_microwatts(712.0)), "712.0000 µW");
        assert_eq!(format!("{}", Power::from_watts(144e-9)), "144.0000 nW");
    }
}
