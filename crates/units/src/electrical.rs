//! Electrical quantities: current and voltage.

use core::fmt;
use core::ops::Mul;

use crate::Power;

/// An electrical current, stored internally in amperes.
///
/// The CC2420 data sheet and the paper's Figure 3 specify radio states by
/// supply current at 1.8 V; `Current × Voltage = Power` converts these to the
/// powers the energy model needs.
///
/// # Examples
///
/// ```
/// use wsn_units::{Current, Voltage};
///
/// let shutdown = Current::from_nanoamps(80.0) * Voltage::from_volts(1.8);
/// assert!((shutdown.microwatts() - 0.144).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Current(f64);

impl Current {
    /// Creates a current from milliamperes.
    #[inline]
    pub fn from_milliamps(ma: f64) -> Self {
        Current(ma * 1e-3)
    }

    /// Creates a current from microamperes.
    #[inline]
    pub fn from_microamps(ua: f64) -> Self {
        Current(ua * 1e-6)
    }

    /// Creates a current from nanoamperes.
    #[inline]
    pub fn from_nanoamps(na: f64) -> Self {
        Current(na * 1e-9)
    }

    /// Returns the value in milliamperes.
    #[inline]
    pub fn milliamps(self) -> f64 {
        self.0 * 1e3
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Voltage) -> Power {
        Power::from_watts(self.0 * rhs.volts())
    }
}

/// An electrical potential, stored internally in volts.
///
/// See [`Current`] for the `I × V = P` conversion.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Voltage(f64);

impl Voltage {
    /// Creates a voltage from volts.
    #[inline]
    pub const fn from_volts(v: f64) -> Self {
        Voltage(v)
    }

    /// Returns the value in volts.
    #[inline]
    pub const fn volts(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: Voltage = Voltage::from_volts(1.8);

    #[test]
    fn figure3_state_powers_from_currents() {
        // All four CC2420 steady-state powers from the paper's Figure 3.
        let shutdown = Current::from_nanoamps(80.0) * VDD;
        assert!((shutdown.microwatts() - 0.144).abs() < 1e-12);

        let idle = Current::from_microamps(396.0) * VDD;
        assert!((idle.microwatts() - 712.8).abs() < 1e-9);

        let rx = Current::from_milliamps(19.6) * VDD;
        assert!((rx.microwatts() - 35_280.0).abs() < 1e-6);

        let tx0 = Current::from_milliamps(17.04) * VDD;
        assert!((tx0.microwatts() - 30_672.0).abs() < 1e-6);
    }

    #[test]
    fn power_product_is_bilinear() {
        // Scaling the current scales the power.
        for (ma, v, k) in [(0.0, 1.8, 3.0), (19.6, 0.1, 0.1), (100.0, 5.0, 10.0)] {
            let base = Current::from_milliamps(ma) * Voltage::from_volts(v);
            let scaled = Current::from_milliamps(ma * k) * Voltage::from_volts(v);
            assert!((scaled.watts() - base.watts() * k).abs() < 1e-12 * (1.0 + base.watts() * k));
        }
    }

    #[test]
    fn current_scaling() {
        assert!((Current::from_milliamps(19.6).milliamps() - 19.6).abs() < 1e-12);
        assert!((Current::from_microamps(396.0).milliamps() - 0.396).abs() < 1e-12);
        assert!((Current::from_nanoamps(80.0).milliamps() - 8e-5).abs() < 1e-15);
    }

    #[test]
    fn voltage_accessors() {
        assert_eq!(Voltage::from_volts(1.8).volts(), 1.8);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Voltage::from_volts(1.8)), "1.800 V");
    }
}
