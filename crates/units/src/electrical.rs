//! Electrical quantities: current and voltage.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

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
/// assert!((shutdown.nanowatts() - 144.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Current(f64);

impl Current {
    /// Zero current.
    pub const ZERO: Current = Current(0.0);

    /// Creates a current from amperes.
    #[inline]
    pub const fn from_amps(a: f64) -> Self {
        Current(a)
    }

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

    /// Returns the value in amperes.
    #[inline]
    pub const fn amps(self) -> f64 {
        self.0
    }

    /// Returns the value in milliamperes.
    #[inline]
    pub fn milliamps(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microamperes.
    #[inline]
    pub fn microamps(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in nanoamperes.
    #[inline]
    pub fn nanoamps(self) -> f64 {
        self.0 * 1e9
    }
}

impl fmt::Display for Current {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0.abs();
        if a >= 1.0 {
            write!(f, "{:.4} A", self.0)
        } else if a >= 1e-3 {
            write!(f, "{:.4} mA", self.0 * 1e3)
        } else if a >= 1e-6 {
            write!(f, "{:.4} µA", self.0 * 1e6)
        } else {
            write!(f, "{:.4} nA", self.0 * 1e9)
        }
    }
}

impl Add for Current {
    type Output = Current;
    #[inline]
    fn add(self, rhs: Current) -> Current {
        Current(self.0 + rhs.0)
    }
}

impl Sub for Current {
    type Output = Current;
    #[inline]
    fn sub(self, rhs: Current) -> Current {
        Current(self.0 - rhs.0)
    }
}

impl Mul<f64> for Current {
    type Output = Current;
    #[inline]
    fn mul(self, rhs: f64) -> Current {
        Current(self.0 * rhs)
    }
}

impl Div<f64> for Current {
    type Output = Current;
    #[inline]
    fn div(self, rhs: f64) -> Current {
        Current(self.0 / rhs)
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

    /// Creates a voltage from millivolts.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Voltage(mv * 1e-3)
    }

    /// Returns the value in volts.
    #[inline]
    pub const fn volts(self) -> f64 {
        self.0
    }

    /// Returns the value in millivolts.
    #[inline]
    pub fn millivolts(self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Current) -> Power {
        rhs * self
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
        assert!((shutdown.nanowatts() - 144.0).abs() < 1e-9);

        let idle = Current::from_microamps(396.0) * VDD;
        assert!((idle.microwatts() - 712.8).abs() < 1e-9);

        let rx = Current::from_milliamps(19.6) * VDD;
        assert!((rx.milliwatts() - 35.28).abs() < 1e-9);

        let tx0 = Current::from_milliamps(17.04) * VDD;
        assert!((tx0.milliwatts() - 30.672).abs() < 1e-9);
    }

    #[test]
    fn commutative_power_product() {
        let a = Current::from_milliamps(10.0) * Voltage::from_volts(1.8);
        let b = Voltage::from_volts(1.8) * Current::from_milliamps(10.0);
        assert_eq!(a, b);
        // And bilinear: scaling the current scales the power.
        for (ma, v, k) in [(0.0, 1.8, 3.0), (19.6, 0.1, 0.1), (100.0, 5.0, 10.0)] {
            let base = Current::from_milliamps(ma) * Voltage::from_volts(v);
            let scaled = Current::from_milliamps(ma * k) * Voltage::from_volts(v);
            assert!((scaled.watts() - base.watts() * k).abs() < 1e-12 * (1.0 + base.watts() * k));
        }
    }

    #[test]
    fn current_scaling() {
        let i = Current::from_milliamps(19.6);
        assert!((i.amps() - 0.0196).abs() < 1e-12);
        assert!((i.microamps() - 19600.0).abs() < 1e-6);
        assert!((Current::from_amps(1.0).milliamps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn current_arithmetic() {
        let a = Current::from_milliamps(2.0);
        let b = Current::from_milliamps(3.0);
        assert!(((a + b).milliamps() - 5.0).abs() < 1e-12);
        assert!(((b - a).milliamps() - 1.0).abs() < 1e-12);
        assert!(((a * 2.0).milliamps() - 4.0).abs() < 1e-12);
        assert!(((b / 3.0).milliamps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_accessors() {
        assert!((Voltage::from_millivolts(1800.0).volts() - 1.8).abs() < 1e-12);
        assert!((Voltage::from_volts(1.8).millivolts() - 1800.0).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Current::from_milliamps(19.6)), "19.6000 mA");
        assert_eq!(format!("{}", Current::from_nanoamps(80.0)), "80.0000 nA");
        assert_eq!(format!("{}", Voltage::from_volts(1.8)), "1.800 V");
    }
}
