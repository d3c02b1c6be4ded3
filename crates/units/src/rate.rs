//! Data rate and frequency quantities.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

use crate::Seconds;

/// A data rate, stored internally in bits per second.
///
/// # Examples
///
/// ```
/// use wsn_units::DataRate;
///
/// // The 802.15.4 2.45 GHz PHY gross rate:
/// let rate = DataRate::from_kbps(250.0);
/// // Time to move one byte:
/// assert!((rate.time_per_bits(8.0).micros() - 32.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DataRate(f64);

impl DataRate {
    /// Creates a rate from bits per second.
    #[inline]
    pub const fn from_bps(bps: f64) -> Self {
        DataRate(bps)
    }

    /// Creates a rate from kilobits per second.
    #[inline]
    pub fn from_kbps(kbps: f64) -> Self {
        DataRate(kbps * 1e3)
    }

    /// Creates a rate from megabits per second.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        DataRate(mbps * 1e6)
    }

    /// Returns the value in bits per second.
    #[inline]
    pub const fn bps(self) -> f64 {
        self.0
    }

    /// Returns the value in kilobits per second.
    #[inline]
    pub fn kbps(self) -> f64 {
        self.0 * 1e-3
    }

    /// Returns the time needed to transfer `bits` bits at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    #[inline]
    pub fn time_per_bits(self, bits: f64) -> Seconds {
        assert!(self.0 > 0.0, "rate must be positive, got {} bps", self.0);
        Seconds::from_secs(bits / self.0)
    }

    /// Returns the number of bits transferred in `t` at this rate.
    #[inline]
    pub fn bits_in(self, t: Seconds) -> f64 {
        self.0 * t.secs()
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.3} Mb/s", self.0 * 1e-6)
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} kb/s", self.0 * 1e-3)
        } else {
            write!(f, "{:.3} b/s", self.0)
        }
    }
}

impl Add for DataRate {
    type Output = DataRate;
    #[inline]
    fn add(self, rhs: DataRate) -> DataRate {
        DataRate(self.0 + rhs.0)
    }
}

impl Sub for DataRate {
    type Output = DataRate;
    #[inline]
    fn sub(self, rhs: DataRate) -> DataRate {
        DataRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for DataRate {
    type Output = DataRate;
    #[inline]
    fn mul(self, rhs: f64) -> DataRate {
        DataRate(self.0 * rhs)
    }
}

impl Div<f64> for DataRate {
    type Output = DataRate;
    #[inline]
    fn div(self, rhs: f64) -> DataRate {
        DataRate(self.0 / rhs)
    }
}

impl Div<DataRate> for DataRate {
    type Output = f64;
    #[inline]
    fn div(self, rhs: DataRate) -> f64 {
        self.0 / rhs.0
    }
}

/// A frequency, stored internally in hertz.
///
/// # Examples
///
/// ```
/// use wsn_units::Frequency;
///
/// let ch11 = Frequency::from_mhz(2405.0);
/// assert!((ch11.ghz() - 2.405).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from hertz.
    #[inline]
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from kilohertz.
    #[inline]
    pub fn from_khz(khz: f64) -> Self {
        Frequency(khz * 1e3)
    }

    /// Creates a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    /// Returns the value in hertz.
    #[inline]
    pub const fn hz(self) -> f64 {
        self.0
    }

    /// Returns the value in megahertz.
    #[inline]
    pub fn mhz(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the value in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// Returns the wavelength in meters (c / f).
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[inline]
    pub fn wavelength_m(self) -> f64 {
        assert!(self.0 > 0.0, "frequency must be positive");
        299_792_458.0 / self.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e9 {
            write!(f, "{:.4} GHz", self.0 * 1e-9)
        } else if self.0.abs() >= 1e6 {
            write!(f, "{:.3} MHz", self.0 * 1e-6)
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} kHz", self.0 * 1e-3)
        } else {
            write!(f, "{:.3} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_period_at_250kbps() {
        let t_b = DataRate::from_kbps(250.0).time_per_bits(8.0);
        assert!((t_b.micros() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn bits_in_superframe() {
        // 983.04 ms at 250 kb/s is 245 760 bits, the paper's per-channel
        // capacity per superframe at BO = 6.
        let bits = DataRate::from_kbps(250.0).bits_in(Seconds::from_millis(983.04));
        assert!((bits - 245_760.0).abs() < 1e-6);
    }

    #[test]
    fn rate_arithmetic() {
        let r = DataRate::from_kbps(100.0);
        assert!(((r * 2.0).kbps() - 200.0).abs() < 1e-9);
        assert!(((r / 2.0).kbps() - 50.0).abs() < 1e-9);
        assert!((r / DataRate::from_kbps(250.0) - 0.4).abs() < 1e-12);
        assert!(((r + r).kbps() - 200.0).abs() < 1e-9);
        assert!(((r - r).kbps() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_scales() {
        let f = Frequency::from_ghz(2.45);
        assert!((f.mhz() - 2450.0).abs() < 1e-9);
        assert!((f.hz() - 2.45e9).abs() < 1.0);
        assert!((Frequency::from_khz(868_300.0).mhz() - 868.3).abs() < 1e-9);
    }

    #[test]
    fn wavelength() {
        let f = Frequency::from_ghz(2.45);
        assert!((f.wavelength_m() - 0.1224).abs() < 1e-3);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", DataRate::from_kbps(250.0)), "250.000 kb/s");
        assert_eq!(format!("{}", DataRate::from_mbps(2.0)), "2.000 Mb/s");
        assert_eq!(format!("{}", Frequency::from_mhz(2450.0)), "2.4500 GHz");
        assert_eq!(format!("{}", Frequency::from_mhz(868.0)), "868.000 MHz");
    }
}
