//! Logarithmic power (dBm) and gain/attenuation (dB) quantities.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::Power;

/// An absolute power level in decibel-milliwatts.
///
/// `DBm` is kept distinct from the relative [`Db`] so that the type system
/// rejects physically meaningless expressions such as adding two absolute
/// levels. The supported operations mirror link-budget arithmetic:
///
/// * `DBm ± Db = DBm` — apply a gain or loss,
/// * `DBm − DBm = Db` — the ratio between two levels,
/// * [`DBm::to_power`] / [`Power::to_dbm`] — linear-domain conversion.
///
/// # Examples
///
/// ```
/// use wsn_units::{DBm, Db};
///
/// let tx = DBm::new(0.0);
/// let path_loss = Db::new(88.0);
/// assert_eq!(tx - path_loss, DBm::new(-88.0));
/// assert_eq!(DBm::new(-85.0) - DBm::new(-94.0), Db::new(9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DBm(f64);

impl DBm {
    /// Creates a level from a dBm value.
    #[inline]
    pub const fn new(dbm: f64) -> Self {
        DBm(dbm)
    }

    /// Returns the value in dBm.
    #[inline]
    pub const fn dbm(self) -> f64 {
        self.0
    }

    /// Converts to linear power.
    ///
    /// ```
    /// use wsn_units::DBm;
    /// assert!((DBm::new(0.0).to_power().milliwatts() - 1.0).abs() < 1e-12);
    /// assert!((DBm::new(-30.0).to_power().microwatts() - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn to_power(self) -> Power {
        Power::from_milliwatts(10f64.powf(self.0 / 10.0))
    }

    /// Returns the smaller of two levels.
    #[inline]
    pub fn min(self, other: DBm) -> DBm {
        DBm(self.0.min(other.0))
    }

    /// Returns the larger of two levels.
    #[inline]
    pub fn max(self, other: DBm) -> DBm {
        DBm(self.0.max(other.0))
    }
}

impl fmt::Display for DBm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl Sub<Db> for DBm {
    type Output = DBm;
    #[inline]
    fn sub(self, rhs: Db) -> DBm {
        DBm(self.0 - rhs.db())
    }
}

impl Add<Db> for DBm {
    type Output = DBm;
    #[inline]
    fn add(self, rhs: Db) -> DBm {
        DBm(self.0 + rhs.db())
    }
}

impl Sub<DBm> for DBm {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: DBm) -> Db {
        Db::new(self.0 - rhs.0)
    }
}

/// A relative gain (positive) or attenuation (negative of a loss) in decibels.
///
/// Path losses in this workspace are expressed as positive `Db` values that
/// are *subtracted* from a [`DBm`] level.
///
/// # Examples
///
/// ```
/// use wsn_units::Db;
///
/// let combined = Db::new(55.0) + Db::new(33.0);
/// assert_eq!(combined, Db::new(88.0));
/// assert!((Db::new(3.0103).to_linear() - 2.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(f64);

impl Db {
    /// Zero gain.
    pub const ZERO: Db = Db(0.0);

    /// Creates a gain from a dB value.
    #[inline]
    pub const fn new(db: f64) -> Self {
        Db(db)
    }

    /// Returns the value in dB.
    #[inline]
    pub const fn db(self) -> f64 {
        self.0
    }

    /// Converts to a linear power ratio.
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates a gain from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive.
    #[inline]
    pub fn from_linear(ratio: f64) -> Self {
        assert!(ratio > 0.0, "linear ratio must be positive, got {ratio}");
        Db(10.0 * ratio.log10())
    }

    /// Returns the smaller of two gains.
    #[inline]
    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }

    /// Returns the larger of two gains.
    #[inline]
    pub fn max(self, other: Db) -> Db {
        Db(self.0.max(other.0))
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl Add for Db {
    type Output = Db;
    #[inline]
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    #[inline]
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    #[inline]
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    #[inline]
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    #[inline]
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Div<f64> for Db {
    type Output = Db;
    #[inline]
    fn div(self, rhs: f64) -> Db {
        Db(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_budget_ops() {
        let rx = DBm::new(0.0) - Db::new(88.0);
        assert_eq!(rx.dbm(), -88.0);
        assert_eq!((rx + Db::new(3.0)).dbm(), -85.0);
        assert_eq!((DBm::new(-85.0) - DBm::new(-88.0)).db(), 3.0);
        // A gain applied then removed, and a level difference re-applied,
        // are identities across the radio range.
        for (a, b) in [(-120.0, 20.0), (-88.0, -25.0), (0.0, -60.0), (15.0, 60.0)] {
            let (level, gain) = (DBm::new(a), Db::new(b));
            assert!((((level + gain) - gain).dbm() - a).abs() < 1e-12);
            assert!(((DBm::new(b) + (level - DBm::new(b))).dbm() - a).abs() < 1e-12);
        }
    }

    #[test]
    fn dbm_power_roundtrip() {
        for dbm in [-120.0, -94.0, -25.0, -3.0, 0.0, 15.0, 30.0] {
            let back = DBm::new(dbm).to_power().to_dbm();
            assert!((back.dbm() - dbm).abs() < 1e-9, "roundtrip at {dbm} dBm");
        }
    }

    #[test]
    fn db_linear_roundtrip() {
        for db in [-80.0, -20.0, -3.0, 0.0, 10.0, 30.0, 80.0] {
            let back = Db::from_linear(Db::new(db).to_linear());
            assert!((back.db() - db).abs() < 1e-9);
        }
    }

    #[test]
    fn db_reference_points() {
        assert!((Db::new(10.0).to_linear() - 10.0).abs() < 1e-12);
        assert!((Db::new(0.0).to_linear() - 1.0).abs() < 1e-12);
        assert!((Db::new(-10.0).to_linear() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn db_arithmetic() {
        assert_eq!((Db::new(3.0) + Db::new(4.0)).db(), 7.0);
        assert_eq!((Db::new(7.0) - Db::new(4.0)).db(), 3.0);
        assert_eq!((-Db::new(7.0)).db(), -7.0);
        assert_eq!((Db::new(7.0) * 2.0).db(), 14.0);
        assert_eq!((Db::new(7.0) / 2.0).db(), 3.5);
    }

    #[test]
    #[should_panic(expected = "linear ratio must be positive")]
    fn from_linear_rejects_nonpositive() {
        let _ = Db::from_linear(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", DBm::new(-25.0)), "-25.00 dBm");
        assert_eq!(format!("{}", Db::new(88.0)), "88.00 dB");
    }
}
