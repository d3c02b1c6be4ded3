//! Logarithmic power (dBm) and gain/attenuation (dB) quantities.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute power level in decibel-milliwatts.
///
/// `DBm` is kept distinct from the relative [`Db`] so that the type system
/// rejects physically meaningless expressions such as adding two absolute
/// levels. The one supported operation is link-budget arithmetic:
/// `DBm − Db = DBm`, a level after a loss.
///
/// # Examples
///
/// ```
/// use wsn_units::{DBm, Db};
///
/// let tx = DBm::new(0.0);
/// let path_loss = Db::new(88.0);
/// assert_eq!(tx - path_loss, DBm::new(-88.0));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_budget_ops() {
        let rx = DBm::new(0.0) - Db::new(88.0);
        assert_eq!(rx.dbm(), -88.0);
        // Losses applied one after the other equal their sum applied once,
        // across the radio range.
        for (a, b) in [(-120.0, 20.0), (-88.0, -25.0), (0.0, -60.0), (15.0, 60.0)] {
            let (level, loss) = (DBm::new(a), Db::new(b));
            let mut twice = loss;
            twice += loss;
            assert!((((level - loss) - loss).dbm() - (level - twice).dbm()).abs() < 1e-12);
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
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", DBm::new(-25.0)), "-25.00 dBm");
        assert_eq!(format!("{}", Db::new(88.0)), "88.00 dB");
    }
}
