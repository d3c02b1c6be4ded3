//! Spatial quantity: distance.

use core::ops::Div;

/// A distance, stored internally in meters.
///
/// Used by the deployment and path-loss models in `wsn-channel`.
///
/// # Examples
///
/// ```
/// use wsn_units::Meters;
///
/// let d = Meters::new(12.5);
/// assert_eq!(d.meters(), 12.5);
/// assert_eq!(Meters::new(25.0) / d, 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(f64);

impl Meters {
    /// Creates a distance from meters.
    #[inline]
    pub const fn new(m: f64) -> Self {
        Meters(m)
    }

    /// Returns the value in meters.
    #[inline]
    pub const fn meters(self) -> f64 {
        self.0
    }

    /// Returns the larger of two distances.
    #[inline]
    pub fn max(self, other: Meters) -> Meters {
        Meters(self.0.max(other.0))
    }
}

impl Div<Meters> for Meters {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let d = Meters::new(1500.0);
        assert_eq!(d.meters(), 1500.0);
        assert_eq!(Meters::new(6.0) / Meters::new(2.0), 3.0);
        assert_eq!(Meters::new(6.0).max(Meters::new(2.0)), Meters::new(6.0));
    }
}
