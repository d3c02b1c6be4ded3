//! Path-loss models: fixed, log-distance, and the paper's uniform
//! population.

use wsn_units::{Db, Meters};

/// Maps a transmitter–receiver distance to a path loss.
pub trait PathLossModel {
    /// Path loss at `distance`.
    fn path_loss(&self, distance: Meters) -> Db;
}

/// A distance-independent path loss — the wired-attenuator testbench of the
/// paper's Figure 4, and the per-node abstraction of its case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPathLoss(pub Db);

impl PathLossModel for FixedPathLoss {
    fn path_loss(&self, _distance: Meters) -> Db {
        self.0
    }
}

/// Log-distance path loss:
/// `A(d) = A(d₀) + 10·n·log₁₀(d/d₀)`.
///
/// # Examples
///
/// ```
/// use wsn_channel::pathloss::{LogDistance, PathLossModel};
/// use wsn_units::Meters;
///
/// let model = LogDistance::free_space_2450();
/// // Free space at 2.45 GHz: ≈ 40.2 dB at 1 m, +20 dB per decade.
/// let at_10m = model.path_loss(Meters::new(10.0));
/// assert!((at_10m.db() - 60.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    reference_loss: Db,
    reference_distance: Meters,
    exponent: f64,
}

impl LogDistance {
    /// Creates a log-distance model.
    ///
    /// # Panics
    ///
    /// Panics unless `reference_distance > 0` and `exponent > 0`.
    pub fn new(reference_loss: Db, reference_distance: Meters, exponent: f64) -> Self {
        assert!(
            reference_distance.meters() > 0.0,
            "reference distance must be positive"
        );
        assert!(exponent > 0.0, "path loss exponent must be positive");
        LogDistance {
            reference_loss,
            reference_distance,
            exponent,
        }
    }

    /// Free-space loss at 2.45 GHz referenced to 1 m
    /// (`20·log₁₀(4π·1m/λ) ≈ 40.2 dB`), exponent 2.
    pub fn free_space_2450() -> Self {
        let lambda = 0.122_364_3; // c / 2.45 GHz in meters
        let ref_loss = 20.0 * (4.0 * core::f64::consts::PI / lambda).log10();
        LogDistance::new(Db::new(ref_loss), Meters::new(1.0), 2.0)
    }

    /// Indoor-office style preset: free-space reference with exponent 3.0 —
    /// the regime where 95 dB is reached within tens of meters, matching the
    /// case study's dense in-building deployment narrative.
    pub fn indoor_2450() -> Self {
        let fs = LogDistance::free_space_2450();
        LogDistance::new(fs.reference_loss, fs.reference_distance, 3.0)
    }

    /// The same reference point with a different exponent — e.g. the
    /// 2.45 GHz free-space reference hardened to an in-building exponent.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive.
    pub fn with_exponent(self, exponent: f64) -> Self {
        LogDistance::new(self.reference_loss, self.reference_distance, exponent)
    }
}

impl PathLossModel for LogDistance {
    fn path_loss(&self, distance: Meters) -> Db {
        // Clamp below the reference distance: near-field values are not
        // meaningful and a negative log would *reduce* the loss.
        let d = distance.max(self.reference_distance);
        Db::new(
            self.reference_loss.db() + 10.0 * self.exponent * (d / self.reference_distance).log10(),
        )
    }
}

/// The case study's node population: path losses uniformly distributed over
/// an interval (55–95 dB in the paper).
///
/// Exposes both random sampling (via a quantile function, so any uniform
/// source works) and a deterministic integration grid; the analytical model
/// averages over the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformPathLossPopulation {
    min: Db,
    max: Db,
}

impl UniformPathLossPopulation {
    /// Creates a population over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: Db, max: Db) -> Self {
        assert!(min <= max, "min loss {min} exceeds max loss {max}");
        UniformPathLossPopulation { min, max }
    }

    /// The paper's §5 case study population: 55–95 dB.
    pub fn paper_case_study() -> Self {
        UniformPathLossPopulation::new(Db::new(55.0), Db::new(95.0))
    }

    /// Lower bound.
    pub fn min(&self) -> Db {
        self.min
    }

    /// Upper bound.
    pub fn max(&self) -> Db {
        self.max
    }

    /// Quantile function: maps `u ∈ [0, 1]` to a loss.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1]`.
    pub fn quantile(&self, u: f64) -> Db {
        assert!((0.0..=1.0).contains(&u), "quantile arg {u} outside [0,1]");
        Db::new(self.min.db() + u * (self.max.db() - self.min.db()))
    }

    /// Midpoint-rule integration grid of `n` equally likely losses, used by
    /// the analytical model to average per-node quantities over the
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn grid(&self, n: usize) -> Vec<Db> {
        assert!(n > 0, "grid needs at least one point");
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ignores_distance() {
        let m = FixedPathLoss(Db::new(88.0));
        assert_eq!(m.path_loss(Meters::new(1.0)), Db::new(88.0));
        assert_eq!(m.path_loss(Meters::new(1000.0)), Db::new(88.0));
    }

    #[test]
    fn free_space_reference_values() {
        let m = LogDistance::free_space_2450();
        assert!((m.path_loss(Meters::new(1.0)).db() - 40.23).abs() < 0.05);
        // +20 dB per decade of distance.
        let d1 = m.path_loss(Meters::new(10.0)).db();
        let d2 = m.path_loss(Meters::new(100.0)).db();
        assert!((d2 - d1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn indoor_exponent_three() {
        let m = LogDistance::indoor_2450();
        let d1 = m.path_loss(Meters::new(10.0)).db();
        let d2 = m.path_loss(Meters::new(100.0)).db();
        assert!((d2 - d1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamped() {
        let m = LogDistance::free_space_2450();
        let at_ref = m.path_loss(Meters::new(1.0));
        let closer = m.path_loss(Meters::new(0.1));
        assert_eq!(at_ref, closer, "losses below reference distance clamp");
    }

    #[test]
    fn case_study_population_bounds() {
        let p = UniformPathLossPopulation::paper_case_study();
        assert_eq!(p.min(), Db::new(55.0));
        assert_eq!(p.max(), Db::new(95.0));
        assert_eq!(p.quantile(0.0), Db::new(55.0));
        assert_eq!(p.quantile(1.0), Db::new(95.0));
        assert_eq!(p.quantile(0.5), Db::new(75.0));
    }

    #[test]
    fn grid_is_symmetric_and_mean_centered() {
        let p = UniformPathLossPopulation::paper_case_study();
        let grid = p.grid(40);
        assert_eq!(grid.len(), 40);
        let mean: f64 = grid.iter().map(|d| d.db()).sum::<f64>() / 40.0;
        assert!((mean - 75.0).abs() < 1e-9);
        assert!(grid.first().unwrap().db() > 55.0);
        assert!(grid.last().unwrap().db() < 95.0);
    }

    #[test]
    #[should_panic(expected = "grid needs at least one point")]
    fn empty_grid_panics() {
        let _ = UniformPathLossPopulation::paper_case_study().grid(0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantile_range_checked() {
        let _ = UniformPathLossPopulation::paper_case_study().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "exceeds max loss")]
    fn inverted_bounds_rejected() {
        let _ = UniformPathLossPopulation::new(Db::new(95.0), Db::new(55.0));
    }
}
