//! Log-normal shadowing — an extension beyond the paper's static-loss
//! model.
//!
//! The paper assigns each node one fixed path loss (slow fading over a
//! packet). Real deployments add site-to-site variation on top of the
//! distance law: a zero-mean Gaussian term in dB with standard deviation
//! σ ≈ 4–8 dB indoors. [`LogNormalShadowing`] wraps any
//! [`PathLossModel`] with per-evaluation shadowing, and
//! [`shadowed_population`] produces the per-node loss vector the case
//! study consumes — letting the 55–95 dB uniform population be replaced by
//! a geometric deployment with measured-like dispersion.

use wsn_phy::noise::{GaussianSource, UniformSource};
use wsn_units::{Db, Meters};

use crate::pathloss::PathLossModel;

/// A path-loss model plus frozen per-query log-normal shadowing.
///
/// Shadowing is *frozen at construction* for a fixed number of locations:
/// querying location `i` always returns the same loss, as site shadowing
/// does not change over time for static nodes.
#[derive(Debug, Clone)]
pub struct LogNormalShadowing<M> {
    base: M,
    offsets: Vec<f64>,
}

impl<M: PathLossModel> LogNormalShadowing<M> {
    /// Wraps `base`, drawing `locations` shadowing offsets with standard
    /// deviation `sigma` from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new<U: UniformSource>(base: M, sigma: Db, locations: usize, rng: &mut U) -> Self {
        assert!(sigma.db() >= 0.0, "shadowing σ must be non-negative");
        let mut gauss = GaussianSource::new(rng);
        let offsets = (0..locations)
            .map(|_| gauss.next_gaussian() * sigma.db())
            .collect();
        LogNormalShadowing { base, offsets }
    }

    /// Number of frozen locations.
    pub fn locations(&self) -> usize {
        self.offsets.len()
    }

    /// Path loss at `distance` for frozen location `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn path_loss_at(&self, index: usize, distance: Meters) -> Db {
        let base = self.base.path_loss(distance);
        Db::new(base.db() + self.offsets[index])
    }
}

/// Per-node shadowed path losses for a deployment: node `i` at distance
/// `distances[i]` with its own frozen shadowing offset.
///
/// # Panics
///
/// Panics if the model has fewer frozen locations than `distances`.
pub fn shadowed_population<M: PathLossModel>(
    model: &LogNormalShadowing<M>,
    distances: &[Meters],
) -> Vec<Db> {
    assert!(
        distances.len() <= model.locations(),
        "model frozen for {} locations, {} requested",
        model.locations(),
        distances.len()
    );
    distances
        .iter()
        .enumerate()
        .map(|(i, &d)| model.path_loss_at(i, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::{FixedPathLoss, LogDistance};
    use wsn_phy::noise::SplitMix64;

    #[test]
    fn shadowing_is_frozen_per_location() {
        let mut rng = SplitMix64::new(1);
        let m = LogNormalShadowing::new(FixedPathLoss(Db::new(70.0)), Db::new(6.0), 10, &mut rng);
        for i in 0..10 {
            let a = m.path_loss_at(i, Meters::new(5.0));
            let b = m.path_loss_at(i, Meters::new(5.0));
            assert_eq!(a, b, "shadowing must not re-roll");
        }
    }

    #[test]
    fn zero_sigma_is_transparent() {
        let mut rng = SplitMix64::new(2);
        let m = LogNormalShadowing::new(FixedPathLoss(Db::new(70.0)), Db::new(0.0), 4, &mut rng);
        for i in 0..4 {
            assert!((m.path_loss_at(i, Meters::new(1.0)).db() - 70.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dispersion_matches_sigma() {
        let mut rng = SplitMix64::new(3);
        let sigma = 6.0;
        let n = 20_000;
        let m = LogNormalShadowing::new(FixedPathLoss(Db::new(75.0)), Db::new(sigma), n, &mut rng);
        let values: Vec<f64> = (0..n)
            .map(|i| m.path_loss_at(i, Meters::new(1.0)).db())
            .collect();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!((mean - 75.0).abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn population_combines_distance_and_shadowing() {
        let mut rng = SplitMix64::new(4);
        let model = LogNormalShadowing::new(LogDistance::indoor_2450(), Db::new(4.0), 3, &mut rng);
        let distances = [Meters::new(2.0), Meters::new(10.0), Meters::new(30.0)];
        let losses = shadowed_population(&model, &distances);
        assert_eq!(losses.len(), 3);
        // Distance trend survives moderate shadowing on average — check
        // the extremes differ by more than 2σ here.
        assert!(losses[2].db() > losses[0].db());
    }

    #[test]
    #[should_panic(expected = "frozen for")]
    fn too_many_nodes_rejected() {
        let mut rng = SplitMix64::new(5);
        let model =
            LogNormalShadowing::new(FixedPathLoss(Db::new(70.0)), Db::new(4.0), 1, &mut rng);
        let _ = shadowed_population(&model, &[Meters::new(1.0), Meters::new(2.0)]);
    }
}
