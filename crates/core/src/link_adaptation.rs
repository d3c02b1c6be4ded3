//! Link adaptation: channel-inversion transmit power control with
//! energy-optimal switching thresholds (the paper's Figure 7).
//!
//! For every path loss the policy picks the transmit power level that
//! minimizes the *total* energy per delivered bit — not merely the weakest
//! level that closes the link, because retransmissions make a too-weak
//! level expensive. The crossings of the per-level energy curves define the
//! switching thresholds; the paper observes (and our tests verify) that
//! these thresholds are essentially independent of the network load.

use wsn_mac::BeaconOrder;
use wsn_phy::ber::BerModel;
use wsn_phy::frame::PacketLayout;
use wsn_radio::TxPowerLevel;
use wsn_units::{Db, Energy};

use crate::activation::{ActivationModel, ModelInputs};
use crate::contention::ContentionModel;

/// One sampled point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy)]
pub struct EnergyPoint {
    /// Path loss of the sample.
    pub path_loss: Db,
    /// Best (minimum) energy per bit over all levels.
    pub energy_per_bit: Energy,
    /// The level achieving it.
    pub level: TxPowerLevel,
}

/// The Figure 7 computation.
#[derive(Debug, Clone)]
pub struct LinkAdaptation {
    model: ActivationModel,
    packet: PacketLayout,
    beacon_order: BeaconOrder,
}

impl LinkAdaptation {
    /// Creates the study for a given model, packet and beacon order.
    pub fn new(model: ActivationModel, packet: PacketLayout, beacon_order: BeaconOrder) -> Self {
        LinkAdaptation {
            model,
            packet,
            beacon_order,
        }
    }

    /// Energy per bit at one `(path loss, level)` operating point.
    pub fn energy_at<B: BerModel, C: ContentionModel>(
        &self,
        path_loss: Db,
        level: TxPowerLevel,
        load: f64,
        ber: &B,
        contention: &C,
    ) -> Energy {
        let stats = contention.stats(load, self.packet);
        let out = self.model.evaluate(
            &ModelInputs {
                packet: self.packet,
                beacon_order: self.beacon_order,
                tx_level: level,
                path_loss,
                contention: stats,
            },
            ber,
        );
        out.energy_per_data_bit
    }

    /// The energy-optimal level and its energy per bit at one path loss.
    pub fn best_level<B: BerModel, C: ContentionModel>(
        &self,
        path_loss: Db,
        load: f64,
        ber: &B,
        contention: &C,
    ) -> EnergyPoint {
        let mut best: Option<EnergyPoint> = None;
        for level in TxPowerLevel::ALL {
            let e = self.energy_at(path_loss, level, load, ber, contention);
            let better = match &best {
                None => true,
                Some(b) => e < b.energy_per_bit,
            };
            if better {
                best = Some(EnergyPoint {
                    path_loss,
                    energy_per_bit: e,
                    level,
                });
            }
        }
        best.expect("at least one level evaluated")
    }

    /// Sweeps a path-loss grid at a given load — one curve of Figure 7.
    pub fn sweep<B: BerModel, C: ContentionModel>(
        &self,
        losses: &[Db],
        load: f64,
        ber: &B,
        contention: &C,
    ) -> Vec<EnergyPoint> {
        losses
            .iter()
            .map(|&a| self.best_level(a, load, ber, contention))
            .collect()
    }

    /// Extracts the switching thresholds from a sweep: the first path loss
    /// at which each level becomes optimal.
    pub fn thresholds(points: &[EnergyPoint]) -> LinkAdaptationPolicy {
        let mut thresholds = Vec::new();
        let mut current: Option<TxPowerLevel> = None;
        for p in points {
            if current != Some(p.level) {
                thresholds.push((p.path_loss, p.level));
                current = Some(p.level);
            }
        }
        LinkAdaptationPolicy { thresholds }
    }
}

/// A channel-inversion policy: ordered `(path loss threshold, level)`
/// pairs, the paper's Figure 7 circles.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkAdaptationPolicy {
    thresholds: Vec<(Db, TxPowerLevel)>,
}

impl LinkAdaptationPolicy {
    /// The level to use at a given path loss: the entry with the largest
    /// threshold not exceeding `path_loss` (the first entry below all
    /// thresholds).
    pub fn level_for(&self, path_loss: Db) -> TxPowerLevel {
        let mut level = self.thresholds[0].1;
        for &(a, lvl) in &self.thresholds {
            if path_loss >= a {
                level = lvl;
            }
        }
        level
    }

    /// The raw `(threshold, level)` pairs.
    pub fn thresholds(&self) -> &[(Db, TxPowerLevel)] {
        &self.thresholds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::IdealContention;
    use wsn_phy::ber::EmpiricalCc2420Ber;
    use wsn_radio::RadioModel;

    fn study() -> LinkAdaptation {
        LinkAdaptation::new(
            ActivationModel::paper_defaults(RadioModel::cc2420()),
            PacketLayout::with_payload(120).unwrap(),
            BeaconOrder::new(6).unwrap(),
        )
    }

    fn grid() -> Vec<Db> {
        (50..=95).map(|a| Db::new(a as f64)).collect()
    }

    #[test]
    fn weak_levels_win_at_low_loss() {
        let s = study();
        let p = s.best_level(
            Db::new(55.0),
            0.42,
            &EmpiricalCc2420Ber::paper(),
            &IdealContention,
        );
        assert_eq!(
            p.level,
            TxPowerLevel::Neg25,
            "at 55 dB the weakest level should be optimal"
        );
    }

    #[test]
    fn strong_levels_win_at_high_loss() {
        let s = study();
        let p = s.best_level(
            Db::new(87.0),
            0.42,
            &EmpiricalCc2420Ber::paper(),
            &IdealContention,
        );
        assert!(
            p.level >= TxPowerLevel::Neg3,
            "at 87 dB a strong level is required, got {}",
            p.level
        );
    }

    #[test]
    fn optimal_level_is_monotone_in_path_loss() {
        let s = study();
        let points = s.sweep(
            &grid(),
            0.42,
            &EmpiricalCc2420Ber::paper(),
            &IdealContention,
        );
        for pair in points.windows(2) {
            assert!(
                pair[1].level >= pair[0].level,
                "optimal level regressed between {} and {}",
                pair[0].path_loss,
                pair[1].path_loss
            );
        }
    }

    #[test]
    fn energy_per_bit_rises_with_loss_up_to_88db() {
        let s = study();
        let points = s.sweep(
            &grid(),
            0.42,
            &EmpiricalCc2420Ber::paper(),
            &IdealContention,
        );
        let at55 = points
            .iter()
            .find(|p| p.path_loss == Db::new(55.0))
            .unwrap();
        let at88 = points
            .iter()
            .find(|p| p.path_loss == Db::new(88.0))
            .unwrap();
        assert!(at88.energy_per_bit > at55.energy_per_bit);
        // The paper's ~40 % saving claim: adapting beats always-max by a
        // substantial margin at low loss.
        let fixed_max = s.energy_at(
            Db::new(55.0),
            TxPowerLevel::Zero,
            0.42,
            &EmpiricalCc2420Ber::paper(),
            &IdealContention,
        );
        let saving = 1.0 - at55.energy_per_bit.joules() / fixed_max.joules();
        assert!(
            saving > 0.15,
            "adaptation saving at 55 dB only {:.1} %",
            saving * 100.0
        );
    }

    #[test]
    fn thresholds_are_load_independent() {
        let s = study();
        let ber = EmpiricalCc2420Ber::paper();
        let a = LinkAdaptation::thresholds(&s.sweep(&grid(), 0.1, &ber, &IdealContention));
        let b = LinkAdaptation::thresholds(&s.sweep(&grid(), 0.7, &ber, &IdealContention));
        // Same level sequence; thresholds within 1 dB (grid resolution).
        assert_eq!(a.thresholds().len(), b.thresholds().len());
        for (ta, tb) in a.thresholds().iter().zip(b.thresholds()) {
            assert_eq!(ta.1, tb.1);
            assert!((ta.0.db() - tb.0.db()).abs() <= 1.0);
        }
    }

    #[test]
    fn policy_lookup() {
        let policy = LinkAdaptationPolicy {
            thresholds: vec![
                (Db::new(50.0), TxPowerLevel::Neg25),
                (Db::new(63.0), TxPowerLevel::Neg15),
                (Db::new(80.0), TxPowerLevel::Zero),
            ],
        };
        assert_eq!(policy.level_for(Db::new(40.0)), TxPowerLevel::Neg25);
        assert_eq!(policy.level_for(Db::new(62.9)), TxPowerLevel::Neg25);
        assert_eq!(policy.level_for(Db::new(63.0)), TxPowerLevel::Neg15);
        assert_eq!(policy.level_for(Db::new(95.0)), TxPowerLevel::Zero);
    }
}
