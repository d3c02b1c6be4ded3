//! Chip-level Monte-Carlo baseband simulator.
//!
//! This module plays the role of the paper's measurement testbench (a CC2420
//! transmitter wired through calibrated attenuators to a CC2420 receiver):
//! random symbols are spread to 32-chip sequences, sent as antipodal values
//! through an AWGN channel at a controlled received power, hard-sliced, and
//! despread by minimum-distance correlation. Counting nibble bit errors
//! yields a BER estimate per received-power point; regressing those points
//! with [`crate::regression`] regenerates the paper's Figure 4.

use wsn_units::{DBm, Db};

use crate::ber::chip_snr_linear;
use crate::noise::{GaussianSource, UniformSource};
use crate::spreading::{despread, ChipSequence, Symbol};

/// Configuration of the baseband Monte-Carlo experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasebandConfig {
    /// Effective receiver noise figure (thermal floor `−174 dBm/Hz + NF`).
    pub noise_figure: Db,
}

impl BasebandConfig {
    /// Creates a configuration with the given effective noise figure.
    pub fn new(noise_figure: Db) -> Self {
        BasebandConfig { noise_figure }
    }
}

/// Outcome of a Monte-Carlo BER run: errored and total payload bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BerEstimate {
    /// Number of payload bit errors observed.
    pub bit_errors: u64,
    /// Number of payload bits simulated.
    pub bits: u64,
}

impl BerEstimate {
    /// The estimated bit error rate.
    ///
    /// # Panics
    ///
    /// Panics if no bits were simulated.
    pub fn ber(&self) -> f64 {
        assert!(self.bits > 0, "BER of an empty run is undefined");
        self.bit_errors as f64 / self.bits as f64
    }
}

/// Simulates transmission of random symbols at a fixed received power and
/// returns the measured BER.
///
/// `min_bits` sets the floor on simulated payload bits; the run also stops
/// early once `target_errors` bit errors are seen *and* `min_bits/4` bits
/// have been simulated, which keeps low-power points cheap without starving
/// high-power points of statistics.
///
/// # Examples
///
/// ```
/// use wsn_phy::baseband::{simulate_ber, BasebandConfig};
/// use wsn_phy::noise::SplitMix64;
/// use wsn_units::{Db, DBm};
///
/// let cfg = BasebandConfig::new(Db::new(18.0));
/// let mut rng = SplitMix64::new(1);
/// let est = simulate_ber(cfg, DBm::new(-91.0), 40_000, 50, &mut rng);
/// assert!(est.bits >= 10_000);
/// ```
pub fn simulate_ber<U: UniformSource>(
    config: BasebandConfig,
    p_rx: DBm,
    min_bits: u64,
    target_errors: u64,
    rng: &mut U,
) -> BerEstimate {
    let snr = chip_snr_linear(p_rx, config.noise_figure);
    // Antipodal chips of unit energy: noise std dev σ = √(1/(2·Ec/N0)).
    let sigma = (1.0 / (2.0 * snr)).sqrt();

    let mut bit_errors = 0u64;
    let mut bits = 0u64;
    while bits < min_bits && !(bit_errors >= target_errors && bits >= min_bits / 4) {
        // Uniform random 4-bit symbol.
        let tx_value = ((rng.next_f64() * 16.0) as u8).min(15);
        let tx = Symbol::new(tx_value).expect("nibble is < 16");
        let clean = ChipSequence::for_symbol(tx);

        // Transmit each chip through AWGN with hard slicing.
        let mut gaussian = GaussianSource::new(&mut *rng);
        let mut received = 0u32;
        for (i, chip) in clean.antipodal().enumerate() {
            let sample = chip + sigma * gaussian.next_gaussian();
            if sample >= 0.0 {
                received |= 1 << i;
            }
        }
        let rx = despread(ChipSequence::from_raw(received));
        bit_errors += u64::from((rx.value() ^ tx.value()).count_ones());
        bits += 4;
    }

    BerEstimate { bit_errors, bits }
}

/// Sweeps received power and returns `(P_Rx dBm, measured BER)` points —
/// the raw material of Figure 4.
pub fn ber_sweep<U: UniformSource>(
    config: BasebandConfig,
    powers_dbm: &[f64],
    min_bits: u64,
    target_errors: u64,
    rng: &mut U,
) -> Vec<(f64, f64)> {
    powers_dbm
        .iter()
        .map(|&dbm| {
            let est = simulate_ber(config, DBm::new(dbm), min_bits, target_errors, rng);
            (dbm, est.ber())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::{calibrate_noise_figure, BerModel, HardDecisionDsssBer};
    use crate::noise::SplitMix64;

    #[test]
    fn high_power_is_error_free() {
        let cfg = BasebandConfig::new(Db::new(18.0));
        let mut rng = SplitMix64::new(11);
        let est = simulate_ber(cfg, DBm::new(-60.0), 20_000, 100, &mut rng);
        assert_eq!(est.bit_errors, 0, "unexpected errors at -60 dBm");
    }

    #[test]
    fn low_power_has_many_errors() {
        let cfg = BasebandConfig::new(Db::new(18.0));
        let mut rng = SplitMix64::new(12);
        let est = simulate_ber(cfg, DBm::new(-110.0), 20_000, 100, &mut rng);
        assert!(est.ber() > 0.05, "BER at -110 dBm = {}", est.ber());
    }

    #[test]
    fn ber_decreases_with_power() {
        let cfg = BasebandConfig::new(Db::new(18.0));
        let mut rng = SplitMix64::new(13);
        let points = ber_sweep(cfg, &[-96.0, -93.0, -90.0], 200_000, 200, &mut rng);
        assert!(
            points[0].1 > points[1].1 && points[1].1 > points[2].1,
            "{points:?}"
        );
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_union_bound() {
        // At moderate SNR the union bound is tight; MC and analytic model
        // should agree within a factor ~2 (same order of magnitude).
        let nf = calibrate_noise_figure(DBm::new(-90.0), 1.34e-4);
        let cfg = BasebandConfig::new(nf);
        let analytic = HardDecisionDsssBer::new(nf);
        let mut rng = SplitMix64::new(14);
        let p = DBm::new(-92.0);
        let est = simulate_ber(cfg, p, 3_000_000, 400, &mut rng);
        let mc = est.ber();
        let th = analytic.bit_error_probability(p).value();
        let ratio = mc / th;
        assert!(
            (0.4..2.5).contains(&ratio),
            "MC {mc:.3e} vs analytic {th:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn estimate_accessors() {
        let est = BerEstimate {
            bit_errors: 10,
            bits: 10_000,
        };
        assert!((est.ber() - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_estimate_panics() {
        let est = BerEstimate {
            bit_errors: 0,
            bits: 0,
        };
        let _ = est.ber();
    }

    #[test]
    fn runs_are_reproducible_for_equal_seeds() {
        let cfg = BasebandConfig::new(Db::new(18.0));
        let a = simulate_ber(cfg, DBm::new(-92.0), 50_000, 50, &mut SplitMix64::new(77));
        let b = simulate_ber(cfg, DBm::new(-92.0), 50_000, 50, &mut SplitMix64::new(77));
        assert_eq!(a, b);
    }
}
