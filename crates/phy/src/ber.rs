//! Bit-error-rate models for the 2 450 MHz O-QPSK DSSS PHY.
//!
//! Three models of increasing physical fidelity are provided:
//!
//! * [`EmpiricalCc2420Ber`] — the paper's eq. (1), an exponential regression
//!   of the authors' wired-testbench measurements. This is what every
//!   downstream model equation of the paper consumes.
//! * [`HardDecisionDsssBer`] — an analytic model of the CC2420-style
//!   receiver: per-chip hard decisions followed by minimum-distance
//!   despreading, evaluated by a union bound over the actual chip-sequence
//!   distance profile.
//! * [`StandardOqpskBer`] — the closed-form AWGN expression given in the
//!   802.15.4 standard for the 2 450 MHz PHY.
//!
//! The analytic models convert received power to SNR against a thermal
//! noise floor `N₀ = kT·F`; the effective noise figure `F` absorbs receiver
//! implementation losses and can be [calibrated](calibrate_noise_figure) so
//! the analytic model agrees with the empirical curve at an anchor point.

use wsn_units::{DBm, Db, Probability};

use crate::consts::CHIP_RATE_CHIPS_PER_SEC;
use crate::frame::PacketLayout;
use crate::noise::q_function;
use crate::spreading::{ChipSequence, Symbol};

/// Thermal noise power spectral density at 290 K in dBm/Hz.
pub const THERMAL_NOISE_DBM_PER_HZ: f64 = -173.975;

/// A model mapping received signal power to bit error probability.
pub trait BerModel {
    /// Returns the bit error probability at received power `p_rx`.
    fn bit_error_probability(&self, p_rx: DBm) -> Probability;

    /// Returns the packet error probability of the paper's eq. (10):
    /// `Pr_e = 1 − (1 − Pr_bit)^(8·(L_packet − 4))`.
    fn packet_error_probability(&self, p_rx: DBm, packet: PacketLayout) -> Probability {
        let pr_bit = self.bit_error_probability(p_rx);
        pr_bit
            .complement()
            .powf(packet.error_exposed_bits() as f64)
            .complement()
    }
}

impl<T: BerModel + ?Sized> BerModel for &T {
    fn bit_error_probability(&self, p_rx: DBm) -> Probability {
        (**self).bit_error_probability(p_rx)
    }
}

// ---------------------------------------------------------------------------
// Empirical model (paper eq. 1)
// ---------------------------------------------------------------------------

/// The paper's empirical CC2420 bit-error model (eq. 1):
/// `Pr_bit = c · exp(−s · P_Rx[dBm])`, capped at ½.
///
/// # Examples
///
/// ```
/// use wsn_phy::ber::{BerModel, EmpiricalCc2420Ber};
/// use wsn_units::DBm;
///
/// let model = EmpiricalCc2420Ber::paper();
/// let at_90 = model.bit_error_probability(DBm::new(-90.0)).value();
/// assert!(at_90 > 1e-4 && at_90 < 2e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalCc2420Ber {
    coefficient: f64,
    slope_per_dbm: f64,
}

impl EmpiricalCc2420Ber {
    /// The regression constants published in the paper:
    /// `Pr_bit = 2.35·10⁻³⁰ · exp(−0.659 · P_Rx)`.
    pub fn paper() -> Self {
        EmpiricalCc2420Ber {
            coefficient: 2.35e-30,
            slope_per_dbm: 0.659,
        }
    }

    /// Returns the decay slope `s` per dBm.
    pub fn slope_per_dbm(&self) -> f64 {
        self.slope_per_dbm
    }
}

impl BerModel for EmpiricalCc2420Ber {
    fn bit_error_probability(&self, p_rx: DBm) -> Probability {
        let raw = self.coefficient * (-self.slope_per_dbm * p_rx.dbm()).exp();
        Probability::clamped(raw.min(0.5))
    }
}

// ---------------------------------------------------------------------------
// Analytic hard-decision despreading model
// ---------------------------------------------------------------------------

/// Converts received power into per-chip SNR `E_c/N₀` (linear) against a
/// thermal noise floor with the given effective noise figure.
pub fn chip_snr_linear(p_rx: DBm, noise_figure: Db) -> f64 {
    let n0_dbm_per_hz = THERMAL_NOISE_DBM_PER_HZ + noise_figure.db();
    let noise_in_chip_rate_dbm = n0_dbm_per_hz + 10.0 * CHIP_RATE_CHIPS_PER_SEC.log10();
    Db::new(p_rx.dbm() - noise_in_chip_rate_dbm).to_linear()
}

/// Analytic BER of a hard-decision correlation receiver.
///
/// Chips experience independent errors with probability
/// `p_c = Q(√(2·E_c/N₀))` (antipodal signaling, matched filter). A symbol is
/// decoded wrongly when the corrupted word lies closer to a competitor
/// sequence; a union bound over the family's true distance profile gives the
/// symbol error rate, and the average nibble Hamming distance (8/15·4 bits)
/// converts it to a bit error rate.
///
/// The default noise figure absorbs the CC2420's implementation losses; use
/// [`calibrate_noise_figure`] to fit it to a measured anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardDecisionDsssBer {
    noise_figure_db: f64,
}

impl HardDecisionDsssBer {
    /// Creates the model with the given effective noise figure.
    pub fn new(noise_figure: Db) -> Self {
        HardDecisionDsssBer {
            noise_figure_db: noise_figure.db(),
        }
    }

    /// Returns the effective noise figure.
    pub fn noise_figure(&self) -> Db {
        Db::new(self.noise_figure_db)
    }

    /// Per-chip error probability at the given received power.
    pub fn chip_error_probability(&self, p_rx: DBm) -> f64 {
        let snr = chip_snr_linear(p_rx, self.noise_figure());
        q_function((2.0 * snr).sqrt())
    }

    /// Symbol error probability by union bound over the distance profile.
    pub fn symbol_error_probability(&self, p_rx: DBm) -> f64 {
        let pc = self.chip_error_probability(p_rx);
        union_bound_symbol_error(pc).min(1.0)
    }
}

impl BerModel for HardDecisionDsssBer {
    fn bit_error_probability(&self, p_rx: DBm) -> Probability {
        // 8/15 of the 4 payload bits differ on average for a uniformly
        // wrong symbol: BER = SER × (32/15)/4.
        let ser = self.symbol_error_probability(p_rx);
        Probability::clamped((ser * 8.0 / 15.0).min(0.5))
    }
}

/// Probability that at least `⌈d/2⌉` of `d` Bernoulli(`p`) chip flips occur,
/// counting half of the exact-tie mass (`d` even ⇒ ties broken randomly).
fn pairwise_error_probability(d: u32, p: f64) -> f64 {
    let mut total = 0.0;
    // Binomial pmf computed iteratively to avoid factorial overflow.
    let q = 1.0 - p;
    let mut pmf = q.powi(d as i32); // P(X = 0)
    let tie = d.is_multiple_of(2);
    let half = d / 2;
    for k in 0..=d {
        if k > 0 {
            pmf *= (d - k + 1) as f64 / k as f64 * (p / q);
        }
        if tie && k == half {
            total += 0.5 * pmf;
        } else if k > half || (!tie && k == half && 2 * k > d) {
            total += pmf;
        }
    }
    total.clamp(0.0, 1.0)
}

/// Union-bound symbol error probability averaged over all 16 transmitted
/// symbols, using the true pairwise distances of the sequence family.
fn union_bound_symbol_error(pc: f64) -> f64 {
    let mut acc = 0.0;
    for tx in Symbol::all() {
        let tx_seq = ChipSequence::for_symbol(tx);
        for other in Symbol::all() {
            if other != tx {
                let d = tx_seq.hamming_distance(ChipSequence::for_symbol(other));
                acc += pairwise_error_probability(d, pc);
            }
        }
    }
    acc / 16.0
}

/// Finds the effective noise figure that makes [`HardDecisionDsssBer`] match
/// a `(received power, BER)` anchor point, by bisection.
///
/// # Panics
///
/// Panics if `target_ber` is outside `(0, 0.5)`.
pub fn calibrate_noise_figure(anchor_p_rx: DBm, target_ber: f64) -> Db {
    assert!(
        target_ber > 0.0 && target_ber < 0.5,
        "target BER must be in (0, 0.5), got {target_ber}"
    );
    let mut lo = 0.0_f64; // noise figure bounds in dB
    let mut hi = 60.0_f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let ber = HardDecisionDsssBer::new(Db::new(mid))
            .bit_error_probability(anchor_p_rx)
            .value();
        if ber < target_ber {
            lo = mid; // need more noise
        } else {
            hi = mid;
        }
    }
    Db::new(0.5 * (lo + hi))
}

// ---------------------------------------------------------------------------
// Standard's closed-form model
// ---------------------------------------------------------------------------

/// The AWGN bit-error expression given in IEEE 802.15.4 for the 2 450 MHz
/// PHY:
///
/// `BER = (8/15)·(1/16)·Σ_{k=2}^{16} (−1)^k·C(16,k)·exp(20·SINR·(1/k − 1))`
///
/// with `SINR` the signal-to-noise ratio in the 2 MHz channel
/// (`P_Rx / (N₀·B)`, linear), the noise bandwidth `B` being the chip rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardOqpskBer {
    noise_figure_db: f64,
}

impl StandardOqpskBer {
    /// Creates the model with the given effective noise figure.
    pub fn new(noise_figure: Db) -> Self {
        StandardOqpskBer {
            noise_figure_db: noise_figure.db(),
        }
    }

    /// Evaluates the standard's formula at a given linear SINR.
    pub fn ber_at_sinr(sinr: f64) -> f64 {
        let mut sum = 0.0;
        let mut binom = 120.0; // C(16,2)
        for k in 2u32..=16 {
            if k > 2 {
                binom *= (16 - k + 1) as f64 / k as f64;
            }
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sum += sign * binom * (20.0 * sinr * (1.0 / k as f64 - 1.0)).exp();
        }
        (8.0 / 15.0 / 16.0 * sum).clamp(0.0, 0.5)
    }
}

impl BerModel for StandardOqpskBer {
    fn bit_error_probability(&self, p_rx: DBm) -> Probability {
        let sinr = chip_snr_linear(p_rx, Db::new(self.noise_figure_db));
        Probability::clamped(Self::ber_at_sinr(sinr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_matches_figure4_window() {
        let m = EmpiricalCc2420Ber::paper();
        // Figure 4 plots BER between 1e-6 and 1e-2 for −94..−85 dBm.
        let at_94 = m.bit_error_probability(DBm::new(-94.0)).value();
        let at_85 = m.bit_error_probability(DBm::new(-85.0)).value();
        assert!(at_94 > 1e-3 && at_94 < 1e-2, "BER(-94) = {at_94}");
        assert!(at_85 > 1e-6 && at_85 < 1e-5, "BER(-85) = {at_85}");
    }

    #[test]
    fn empirical_monotone_decreasing_in_power() {
        let m = EmpiricalCc2420Ber::paper();
        let mut last = 1.0;
        for dbm in -100..=-60 {
            let b = m.bit_error_probability(DBm::new(dbm as f64)).value();
            assert!(b <= last, "BER not decreasing at {dbm} dBm");
            last = b;
        }
    }

    #[test]
    fn empirical_caps_at_half() {
        let m = EmpiricalCc2420Ber::paper();
        assert_eq!(m.bit_error_probability(DBm::new(-200.0)).value(), 0.5);
    }

    #[test]
    fn packet_error_of_tiny_ber_is_tiny() {
        let m = EmpiricalCc2420Ber::paper();
        let layout = PacketLayout::with_payload(120).unwrap();
        let pe = m.packet_error_probability(DBm::new(-60.0), layout).value();
        assert!(pe < 1e-9, "Pr_e = {pe}");
        // And at -90 dBm it is substantial: 1 − (1−1.34e−4)^1032 ≈ 0.13.
        let pe_90 = m.packet_error_probability(DBm::new(-90.0), layout).value();
        assert!(pe_90 > 0.10 && pe_90 < 0.16, "Pr_e(-90) = {pe_90}");
        // At fixed power a shorter packet exposes fewer bits (eq. 10).
        let small = PacketLayout::with_payload(10).unwrap();
        let pe_small = m.packet_error_probability(DBm::new(-90.0), small).value();
        assert!(pe_small < pe_90, "Pr_e(10 B) = {pe_small}");
        // Pr_e ≥ BER, growing with the payload, across the steep region.
        for dbm in -95..=-80 {
            let power = DBm::new(dbm as f64);
            let mut last = m.bit_error_probability(power).value() - 1e-15;
            for payload in [1, 30, 60, 119] {
                let layout = PacketLayout::with_payload(payload).unwrap();
                let pe = m.packet_error_probability(power, layout).value();
                assert!(pe >= last, "{dbm} dBm, {payload} B");
                last = pe;
            }
        }
    }

    #[test]
    fn pairwise_error_probability_limits() {
        assert_eq!(pairwise_error_probability(12, 0.0), 0.0);
        // With p = 0.5 every word is equidistant: probability 1/2 by tie.
        assert!((pairwise_error_probability(12, 0.5) - 0.5).abs() < 1e-9);
        // Monotone in p.
        let lo = pairwise_error_probability(14, 0.01);
        let hi = pairwise_error_probability(14, 0.1);
        assert!(lo < hi);
    }

    #[test]
    fn hard_decision_monotone_and_calibratable() {
        let anchor = DBm::new(-90.0);
        let target = 1.34e-4;
        let nf = calibrate_noise_figure(anchor, target);
        let model = HardDecisionDsssBer::new(nf);
        let got = model.bit_error_probability(anchor).value();
        assert!(
            (got.log10() - target.log10()).abs() < 0.05,
            "calibrated BER {got} vs target {target} (NF {nf})"
        );
        // Monotone decreasing.
        let worse = model.bit_error_probability(DBm::new(-93.0)).value();
        let better = model.bit_error_probability(DBm::new(-87.0)).value();
        assert!(worse > got && got > better);
    }

    #[test]
    fn calibrated_noise_figure_is_physical() {
        // Effective NF should be positive and below 40 dB even including
        // the CC2420's hard-decision implementation losses.
        let nf = calibrate_noise_figure(DBm::new(-90.0), 1.34e-4);
        assert!(nf.db() > 0.0 && nf.db() < 40.0, "NF = {nf}");
    }

    #[test]
    fn standard_formula_reference_behaviour() {
        // At very high SINR the BER vanishes; at zero SINR it approaches
        // the random-guess bound for 16-ary orthogonal signaling (≈ 1/2).
        assert!(StandardOqpskBer::ber_at_sinr(4.0) < 1e-12);
        let low = StandardOqpskBer::ber_at_sinr(0.0);
        assert!(low > 0.4 && low <= 0.5, "BER(0) = {low}");
        // Strictly decreasing over the useful range.
        let mut last = 1.0;
        for i in 0..40 {
            let sinr = i as f64 * 0.05;
            let b = StandardOqpskBer::ber_at_sinr(sinr);
            assert!(b <= last + 1e-15);
            last = b;
        }
    }

    #[test]
    fn standard_model_through_ber_trait() {
        let m = StandardOqpskBer::new(Db::new(10.0));
        let worse = m.bit_error_probability(DBm::new(-100.0)).value();
        let better = m.bit_error_probability(DBm::new(-80.0)).value();
        assert!(worse > better);
        assert!(better < 1e-6);
        // Every model is non-increasing in received power within [0, 1/2].
        let models: [&dyn BerModel; 3] = [
            &EmpiricalCc2420Ber::paper(),
            &HardDecisionDsssBer::new(Db::new(21.0)),
            &StandardOqpskBer::new(Db::new(21.0)),
        ];
        for (i, m) in models.into_iter().enumerate() {
            let mut last = 0.5;
            for dbm in -110..=-60 {
                let b = m.bit_error_probability(DBm::new(dbm as f64)).value();
                assert!((0.0..=last + 1e-12).contains(&b), "model {i} at {dbm} dBm");
                last = b;
            }
        }
    }

    #[test]
    fn chip_snr_scales_with_power_and_nf() {
        let a = chip_snr_linear(DBm::new(-90.0), Db::new(10.0));
        let b = chip_snr_linear(DBm::new(-87.0), Db::new(10.0));
        assert!((b / a - 2.0).abs() < 1e-2); // +3 dB ⇒ ×2
        let c = chip_snr_linear(DBm::new(-90.0), Db::new(13.0));
        assert!((a / c - 2.0).abs() < 1e-2); // +3 dB NF ⇒ ÷2
    }
}
