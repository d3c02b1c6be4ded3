//! The radio activation policy model — equations (3)–(14) of the paper.
//!
//! Given a packet layout, the contention statistics, a transmit power level
//! and a path loss, the model predicts the expected per-superframe radio
//! state residencies, the average node power, the transmission failure
//! probability, the delivery delay and the energy per useful bit — plus the
//! per-phase energy and per-state time breakdowns of Figure 9.
//!
//! ## Equation map
//!
//! | paper | here |
//! |---|---|
//! | (3) `T_packet = (L_o+L)·T_B` | [`PacketLayout::duration`] |
//! | (7)(8) `P_tr(i)`, `P_tr(>N_max)` | [`attempt_distribution`] |
//! | (9) `Pr_tf` | [`ModelOutput::pr_transmission_failure`] |
//! | (10) `Pr_e` | via [`BerModel::packet_error_probability`] |
//! | (4) `T_idle` | [`ModelOutput::t_idle`] |
//! | (5) `T_Tx` | [`ModelOutput::t_tx`] |
//! | (6) `T_Rx` | [`ModelOutput::t_rx`] |
//! | (11)(12) `P_avr`, `T_ib` | [`ModelOutput::average_power`] |
//! | (13) `Pr_fail`, delay | [`ModelOutput::pr_fail`], [`ModelOutput::delay`] |
//! | (14) energy per bit | [`ModelOutput::energy_per_data_bit`] |
//!
//! Ambiguities in the scanned equations are resolved as follows: the ACK
//! listen window of an unacknowledged attempt is `t_ack⁺ − t_ack⁻` and
//! transition settle times are billed to the arrival state.
//!
//! [`PacketLayout::duration`]: wsn_phy::frame::PacketLayout::duration
//! [`BerModel::packet_error_probability`]: wsn_phy::ber::BerModel::packet_error_probability

use wsn_channel::received_power;
use wsn_mac::timing::{cca_detection_time, LIFS_SYMBOLS};
use wsn_mac::{AckTiming, BeaconOrder, RetryPolicy};
use wsn_phy::ber::BerModel;
use wsn_phy::consts::symbols;
use wsn_phy::frame::{beacon_duration, PacketLayout};
use wsn_radio::{PhaseTag, RadioModel, RadioState, StateKind, TxPowerLevel};
use wsn_sim::ContentionStats;
use wsn_units::{Db, Energy, Power, Probability, Seconds};

/// The activation-policy model: radio characterization plus the fixed
/// protocol timing constants.
#[derive(Debug, Clone)]
pub struct ActivationModel {
    radio: RadioModel,
    /// Pre-beacon wake-up budget `T_si` (1 ms in the paper).
    wakeup: Seconds,
    /// Beacon airtime.
    beacon: Seconds,
    /// Acknowledgement timing.
    ack: AckTiming,
    /// Retry budget `N_max`.
    retries: RetryPolicy,
    /// Whether [`with_physical_refinements`](Self::with_physical_refinements)
    /// is on.
    physical: bool,
}

impl ActivationModel {
    /// The paper's configuration: CC2420 radio, `T_si = 1 ms`, 19-byte
    /// beacon, standard ACK timing, `N_max = 5`, no refinements.
    pub fn paper_defaults(radio: RadioModel) -> Self {
        ActivationModel {
            radio,
            wakeup: Seconds::from_millis(1.0),
            beacon: beacon_duration(),
            ack: AckTiming::standard(),
            retries: RetryPolicy::paper(),
            physical: false,
        }
    }

    /// Replaces the radio model (improvement studies).
    pub fn with_radio(mut self, radio: RadioModel) -> Self {
        self.radio = radio;
        self
    }

    /// Bills everything the discrete-event simulator accounts for and the
    /// paper's equations leave out; turn it on when cross-validating model
    /// against simulation. Off by default, which reproduces the published
    /// model exactly. It adds five refinements:
    ///
    /// * the idle→TX turn-on (`T_ia`) before every transmission (the
    ///   paper's eq. (5) counts only the packet airtime);
    /// * the 8-symbol CCA detection window at receive power on top of the
    ///   per-CCA `T_ia` (the paper folds sensing into `T_ia`);
    /// * shutdown leakage over the sleep remainder (the paper neglects it);
    /// * a long interframe spacing in idle after each attempt;
    /// * the channel-access-failure probability on *every* retry's
    ///   contention procedure, not once per transaction. The paper's eq. (4)
    ///   charges `Pr_cf` a single time; in the real protocol a
    ///   retransmission whose CSMA procedure fails aborts the remaining
    ///   retries, which shortens transactions on bad links.
    pub fn with_physical_refinements(mut self) -> Self {
        self.physical = true;
        self
    }

    /// Overrides the retry budget.
    pub fn with_retries(mut self, retries: RetryPolicy) -> Self {
        self.retries = retries;
        self
    }

    /// Overrides the beacon airtime.
    pub fn with_beacon_duration(mut self, beacon: Seconds) -> Self {
        self.beacon = beacon;
        self
    }

    /// Evaluates the model for one node.
    pub fn evaluate<B: BerModel>(&self, inputs: &ModelInputs, ber: &B) -> ModelOutput {
        let radio = &self.radio;
        let packet = inputs.packet;
        let t_ib = inputs.beacon_order.beacon_interval();
        let t_packet = packet.duration();
        let t_ia = radio.turn_on_time();
        let cca_sense = cca_detection_time();
        let lifs = symbols(LIFS_SYMBOLS);
        let cont = &inputs.contention;

        // --- reliability chain: eqs (10), (9), (7), (8) ---
        let p_rx = received_power(inputs.tx_level.output_power(), inputs.path_loss);
        let pr_e = ber.packet_error_probability(p_rx, packet);
        let pr_tf = (pr_e.complement() * cont.pr_collision.complement()).complement();
        let (expected_attempts_eq7, expected_failed_eq7, pr_exhausted) =
            attempt_distribution(pr_tf, self.retries.n_max());
        let pr_cf = cont.pr_access_failure;
        let p_cf = pr_cf.value();
        let p_ok = 1.0 - p_cf;

        // Expected counts per transaction: contention procedures started,
        // packets transmitted, attempts acknowledged/unacknowledged.
        let (e_procedures, e_tx, e_acked, e_failed, pr_fail);
        if self.physical {
            // Every retry's CSMA procedure can itself fail: the chain
            // continues with probability q = Pr_tf·(1−Pr_cf) per round.
            let q = pr_tf.value() * p_ok;
            let n = self.retries.n_max();
            let geo = if (1.0 - q).abs() < 1e-12 {
                n as f64
            } else {
                (1.0 - q.powi(n as i32)) / (1.0 - q)
            };
            e_procedures = geo;
            e_tx = p_ok * geo;
            e_acked = p_ok * pr_tf.complement().value() * geo;
            e_failed = e_tx - e_acked;
            pr_fail = Probability::clamped(1.0 - e_acked);
        } else {
            // Paper eqs. (4)–(6): Pr_cf gates the transaction once.
            e_procedures = p_cf + p_ok * expected_attempts_eq7;
            e_tx = p_ok * expected_attempts_eq7;
            e_acked = p_ok * pr_exhausted.complement().value();
            e_failed = p_ok * expected_failed_eq7;
            // Eq. (13).
            pr_fail = (pr_cf.complement() * pr_exhausted.complement()).complement();
        }

        // --- state residencies: eqs (4), (5), (6) ---
        let t_cont = cont.mean_contention;

        // Eq. (4): wake-up, contention wall-time and the pre-ACK idle gap.
        let mut t_idle = self.wakeup + t_cont * e_procedures + self.ack.wait_min * e_tx;
        if self.physical {
            t_idle += lifs * e_tx;
        }

        // Eq. (5): transmissions.
        let mut t_tx = t_packet * e_tx;
        if self.physical {
            t_tx += t_ia * e_tx;
        }

        // Eq. (6): beacon reception, CCA turn-ons, ACK listening.
        let cca_turnons = cont.mean_ccas * e_procedures;
        let mut t_rx_cca = t_ia * cca_turnons;
        if self.physical {
            t_rx_cca += cca_sense * cca_turnons;
        }
        let t_rx_beacon = t_ia + self.beacon;
        let t_rx_ack =
            self.ack.listen_window_acked() * e_acked + self.ack.listen_window_unacked() * e_failed;
        let t_rx = t_rx_beacon + t_rx_cca + t_rx_ack;

        // --- power: eq. (11) ---
        let p_idle = radio.state_power(RadioState::Idle);
        let p_tx = radio.state_power(RadioState::Tx(inputs.tx_level));
        let p_rx_full = radio.state_power(RadioState::Rx);
        let p_listen = radio.rx_listen_power();

        // Energy per phase (Figure 9a). Channel sensing (the paper's
        // `N_CCA × T_ia` term) and ACK listening run at listen power —
        // these are exactly the receiver operations the paper's scalable
        // receiver improvement targets. They coincide with full RX power
        // on the stock CC2420. Beacon reception always uses the full
        // receiver (it must decode a frame).
        let e_beacon = p_idle * self.wakeup + p_rx_full * t_rx_beacon;
        let e_cont_idle = p_idle * (t_cont * e_procedures);
        let e_cont_rx = p_listen * (t_ia * cca_turnons)
            + if self.physical {
                p_listen * (cca_sense * cca_turnons)
            } else {
                Energy::ZERO
            };
        let e_cont = e_cont_idle + e_cont_rx;
        let e_tx_energy = p_tx * t_tx;
        let e_ack = p_idle * (self.ack.wait_min * e_tx) + p_listen * t_rx_ack;
        let e_ifs = if self.physical {
            p_idle * (lifs * e_tx)
        } else {
            Energy::ZERO
        };
        let active_time = t_idle + t_tx + t_rx;
        let e_sleep = if self.physical {
            radio.state_power(RadioState::Shutdown) * (t_ib - active_time).max(Seconds::ZERO)
        } else {
            Energy::ZERO
        };

        let total_energy = e_beacon + e_cont + e_tx_energy + e_ack + e_ifs + e_sleep;
        let average_power = total_energy / t_ib;

        // --- service quality: eqs (13), (14) ---
        let delay = t_ib / pr_fail.complement().value().max(1e-12);
        let energy_per_data_bit = Energy::from_joules(
            average_power.watts() * delay.secs() / packet.payload_bits() as f64,
        );

        ModelOutput {
            t_idle,
            t_tx,
            t_rx,
            t_ib,
            average_power,
            pr_packet_error: pr_e,
            pr_transmission_failure: pr_tf,
            pr_exhausted,
            pr_fail,
            expected_attempts: e_tx,
            delay,
            energy_per_data_bit,
            phase_energy: [
                (PhaseTag::Beacon, e_beacon),
                (PhaseTag::Contention, e_cont),
                (PhaseTag::Transmit, e_tx_energy),
                (PhaseTag::AckWait, e_ack),
                (PhaseTag::Ifs, e_ifs),
                (PhaseTag::Sleep, e_sleep),
            ],
        }
    }
}

/// Per-node inputs to one model evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ModelInputs {
    /// Uplink packet layout.
    pub packet: PacketLayout,
    /// Beacon order (sets `T_ib`).
    pub beacon_order: BeaconOrder,
    /// Transmit power level in use.
    pub tx_level: TxPowerLevel,
    /// Path loss to the coordinator.
    pub path_loss: Db,
    /// Contention statistics at the operating load.
    pub contention: ContentionStats,
}

/// Everything the model predicts for one node configuration.
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Expected idle residency per superframe (eq. 4).
    pub t_idle: Seconds,
    /// Expected transmit residency per superframe (eq. 5).
    pub t_tx: Seconds,
    /// Expected receive residency per superframe (eq. 6).
    pub t_rx: Seconds,
    /// Inter-beacon period (eq. 12).
    pub t_ib: Seconds,
    /// Average node power (eq. 11).
    pub average_power: Power,
    /// Packet error probability `Pr_e` (eq. 10).
    pub pr_packet_error: Probability,
    /// Per-attempt transmission failure `Pr_tf` (eq. 9).
    pub pr_transmission_failure: Probability,
    /// Probability the retry budget is exhausted, `P_tr(>N_max)` (eq. 8).
    pub pr_exhausted: Probability,
    /// Transaction failure probability `Pr_fail` (eq. 13).
    pub pr_fail: Probability,
    /// Expected transmissions per superframe (0 when channel access fails).
    pub expected_attempts: f64,
    /// Expected delivery delay (eq. 13, second part).
    pub delay: Seconds,
    /// Energy per useful data bit (eq. 14).
    pub energy_per_data_bit: Energy,
    /// Energy attribution per protocol phase (Figure 9a).
    pub phase_energy: [(PhaseTag, Energy); 6],
}

impl ModelOutput {
    /// Total modeled energy per superframe.
    pub fn total_energy(&self) -> Energy {
        self.phase_energy.iter().map(|(_, e)| *e).sum()
    }

    /// Per-state time shares of the inter-beacon period (Figure 9b).
    pub fn state_time_fractions(&self) -> [(StateKind, f64); 4] {
        let tib = self.t_ib.secs();
        let idle = self.t_idle.secs() / tib;
        let tx = self.t_tx.secs() / tib;
        let rx = self.t_rx.secs() / tib;
        [
            (StateKind::Shutdown, (1.0 - idle - tx - rx).max(0.0)),
            (StateKind::Idle, idle),
            (StateKind::Rx, rx),
            (StateKind::Tx, tx),
        ]
    }
}

/// Eqs. (7)/(8): given the per-attempt failure probability and the retry
/// budget, returns `(E[attempts], E[failed attempts], P_tr(>N_max))` where
/// the expectations follow the paper's bracketed sums
/// `Σ i·P_tr(i) + N_max·P_tr(>N_max)` and
/// `Σ (i−1)·P_tr(i) + N_max·P_tr(>N_max)`.
pub fn attempt_distribution(pr_tf: Probability, n_max: u32) -> (f64, f64, Probability) {
    let p = pr_tf.value();
    let mut expected = 0.0;
    let mut expected_failed = 0.0;
    let mut p_i = 1.0 - p; // P_tr(1) = (1−p)
    let mut survive = 1.0;
    for i in 1..=n_max {
        if i > 1 {
            p_i *= p;
        }
        expected += i as f64 * p_i;
        expected_failed += (i - 1) as f64 * p_i;
        survive *= p;
    }
    // P_tr(>N_max) = p^N_max: all attempts failed.
    expected += n_max as f64 * survive;
    expected_failed += n_max as f64 * survive;
    (expected, expected_failed, Probability::clamped(survive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_phy::ber::EmpiricalCc2420Ber;
    use wsn_phy::noise::UniformSource;
    use wsn_sim::Xoshiro256StarStar;

    fn inputs(level: TxPowerLevel, loss: f64, stats: ContentionStats) -> ModelInputs {
        ModelInputs {
            packet: PacketLayout::with_payload(120).unwrap(),
            beacon_order: BeaconOrder::new(6).unwrap(),
            tx_level: level,
            path_loss: Db::new(loss),
            contention: stats,
        }
    }

    fn model() -> ActivationModel {
        ActivationModel::paper_defaults(RadioModel::cc2420())
    }

    #[test]
    fn attempt_distribution_limits() {
        // Perfect channel: exactly one attempt, none failed.
        let (e, ef, pex) = attempt_distribution(Probability::ZERO, 5);
        assert!((e - 1.0).abs() < 1e-12);
        assert!(ef.abs() < 1e-12);
        assert_eq!(pex.value(), 0.0);

        // Hopeless channel: all five attempts, all failed.
        let (e, ef, pex) = attempt_distribution(Probability::clamped(1.0), 5);
        assert!((e - 5.0).abs() < 1e-12);
        assert!((ef - 5.0).abs() < 1e-12);
        assert_eq!(pex.value(), 1.0);

        // In between: 1 ≤ E ≤ N_max and 0 ≤ E_f ≤ E, monotone in p.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xE078);
        for case in 0..500 {
            let (p, n) = (0.99 * rng.next_f64(), 1 + rng.range_u32(7));
            let (e, ef, pex) = attempt_distribution(Probability::clamped(p), n);
            let (e2, _, pex2) = attempt_distribution(Probability::clamped(p + 0.01), n);
            assert!(e >= 1.0 - 1e-12 && e <= n as f64 + 1e-12, "case {case}");
            assert!(ef >= -1e-12 && ef <= e + 1e-12, "case {case}");
            let monotone = e2 >= e - 1e-12 && pex2.value() >= pex.value() - 1e-15;
            assert!(monotone, "case {case}");
        }
    }

    #[test]
    fn attempt_distribution_matches_direct_sum() {
        let p = 0.3;
        let pr = Probability::clamped(p);
        let (e, ef, pex) = attempt_distribution(pr, 5);
        let mut direct_e = 0.0;
        let mut direct_f = 0.0;
        for i in 1..=5u32 {
            let pi = p.powi(i as i32 - 1) * (1.0 - p);
            direct_e += i as f64 * pi;
            direct_f += (i - 1) as f64 * pi;
        }
        let tail = p.powi(5);
        direct_e += 5.0 * tail;
        direct_f += 5.0 * tail;
        assert!((e - direct_e).abs() < 1e-12);
        assert!((ef - direct_f).abs() < 1e-12);
        assert!((pex.value() - tail).abs() < 1e-15);
    }

    #[test]
    fn clean_link_power_band() {
        // Good link, ideal channel: the power is dominated by TX + beacon.
        let out = model().evaluate(
            &inputs(TxPowerLevel::Neg25, 55.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let uw = out.average_power.microwatts();
        assert!((100.0..260.0).contains(&uw), "P_avg = {uw} µW");
        assert!(out.pr_fail.value() < 1e-6);
        assert!((out.delay.secs() - 0.98304).abs() < 1e-3);
    }

    #[test]
    fn residencies_scale_with_attempts() {
        use wsn_units::Probability;
        // Force heavy retries with a high collision probability.
        let mut bad = ContentionStats::ideal();
        bad.pr_collision = Probability::clamped(0.5);
        let clean = model().evaluate(
            &inputs(TxPowerLevel::Zero, 60.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let retried = model().evaluate(
            &inputs(TxPowerLevel::Zero, 60.0, bad),
            &EmpiricalCc2420Ber::paper(),
        );
        assert!(retried.t_tx > clean.t_tx * 1.5);
        assert!(retried.t_rx > clean.t_rx);
        assert!(retried.average_power > clean.average_power);
        assert!(retried.expected_attempts > 1.5);
        // More collisions never cost less power or fail less often.
        let mut last = clean;
        for i in 1..=18 {
            let mut stats = ContentionStats::ideal();
            stats.pr_collision = Probability::clamped(0.05 * f64::from(i));
            let out = model().evaluate(
                &inputs(TxPowerLevel::Zero, 60.0, stats),
                &EmpiricalCc2420Ber::paper(),
            );
            let (p, p_last) = (out.average_power.watts(), last.average_power.watts());
            assert!(p >= p_last - 1e-15, "{i}");
            assert!(out.pr_fail.value() >= last.pr_fail.value() - 1e-12, "{i}");
            last = out;
        }
    }

    #[test]
    fn failure_composition_matches_eq13() {
        use wsn_units::Probability;
        let mut stats = ContentionStats::ideal();
        stats.pr_access_failure = Probability::clamped(0.1);
        // Path loss 95 dB at −25 dBm: received −120 dBm — hopeless link.
        let out = model().evaluate(
            &inputs(TxPowerLevel::Neg25, 95.0, stats),
            &EmpiricalCc2420Ber::paper(),
        );
        assert_eq!(out.pr_packet_error.value(), 1.0);
        assert_eq!(out.pr_exhausted.value(), 1.0);
        // Pr_fail = 1 − (1−0.1)(1−1) = 1.
        assert_eq!(out.pr_fail.value(), 1.0);
    }

    #[test]
    fn energy_per_bit_blows_up_on_dead_links() {
        let good = model().evaluate(
            &inputs(TxPowerLevel::Zero, 70.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let dead = model().evaluate(
            &inputs(TxPowerLevel::Neg25, 95.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        assert!(dead.energy_per_data_bit > good.energy_per_data_bit * 100.0);
    }

    #[test]
    fn energy_per_bit_band_matches_figure7() {
        // The paper: 135 nJ/bit at low loss up to ~220 nJ/bit at 88 dB.
        let low = model().evaluate(
            &inputs(TxPowerLevel::Neg25, 55.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let nj = low.energy_per_data_bit.nanojoules();
        assert!((80.0..400.0).contains(&nj), "energy/bit = {nj} nJ");
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        // Each phase's share of the superframe energy (0 for a phase the
        // model does not bill).
        let share = |out: &ModelOutput, phase: PhaseTag| {
            out.phase_energy
                .iter()
                .find(|(p, _)| *p == phase)
                .map_or(0.0, |(_, e)| e.joules() / out.total_energy().joules())
        };
        let out = model().evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let total: f64 = PhaseTag::ALL.iter().map(|&p| share(&out, p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Transmission dominates but stays below ~70 % on a good link.
        let tx_frac = share(&out, PhaseTag::Transmit);
        assert!((0.2..0.8).contains(&tx_frac), "tx fraction {tx_frac}");

        // Physical outputs for random admissible inputs.
        let radio = RadioModel::cc2420();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A5E);
        for case in 0..300 {
            let mut stats = ContentionStats::ideal();
            stats.mean_contention = Seconds::from_millis(20.0 * rng.next_f64());
            stats.mean_ccas = 2.0 + 6.0 * rng.next_f64();
            stats.pr_collision = Probability::clamped(0.6 * rng.next_f64());
            stats.pr_access_failure = Probability::clamped(0.4 * rng.next_f64());
            let level = TxPowerLevel::ALL[rng.index(8)];
            let mut input = inputs(level, 40.0 + 70.0 * rng.next_f64(), stats);
            input.beacon_order = BeaconOrder::new(4 + rng.index(6) as u8).unwrap();
            input.packet = PacketLayout::with_payload(5 + rng.index(119)).unwrap();
            let out = model().evaluate(&input, &EmpiricalCc2420Ber::paper());
            let total: f64 = PhaseTag::ALL.iter().map(|&p| share(&out, p)).sum();
            assert!((total - 1.0).abs() < 1e-6, "case {case}");
            let times = [out.t_idle, out.t_tx, out.t_rx];
            assert!(times.iter().all(|t| t.secs() >= 0.0), "case {case}");
            let attempts = out.expected_attempts;
            assert!((0.0..=5.0 + 1e-9).contains(&attempts), "case {case}");
            let tx = radio.state_power(RadioState::Tx(level));
            let rx = radio.state_power(RadioState::Rx);
            assert!(
                out.average_power <= rx || out.average_power <= tx,
                "case {case}"
            );
            assert!(out.delay.secs() >= out.t_ib.secs() * 0.999, "case {case}");
        }
    }

    #[test]
    fn state_fractions_are_mostly_shutdown() {
        let out = model().evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let fr = out.state_time_fractions();
        let shutdown = fr
            .iter()
            .find(|(k, _)| *k == StateKind::Shutdown)
            .unwrap()
            .1;
        assert!(shutdown > 0.97, "shutdown fraction {shutdown}");
        let sum: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refinements_increase_power() {
        let stock = model().evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let refined = model().with_physical_refinements().evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        assert!(refined.average_power > stock.average_power);
        // Refinements add single-digit percents, not multiples.
        assert!(refined.average_power.watts() < stock.average_power.watts() * 1.4);
    }

    #[test]
    fn scalable_receiver_cuts_listen_energy() {
        let radio_low_listen = RadioModel::builder()
            .rx_listen_power(Power::from_microwatts(17_640.0))
            .build();
        let stock = model().evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let scalable = ActivationModel::paper_defaults(radio_low_listen).evaluate(
            &inputs(TxPowerLevel::Neg5, 75.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        assert!(scalable.average_power < stock.average_power);
    }

    #[test]
    fn received_power_uses_link_budget() {
        // Stronger TX on the same path must not do worse.
        let weak = model().evaluate(
            &inputs(TxPowerLevel::Neg15, 85.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        let strong = model().evaluate(
            &inputs(TxPowerLevel::Zero, 85.0, ContentionStats::ideal()),
            &EmpiricalCc2420Ber::paper(),
        );
        assert!(strong.pr_fail.value() <= weak.pr_fail.value());
        // At any level, more path loss never improves reliability or
        // energy per bit.
        for level in TxPowerLevel::ALL {
            let eval = |loss| {
                let input = inputs(level, loss, ContentionStats::ideal());
                model().evaluate(&input, &EmpiricalCc2420Ber::paper())
            };
            let mut last = eval(50.0);
            for loss in (51..=105).map(f64::from) {
                let out = eval(loss);
                let (pf, pf_last) = (out.pr_fail.value(), last.pr_fail.value());
                assert!(pf >= pf_last - 1e-12, "{level} {loss}");
                let (e, e_last) = (out.energy_per_data_bit, last.energy_per_data_bit);
                assert!(e >= e_last * (1.0 - 1e-9), "{level} {loss}");
                last = out;
            }
        }
    }
}
