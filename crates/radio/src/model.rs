//! The radio's energy characterization: steady-state powers and state
//! transition costs (the paper's Figure 3 as data).

use wsn_units::{Current, Energy, Power, Seconds, Voltage};

use crate::state::{RadioState, TxPowerLevel};

/// Cost of switching between two radio states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Settling time before the target state is usable.
    pub time: Seconds,
    /// Energy consumed during the transition (the paper's worst case:
    /// settle time × target-state power).
    pub energy: Energy,
}

impl Transition {
    /// A free, instantaneous transition.
    pub const FREE: Transition = Transition {
        time: Seconds::ZERO,
        energy: Energy::ZERO,
    };

    /// Builds a transition using the paper's worst-case energy rule
    /// `E ≅ T(transition) × P(target state)`.
    pub fn worst_case(time: Seconds, target_power: Power) -> Self {
        Transition {
            time,
            energy: target_power * time,
        }
    }

    /// Scales both time and energy by `factor` (the paper's "reduce the
    /// transition time between states by a factor two" knob).
    pub fn scaled(self, factor: f64) -> Self {
        Transition {
            time: self.time * factor,
            energy: self.energy * factor,
        }
    }
}

/// A complete energy characterization of a CC2420-class transceiver.
///
/// Construct with [`RadioModel::cc2420`] for the paper's measured values, or
/// through [`RadioModel::builder`] for what-if variants.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioModel {
    vdd: Voltage,
    shutdown_power: Power,
    idle_power: Power,
    rx_power: Power,
    rx_listen_power: Power,
    tx_power: [Power; 8],
    shutdown_to_idle: Transition,
    idle_to_active: Transition,
    turnaround_time: Seconds,
}

impl RadioModel {
    /// The paper's Figure 3 characterization of the Chipcon CC2420 at
    /// 1.8 V:
    ///
    /// | state | current | power |
    /// |---|---|---|
    /// | shutdown | 80 nA | 144 nW |
    /// | idle | 396 µA | 712.8 µW |
    /// | RX | 19.6 mA | 35.28 mW |
    /// | TX 0 dBm | 17.04 mA | 30.67 mW |
    ///
    /// Transitions: shutdown→idle 970 µs / 691 nJ; idle→RX and idle→TX
    /// 194 µs / 6.63 µJ. (The paper's running text prints "691 pJ", but its
    /// own worst-case rule `T × I(idle) × VDD` gives 691 **nJ**; we keep the
    /// self-consistent value.)
    pub fn cc2420() -> Self {
        RadioModel::builder().build()
    }

    /// Starts a builder pre-populated with the CC2420 values.
    pub fn builder() -> RadioModelBuilder {
        RadioModelBuilder::default()
    }

    /// Supply voltage of the characterization.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Steady-state power of `state`.
    pub fn state_power(&self, state: RadioState) -> Power {
        match state {
            RadioState::Shutdown => self.shutdown_power,
            RadioState::Idle => self.idle_power,
            RadioState::Rx => self.rx_power,
            RadioState::Tx(lvl) => self.tx_power[lvl as usize],
        }
    }

    /// Power of the receiver while merely *listening* (clear-channel
    /// assessment, acknowledgement wait). Equal to [`RadioState::Rx`] power
    /// on the stock CC2420; lower on the paper's proposed scalable receiver.
    pub fn rx_listen_power(&self) -> Power {
        self.rx_listen_power
    }

    /// The cost of switching `from → to`, or `None` if the transition is
    /// not legal on this hardware (shutdown cannot reach RX/TX directly —
    /// the crystal must start in idle first).
    pub fn transition(&self, from: RadioState, to: RadioState) -> Option<Transition> {
        use RadioState::*;
        match (from, to) {
            // Staying put (or retuning the TX level) is free.
            (Shutdown, Shutdown) | (Idle, Idle) | (Rx, Rx) | (Tx(_), Tx(_)) => {
                Some(Transition::FREE)
            }
            (Shutdown, Idle) => Some(self.shutdown_to_idle),
            (Idle, Shutdown) => Some(Transition::FREE),
            (Idle, Rx) => Some(Transition {
                time: self.idle_to_active.time,
                energy: self.idle_to_active.energy,
            }),
            (Idle, Tx(_)) => Some(self.idle_to_active),
            (Rx, Idle) | (Tx(_), Idle) => Some(Transition::FREE),
            (Rx, Tx(lvl)) => Some(Transition::worst_case(
                self.turnaround_time,
                self.tx_power[lvl as usize],
            )),
            (Tx(_), Rx) => Some(Transition::worst_case(self.turnaround_time, self.rx_power)),
            (Shutdown, Rx) | (Shutdown, Tx(_)) | (Rx, Shutdown) | (Tx(_), Shutdown) => None,
        }
    }

    /// Settling time of the shutdown→idle wake-up (`T_si` ≈ 1 ms).
    pub fn wakeup_time(&self) -> Seconds {
        self.shutdown_to_idle.time
    }

    /// Settling time of the idle→RX/TX turn-on (`T_ia` = 194 µs).
    pub fn turn_on_time(&self) -> Seconds {
        self.idle_to_active.time
    }

    /// RX↔TX turnaround time (12 symbols = 192 µs).
    pub fn turnaround_time(&self) -> Seconds {
        self.turnaround_time
    }
}

/// Builder for [`RadioModel`] variants; defaults to the CC2420 preset.
///
/// # Examples
///
/// ```
/// use wsn_radio::{RadioModel, RadioState};
/// use wsn_units::Power;
///
/// // The paper's improvement (a): halve all transition times.
/// let faster = RadioModel::builder().transition_scale(0.5).build();
/// let t = faster
///     .transition(RadioState::Shutdown, RadioState::Idle)
///     .unwrap();
/// assert!((t.time.micros() - 485.0).abs() < 1e-9);
///
/// // Improvement (b): a scalable receiver listening at half power.
/// let scalable = RadioModel::builder()
///     .rx_listen_power(Power::from_milliwatts(17.64))
///     .build();
/// assert!(scalable.rx_listen_power() < scalable.state_power(RadioState::Rx));
/// ```
#[derive(Debug, Clone)]
pub struct RadioModelBuilder {
    rx_listen_power: Option<Power>,
    transition_scale: f64,
}

impl Default for RadioModelBuilder {
    fn default() -> Self {
        RadioModelBuilder {
            rx_listen_power: None,
            transition_scale: 1.0,
        }
    }
}

impl RadioModelBuilder {
    /// Sets a reduced receiver power for listen-only operation (clear
    /// channel assessment and acknowledgement wait) — the paper's scalable
    /// receiver improvement.
    pub fn rx_listen_power(mut self, p: Power) -> Self {
        self.rx_listen_power = Some(p);
        self
    }

    /// Scales every transition time and energy by `factor` (e.g. `0.5` for
    /// the paper's "reduce transition time by a factor two").
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn transition_scale(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "transition scale must be positive, got {factor}"
        );
        self.transition_scale = factor;
        self
    }

    /// Finalizes the model: the CC2420 at 1.8 V with the two
    /// improvement knobs applied.
    pub fn build(self) -> RadioModel {
        let vdd = Voltage::from_volts(1.8);
        let idle_power = Current::from_microamps(396.0) * vdd;
        let rx_power = Current::from_milliamps(19.6) * vdd;
        let tx_power = core::array::from_fn(|i| {
            let lvl = TxPowerLevel::ALL[i];
            lvl.supply_current() * vdd
        });

        let shutdown_to_idle = Transition::worst_case(Seconds::from_micros(970.0), idle_power)
            .scaled(self.transition_scale);
        let idle_to_active = Transition {
            time: Seconds::from_micros(194.0),
            // The paper's measured value; the worst-case rule would give
            // 6.84 µJ (194 µs × 35.28 mW).
            energy: Energy::from_microjoules(6.63),
        }
        .scaled(self.transition_scale);

        RadioModel {
            vdd,
            shutdown_power: Current::from_nanoamps(80.0) * vdd,
            idle_power,
            rx_power,
            rx_listen_power: self.rx_listen_power.unwrap_or(rx_power),
            tx_power,
            shutdown_to_idle,
            idle_to_active,
            // 12 symbols, stated here because this crate depends only on
            // `wsn-units`; `wsn-sim`'s
            // `network::tests::radio_turnaround_matches_mac_timing` pins it
            // to `wsn_mac::timing::turnaround_time`.
            turnaround_time: Seconds::from_micros(192.0) * self.transition_scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc2420_figure3_steady_states() {
        let r = RadioModel::cc2420();
        assert!((r.state_power(RadioState::Shutdown).nanowatts() - 144.0).abs() < 1e-9);
        assert!((r.state_power(RadioState::Idle).microwatts() - 712.8).abs() < 1e-9);
        assert!((r.state_power(RadioState::Rx).milliwatts() - 35.28).abs() < 1e-9);
        assert!(
            (r.state_power(RadioState::Tx(TxPowerLevel::Zero))
                .milliwatts()
                - 30.672)
                .abs()
                < 1e-9
        );
        assert!(
            (r.state_power(RadioState::Tx(TxPowerLevel::Neg25))
                .milliwatts()
                - 15.156)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn cc2420_figure3_transitions() {
        let r = RadioModel::cc2420();
        let si = r
            .transition(RadioState::Shutdown, RadioState::Idle)
            .unwrap();
        assert!((si.time.micros() - 970.0).abs() < 1e-9);
        // Worst-case rule: 970 µs × 712.8 µW = 691.4 nJ.
        assert!((si.energy.nanojoules() - 691.416).abs() < 1e-3);

        let ia = r.transition(RadioState::Idle, RadioState::Rx).unwrap();
        assert!((ia.time.micros() - 194.0).abs() < 1e-9);
        assert!((ia.energy.microjoules() - 6.63).abs() < 1e-9);

        let it = r
            .transition(RadioState::Idle, RadioState::Tx(TxPowerLevel::Zero))
            .unwrap();
        assert_eq!(it, ia, "idle→TX should mirror idle→RX per Figure 3");
    }

    #[test]
    fn returning_to_idle_is_free_and_same_state_is_free() {
        let r = RadioModel::cc2420();
        assert_eq!(
            r.transition(RadioState::Rx, RadioState::Idle).unwrap(),
            Transition::FREE
        );
        assert_eq!(
            r.transition(RadioState::Idle, RadioState::Idle).unwrap(),
            Transition::FREE
        );
        assert_eq!(
            r.transition(RadioState::Idle, RadioState::Shutdown)
                .unwrap(),
            Transition::FREE
        );
        assert_eq!(
            r.transition(
                RadioState::Tx(TxPowerLevel::Neg5),
                RadioState::Tx(TxPowerLevel::Zero)
            )
            .unwrap(),
            Transition::FREE
        );
    }

    #[test]
    fn shutdown_cannot_reach_active_states_directly() {
        let r = RadioModel::cc2420();
        assert!(r.transition(RadioState::Shutdown, RadioState::Rx).is_none());
        assert!(r
            .transition(RadioState::Shutdown, RadioState::Tx(TxPowerLevel::Zero))
            .is_none());
        assert!(r.transition(RadioState::Rx, RadioState::Shutdown).is_none());
    }

    #[test]
    fn turnaround_costs_twelve_symbols() {
        let r = RadioModel::cc2420();
        let ta = r
            .transition(RadioState::Rx, RadioState::Tx(TxPowerLevel::Zero))
            .unwrap();
        assert!((ta.time.micros() - 192.0).abs() < 1e-9);
        // Energy at target (TX 0 dBm) power.
        assert!((ta.energy.microjoules() - 0.192 * 30.672).abs() < 1e-6);
    }

    #[test]
    fn transition_scale_halves_everything() {
        let fast = RadioModel::builder().transition_scale(0.5).build();
        let si = fast
            .transition(RadioState::Shutdown, RadioState::Idle)
            .unwrap();
        assert!((si.time.micros() - 485.0).abs() < 1e-9);
        assert!((si.energy.nanojoules() - 691.416 / 2.0).abs() < 1e-3);
        let ia = fast.transition(RadioState::Idle, RadioState::Rx).unwrap();
        assert!((ia.energy.microjoules() - 3.315).abs() < 1e-9);
        assert!((fast.turnaround_time().micros() - 96.0).abs() < 1e-9);
        // Any scale keeps legality and scales every cost linearly.
        let base = RadioModel::cc2420();
        let states = [
            RadioState::Shutdown,
            RadioState::Idle,
            RadioState::Rx,
            RadioState::Tx(TxPowerLevel::Neg7),
        ];
        for factor in [0.05, 0.5, 1.0, 4.0] {
            let scaled = RadioModel::builder().transition_scale(factor).build();
            for (from, to) in states.into_iter().flat_map(|f| states.map(|t| (f, t))) {
                let (b, s) = (base.transition(from, to), scaled.transition(from, to));
                assert_eq!(b.is_some(), s.is_some(), "{from:?} → {to:?}");
                if let (Some(b), Some(s)) = (b, s) {
                    assert!((s.time.secs() - b.time.secs() * factor).abs() < 1e-15);
                    assert!((s.energy.joules() - b.energy.joules() * factor).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn rx_listen_power_defaults_to_rx() {
        let stock = RadioModel::cc2420();
        assert_eq!(stock.rx_listen_power(), stock.state_power(RadioState::Rx));
        let scalable = RadioModel::builder()
            .rx_listen_power(Power::from_milliwatts(10.0))
            .build();
        assert!((scalable.rx_listen_power().milliwatts() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "transition scale must be positive")]
    fn zero_scale_rejected() {
        let _ = RadioModel::builder().transition_scale(0.0);
    }
}
