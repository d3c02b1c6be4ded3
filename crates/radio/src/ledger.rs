//! Energy accounting: time and energy per radio state and per protocol
//! phase.
//!
//! The paper's Figure 9 presents two views of the same consumption: (a)
//! energy split by *protocol phase* (beacon, contention, transmit,
//! ACK + IFS) and (b) time split by *radio state* (shutdown, idle, TX, RX).
//! [`EnergyLedger`] maintains both simultaneously so that a single
//! simulation or model evaluation can emit both charts, and so that their
//! totals can be cross-checked against each other (they must agree — a
//! conservation test).

use core::fmt;

use wsn_units::{Energy, Power, Seconds};

use crate::model::RadioModel;
use crate::state::{RadioState, StateKind};

/// Protocol phase labels for energy attribution (paper Figure 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseTag {
    /// Inter-superframe sleep.
    Sleep,
    /// Pre-beacon wake-up and beacon reception.
    Beacon,
    /// Slotted CSMA/CA: backoff waiting and clear channel assessments.
    Contention,
    /// Uplink packet transmission.
    Transmit,
    /// Acknowledgement turnaround and wait.
    AckWait,
    /// Inter-frame spacing.
    Ifs,
    /// Guaranteed time slot traffic: contention-free uplink transmissions
    /// in the superframe's CFP.
    Gts,
    /// Indirect (downlink) traffic: data-request polling, downlink frame
    /// reception and its acknowledgement.
    Downlink,
    /// Association maintenance: orphan-scan listening after missed
    /// beacons and the association request/response exchange on rejoin.
    Association,
    /// Anything else (diagnostics, …).
    Other,
}

/// Number of distinct [`PhaseTag`]s (the ledger's phase-axis length).
pub const PHASE_COUNT: usize = 10;

impl PhaseTag {
    /// All phases in display order.
    pub const ALL: [PhaseTag; PHASE_COUNT] = [
        PhaseTag::Sleep,
        PhaseTag::Beacon,
        PhaseTag::Contention,
        PhaseTag::Transmit,
        PhaseTag::AckWait,
        PhaseTag::Ifs,
        PhaseTag::Gts,
        PhaseTag::Downlink,
        PhaseTag::Association,
        PhaseTag::Other,
    ];

    fn index(self) -> usize {
        match self {
            PhaseTag::Sleep => 0,
            PhaseTag::Beacon => 1,
            PhaseTag::Contention => 2,
            PhaseTag::Transmit => 3,
            PhaseTag::AckWait => 4,
            PhaseTag::Ifs => 5,
            PhaseTag::Gts => 6,
            PhaseTag::Downlink => 7,
            PhaseTag::Association => 8,
            PhaseTag::Other => 9,
        }
    }
}

impl fmt::Display for PhaseTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhaseTag::Sleep => "sleep",
            PhaseTag::Beacon => "beacon",
            PhaseTag::Contention => "contention",
            PhaseTag::Transmit => "transmit",
            PhaseTag::AckWait => "ack",
            PhaseTag::Ifs => "ifs",
            PhaseTag::Gts => "gts",
            PhaseTag::Downlink => "downlink",
            PhaseTag::Association => "association",
            PhaseTag::Other => "other",
        };
        f.write_str(s)
    }
}

fn state_index(kind: StateKind) -> usize {
    match kind {
        StateKind::Shutdown => 0,
        StateKind::Idle => 1,
        StateKind::Rx => 2,
        StateKind::Tx => 3,
    }
}

/// Double-entry time/energy ledger: per radio state and per protocol phase.
///
/// # Examples
///
/// ```
/// use wsn_radio::{EnergyLedger, PhaseTag, RadioModel, RadioState};
/// use wsn_units::Seconds;
///
/// let radio = RadioModel::cc2420();
/// let mut ledger = EnergyLedger::new();
/// ledger.accrue(&radio, RadioState::Rx, PhaseTag::Beacon, Seconds::from_micros(608.0));
/// let fractions = ledger.phase_energy_fractions();
/// assert!((fractions[1].1 - 1.0).abs() < 1e-12); // all energy in Beacon
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    state_time: [Seconds; 4],
    state_energy: [Energy; 4],
    phase_time: [Seconds; PHASE_COUNT],
    phase_energy: [Energy; PHASE_COUNT],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Records `duration` spent with energy `energy` in state `kind`,
    /// attributed to `phase`.
    ///
    /// Prefer the higher-level [`accrue`](Self::accrue) /
    /// [`accrue_transition`](Self::accrue_transition) helpers; this raw
    /// entry point exists for custom power profiles (e.g. the scalable
    /// receiver's listen mode).
    ///
    /// # Panics
    ///
    /// Panics if `duration` or `energy` is negative.
    pub fn record(&mut self, kind: StateKind, phase: PhaseTag, duration: Seconds, energy: Energy) {
        assert!(duration.secs() >= 0.0, "negative duration");
        assert!(energy.joules() >= 0.0, "negative energy");
        self.state_time[state_index(kind)] += duration;
        self.state_energy[state_index(kind)] += energy;
        self.phase_time[phase.index()] += duration;
        self.phase_energy[phase.index()] += energy;
    }

    /// Bills `duration` at the steady-state power of `state`.
    pub fn accrue(
        &mut self,
        model: &RadioModel,
        state: RadioState,
        phase: PhaseTag,
        duration: Seconds,
    ) {
        let energy = model.state_power(state) * duration;
        self.record(state.kind(), phase, duration, energy);
    }

    /// Bills `duration` of receiver *listening* (CCA or ACK-wait) at the
    /// model's listen power — distinct from [`accrue`](Self::accrue) with
    /// [`RadioState::Rx`] only when a scalable receiver is configured.
    pub fn accrue_listen(&mut self, model: &RadioModel, phase: PhaseTag, duration: Seconds) {
        let energy = model.rx_listen_power() * duration;
        self.record(StateKind::Rx, phase, duration, energy);
    }

    /// Bills a state transition: the settle time is attributed to the
    /// *target* state (the paper counts `T_ia` as RX/TX time and `T_si` as
    /// idle time) and the transition energy to `phase`. Returns the
    /// transition, or `None` if illegal.
    pub fn accrue_transition(
        &mut self,
        model: &RadioModel,
        from: RadioState,
        to: RadioState,
        phase: PhaseTag,
    ) -> Option<crate::model::Transition> {
        let t = model.transition(from, to)?;
        self.record(to.kind(), phase, t.time, t.energy);
        Some(t)
    }

    /// Total time across all states.
    pub fn total_time(&self) -> Seconds {
        self.state_time.iter().copied().sum()
    }

    /// Total energy across all states.
    pub fn total_energy(&self) -> Energy {
        self.state_energy.iter().copied().sum()
    }

    /// Time spent in a state kind.
    pub fn time_in(&self, kind: StateKind) -> Seconds {
        self.state_time[state_index(kind)]
    }

    /// Energy spent in a state kind.
    pub fn energy_in(&self, kind: StateKind) -> Energy {
        self.state_energy[state_index(kind)]
    }

    /// Time attributed to a phase.
    pub fn time_in_phase(&self, phase: PhaseTag) -> Seconds {
        self.phase_time[phase.index()]
    }

    /// Energy attributed to a phase.
    pub fn energy_in_phase(&self, phase: PhaseTag) -> Energy {
        self.phase_energy[phase.index()]
    }

    /// Average power over a reference window (e.g. the inter-beacon
    /// period), `total energy / window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    pub fn average_power(&self, window: Seconds) -> Power {
        assert!(window.secs() > 0.0, "window must be positive");
        self.total_energy() / window
    }

    /// `(state, fraction-of-total-time)` for all four states — Figure 9b.
    pub fn state_time_fractions(&self) -> [(StateKind, f64); 4] {
        let total = self.total_time().secs();
        core::array::from_fn(|i| {
            let kind = StateKind::ALL[i];
            let frac = if total > 0.0 {
                self.time_in(kind).secs() / total
            } else {
                0.0
            };
            (kind, frac)
        })
    }

    /// `(phase, fraction-of-total-energy)` for all phases — Figure 9a.
    pub fn phase_energy_fractions(&self) -> [(PhaseTag, f64); PHASE_COUNT] {
        let total = self.total_energy().joules();
        core::array::from_fn(|i| {
            let phase = PhaseTag::ALL[i];
            let frac = if total > 0.0 {
                self.energy_in_phase(phase).joules() / total
            } else {
                0.0
            };
            (phase, frac)
        })
    }

    /// Folds another ledger into this one (aggregating nodes).
    ///
    /// Componentwise addition, so the merge is exact and
    /// order-insensitive up to floating-point rounding: per-node ledgers
    /// combine into per-channel ledgers and per-channel ledgers into
    /// population ledgers. The simulator's sharded accumulators rely on
    /// this — merging shards in a fixed order keeps parallel reductions
    /// bit-identical to the serial fold.
    pub fn merge(&mut self, other: &EnergyLedger) {
        for i in 0..4 {
            self.state_time[i] += other.state_time[i];
            self.state_energy[i] += other.state_energy[i];
        }
        for i in 0..PHASE_COUNT {
            self.phase_time[i] += other.phase_time[i];
            self.phase_energy[i] += other.phase_energy[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TxPowerLevel;

    fn radio() -> RadioModel {
        RadioModel::cc2420()
    }

    #[test]
    fn accrue_bills_state_power() {
        let mut l = EnergyLedger::new();
        l.accrue(
            &radio(),
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_millis(1.0),
        );
        assert!((l.total_energy().microjoules() - 35.28).abs() < 1e-9);
        assert!((l.time_in(StateKind::Rx).millis() - 1.0).abs() < 1e-12);
        assert!((l.energy_in_phase(PhaseTag::Beacon).microjoules() - 35.28).abs() < 1e-9);
    }

    #[test]
    fn dual_views_always_agree() {
        let mut l = EnergyLedger::new();
        let r = radio();
        l.accrue(
            &r,
            RadioState::Shutdown,
            PhaseTag::Sleep,
            Seconds::from_millis(970.0),
        );
        l.accrue(
            &r,
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_micros(608.0),
        );
        l.accrue(
            &r,
            RadioState::Idle,
            PhaseTag::Contention,
            Seconds::from_millis(3.0),
        );
        l.accrue(
            &r,
            RadioState::Tx(TxPowerLevel::Neg5),
            PhaseTag::Transmit,
            Seconds::from_millis(4.256),
        );
        l.accrue_transition(&r, RadioState::Idle, RadioState::Rx, PhaseTag::Contention);

        let by_state: Energy = StateKind::ALL.iter().map(|&k| l.energy_in(k)).sum();
        let by_phase: Energy = PhaseTag::ALL.iter().map(|&p| l.energy_in_phase(p)).sum();
        assert!((by_state.joules() - by_phase.joules()).abs() < 1e-18);
        assert!((by_state.joules() - l.total_energy().joules()).abs() < 1e-18);

        let t_state: Seconds = StateKind::ALL.iter().map(|&k| l.time_in(k)).sum();
        let t_phase: Seconds = PhaseTag::ALL.iter().map(|&p| l.time_in_phase(p)).sum();
        assert!((t_state.secs() - t_phase.secs()).abs() < 1e-15);
    }

    #[test]
    fn transition_time_billed_to_target_state() {
        let mut l = EnergyLedger::new();
        let t = l
            .accrue_transition(
                &radio(),
                RadioState::Idle,
                RadioState::Rx,
                PhaseTag::Contention,
            )
            .unwrap();
        assert!((t.time.micros() - 194.0).abs() < 1e-9);
        assert!((l.time_in(StateKind::Rx).micros() - 194.0).abs() < 1e-9);
        assert_eq!(l.time_in(StateKind::Idle), Seconds::ZERO);
        assert!((l.energy_in_phase(PhaseTag::Contention).microjoules() - 6.63).abs() < 1e-9);
    }

    #[test]
    fn illegal_transition_returns_none_and_records_nothing() {
        let mut l = EnergyLedger::new();
        assert!(l
            .accrue_transition(
                &radio(),
                RadioState::Shutdown,
                RadioState::Rx,
                PhaseTag::Other
            )
            .is_none());
        assert_eq!(l.total_energy(), Energy::ZERO);
    }

    #[test]
    fn listen_mode_uses_listen_power() {
        let scalable = RadioModel::builder()
            .rx_listen_power(Power::from_microwatts(17_640.0))
            .build();
        let mut l = EnergyLedger::new();
        l.accrue_listen(&scalable, PhaseTag::AckWait, Seconds::from_millis(1.0));
        assert!((l.total_energy().microjoules() - 17.64).abs() < 1e-9);
        // Time is still RX time.
        assert!((l.time_in(StateKind::Rx).millis() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_power_over_window() {
        let mut l = EnergyLedger::new();
        l.accrue(
            &radio(),
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_millis(1.0),
        );
        // 35.28 µJ over 983.04 ms ≈ 35.9 µW.
        let p = l.average_power(Seconds::from_millis(983.04));
        assert!((p.microwatts() - 35.89).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let l = EnergyLedger::new();
        let _ = l.average_power(Seconds::ZERO);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut l = EnergyLedger::new();
        let r = radio();
        l.accrue(
            &r,
            RadioState::Shutdown,
            PhaseTag::Sleep,
            Seconds::from_secs(0.97),
        );
        l.accrue(
            &r,
            RadioState::Idle,
            PhaseTag::Contention,
            Seconds::from_millis(4.0),
        );
        l.accrue(
            &r,
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_millis(1.0),
        );
        let t: f64 = l.state_time_fractions().iter().map(|(_, f)| f).sum();
        let e: f64 = l.phase_energy_fractions().iter().map(|(_, f)| f).sum();
        assert!((t - 1.0).abs() < 1e-12);
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_componentwise() {
        let r = radio();
        let mut a = EnergyLedger::new();
        a.accrue(
            &r,
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_millis(1.0),
        );
        let mut b = EnergyLedger::new();
        b.accrue(
            &r,
            RadioState::Rx,
            PhaseTag::Beacon,
            Seconds::from_millis(2.0),
        );
        a.merge(&b);
        assert!((a.time_in(StateKind::Rx).millis() - 3.0).abs() < 1e-12);
        assert!((a.total_energy().microjoules() - 3.0 * 35.28).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_rejected() {
        let mut l = EnergyLedger::new();
        l.record(
            StateKind::Idle,
            PhaseTag::Other,
            Seconds::from_secs(-1.0),
            Energy::ZERO,
        );
    }
}
