//! Radio states and the CC2420's programmable transmit power steps.

use core::fmt;

use wsn_units::{Current, DBm};

/// The eight programmable CC2420 output power steps, −25 … 0 dBm, with the
/// supply currents measured by the paper (Figure 3).
///
/// Levels order from weakest to strongest; `Ord` follows output power, so
/// `TxPowerLevel::Neg25 < TxPowerLevel::Zero`.
///
/// # Examples
///
/// ```
/// use wsn_radio::TxPowerLevel;
/// use wsn_units::DBm;
///
/// // Channel inversion: cheapest level that still delivers −88 dBm over a
/// // 78 dB path is −10 dBm.
/// let lvl = TxPowerLevel::cheapest_reaching(DBm::new(-10.0)).unwrap();
/// assert_eq!(lvl, TxPowerLevel::Neg10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxPowerLevel {
    /// −25 dBm output, 8.42 mA.
    Neg25,
    /// −15 dBm output, 9.71 mA.
    Neg15,
    /// −10 dBm output, 10.9 mA.
    Neg10,
    /// −7 dBm output, 12.17 mA.
    Neg7,
    /// −5 dBm output, 12.27 mA (as printed in the paper's Figure 3).
    Neg5,
    /// −3 dBm output, 14.63 mA.
    Neg3,
    /// −1 dBm output, 15.785 mA.
    Neg1,
    /// 0 dBm output, 17.04 mA.
    Zero,
}

impl TxPowerLevel {
    /// All levels from weakest to strongest.
    pub const ALL: [TxPowerLevel; 8] = [
        TxPowerLevel::Neg25,
        TxPowerLevel::Neg15,
        TxPowerLevel::Neg10,
        TxPowerLevel::Neg7,
        TxPowerLevel::Neg5,
        TxPowerLevel::Neg3,
        TxPowerLevel::Neg1,
        TxPowerLevel::Zero,
    ];

    /// The radiated output power.
    pub fn output_power(self) -> DBm {
        DBm::new(match self {
            TxPowerLevel::Neg25 => -25.0,
            TxPowerLevel::Neg15 => -15.0,
            TxPowerLevel::Neg10 => -10.0,
            TxPowerLevel::Neg7 => -7.0,
            TxPowerLevel::Neg5 => -5.0,
            TxPowerLevel::Neg3 => -3.0,
            TxPowerLevel::Neg1 => -1.0,
            TxPowerLevel::Zero => 0.0,
        })
    }

    /// Supply current drawn in this transmit state (paper Figure 3).
    pub fn supply_current(self) -> Current {
        Current::from_milliamps(match self {
            TxPowerLevel::Neg25 => 8.42,
            TxPowerLevel::Neg15 => 9.71,
            TxPowerLevel::Neg10 => 10.9,
            TxPowerLevel::Neg7 => 12.17,
            TxPowerLevel::Neg5 => 12.27,
            TxPowerLevel::Neg3 => 14.63,
            TxPowerLevel::Neg1 => 15.785,
            TxPowerLevel::Zero => 17.04,
        })
    }

    /// Returns the weakest level whose output power is at least `required`,
    /// or `None` if even 0 dBm is insufficient.
    pub fn cheapest_reaching(required: DBm) -> Option<TxPowerLevel> {
        Self::ALL
            .into_iter()
            .find(|lvl| lvl.output_power() >= required)
    }

    /// The strongest available level.
    pub fn strongest() -> TxPowerLevel {
        TxPowerLevel::Zero
    }
}

impl fmt::Display for TxPowerLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.output_power())
    }
}

/// The four operating states of a CC2420-class transceiver.
///
/// Transmit carries its power level so that the energy ledger can bill the
/// correct supply current.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Crystal off; only leakage. Wake-up requires ~1 ms.
    Shutdown,
    /// Clock running, radio circuitry off; can accept commands.
    Idle,
    /// Receiver active (also used for clear channel assessment).
    Rx,
    /// Transmitter active at the given power step.
    Tx(TxPowerLevel),
}

impl RadioState {
    /// A coarse state kind that ignores the TX power level, used as a
    /// breakdown key (Figure 9b groups all TX levels together).
    pub fn kind(self) -> StateKind {
        match self {
            RadioState::Shutdown => StateKind::Shutdown,
            RadioState::Idle => StateKind::Idle,
            RadioState::Rx => StateKind::Rx,
            RadioState::Tx(_) => StateKind::Tx,
        }
    }
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadioState::Shutdown => write!(f, "shutdown"),
            RadioState::Idle => write!(f, "idle"),
            RadioState::Rx => write!(f, "rx"),
            RadioState::Tx(lvl) => write!(f, "tx@{lvl}"),
        }
    }
}

/// Radio state with the transmit power level erased — the four rows of the
/// paper's Figure 9b time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKind {
    /// Shutdown state.
    Shutdown,
    /// Idle state.
    Idle,
    /// Receive state.
    Rx,
    /// Transmit state (any power level).
    Tx,
}

impl StateKind {
    /// All four kinds in display order.
    pub const ALL: [StateKind; 4] = [
        StateKind::Shutdown,
        StateKind::Idle,
        StateKind::Rx,
        StateKind::Tx,
    ];
}

impl fmt::Display for StateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateKind::Shutdown => write!(f, "shutdown"),
            StateKind::Idle => write!(f, "idle"),
            StateKind::Rx => write!(f, "rx"),
            StateKind::Tx => write!(f, "tx"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_monotone_in_power_and_current() {
        for pair in TxPowerLevel::ALL.windows(2) {
            assert!(pair[0].output_power() < pair[1].output_power());
            assert!(
                pair[0].supply_current() < pair[1].supply_current(),
                "current not monotone between {} and {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn cheapest_reaching_picks_boundary_levels() {
        assert_eq!(
            TxPowerLevel::cheapest_reaching(DBm::new(-30.0)),
            Some(TxPowerLevel::Neg25)
        );
        assert_eq!(
            TxPowerLevel::cheapest_reaching(DBm::new(-25.0)),
            Some(TxPowerLevel::Neg25)
        );
        assert_eq!(
            TxPowerLevel::cheapest_reaching(DBm::new(-24.9)),
            Some(TxPowerLevel::Neg15)
        );
        assert_eq!(
            TxPowerLevel::cheapest_reaching(DBm::new(0.0)),
            Some(TxPowerLevel::Zero)
        );
        assert_eq!(TxPowerLevel::cheapest_reaching(DBm::new(0.1)), None);
    }

    #[test]
    fn ordering_follows_power() {
        assert!(TxPowerLevel::Neg25 < TxPowerLevel::Zero);
        assert!(TxPowerLevel::Neg25 < TxPowerLevel::strongest());
    }

    #[test]
    fn state_kind_erases_tx_level() {
        assert_eq!(RadioState::Tx(TxPowerLevel::Neg25).kind(), StateKind::Tx);
        assert_eq!(RadioState::Tx(TxPowerLevel::Zero).kind(), StateKind::Tx);
        assert_eq!(RadioState::Rx.kind(), StateKind::Rx);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RadioState::Shutdown.to_string(), "shutdown");
        assert_eq!(
            RadioState::Tx(TxPowerLevel::Neg7).to_string(),
            "tx@-7.00 dBm"
        );
        assert_eq!(StateKind::Rx.to_string(), "rx");
    }
}
