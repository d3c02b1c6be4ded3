//! The slotted CSMA/CA channel access algorithm.
//!
//! Implemented as a *pure, step-driven* state machine: the scheduler (a
//! discrete-event simulator, a test, or a hardware shim) owns time and the
//! channel, and feeds CCA outcomes in; the machine answers with the next
//! [`CsmaAction`]. This keeps the algorithm unit-testable in isolation and
//! reusable by both the Monte-Carlo contention simulator and the full
//! network simulator.
//!
//! Parameter presets:
//!
//! * [`CsmaParams::standard_2003`] — macMinBE 3, aMaxBE 5,
//!   macMaxCSMABackoffs 4 (rounds at BE = 3, 4, 5, 5, 5);
//! * [`CsmaParams::paper`] — the paper's §2 description: the procedure is
//!   aborted once the backoff exponent has been incremented twice and the
//!   channel is still busy (rounds at BE = 3, 4, 5);
//! * [`CsmaParams::battery_life_extension`] — BE capped at 2, which the
//!   paper rejects for dense networks because of excessive collisions.

use core::fmt;

use wsn_phy::noise::UniformSource;

/// Parameters of the slotted CSMA/CA algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsmaParams {
    /// Initial backoff exponent (`macMinBE`).
    pub min_be: u8,
    /// Maximum backoff exponent (`aMaxBE`).
    pub max_be: u8,
    /// Number of *additional* backoff rounds allowed after the first —
    /// `macMaxCSMABackoffs`; the procedure fails when the busy-round count
    /// exceeds this.
    pub max_backoffs: u8,
    /// Contention window: consecutive clear CCAs required (2 in slotted
    /// mode).
    pub cw: u8,
}

impl CsmaParams {
    /// IEEE 802.15.4-2003 defaults.
    pub fn standard_2003() -> Self {
        CsmaParams {
            min_be: 3,
            max_be: 5,
            max_backoffs: 4,
            cw: 2,
        }
    }

    /// The paper's reading: abort after the backoff exponent has been
    /// incremented twice without finding the channel clear (three rounds:
    /// BE = 3, 4, 5).
    pub fn paper() -> Self {
        CsmaParams {
            min_be: 3,
            max_be: 5,
            max_backoffs: 2,
            cw: 2,
        }
    }

    /// Battery-life-extension mode: backoff exponent confined to 0–2.
    pub fn battery_life_extension() -> Self {
        CsmaParams {
            min_be: 2,
            max_be: 2,
            max_backoffs: 4,
            cw: 2,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when `min_be > max_be`, `max_be > 8` (backoff
    /// windows beyond 2⁸ slots are outside the standard), or `cw == 0`.
    pub fn validate(&self) -> Result<(), InvalidCsmaParams> {
        if self.min_be > self.max_be {
            return Err(InvalidCsmaParams::ExponentOrder {
                min_be: self.min_be,
                max_be: self.max_be,
            });
        }
        if self.max_be > 8 {
            return Err(InvalidCsmaParams::ExponentTooLarge(self.max_be));
        }
        if self.cw == 0 {
            return Err(InvalidCsmaParams::ZeroContentionWindow);
        }
        Ok(())
    }
}

/// Invalid [`CsmaParams`] combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidCsmaParams {
    /// `min_be` exceeds `max_be`.
    ExponentOrder {
        /// Configured minimum exponent.
        min_be: u8,
        /// Configured maximum exponent.
        max_be: u8,
    },
    /// `max_be` beyond the standard's range.
    ExponentTooLarge(u8),
    /// The contention window must be at least 1.
    ZeroContentionWindow,
}

impl fmt::Display for InvalidCsmaParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidCsmaParams::ExponentOrder { min_be, max_be } => {
                write!(f, "min BE {min_be} exceeds max BE {max_be}")
            }
            InvalidCsmaParams::ExponentTooLarge(be) => {
                write!(f, "max BE {be} exceeds 8")
            }
            InvalidCsmaParams::ZeroContentionWindow => {
                write!(f, "contention window must be at least 1")
            }
        }
    }
}

impl std::error::Error for InvalidCsmaParams {}

/// What the CSMA/CA machine wants the scheduler to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsmaAction {
    /// Wait `periods` unit backoff periods (aligned to the backoff grid),
    /// then perform a CCA and report the result via
    /// [`SlottedCsmaCa::on_cca`].
    BackoffThenCca {
        /// Number of 320 µs unit backoff periods to wait.
        periods: u32,
    },
    /// Perform another CCA at the *next* backoff period boundary (the
    /// contention window is still counting down).
    CcaAgain,
    /// Channel assessed clear [`CsmaParams::cw`] times: transmit at the
    /// next backoff period boundary.
    Transmit,
    /// Channel access failure (`macMaxCSMABackoffs` exceeded).
    Failure,
}

/// Execution state of one slotted CSMA/CA procedure.
///
/// # Examples
///
/// Drive a procedure against an always-clear channel:
///
/// ```
/// use wsn_mac::{CsmaAction, CsmaParams, SlottedCsmaCa};
/// use wsn_phy::noise::SplitMix64;
///
/// let mut rng = SplitMix64::new(7);
/// let mut csma = SlottedCsmaCa::start(CsmaParams::paper(), &mut rng);
/// // First action is always an initial random backoff.
/// let CsmaAction::BackoffThenCca { periods } = csma.current_action() else {
///     panic!("unexpected action");
/// };
/// assert!(periods < 8); // BE = 3 ⇒ delay ∈ 0..=7
/// // Two clear CCAs later the machine transmits.
/// assert_eq!(csma.on_cca(false, &mut rng), CsmaAction::CcaAgain);
/// assert_eq!(csma.on_cca(false, &mut rng), CsmaAction::Transmit);
/// assert_eq!(csma.ccas_performed(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SlottedCsmaCa {
    params: CsmaParams,
    nb: u8,
    cw_remaining: u8,
    be: u8,
    ccas: u32,
    action: CsmaAction,
}

impl SlottedCsmaCa {
    /// Begins a procedure: draws the initial random backoff.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    pub fn start<U: UniformSource>(params: CsmaParams, rng: &mut U) -> Self {
        params.validate().expect("invalid CSMA parameters");
        let mut machine = SlottedCsmaCa {
            params,
            nb: 0,
            cw_remaining: params.cw,
            be: params.min_be,
            ccas: 0,
            action: CsmaAction::Failure, // replaced below
        };
        let periods = machine.draw_backoff(rng);
        machine.action = CsmaAction::BackoffThenCca { periods };
        machine
    }

    /// The action the scheduler should currently execute.
    pub fn current_action(&self) -> CsmaAction {
        self.action
    }

    /// Reports a CCA result (`busy = true` if the channel was occupied) and
    /// returns the next action.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine already decided
    /// [`CsmaAction::Transmit`] or [`CsmaAction::Failure`].
    pub fn on_cca<U: UniformSource>(&mut self, busy: bool, rng: &mut U) -> CsmaAction {
        assert!(
            !matches!(self.action, CsmaAction::Transmit | CsmaAction::Failure),
            "CSMA procedure already finished"
        );
        self.ccas += 1;
        self.action = if busy {
            self.cw_remaining = self.params.cw;
            self.nb += 1;
            self.be = (self.be + 1).min(self.params.max_be);
            if self.nb > self.params.max_backoffs {
                CsmaAction::Failure
            } else {
                let periods = self.draw_backoff(rng);
                CsmaAction::BackoffThenCca { periods }
            }
        } else {
            self.cw_remaining -= 1;
            if self.cw_remaining == 0 {
                CsmaAction::Transmit
            } else {
                CsmaAction::CcaAgain
            }
        };
        self.action
    }

    /// Number of CCAs performed so far (the paper's `N_CCA` accumulator).
    pub fn ccas_performed(&self) -> u32 {
        self.ccas
    }

    fn draw_backoff<U: UniformSource>(&mut self, rng: &mut U) -> u32 {
        let window = 1u32 << self.be; // delays in 0..2^BE
        let draw = (rng.next_f64() * window as f64) as u32;
        draw.min(window - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_phy::noise::SplitMix64;

    fn drive_all_busy(params: CsmaParams, seed: u64) -> (u32, u8) {
        let mut rng = SplitMix64::new(seed);
        let mut m = SlottedCsmaCa::start(params, &mut rng);
        loop {
            match m.current_action() {
                CsmaAction::BackoffThenCca { .. } | CsmaAction::CcaAgain => {
                    if m.on_cca(true, &mut rng) == CsmaAction::Failure {
                        return (m.ccas_performed(), m.nb);
                    }
                }
                CsmaAction::Failure => unreachable!("loop exits on failure"),
                CsmaAction::Transmit => panic!("busy channel cannot transmit"),
            }
        }
    }

    #[test]
    fn clear_channel_transmits_after_cw_ccas() {
        let mut rng = SplitMix64::new(1);
        let mut m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
        assert!(matches!(
            m.current_action(),
            CsmaAction::BackoffThenCca { .. }
        ));
        assert_eq!(m.on_cca(false, &mut rng), CsmaAction::CcaAgain);
        assert_eq!(m.on_cca(false, &mut rng), CsmaAction::Transmit);
        assert_eq!(m.ccas_performed(), 2);
        assert_eq!(m.nb, 0);
    }

    #[test]
    fn paper_preset_fails_after_three_busy_rounds() {
        let (ccas, nb) = drive_all_busy(CsmaParams::paper(), 42);
        // Rounds at BE = 3, 4, 5; every first CCA busy ⇒ 3 CCAs total.
        assert_eq!(ccas, 3);
        assert_eq!(nb, 3);
    }

    #[test]
    fn standard_preset_fails_after_five_busy_rounds() {
        let (ccas, nb) = drive_all_busy(CsmaParams::standard_2003(), 42);
        assert_eq!(ccas, 5);
        assert_eq!(nb, 5);
    }

    #[test]
    fn exponent_saturates_at_max_be() {
        let mut rng = SplitMix64::new(3);
        let mut m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
        assert_eq!(m.be, 3);
        m.on_cca(true, &mut rng);
        assert_eq!(m.be, 4);
        m.on_cca(true, &mut rng);
        assert_eq!(m.be, 5);
        m.on_cca(true, &mut rng);
        assert_eq!(m.be, 5, "BE must saturate at aMaxBE");
    }

    #[test]
    fn busy_resets_contention_window() {
        let mut rng = SplitMix64::new(4);
        let mut m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
        // First CCA clear, second busy: CW must reset to 2.
        assert_eq!(m.on_cca(false, &mut rng), CsmaAction::CcaAgain);
        assert!(matches!(
            m.on_cca(true, &mut rng),
            CsmaAction::BackoffThenCca { .. }
        ));
        // Now two clears are again required.
        assert_eq!(m.on_cca(false, &mut rng), CsmaAction::CcaAgain);
        assert_eq!(m.on_cca(false, &mut rng), CsmaAction::Transmit);
    }

    #[test]
    fn backoff_draws_respect_window() {
        // With BE = 3 the delay must be in 0..=7; statistically all values
        // should appear over many trials.
        let mut seen = [false; 8];
        for seed in 0..400 {
            let mut rng = SplitMix64::new(seed);
            let m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
            let CsmaAction::BackoffThenCca { periods } = m.current_action() else {
                panic!("expected initial backoff");
            };
            assert!(periods < 8, "delay {periods} outside 0..=7");
            seen[periods as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all delays drawn: {seen:?}");
        // Under random CCA outcomes every preset's later draws respect the
        // current exponent, and the machine ends within its bounds.
        let mut rng = SplitMix64::new(0xC5A);
        for case in 0..300 {
            let params = [
                CsmaParams::standard_2003(),
                CsmaParams::paper(),
                CsmaParams::battery_life_extension(),
            ][case % 3];
            let rounds = u32::from(params.max_backoffs) + 1;
            let max_ccas = rounds * u32::from(params.cw);
            let mut m = SlottedCsmaCa::start(params, &mut rng);
            let mut action = m.current_action();
            while !matches!(action, CsmaAction::Transmit | CsmaAction::Failure) {
                if let CsmaAction::BackoffThenCca { periods } = action {
                    assert!(periods < 1 << m.be, "case {case}");
                }
                action = m.on_cca(rng.next_f64() < 0.5, &mut rng);
                let be = m.be;
                assert!((params.min_be..=params.max_be).contains(&be), "case {case}");
                assert!(u32::from(m.nb) <= rounds, "case {case}");
                assert!(m.ccas_performed() <= max_ccas, "case {case}");
            }
        }
    }

    #[test]
    fn ble_mode_uses_tiny_windows() {
        for seed in 0..100 {
            let mut rng = SplitMix64::new(seed);
            let m = SlottedCsmaCa::start(CsmaParams::battery_life_extension(), &mut rng);
            let CsmaAction::BackoffThenCca { periods } = m.current_action() else {
                panic!("expected initial backoff");
            };
            assert!(periods < 4, "BLE delay {periods} outside 0..=3");
        }
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn cca_after_transmit_panics() {
        let mut rng = SplitMix64::new(5);
        let mut m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
        m.on_cca(false, &mut rng);
        m.on_cca(false, &mut rng);
        m.on_cca(false, &mut rng); // already Transmit
    }

    #[test]
    fn params_validation() {
        assert!(CsmaParams::standard_2003().validate().is_ok());
        assert!(CsmaParams::paper().validate().is_ok());
        assert!(CsmaParams::battery_life_extension().validate().is_ok());

        let bad = CsmaParams {
            min_be: 6,
            max_be: 5,
            max_backoffs: 4,
            cw: 2,
        };
        assert_eq!(
            bad.validate(),
            Err(InvalidCsmaParams::ExponentOrder {
                min_be: 6,
                max_be: 5
            })
        );
        let bad = CsmaParams {
            min_be: 3,
            max_be: 9,
            max_backoffs: 4,
            cw: 2,
        };
        assert_eq!(bad.validate(), Err(InvalidCsmaParams::ExponentTooLarge(9)));
        let bad = CsmaParams {
            min_be: 3,
            max_be: 5,
            max_backoffs: 4,
            cw: 0,
        };
        assert_eq!(bad.validate(), Err(InvalidCsmaParams::ZeroContentionWindow));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut m = SlottedCsmaCa::start(CsmaParams::standard_2003(), &mut rng);
            let mut trace = vec![format!("{:?}", m.current_action())];
            for busy in [true, false, false] {
                trace.push(format!("{:?}", m.on_cca(busy, &mut rng)));
            }
            trace
        };
        assert_eq!(run(123), run(123));
    }
}
