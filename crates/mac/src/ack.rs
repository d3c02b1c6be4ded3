//! Acknowledgement timing and the retry policy.
//!
//! After an uplink packet the transmitter idles through `t_ack⁻ = 192 µs`,
//! then listens until either the acknowledgement arrives or `t_ack⁺ =
//! 864 µs` elapses. A missing or corrupted acknowledgement triggers a
//! retransmission through a fresh CSMA/CA procedure, up to `N_max` total
//! attempts (5 in the paper).

use core::fmt;

use wsn_units::Seconds;

use crate::timing::{ack_wait_max, ack_wait_min};
use wsn_phy::frame::ack_duration;

/// The acknowledgement window timing of the transmission procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckTiming {
    /// Idle gap before the ACK can start (`t_ack⁻`).
    pub wait_min: Seconds,
    /// Total wait before declaring the transmission unacknowledged
    /// (`t_ack⁺`).
    pub wait_max: Seconds,
    /// On-air duration of the acknowledgement frame itself.
    pub ack_duration: Seconds,
}

impl AckTiming {
    /// Standard 2 450 MHz values: 192 µs / 864 µs / 352 µs.
    pub fn standard() -> Self {
        AckTiming {
            wait_min: ack_wait_min(),
            wait_max: ack_wait_max(),
            ack_duration: ack_duration(),
        }
    }

    /// Receiver-on listening window for an attempt that gets *no*
    /// acknowledgement: from the end of `t_ack⁻` to `t_ack⁺`.
    pub fn listen_window_unacked(&self) -> Seconds {
        self.wait_max - self.wait_min
    }

    /// Receiver-on time for an attempt whose acknowledgement arrives at the
    /// earliest opportunity: the ACK frame duration.
    pub fn listen_window_acked(&self) -> Seconds {
        self.ack_duration
    }
}

impl Default for AckTiming {
    fn default() -> Self {
        AckTiming::standard()
    }
}

/// Retransmission policy: at most `n_max` transmissions of the same packet
/// (the paper fixes `N_max = 5`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    n_max: u32,
}

impl RetryPolicy {
    /// Creates a policy allowing up to `n_max` transmissions.
    ///
    /// # Panics
    ///
    /// Panics if `n_max == 0` (at least one attempt is required).
    pub fn new(n_max: u32) -> Self {
        assert!(n_max > 0, "at least one transmission attempt is required");
        RetryPolicy { n_max }
    }

    /// The paper's investigation limit, `N_max = 5`.
    pub fn paper() -> Self {
        RetryPolicy::new(5)
    }

    /// Maximum number of transmissions.
    pub fn n_max(&self) -> u32 {
        self.n_max
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper()
    }
}

/// Outcome of a full transmission transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransactionOutcome {
    /// Acknowledged on attempt `attempts` (1-based).
    Delivered {
        /// Number of transmissions used.
        attempts: u32,
    },
    /// All `N_max` transmissions went unacknowledged.
    RetriesExhausted,
    /// A CSMA/CA procedure reported channel access failure.
    ChannelAccessFailure,
}

impl TransactionOutcome {
    /// `true` if the packet reached the coordinator.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TransactionOutcome::Delivered { .. })
    }
}

impl fmt::Display for TransactionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionOutcome::Delivered { attempts } => {
                write!(f, "delivered after {attempts} attempt(s)")
            }
            TransactionOutcome::RetriesExhausted => write!(f, "retries exhausted"),
            TransactionOutcome::ChannelAccessFailure => write!(f, "channel access failure"),
        }
    }
}

/// Per-packet retry bookkeeping.
///
/// # Examples
///
/// ```
/// use wsn_mac::{RetryPolicy, RetryState, TransactionOutcome};
///
/// let mut retry = RetryState::new(RetryPolicy::paper());
/// assert_eq!(retry.begin_attempt(), 1);
/// // No ACK: may we try again?
/// assert!(retry.on_unacked());
/// assert_eq!(retry.begin_attempt(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryState {
    policy: RetryPolicy,
    attempts: u32,
}

impl RetryState {
    /// Starts bookkeeping for one packet.
    pub fn new(policy: RetryPolicy) -> Self {
        RetryState {
            policy,
            attempts: 0,
        }
    }

    /// Registers the start of a transmission attempt, returning its 1-based
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if the policy's budget is already exhausted — callers must
    /// consult [`on_unacked`](Self::on_unacked) first.
    pub fn begin_attempt(&mut self) -> u32 {
        assert!(
            self.attempts < self.policy.n_max(),
            "retry budget exhausted"
        );
        self.attempts += 1;
        self.attempts
    }

    /// Called when an attempt goes unacknowledged; returns `true` if
    /// another attempt is permitted.
    pub fn on_unacked(&self) -> bool {
        self.attempts < self.policy.n_max()
    }

    /// Number of attempts begun so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Terminal outcome when the attempt was acknowledged.
    pub fn delivered(&self) -> TransactionOutcome {
        TransactionOutcome::Delivered {
            attempts: self.attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_windows_match_paper() {
        let t = AckTiming::standard();
        assert!((t.wait_min.micros() - 192.0).abs() < 1e-9);
        assert!((t.wait_max.micros() - 864.0).abs() < 1e-9);
        assert!((t.ack_duration.micros() - 352.0).abs() < 1e-9);
        assert!((t.listen_window_unacked().micros() - 672.0).abs() < 1e-9);
        assert!((t.listen_window_acked().micros() - 352.0).abs() < 1e-9);
    }

    #[test]
    fn retry_budget_is_five() {
        let mut r = RetryState::new(RetryPolicy::paper());
        for i in 1..=5 {
            assert_eq!(r.begin_attempt(), i);
        }
        assert!(!r.on_unacked(), "sixth attempt must be denied");
    }

    #[test]
    #[should_panic(expected = "retry budget exhausted")]
    fn sixth_attempt_panics() {
        let mut r = RetryState::new(RetryPolicy::paper());
        for _ in 0..5 {
            r.begin_attempt();
        }
        r.begin_attempt();
    }

    #[test]
    fn outcome_predicates() {
        assert!(TransactionOutcome::Delivered { attempts: 2 }.is_delivered());
        assert!(!TransactionOutcome::RetriesExhausted.is_delivered());
        assert!(!TransactionOutcome::ChannelAccessFailure.is_delivered());
    }

    #[test]
    fn delivered_reports_attempts() {
        let mut r = RetryState::new(RetryPolicy::paper());
        r.begin_attempt();
        r.begin_attempt();
        assert_eq!(r.delivered(), TransactionOutcome::Delivered { attempts: 2 });
    }

    #[test]
    #[should_panic(expected = "at least one transmission")]
    fn zero_nmax_rejected() {
        let _ = RetryPolicy::new(0);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(
            TransactionOutcome::Delivered { attempts: 3 }.to_string(),
            "delivered after 3 attempt(s)"
        );
        assert_eq!(
            TransactionOutcome::ChannelAccessFailure.to_string(),
            "channel access failure"
        );
    }
}
