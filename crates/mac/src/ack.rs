//! Acknowledgement timing and the retry policy.
//!
//! After an uplink packet the transmitter idles through `t_ack⁻ = 192 µs`,
//! then listens until either the acknowledgement arrives or `t_ack⁺ =
//! 864 µs` elapses. A missing or corrupted acknowledgement triggers a
//! retransmission through a fresh CSMA/CA procedure, up to `N_max` total
//! attempts (5 in the paper).

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
        assert_eq!(RetryPolicy::paper().n_max(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one transmission")]
    fn zero_nmax_rejected() {
        let _ = RetryPolicy::new(0);
    }
}
