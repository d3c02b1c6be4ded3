//! Beacon order of the beacon-enabled mode.
//!
//! The inter-beacon period is `T_ib = aBaseSuperframeDuration × 2^BO` (the
//! paper's eq. 12). The paper keeps the whole superframe active
//! (`SO = BO`), so the superframe order is not modelled; the guaranteed time
//! slots at the superframe tail are [`crate::gts`]'s.

use core::fmt;

use wsn_units::Seconds;

use crate::timing::base_superframe_duration;

/// Error for an out-of-range beacon order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperframeError {
    /// Beacon order outside `0..=14`.
    BeaconOrderRange(u8),
}

impl fmt::Display for SuperframeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperframeError::BeaconOrderRange(v) => {
                write!(f, "beacon order {v} outside 0..=14")
            }
        }
    }
}

impl std::error::Error for SuperframeError {}

/// Beacon order `BO ∈ 0..=14`: the inter-beacon period is
/// `15.36 ms × 2^BO`.
///
/// # Examples
///
/// ```
/// use wsn_mac::BeaconOrder;
///
/// // The paper's case study: BO = 6 ⇒ 983.04 ms between beacons.
/// let bo = BeaconOrder::new(6)?;
/// assert!((bo.beacon_interval().millis() - 983.04).abs() < 1e-9);
/// # Ok::<(), wsn_mac::superframe::SuperframeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeaconOrder(u8);

impl BeaconOrder {
    /// Creates a beacon order.
    ///
    /// # Errors
    ///
    /// Returns [`SuperframeError::BeaconOrderRange`] for values above 14
    /// (15 disables beaconing and is not valid in beacon mode).
    pub fn new(bo: u8) -> Result<Self, SuperframeError> {
        if bo <= 14 {
            Ok(BeaconOrder(bo))
        } else {
            Err(SuperframeError::BeaconOrderRange(bo))
        }
    }

    /// The raw order.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Inter-beacon period `T_ib = 15.36 ms × 2^BO` (paper eq. 12).
    pub fn beacon_interval(self) -> Seconds {
        base_superframe_duration() * (1u64 << self.0) as f64
    }

    /// The smallest beacon order whose interval is at least `t`, if any —
    /// how a network planner picks `BO` from a traffic requirement.
    pub fn smallest_covering(t: Seconds) -> Option<BeaconOrder> {
        (0..=14u8)
            .map(BeaconOrder)
            .find(|bo| bo.beacon_interval() >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_interval_doubles_per_order() {
        let mut prev = BeaconOrder::new(0).unwrap().beacon_interval();
        assert!((prev.millis() - 15.36).abs() < 1e-9);
        for bo in 1..=14u8 {
            let t = BeaconOrder::new(bo).unwrap().beacon_interval();
            assert!((t.secs() / prev.secs() - 2.0).abs() < 1e-12);
            prev = t;
        }
    }

    #[test]
    fn paper_case_study_bo6() {
        let bo = BeaconOrder::new(6).unwrap();
        assert!((bo.beacon_interval().millis() - 983.04).abs() < 1e-9);
    }

    #[test]
    fn orders_out_of_range_rejected() {
        assert!(BeaconOrder::new(15).is_err());
        assert!(BeaconOrder::new(14).is_ok());
    }

    #[test]
    fn smallest_covering_finds_bo() {
        // 960 ms data cadence needs BO 6 (983.04 ms).
        let bo = BeaconOrder::smallest_covering(Seconds::from_millis(960.0)).unwrap();
        assert_eq!(bo.value(), 6);
        // An absurdly long interval is uncoverable.
        assert!(BeaconOrder::smallest_covering(Seconds::from_secs(1000.0)).is_none());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SuperframeError::BeaconOrderRange(15).to_string(),
            "beacon order 15 outside 0..=14"
        );
    }
}
