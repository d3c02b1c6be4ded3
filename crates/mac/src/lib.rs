//! IEEE 802.15.4-2003 medium access control layer.
//!
//! Implements the MAC substrate of the paper's uplink exercise:
//!
//! * [`timing`] — symbol-denominated MAC constants (unit backoff period,
//!   acknowledgement windows `t_ack⁻ = 192 µs` / `t_ack⁺ = 864 µs`, CCA
//!   detection time, interframe spacings);
//! * [`superframe`] — beacon order arithmetic (`T_ib = 15.36 ms × 2^BO`,
//!   paper eq. 12);
//! * [`csma`] — the slotted CSMA/CA algorithm as a pure, step-driven state
//!   machine with the standard's parameters, the paper's stricter
//!   abort-after-two-BE-increments variant, and the battery-life-extension
//!   mode the paper declines to use;
//! * [`ack`] — acknowledgement timing and the `N_max = 5` retry policy;
//! * [`gts`] — guaranteed time slot bookkeeping (and why it cannot serve
//!   hundreds of nodes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ack;
pub mod csma;
pub mod gts;
pub mod superframe;
pub mod timing;

pub use ack::{AckTiming, RetryPolicy};
pub use csma::{CsmaAction, CsmaParams, SlottedCsmaCa};
pub use superframe::BeaconOrder;
