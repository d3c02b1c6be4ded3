//! CC2420-class transceiver model.
//!
//! The paper's entire energy analysis rests on the characterization of one
//! radio (its Figure 3): four steady states, eight transmit power steps, and
//! the time/energy cost of switching between states. This crate captures
//! that characterization as data ([`RadioModel`], with the published
//! measurements as the [`RadioModel::cc2420`] preset), and accounts every
//! microjoule in an [`ledger::EnergyLedger`] tagged by radio state and by
//! protocol phase — the raw material of the paper's Figure 9 breakdowns.
//!
//! Improvement perspectives from the paper's §5 are expressed as model
//! variants: [`RadioModelBuilder::transition_scale`] (faster state switches)
//! and [`RadioModelBuilder::rx_listen_power`] (a scalable receiver with a
//! low-power listen mode for CCA and acknowledgement waiting).
//!
//! # Example
//!
//! ```
//! use wsn_radio::{RadioModel, RadioState};
//!
//! let radio = RadioModel::cc2420();
//! let rx = radio.state_power(RadioState::Rx);
//! assert!((rx.microwatts() - 35_280.0).abs() < 1e-6);
//!
//! let t = radio.transition(RadioState::Shutdown, RadioState::Idle).unwrap();
//! assert!((t.time.micros() - 970.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
mod model;
pub mod state;

pub use ledger::{EnergyLedger, PhaseTag};
pub use model::{RadioModel, RadioModelBuilder, Transition};
pub use state::{RadioState, StateKind, TxPowerLevel};
