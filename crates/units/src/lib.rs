//! Type-safe physical quantities for wireless-sensor-network energy modeling.
//!
//! This crate provides the small set of scalar quantities that the rest of
//! the workspace is built on: [`Power`], [`Energy`], [`Seconds`], the
//! logarithmic pair [`DBm`]/[`Db`], electrical quantities [`Current`] and
//! [`Voltage`], and the auxiliary [`Probability`] and [`Meters`].
//!
//! Every type is a thin `f64` newtype ([C-NEWTYPE]) with the SI base unit as
//! the internal representation, explicit named constructors and accessors for
//! the scaled units that appear in the paper (µW, µJ, µs, dBm, …), and only
//! the arithmetic that is dimensionally meaningful:
//!
//! * `Power × Seconds = Energy`, `Energy / Seconds = Power`,
//!   `Energy / Power = Seconds`
//! * `Current × Voltage = Power`
//! * `DBm − Db = DBm`, `DBm − DBm = Db`, `DBm ↔ Power`
//!
//! # Examples
//!
//! Reproduce the CC2420 receive-state power from its data-sheet current:
//!
//! ```
//! use wsn_units::{Current, Voltage, Power, Seconds};
//!
//! let p_rx = Current::from_milliamps(19.6) * Voltage::from_volts(1.8);
//! assert!((p_rx.milliwatts() - 35.28).abs() < 1e-9);
//!
//! // Energy of a 194 µs idle→RX turnaround spent at RX power:
//! let e = p_rx * Seconds::from_micros(194.0);
//! assert!((e.microjoules() - 6.84432).abs() < 1e-6);
//! ```
//!
//! Link-budget arithmetic stays in the logarithmic domain:
//!
//! ```
//! use wsn_units::{DBm, Db};
//!
//! let received = DBm::new(0.0) - Db::new(88.0);
//! assert_eq!(received, DBm::new(-88.0));
//! assert!((received.to_power().watts() - 1.5848931924611143e-12).abs() < 1e-24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decibel;
mod electrical;
mod energy;
mod power;
mod probability;
mod spatial;
mod time;

pub use decibel::{DBm, Db};
pub use electrical::{Current, Voltage};
pub use energy::Energy;
pub use power::Power;
pub use probability::{Probability, ProbabilityError};
pub use spatial::Meters;
pub use time::Seconds;
