//! IEEE 802.15.4 (2003) physical layer for the 2 450 MHz band.
//!
//! This crate implements the PHY substrate the DATE 2005 paper builds on:
//!
//! * [`consts`] — the timing and rate constants of the 2.45 GHz O-QPSK PHY
//!   (2 Mchip/s, 16 µs symbol, 32 µs byte, 250 kb/s, 16 channels);
//! * [`spreading`] — the 16 standard 32-chip pseudo-noise sequences, the
//!   4-bit-symbol↔chip mapping, and a hard-decision correlation receiver;
//! * [`frame`] — the paper's [`frame::PacketLayout`] overhead arithmetic
//!   (`L_o = 13`, `T_packet = (L_o + L)·T_B`) and the ACK and beacon
//!   airtimes;
//! * [`ber`] — bit-error-rate models: the paper's empirical CC2420
//!   regression (eq. 1), an analytic hard-decision despreading model, and
//!   the O-QPSK DSSS formula from the 802.15.4 standard;
//! * [`baseband`] — a chip-level Monte-Carlo AWGN simulator that plays the
//!   role of the paper's wired attenuator testbench (regenerates Figure 4);
//! * [`regression`] — the exponential regression the paper applies to its
//!   measurements to obtain eq. (1).
//!
//! # Example
//!
//! Evaluate the paper's empirical bit-error model at the receiver power that
//! corresponds to a 0 dBm transmission over an 88 dB path:
//!
//! ```
//! use wsn_phy::ber::{BerModel, EmpiricalCc2420Ber};
//! use wsn_units::{DBm, Db};
//!
//! let ber = EmpiricalCc2420Ber::paper();
//! let p_rx = DBm::new(0.0) - Db::new(88.0);
//! let pr_bit = ber.bit_error_probability(p_rx);
//! assert!(pr_bit.value() > 1e-6 && pr_bit.value() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseband;
pub mod ber;
pub mod consts;
pub mod frame;
pub mod noise;
pub mod regression;
pub mod spreading;
