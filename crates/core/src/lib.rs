//! The paper's contribution: an analytical energy/reliability model of an
//! IEEE 802.15.4 node in a dense, beacon-enabled microsensor network, and
//! the optimization studies built on it.
//!
//! * [`contention`] — the [`ContentionModel`]
//!   abstraction feeding `T̄_cont`, `N̄_CCA`, `Pr_col`, `Pr_cf` into the
//!   equations: Monte-Carlo backed, closed-form analytic, or ideal;
//! * [`activation`] — the radio activation policy model, equations (3)–(14)
//!   of the paper: expected idle/TX/RX residencies, average power,
//!   transmission failure probability, delay and energy per bit, plus the
//!   per-phase/per-state breakdowns of Figure 9;
//! * [`link_adaptation`] — channel-inversion transmit power control with
//!   energy-optimal switching thresholds (Figure 7);
//! * [`packet_sizing`] — energy per bit versus payload size (Figure 8);
//! * [`case_study`] — the §5 scenario: 1600 nodes / 16 channels, 1 byte
//!   per 8 ms per node, 120-byte buffered packets, BO = 6 (the 211 µW /
//!   1.45 s / 16 % headline and Figure 9);
//! * [`improvements`] — the improvement perspectives: faster state
//!   transitions and a scalable receiver (−12 % and −15 % in the paper).
//!
//! # Quickstart
//!
//! ```
//! use wsn_core::activation::{ActivationModel, ModelInputs};
//! use wsn_core::contention::{ContentionModel, IdealContention};
//! use wsn_mac::BeaconOrder;
//! use wsn_phy::ber::EmpiricalCc2420Ber;
//! use wsn_phy::frame::PacketLayout;
//! use wsn_radio::{RadioModel, TxPowerLevel};
//! use wsn_units::Db;
//!
//! let model = ActivationModel::paper_defaults(RadioModel::cc2420());
//! let packet = PacketLayout::with_payload(120)?;
//! let stats = IdealContention.stats(0.42, packet);
//! let out = model.evaluate(&ModelInputs {
//!     packet,
//!     beacon_order: BeaconOrder::new(6)?,
//!     tx_level: TxPowerLevel::Zero,
//!     path_loss: Db::new(75.0),
//!     contention: stats,
//! }, &EmpiricalCc2420Ber::paper());
//! assert!(out.average_power.microwatts() < 300.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod case_study;
pub mod contention;
pub mod improvements;
pub mod link_adaptation;
pub mod packet_sizing;

pub use activation::{ActivationModel, ModelInputs, ModelOutput};
pub use case_study::{CaseStudy, CaseStudyReport};
pub use contention::{AnalyticContention, ContentionModel, IdealContention, MonteCarloContention};
pub use link_adaptation::{LinkAdaptation, LinkAdaptationPolicy};
