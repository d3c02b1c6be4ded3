//! Wireless channel models for dense microsensor networks.
//!
//! The paper's propagation assumptions are deliberately simple — and this
//! crate reproduces exactly them:
//!
//! * a **static path loss** per node (slow fading: the channel is coherent
//!   over a packet, so the link is AWGN at a fixed received power);
//! * received power `P_Rx = P_Tx − A` (paper eq. 2), captured by
//!   [`link::received_power`];
//! * for the §5 case study, path losses **uniformly distributed between 55
//!   and 95 dB** across the node population
//!   ([`pathloss::UniformPathLossPopulation`]);
//! * distance-based alternatives ([`pathloss::LogDistance`], including a
//!   2.45 GHz free-space preset) and a uniform-disc node
//!   [`deployment`](deployment::Deployment) for examples that want a
//!   geometric story instead of an abstract loss distribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod link;
pub mod pathloss;
pub mod shadowing;

pub use deployment::{
    assignment_partition, block_partition, round_robin_partition, Deployment, Position,
};
pub use link::received_power;
pub use pathloss::{FixedPathLoss, LogDistance, PathLossModel, UniformPathLossPopulation};
pub use shadowing::{shadowed_population, LogNormalShadowing};
