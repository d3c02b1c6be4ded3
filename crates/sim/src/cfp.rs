//! Contention-free period (CFP) traffic: guaranteed time slots and
//! indirect (downlink) polling in the discrete-event simulator.
//!
//! The contention engine historically modeled the uplink CAP only. This
//! module adds the two contention-free regimes the paper's "improvement
//! perspectives" hinge on:
//!
//! * **GTS uplink** — a coordinator dedicates up to seven tail slots of
//!   the superframe to individual devices
//!   ([`wsn_mac::gts::GtsRegistry`] enforces the hard descriptor limit
//!   and the minimum CAP). A GTS holder's packet bypasses slotted CSMA/CA
//!   entirely: no backoff, no CCAs, no collision exposure — it transmits
//!   in its dedicated slot every superframe and retries there (carrying
//!   the packet) when channel noise corrupts it.
//! * **Downlink polling** — the coordinator cannot push data to sleeping
//!   nodes; a node that finds its address pending contends in the CAP
//!   with a **data request** MAC command, then keeps its receiver on for
//!   the downlink frame and acknowledges it (the indirect transmission of
//!   the standard's Figure 1b). The data request contends like any uplink
//!   packet, so downlink traffic *shifts the CAP contention* the
//!   analytical model predicts — exactly the joint PHY/MAC coupling the
//!   related work motivates.
//!
//! A [`CfpPlan`] is the engine-facing résumé of a channel's
//! contention-free configuration: how many (leading) nodes hold a GTS,
//! where the CFP starts, and the per-superframe downlink rate. The
//! scenario layer resolves traffic demand into a plan through the real
//! [`GtsRegistry`] ([`plan_channel_cfp`]), so the seven-descriptor limit
//! and the minimum-CAP rule bite exactly as in the standard — overflow
//! falls back to CAP and is surfaced as a typed
//! [`gts_denied`](CfpPlan::gts_denied) count.
//!
//! ## Inertness contract
//!
//! An [inert](CfpPlan::is_inert) plan (no GTS nodes, zero downlink rate)
//! leaves the engine's event stream, RNG consumption and energy accrual
//! **bit-identical** to the CAP-only engine: every CFP branch is gated on
//! the plan, no CFP event is ever scheduled and no CFP random draw is
//! ever made. The scenario/runner determinism suites pin this.
//!
//! ## Modeling choices (documented divergences)
//!
//! * The CFP is interference-free: GTS transmissions neither observe nor
//!   extend the CAP's channel-busy horizon (the standard guarantees CSMA
//!   transactions complete before the CFP; the engine does not model the
//!   CAP-end boundary, so the two regimes are kept orthogonal instead).
//! * A GTS holder retries a corrupted packet in its own slot the next
//!   superframe, without a retry cap — persistence is free of contention
//!   cost, so `N_max` (which bounds *contention* exposure) does not apply.
//! * A data request gets one CSMA procedure per poll; a collided or
//!   access-failed request leaves the frame pending (counted, not
//!   retried within the superframe). A poll arriving while the node is
//!   busy with its uplink transaction is **deferred**.
//! * The packet/ACK corruption oracle decides downlink-frame corruption
//!   too (same link, opposite direction — the uplink corruption
//!   probability stands in for the downlink frame's).

use wsn_mac::gts::GtsRegistry;

/// MPDU + SHR/PHR bytes of the data-request MAC command with short
/// addressing: a 10-byte MPDU after the 6-byte SHR/PHR.
pub const DATA_REQUEST_AIR_BYTES: usize = 6 + 10;

/// Engine-facing contention-free configuration of one channel: which
/// nodes transmit in the CFP and how often the coordinator polls.
///
/// Produced by [`plan_channel_cfp`] (through the real [`GtsRegistry`]) or
/// [`CfpPlan::inert`] for CAP-only channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfpPlan {
    /// Number of GTS-holding nodes. The engine assigns the allocations to
    /// the **leading** node indices: node `k < gts_nodes` owns descriptor
    /// `k`, whose slots start at MAC slot `16 − (k+1)·slots_per_gts`
    /// (allocations grow the CFP downward from slot 16, as in the
    /// standard).
    pub gts_nodes: u32,
    /// MAC superframe slots per GTS allocation.
    pub slots_per_gts: u8,
    /// First MAC slot of the contention-free period (16 when empty).
    pub cfp_start_slot: u8,
    /// Fraction of superframes in which the coordinator holds one pending
    /// downlink frame per node (each node polls independently).
    pub downlink_rate: f64,
    /// GTS requests the registry denied (descriptor table exhausted or
    /// the CAP would shrink below its minimum) — these nodes fall back to
    /// CAP contention. The typed overflow signal the scenario layer
    /// surfaces.
    pub gts_denied: u32,
}

impl CfpPlan {
    /// The CAP-only plan: no GTS, no downlink. Provably inert in the
    /// engine (see the module docs).
    pub fn inert() -> Self {
        CfpPlan {
            gts_nodes: 0,
            slots_per_gts: 1,
            cfp_start_slot: 16,
            downlink_rate: 0.0,
            gts_denied: 0,
        }
    }

    /// `true` when the plan schedules no contention-free traffic at all —
    /// the engine's fast predicate for skipping every CFP branch.
    pub fn is_inert(&self) -> bool {
        self.gts_nodes == 0 && self.downlink_rate == 0.0
    }

    /// `true` when any node transmits in the CFP.
    pub fn has_gts(&self) -> bool {
        self.gts_nodes > 0
    }

    /// First MAC slot of GTS holder `k`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an allocated holder.
    pub fn gts_start_slot(&self, k: u32) -> u8 {
        assert!(k < self.gts_nodes, "node {k} holds no GTS");
        16 - (k as u8 + 1) * self.slots_per_gts
    }
}

impl Default for CfpPlan {
    fn default() -> Self {
        CfpPlan::inert()
    }
}

/// Resolves one channel's contention-free demand into a [`CfpPlan`]
/// through a real [`GtsRegistry`]: the leading `gts_demand` nodes request
/// `slots_per_gts` slots each, in node order, until the descriptor table
/// (seven entries) or the minimum CAP (`min_cap_slots`) stops the
/// coordinator; every refusal is counted as denied and the node falls
/// back to CAP contention.
///
/// # Panics
///
/// Panics if `downlink_rate` is outside `[0, 1]`, `min_cap_slots > 15`,
/// or a nonzero GTS demand requests a slot length outside `1..=15`.
pub fn plan_channel_cfp(
    nodes: u32,
    gts_demand: u32,
    slots_per_gts: u8,
    min_cap_slots: u8,
    downlink_rate: f64,
) -> CfpPlan {
    assert!(
        (0.0..=1.0).contains(&downlink_rate),
        "downlink rate must be a fraction of superframes, got {downlink_rate}"
    );
    let demand = gts_demand.min(nodes);
    if demand == 0 {
        let mut plan = CfpPlan::inert();
        plan.downlink_rate = downlink_rate;
        return plan;
    }
    assert!(
        (1..=15).contains(&slots_per_gts),
        "a GTS allocation must span 1..=15 slots, got {slots_per_gts}"
    );
    let mut registry = GtsRegistry::new(min_cap_slots);
    let mut granted = 0u32;
    let mut denied = 0u32;
    for device in 0..demand {
        match registry.allocate(device as u16, slots_per_gts) {
            Ok(_) => granted += 1,
            Err(_) => denied += 1,
        }
    }
    CfpPlan {
        gts_nodes: granted,
        slots_per_gts,
        cfp_start_slot: registry.cfp_start_slot(),
        downlink_rate,
        gts_denied: denied,
    }
}

/// One GTS transmission's outcome (the CFP analogue of an uplink
/// transaction: one per holder per recorded superframe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtsRecord {
    /// Node index (a GTS holder).
    pub node: u32,
    /// `true` if the packet survived channel noise (GTS never collides).
    pub delivered: bool,
    /// Superframes this packet had already waited (0 = fresh packet).
    pub superframes_waited: u32,
}

/// How a downlink poll concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownlinkOutcome {
    /// Data request delivered and the downlink frame received intact.
    Delivered,
    /// Data request delivered but the downlink frame was corrupted.
    Corrupted,
    /// The data request collided in the CAP.
    Collided,
    /// CSMA/CA reported channel access failure for the data request.
    AccessFailure,
    /// The node was busy with its uplink transaction when polled; the
    /// frame stays pending at the coordinator.
    Deferred,
}

/// One downlink poll's measurements (one per pending frame per
/// superframe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownlinkRecord {
    /// Node index.
    pub node: u32,
    /// Data-request contention duration in backoff slots (0 when
    /// deferred).
    pub contention_slots: u64,
    /// CCAs performed for the data request (0 when deferred).
    pub ccas: u32,
    /// Outcome.
    pub outcome: DownlinkOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_mac::gts::MAX_GTS_DESCRIPTORS;

    #[test]
    fn inert_plan_is_inert() {
        let plan = CfpPlan::inert();
        assert!(plan.is_inert());
        assert!(!plan.has_gts());
        assert_eq!(plan.cfp_start_slot, 16);
        assert_eq!(plan, CfpPlan::default());
    }

    #[test]
    fn downlink_only_plan_is_not_inert() {
        let plan = plan_channel_cfp(10, 0, 1, 8, 0.5);
        assert!(!plan.is_inert());
        assert!(!plan.has_gts());
        assert_eq!(plan.downlink_rate, 0.5);
        assert_eq!(plan.gts_denied, 0);
    }

    #[test]
    fn registry_limits_grants_to_seven() {
        // 100 nodes all want a slot: 7 granted, 93 denied — the paper's
        // "7 ≪ several hundred" argument, now a typed count.
        let plan = plan_channel_cfp(100, 100, 1, 8, 0.0);
        assert_eq!(plan.gts_nodes, MAX_GTS_DESCRIPTORS as u32);
        assert_eq!(plan.gts_denied, 93);
        assert_eq!(plan.cfp_start_slot, 9);
        assert!(plan.has_gts() && !plan.is_inert());
    }

    #[test]
    fn min_cap_limits_grants_before_the_descriptor_table() {
        // 12 CAP slots minimum → only 4 single-slot GTS fit (slots 12–15).
        let plan = plan_channel_cfp(10, 10, 1, 12, 0.0);
        assert_eq!(plan.gts_nodes, 4);
        assert_eq!(plan.gts_denied, 6);
        assert_eq!(plan.cfp_start_slot, 12);
    }

    #[test]
    fn multi_slot_allocations_start_where_the_registry_says() {
        let plan = plan_channel_cfp(8, 3, 2, 8, 0.0);
        assert_eq!(plan.gts_nodes, 3);
        assert_eq!(plan.cfp_start_slot, 10);
        assert_eq!(plan.gts_start_slot(0), 14);
        assert_eq!(plan.gts_start_slot(1), 12);
        assert_eq!(plan.gts_start_slot(2), 10);
    }

    #[test]
    fn demand_is_capped_at_the_node_count() {
        let plan = plan_channel_cfp(3, 100, 1, 8, 0.0);
        assert_eq!(plan.gts_nodes, 3);
        assert_eq!(plan.gts_denied, 0);
    }

    #[test]
    #[should_panic(expected = "fraction of superframes")]
    fn silly_downlink_rate_rejected() {
        let _ = plan_channel_cfp(10, 0, 1, 8, 1.5);
    }

    #[test]
    #[should_panic(expected = "1..=15 slots")]
    fn oversized_slot_length_rejected() {
        let _ = plan_channel_cfp(10, 5, 16, 8, 0.0);
    }

    #[test]
    #[should_panic(expected = "1..=15 slots")]
    fn zero_slot_length_with_demand_rejected() {
        let _ = plan_channel_cfp(10, 5, 0, 8, 0.0);
    }

    #[test]
    #[should_panic(expected = "holds no GTS")]
    fn gts_slot_of_non_holder_rejected() {
        CfpPlan::inert().gts_start_slot(0);
    }
}
