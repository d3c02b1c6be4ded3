//! Slot-grid Monte-Carlo simulation of the slotted CSMA/CA contention
//! procedure on a single 802.15.4 channel.
//!
//! This is the reproduction of the paper's (unreleased) contention
//! simulator: `N` nodes share one channel; each node offers one packet per
//! superframe; channel accesses follow slotted CSMA/CA on the 320 µs unit
//! backoff grid; collisions occur when two transmissions start in the same
//! backoff slot; acknowledged transmissions additionally occupy the channel
//! for the ACK turnaround. The output is the per-procedure statistics the
//! analytical model consumes ([`ContentionStats`], the paper's Figure 6).
//!
//! ## Modeling choices (documented divergences)
//!
//! * **Arrival pattern.** Nodes become ready at a fixed per-node offset
//!   uniformly distributed over the superframe (their 120-byte buffers fill
//!   at staggered phases), not synchronized at the beacon. Synchronizing
//!   all 100 nodes at the beacon would produce failure rates far above the
//!   paper's reported 16 % — the uniform reading is the only one consistent
//!   with the published case-study numbers. A `synchronized_arrivals`
//!   switch exposes the literal reading for ablation.
//! * **Sensing rule.** A CCA at backoff boundary `t` reports busy iff some
//!   transmission is on the air at `t`. Transmissions starting exactly at
//!   `t` are *not* detectable (the energy rises while the CCA samples), so
//!   two nodes whose contention windows expire in the same slot collide —
//!   the standard slotted-CSMA collision mechanism.
//! * **Quantization.** Decisions live on the 320 µs grid; the channel-busy
//!   horizon is tracked in microseconds so packet airtimes stay exact.

use wsn_mac::csma::{CsmaAction, CsmaParams, InvalidCsmaParams, SlottedCsmaCa};
use wsn_mac::gts::GtsRegistry;
use wsn_mac::timing::{
    ack_wait_max, ack_wait_min, TURNAROUND_SYMBOLS, UNIT_BACKOFF_PERIOD_SYMBOLS,
};
use wsn_mac::RetryPolicy;
use wsn_phy::consts::SYMBOL_PERIOD_US;
use wsn_phy::frame::{ack_duration, beacon_duration, PacketLayout};
use wsn_phy::noise::UniformSource;
use wsn_units::Seconds;

use crate::cfp::{CfpPlan, DownlinkOutcome, DownlinkRecord, GtsRecord, DATA_REQUEST_AIR_BYTES};
use crate::events::{EventQueue, WindowError};
use crate::faults::{FaultKind, FaultPlan, FaultRecord};
use crate::rng::Xoshiro256StarStar;
use crate::sink::{StatsSink, TraceCollector, TraceSink};
use crate::stats::ContentionStats;

/// Microseconds per unit backoff period (320).
pub(crate) const SLOT_US: u64 = UNIT_BACKOFF_PERIOD_SYMBOLS as u64 * SYMBOL_PERIOD_US as u64;

/// Microseconds of the RX↔TX turnaround (192).
const TURNAROUND_US: u64 = TURNAROUND_SYMBOLS as u64 * SYMBOL_PERIOD_US as u64;

/// Extra slots reserved past one superframe: the worst CSMA backoff /
/// airtime / ACK tail an event can be scheduled into. Shared between the
/// engine's window reservation and [`ChannelSimConfig::validate`] so the
/// pre-flight check and the actual reservation agree exactly.
pub(crate) const WINDOW_SLACK: u64 = 300;

/// A [`ChannelSimConfig`] that the engine would reject.
///
/// Returned by [`ChannelSimConfig::validate`]; the engine performs the
/// same checks on entry and panics with the matching message, so callers
/// that want a `Result` instead of a panic validate up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `nodes == 0`.
    NoNodes,
    /// Load outside the open interval `(0, 1)` (the superframe length
    /// `T_ib = N·T_packet / λ` is undefined or degenerate outside it).
    BadLoad(
        /// The offending load value.
        f64,
    ),
    /// Fewer than two superframes (the first is warm-up and unrecorded,
    /// so nothing would be measured).
    TooFewSuperframes(
        /// The offending superframe count.
        u32,
    ),
    /// The implied superframe window exceeds the calendar queue's
    /// [`MAX_WINDOW`](crate::events::MAX_WINDOW) ceiling.
    Window(
        /// The typed window overflow from the event queue.
        WindowError,
    ),
    /// CSMA/CA parameters [`SlottedCsmaCa::start`] rejects.
    Csma(
        /// The violated parameter rule.
        InvalidCsmaParams,
    ),
    /// A contention-free period on a superframe shorter than its 16 MAC
    /// slots.
    CfpSpan,
    /// A GTS holder's packet outlasts its allocation.
    GtsFit {
        /// Packet airtime in microseconds.
        packet_us: u64,
        /// MAC slots per allocation.
        slots: u8,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "at least one node required"),
            ConfigError::BadLoad(load) => write!(f, "load must be in (0,1), got {load}"),
            ConfigError::TooFewSuperframes(n) => {
                write!(f, "need at least two superframes, got {n}")
            }
            ConfigError::Window(err) => write!(f, "{err}"),
            ConfigError::Csma(err) => write!(f, "invalid CSMA parameters: {err}"),
            ConfigError::CfpSpan => {
                write!(f, "a superframe must span its 16 MAC slots to carry a CFP")
            }
            ConfigError::GtsFit { packet_us, slots } => {
                write!(f, "a {packet_us} µs packet does not fit a {slots}-slot GTS")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<WindowError> for ConfigError {
    fn from(err: WindowError) -> Self {
        ConfigError::Window(err)
    }
}

/// Configuration of a single-channel contention simulation.
#[derive(Debug, Clone)]
pub struct ChannelSimConfig {
    /// Number of nodes sharing the channel (the paper uses 100).
    pub nodes: usize,
    /// Uplink packet layout (payload + the paper's 13-byte overhead).
    pub packet: PacketLayout,
    /// Network load λ: aggregate packet airtime over the inter-beacon
    /// period. Determines the superframe length as
    /// `T_ib = N·T_packet / λ`.
    pub load: f64,
    /// CSMA/CA parameters.
    pub csma: CsmaParams,
    /// Retransmission budget (`N_max`).
    pub retries: RetryPolicy,
    /// Number of superframes to simulate (the first is warm-up and not
    /// recorded).
    pub superframes: u32,
    /// Master seed.
    pub seed: u64,
    /// `true` to start every node's contention right after the beacon (the
    /// paper's literal prose); `false` for staggered per-node offsets.
    pub synchronized_arrivals: bool,
    /// Contention-free period plan: GTS holders and downlink polling.
    /// [`CfpPlan::inert`] (the default everywhere CAP-only semantics are
    /// expected) provably leaves the engine untouched.
    pub cfp: CfpPlan,
    /// Fault-injection plan: node churn and coordinator outages.
    /// [`FaultPlan::inert`] (the default) provably leaves the engine
    /// untouched; see [`crate::faults`] for the determinism contract.
    pub faults: FaultPlan,
}

impl ChannelSimConfig {
    /// The paper's Figure 6 configuration for a given payload and load:
    /// 100 nodes, standard CSMA parameters, `N_max = 5`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not in `(0, 1)`.
    pub fn figure6(payload_bytes: usize, load: f64, seed: u64) -> Self {
        assert!(
            load > 0.0 && load < 1.0,
            "load must be in (0,1), got {load}"
        );
        ChannelSimConfig {
            nodes: 100,
            packet: PacketLayout::with_payload(payload_bytes)
                .expect("payload within the paper's 123-byte maximum"),
            load,
            csma: CsmaParams::standard_2003(),
            retries: RetryPolicy::paper(),
            superframes: 60,
            seed,
            synchronized_arrivals: false,
            cfp: CfpPlan::inert(),
            faults: FaultPlan::inert(),
        }
    }

    /// Inter-beacon period implied by the load definition.
    pub fn beacon_interval(&self) -> Seconds {
        Seconds::from_secs(self.nodes as f64 * self.packet.duration().secs() / self.load)
    }

    /// Superframe length in backoff slots.
    fn superframe_slots(&self) -> u64 {
        (self.beacon_interval().micros() / SLOT_US as f64)
            .round()
            .max(8.0) as u64
    }

    /// Precomputes the per-configuration frame/ACK durations the engine
    /// consults on its hot path. Hoisting this out of the run lets a
    /// replication sweep pay the frame-layout arithmetic once per
    /// configuration instead of once per run.
    pub fn timings(&self) -> SlotTimings {
        let beacon_us = beacon_duration().micros().round() as u64;
        SlotTimings {
            superframe_slots: self.superframe_slots(),
            packet_us: self.packet.duration().micros().round() as u64,
            beacon_us,
            beacon_slots: beacon_us.div_ceil(SLOT_US),
            // Acknowledged transmissions hold the channel for t_ack⁻ + T_ack.
            ack_hold_us: ack_wait_min().micros().round() as u64
                + ack_duration().micros().round() as u64,
            // A transmitter concludes "no acknowledgement" after t_ack⁺.
            ack_timeout_us: ack_wait_max().micros().round() as u64,
            mac_slot_backoffs: (self.superframe_slots() / 16).max(1),
            data_request_us: wsn_phy::consts::bytes(DATA_REQUEST_AIR_BYTES)
                .micros()
                .round() as u64,
        }
    }

    /// Checks every precondition the engine asserts on entry — node count,
    /// load interval, superframe count, the calendar-queue window ceiling
    /// the implied superframe length must fit under, the CSMA/CA
    /// parameters, and a non-inert CFP's 16-slot span and GTS fit — as a
    /// `Result` instead of a panic.
    ///
    /// `validate().is_ok()` guarantees [`run_channel_sim_into_ws`] will not
    /// panic on configuration checks; the engine's panic messages match
    /// this error's [`Display`](core::fmt::Display) text.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if !(self.load > 0.0 && self.load < 1.0) {
            return Err(ConfigError::BadLoad(self.load));
        }
        if self.superframes < 2 {
            return Err(ConfigError::TooFewSuperframes(self.superframes));
        }
        // The engine reserves one superframe plus slack up front; a
        // superframe long enough to overflow MAX_WINDOW would panic inside
        // `reserve_window`.
        WindowError::check(self.superframe_slots() + WINDOW_SLACK)?;
        self.csma.validate().map_err(ConfigError::Csma)?;
        if !self.cfp.is_inert() {
            let t = self.timings();
            if t.superframe_slots < 16 {
                return Err(ConfigError::CfpSpan);
            }
            let slots = self.cfp.slots_per_gts;
            let gts_us = slots as u64 * t.mac_slot_backoffs * SLOT_US;
            if self.cfp.gts_nodes.min(self.nodes as u32) > 0 && t.packet_us > gts_us {
                return Err(ConfigError::GtsFit {
                    packet_us: t.packet_us,
                    slots,
                });
            }
        }
        Ok(())
    }
}

/// Frame/ACK durations and grid constants derived once per configuration
/// (see [`ChannelSimConfig::timings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTimings {
    /// Superframe length in backoff slots.
    pub superframe_slots: u64,
    /// Uplink packet airtime in microseconds.
    pub packet_us: u64,
    /// Beacon airtime in microseconds.
    pub beacon_us: u64,
    /// Beacon airtime in whole backoff slots (rounded up).
    pub beacon_slots: u64,
    /// Channel hold time of an acknowledgement (t_ack⁻ + T_ack) in µs.
    pub ack_hold_us: u64,
    /// No-acknowledgement timeout t_ack⁺ in µs.
    pub ack_timeout_us: u64,
    /// Backoff slots per MAC superframe slot (1/16 of the superframe,
    /// floored at one) — the CFP slot grid.
    pub mac_slot_backoffs: u64,
    /// Data-request MAC command airtime in microseconds (downlink polls).
    pub data_request_us: u64,
}

/// Outcome of one contention procedure (one transmission attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Transmitted without collision and acknowledged.
    Delivered,
    /// Transmitted without collision but corrupted by channel noise (no
    /// acknowledgement) — only produced when a corruption hook is supplied.
    Corrupted,
    /// Collided with another transmission.
    Collided,
    /// CSMA/CA reported channel access failure.
    AccessFailure,
}

/// One contention procedure's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Node index.
    pub node: u32,
    /// Contention duration in backoff slots (start → transmission start or
    /// failure report).
    pub contention_slots: u64,
    /// CCAs performed.
    pub ccas: u32,
    /// Outcome.
    pub outcome: AttemptOutcome,
}

/// One application-level transaction (one packet in one superframe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransactionRecord {
    /// Node index.
    pub node: u32,
    /// Transmission attempts used (1..=N_max), 0 if access failed before
    /// any transmission.
    pub attempts: u32,
    /// `true` if the packet was delivered this superframe.
    pub delivered: bool,
    /// `true` if the transaction ended in a channel access failure.
    pub access_failure: bool,
    /// Superframes this packet had already waited before this transaction
    /// (0 = first try; delay ≈ (waited+1)·T_ib).
    pub superframes_waited: u32,
}

impl TransactionRecord {
    /// The transaction of a superframe's packet that was never sent: the
    /// node's radio was down or the coordinator was silent.
    fn lost(node: u32) -> Self {
        TransactionRecord {
            node,
            attempts: 0,
            delivered: false,
            access_failure: false,
            superframes_waited: 0,
        }
    }
}

/// Full simulation trace.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// Per-procedure records (excluding warm-up).
    pub attempts: Vec<AttemptRecord>,
    /// Per-transaction records (excluding warm-up).
    pub transactions: Vec<TransactionRecord>,
    /// GTS (contention-free) transmission records (excluding warm-up).
    pub gts: Vec<GtsRecord>,
    /// Downlink poll records (excluding warm-up).
    pub downlinks: Vec<DownlinkRecord>,
    /// Fault events (excluding warm-up).
    pub faults: Vec<FaultRecord>,
    /// Arrivals skipped because the node was still busy with the previous
    /// transaction.
    pub overruns: u64,
    /// Superframe length in backoff slots.
    pub superframe_slots: u64,
}

impl SimTrace {
    /// Replays the trace into a sink, grouped by record type: all
    /// attempts (in engine order), then all transactions (in engine
    /// order), then the overruns. The live engine interleaves the three
    /// streams per event, and the trace does not retain that interleaving
    /// — so replay matches a streaming run exactly for reducers that fold
    /// each record type independently (such as [`StatsSink`] or
    /// [`TraceCollector`]), but not for sinks whose handling of one
    /// record type depends on the other types seen so far.
    pub fn replay<S: TraceSink>(&self, sink: &mut S) {
        for a in &self.attempts {
            sink.on_attempt(a);
        }
        for t in &self.transactions {
            sink.on_transaction(t);
        }
        for g in &self.gts {
            sink.on_gts(g);
        }
        for d in &self.downlinks {
            sink.on_downlink(d);
        }
        for f in &self.faults {
            sink.on_fault(f);
        }
        for _ in 0..self.overruns {
            sink.on_overrun();
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Engine events. A node event names the node by `rec`, the index of its
/// `Node` record in the arrival-ordered node array, not by node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Beacon transmission starts (occupies the channel).
    Beacon,
    /// A node's packet becomes ready.
    Arrival { rec: u32 },
    /// A node performs a CCA.
    Cca { rec: u32 },
    /// A node's transmission ends (`end_us` is the exact airtime end).
    TxEnd { rec: u32, end_us: u64 },
    /// A GTS holder transmits in its dedicated CFP slot (bypasses CSMA
    /// and the collision-cohort accounting entirely).
    GtsTx { rec: u32 },
    /// A pending downlink frame's data-request poll becomes due.
    DlPoll { rec: u32 },
}

// Priority classes resolve same-slot ties; the order reproduces the
// original heap-based engine exactly. That engine pre-pushed every beacon
// before the run began, so at equal `(slot, priority)` a beacon's sequence
// number always preceded any runtime TxEnd — beacons now get their own
// class above TxEnd, which encodes the same order without a sequence
// counter (and keeps it correct under lazy beacon scheduling). The CFP
// class orders GTS transmissions after every CAP event in their slot —
// they never read or write CAP channel state, so any fixed class would be
// deterministic; last keeps the CAP order exactly as before.
const PRIO_BEACON: u8 = 0; // channel state: beacon first …
const PRIO_TXEND: u8 = 1; // … then transmission endings
const PRIO_CCA: u8 = 2;
const PRIO_ARRIVAL: u8 = 3;
const PRIO_CFP: u8 = 4;

/// What a node's active CSMA procedure is transporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CsmaKind {
    /// The node's uplink data packet.
    Uplink,
    /// A downlink data-request MAC command (one procedure per poll, no
    /// retries — an undelivered frame stays pending at the coordinator).
    DataRequest,
}

/// One node's contention state: every field a node event reads or
/// writes, in one record, so an event touches one record of one array.
#[derive(Debug)]
struct Node {
    /// Node index: what records carry and what the oracle is asked about.
    id: u32,
    /// The node's RNG stream (`root.split(id)`).
    rng: Xoshiro256StarStar,
    /// In-flight CSMA machine, from procedure start to its Transmit or
    /// Failure decision.
    csma: Option<SlottedCsmaCa>,
    attempt: u32,
    superframes_waited: u32,
    cont_start_slot: u64,
    /// Start slot of this node's in-flight transmission (valid between
    /// its Transmit decision and its TxEnd) — the per-node half of the
    /// collision-cohort bookkeeping.
    tx_start_slot: u64,
    /// CCAs of the in-flight transmission's procedure, saved at Transmit.
    /// Between Transmit and TxEnd the node starts no procedure (an arrival
    /// is an overrun, a poll is deferred), so TxEnd rebuilds the pending
    /// record from this and `tx_start_slot - cont_start_slot`; attempts
    /// cut off by the horizon are never recorded.
    ccas: u32,
    carry_packet: bool,
    active: bool,
    recording: bool,
    /// What the in-progress CSMA procedure carries (uplink packet or a
    /// downlink data request).
    kind: CsmaKind,
}

impl Node {
    /// Starts a CSMA/CA procedure at `slot`; returns the slot of its first
    /// CCA.
    fn start_csma(&mut self, slot: u64, params: CsmaParams) -> u64 {
        let machine = SlottedCsmaCa::start(params, &mut self.rng);
        let CsmaAction::BackoffThenCca { periods } = machine.current_action() else {
            unreachable!("CSMA always begins with a backoff");
        };
        self.csma = Some(machine);
        self.cont_start_slot = slot;
        slot + u64::from(periods)
    }

    /// Takes up this superframe's packet: one carried over has waited a
    /// superframe more, a fresh one none.
    fn take_packet(&mut self) {
        self.superframes_waited = if self.carry_packet {
            self.superframes_waited + 1
        } else {
            0
        };
    }

    /// Ends the uplink transaction on its last attempt's `outcome` and
    /// returns its record; an undelivered packet is carried to the next
    /// superframe. An access failure ends it before that attempt
    /// transmits.
    fn end_transaction(&mut self, outcome: AttemptOutcome) -> TransactionRecord {
        let access_failure = outcome == AttemptOutcome::AccessFailure;
        let delivered = outcome == AttemptOutcome::Delivered;
        self.active = false;
        self.carry_packet = !delivered;
        TransactionRecord {
            node: self.id,
            attempts: self.attempt - u32::from(access_failure),
            delivered,
            access_failure,
            superframes_waited: self.superframes_waited,
        }
    }
}

/// Cold fault-plan per-node state, indexed by node id and touched only
/// under an active fault plan — segregated so fault-free runs never pull
/// it into cache.
#[derive(Debug, Clone, Copy)]
struct NodeFault {
    /// `false` while the node's radio is off (dead or dormant). Always
    /// `true` in fault-free runs.
    alive: bool,
    /// The node drew a death mid-procedure; it dies when the procedure
    /// concludes (no calendar-queue surgery — see [`crate::faults`]).
    death_pending: bool,
    /// Retry budget exhausted: permanently off.
    dormant: bool,
    /// Superframes spent down since the node's death.
    down_superframes: u32,
    /// Failed re-association attempts since the node's death.
    join_retries: u32,
}

const NODE_FAULT_INIT: NodeFault = NodeFault {
    alive: true,
    death_pending: false,
    dormant: false,
    down_superframes: 0,
    join_retries: 0,
};

/// Reusable per-thread scratch of the contention engine: the calendar
/// queue, one record per node, the arrival order, the cold fault state
/// and the network layer's corruption-probability buffer.
///
/// Each node's contention state is one record (`Node`), and the records
/// are stored in arrival order: record `k` belongs to the `k`-th node when
/// nodes are sorted by (arrival offset, node index). Events name records
/// by that index, so an event touches one record of one array. A node's
/// events cluster around its arrival offset, so nodes active at the same
/// time sit next to each other, and at 10⁵ nodes the engine walks a
/// sliding window of the array instead of touching it at random. Loops
/// that must run in node order (fault draws, dead-node and outage
/// records, GTS and poll pushes) map a node to its record through a
/// node-indexed rank table. Records and oracle queries carry the node's
/// id. The network layer draws the same order once per run and stores
/// its own per-node arrays in it too: the energy ledgers, the resolved
/// transmit levels and the oracle's corruption probabilities.
///
/// A workspace is pure scratch — [`run_channel_sim_into_ws`] fully
/// reinitializes every field from the configuration, so reusing one across
/// runs (of *any* mix of configurations) is bit-identical to fresh
/// allocation; it merely skips the allocations. The `workspace_reuse`
/// integration suite pins that equivalence. Most callers never construct
/// one: [`run_channel_sim`], [`simulate_contention`] and the network layer
/// borrow the calling thread's implicit workspace via [`with_workspace`],
/// which is how the parallel [`Runner`](crate::runner::Runner) gives each
/// worker thread its own.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    queue: EventQueue<Ev>,
    /// One record per node, in arrival order.
    nodes: Vec<Node>,
    /// The arrival order of the last run.
    pub(crate) arrivals: Arrivals,
    /// Cold per-node fault state (alive/dormant/retry bookkeeping),
    /// indexed by node id.
    fault: Vec<NodeFault>,
    /// Per-node downlink poll offsets (drawn only when the configuration
    /// polls at all).
    dl_offsets: Vec<u64>,
    /// Per-node packet/ACK corruption probabilities in arrival order —
    /// the network simulator's oracle scratch (see
    /// `NetworkSimulator::run_accumulate_counted`).
    pub(crate) corrupt_probs: Vec<f64>,
}

/// A run's arrival order: each node's fixed arrival offset and its rank
/// when nodes are sorted by (offset, node index). It depends only on the
/// seed, the node count and the timings, so the engine and the network
/// layer share one draw per run.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    /// `(arrival offset, node)` sorted ascending: entry `k` is the arrival
    /// of the node with rank `k`, so beacons push arrivals in slot order.
    pub(crate) order: Vec<(u64, u32)>,
    /// Node id → arrival rank: the index of the node's engine record and
    /// of its entries in the network layer's per-node arrays.
    pub(crate) rank: Vec<u32>,
}

impl Arrivals {
    /// Draws `config`'s per-node arrival offsets (slots after the beacon)
    /// in node order from the seed's offset stream and sorts the nodes by
    /// (offset, node). `timings` must come from
    /// [`ChannelSimConfig::timings`] for the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`ChannelSimConfig::validate`] rejects the configuration,
    /// with the engine's message.
    pub(crate) fn draw(&mut self, config: &ChannelSimConfig, timings: &SlotTimings) {
        // Same checks (and messages) as `ChannelSimConfig::validate` —
        // callers that want a `Result` instead of a panic validate up
        // front.
        if let Err(err) = config.validate() {
            panic!("{err}");
        }
        let mut offsets_rng = Xoshiro256StarStar::seed_from_u64(config.seed).split(u64::MAX);
        let beacon_slots = timings.beacon_slots;
        self.order.clear();
        self.order.extend((0..config.nodes as u32).map(|i| {
            let offset = if config.synchronized_arrivals {
                beacon_slots
            } else {
                let span = timings.superframe_slots.saturating_sub(beacon_slots).max(1);
                beacon_slots + (offsets_rng.next_f64() * span as f64) as u64
            };
            (offset, i)
        }));
        self.order.sort_unstable();
        self.rank.clear();
        self.rank.resize(config.nodes, 0);
        for (k, &(_, id)) in self.order.iter().enumerate() {
            self.rank[id as usize] = k as u32;
        }
    }
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers grow to the largest
    /// configuration run through it and are then reused.
    pub fn new() -> Self {
        SimWorkspace::default()
    }
}

thread_local! {
    static WORKSPACE: std::cell::RefCell<SimWorkspace> =
        std::cell::RefCell::new(SimWorkspace::new());
}

/// Runs `f` with the calling thread's implicit [`SimWorkspace`].
///
/// Every thread owns exactly one. The serial path runs on the caller's
/// thread, so its workspace persists across entire sweeps and policy
/// loops; each of the [`Runner`](crate::runner::Runner)'s workers reuses
/// its own across all jobs it pulls within one streaming call — a
/// channels × replications grid allocates simulation scratch once per
/// worker, not once per job. (Workers are scoped threads, so their
/// workspaces live per streaming call: one `map`, one scenario grid — a
/// multi-threaded policy loop pays one workspace per worker per round —
/// or one batch-farm stream, which spans every open-loop entry between
/// two policy entries.)
///
/// # Panics
///
/// Panics if called reentrantly (the workspace is exclusively borrowed
/// while `f` runs; trace sinks must not start nested simulations).
pub fn with_workspace<R>(f: impl FnOnce(&mut SimWorkspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// Takes `node` down: its radio goes off, its down and retry counters
/// reset, a GTS holder frees its descriptor, and outside warm-up a Death
/// record is written. A death drawn at the beacon runs it at once, or at
/// the end of the procedure in flight (`death_pending`). Only fault plans
/// draw deaths, so fault-free runs never load the fault array.
fn die<S: TraceSink>(
    f: &mut NodeFault,
    node: u32,
    in_warmup: bool,
    gts_nodes: u32,
    gts_registry: &mut Option<GtsRegistry>,
    sink: &mut S,
) {
    f.alive = false;
    f.down_superframes = 0;
    f.join_retries = 0;
    if node < gts_nodes {
        if let Some(reg) = gts_registry.as_mut() {
            reg.deallocate(node as u16);
        }
    }
    if !in_warmup {
        sink.on_fault(&FaultRecord {
            node,
            kind: FaultKind::Death,
        });
    }
}

/// Runs the channel simulation with a per-attempt corruption oracle,
/// streaming every finalized record into `sink`; returns the number of
/// events the discrete-event loop processed (the benchmark denominator).
///
/// This is the engine underneath [`run_channel_sim`] (which collects a
/// [`SimTrace`]) and [`simulate_contention`] (which reduces online via
/// [`StatsSink`]). `timings` must come from [`ChannelSimConfig::timings`]
/// for the same configuration; passing it in lets replication sweeps
/// compute the frame arithmetic once. The workspace is scratch only —
/// results are bit-identical whether it is fresh or reused, and
/// regardless of what configuration it last ran; [`with_workspace`] lends
/// the calling thread's.
///
/// # Panics
///
/// Panics if [`ChannelSimConfig::validate`] rejects the configuration.
pub fn run_channel_sim_into_ws<F, S>(
    config: &ChannelSimConfig,
    timings: &SlotTimings,
    corrupt: F,
    sink: &mut S,
    ws: &mut SimWorkspace,
) -> u64
where
    F: FnMut(u32) -> bool,
    S: TraceSink,
{
    let mut arrivals = std::mem::take(&mut ws.arrivals);
    arrivals.draw(config, timings);
    let events = run_drawn(config, timings, &arrivals, corrupt, sink, ws);
    ws.arrivals = arrivals;
    events
}

/// The engine proper: runs `config` on the arrival order drawn for it by
/// [`Arrivals::draw`], which also validated the configuration.
pub(crate) fn run_drawn<F, S>(
    config: &ChannelSimConfig,
    timings: &SlotTimings,
    arrivals: &Arrivals,
    mut corrupt: F,
    sink: &mut S,
    ws: &mut SimWorkspace,
) -> u64
where
    F: FnMut(u32) -> bool,
    S: TraceSink,
{
    debug_assert_eq!(
        arrivals.order.len(),
        config.nodes,
        "arrivals of another configuration"
    );
    let sf_slots = timings.superframe_slots;
    let packet_us = timings.packet_us;
    let beacon_us = timings.beacon_us;
    let ack_hold_us = timings.ack_hold_us;
    let ack_timeout_us = timings.ack_timeout_us;

    let root = Xoshiro256StarStar::seed_from_u64(config.seed);
    // The node records follow the arrival order.
    ws.nodes.clear();
    ws.nodes.extend(arrivals.order.iter().map(|&(_, id)| Node {
        id,
        rng: root.split(u64::from(id)),
        csma: None,
        attempt: 0,
        superframes_waited: 0,
        cont_start_slot: 0,
        tx_start_slot: 0,
        ccas: 0,
        carry_packet: false,
        active: false,
        recording: false,
        kind: CsmaKind::Uplink,
    }));
    ws.fault.clear();
    ws.fault.resize(config.nodes, NODE_FAULT_INIT);

    // --- Contention-free period plan -----------------------------------
    // Every branch below is gated so an inert plan leaves the event
    // stream, RNG consumption and record stream bit-identical to the
    // CAP-only engine.
    let plan = config.cfp;
    let gts_nodes = plan.gts_nodes.min(config.nodes as u32);
    let polling = plan.downlink_rate > 0.0;
    // Downlink polls use their own offsets and pending-draw stream so the
    // CAP arrival pattern is untouched by polling.
    let mut dl_rng = root.split(u64::MAX - 1);
    ws.dl_offsets.clear();
    if polling {
        ws.dl_offsets.extend((0..config.nodes).map(|_| {
            let span = sf_slots.saturating_sub(timings.beacon_slots).max(1);
            timings.beacon_slots + (dl_rng.next_f64() * span as f64) as u64
        }));
    }
    // The live GTS table: holder `k` is allocated in holder order, so its
    // descriptor packs down from MAC slot 16. A dying holder releases its
    // descriptor and the freed slots re-resolve into the CFP at the next
    // superframe boundary; a rejoining holder re-allocates.
    let mut gts_registry = (gts_nodes > 0).then(|| {
        let mut reg = GtsRegistry::new(plan.cfp_start_slot);
        for k in 0..gts_nodes {
            reg.allocate(k as u16, plan.slots_per_gts)
                .expect("plan allocations fit their own CFP envelope");
        }
        reg
    });

    // --- Fault plan ------------------------------------------------------
    // Faults draw from their own stream and every branch is gated on
    // `faults_active`, so an inert plan leaves the event stream, RNG
    // consumption and record stream bit-identical to the fault-free
    // engine (see `crate::faults` for the determinism contract).
    let fplan = config.faults;
    let faults_active = !fplan.is_engine_inert();
    let mut fault_rng = root.split(u64::MAX - 2);
    // Remaining superframes of the current coordinator outage window.
    let mut outage_left: u32 = 0;

    let SimWorkspace {
        queue,
        nodes,
        fault,
        dl_offsets,
        ..
    } = ws;
    let rank = &arrivals.rank;
    // Telemetry shard: one local accumulator per run, folded into the
    // global registry once at the end. Telemetry reads values the engine
    // already computed and draws from no RNG stream, so it cannot perturb
    // the simulation (the inertness contract — see `crate::telemetry`);
    // when disabled, the cost is this one relaxed load plus a never-taken
    // branch per event.
    let mut telem: Option<Box<crate::telemetry::EngineMetrics>> = if crate::telemetry::enabled() {
        Some(Box::default())
    } else {
        None
    };
    queue.set_stats_enabled(telem.is_some());
    queue.clear();
    // Beacons and arrivals are scheduled lazily, one superframe ahead (the
    // farthest lookahead of any push), so the ring only ever needs to span
    // one superframe plus the worst CSMA backoff/airtime tail; the queue
    // holds O(active nodes) events instead of O(superframes × nodes).
    queue.reserve_window(sf_slots + WINDOW_SLACK);
    queue.push(0, PRIO_BEACON, Ev::Beacon);
    let mut beacons_left = config.superframes as u64 - 1;

    let mut busy_until_us: u64 = 0;
    // The one transmission cohort that has been *decided* but whose start
    // slot lies in the future; folded into `busy_until_us` once the clock
    // reaches it so that same-slot CCA decisions never see a transmission
    // that has not started yet.
    let mut pending_air: Option<(u64, u64)> = None;
    // Collision cohort: transmissions overlap in the air only when they
    // start in the same backoff slot (a CCA during any other airtime reads
    // busy), so all in-flight transmissions share one start slot. Same-slot
    // collision detection is therefore a counter over the current cohort —
    // no in-flight scan — and each TxEnd reads its verdict from the cohort
    // size, which is final before the first TxEnd fires.
    let mut cohort_slot = u64::MAX;
    let mut cohort_size: u32 = 0;
    let horizon_slot = config.superframes as u64 * sf_slots;
    let mut events: u64 = 0;

    while let Some((slot, ev)) = queue.pop() {
        if slot >= horizon_slot {
            break;
        }
        events += 1;
        if let Some(t) = telem.as_deref_mut() {
            t.events += 1;
            match &ev {
                Ev::Beacon => t.ev_beacon += 1,
                Ev::Arrival { .. } => t.ev_arrival += 1,
                Ev::Cca { .. } => t.ev_cca += 1,
                Ev::TxEnd { .. } => t.ev_tx_end += 1,
                Ev::GtsTx { .. } => t.ev_gts += 1,
                Ev::DlPoll { .. } => t.ev_dl_poll += 1,
            }
        }
        if let Some((start_slot, end_us)) = pending_air {
            if start_slot <= slot {
                busy_until_us = busy_until_us.max(end_us);
                pending_air = None;
            }
        }
        let slot_us = slot * SLOT_US;
        let in_warmup = slot < sf_slots;
        match ev {
            Ev::Beacon => {
                let mut in_outage = false;
                if faults_active {
                    // Outage draw: consumed every superframe so the fault
                    // stream's shape is independent of what the faults
                    // did; a draw during a running window is discarded.
                    if fplan.outage_rate > 0.0 {
                        let start = fault_rng.bernoulli(fplan.outage_rate);
                        if start && outage_left == 0 {
                            outage_left = fplan.outage_superframes;
                        }
                    }
                    in_outage = outage_left > 0;
                    if in_outage {
                        outage_left -= 1;
                    }
                    // Death draws: one per node per superframe in node
                    // order, consumed regardless of the node's state.
                    if fplan.death_rate > 0.0 {
                        for i in 0..config.nodes {
                            let dies = fault_rng.bernoulli(fplan.death_rate);
                            let f = &mut fault[i];
                            if !dies || !f.alive {
                                continue;
                            }
                            if nodes[rank[i] as usize].active {
                                // Mid-procedure: the death defers to the
                                // procedure's natural end so no queued
                                // event is ever cancelled.
                                f.death_pending = true;
                                continue;
                            }
                            die(f, i as u32, in_warmup, gts_nodes, &mut gts_registry, sink);
                        }
                    }
                    // Beacon bookkeeping: missed beacons, orphan scans
                    // and bounded-retry re-association.
                    for i in 0..config.nodes {
                        let f = &mut fault[i];
                        if f.alive {
                            if in_outage && !in_warmup {
                                // Idle nodes wake and listen the beacon
                                // window in vain (an orphan-scan cost);
                                // mid-procedure nodes never woke for it.
                                sink.on_fault(&FaultRecord {
                                    node: i as u32,
                                    kind: FaultKind::MissedBeacon {
                                        listened: !nodes[rank[i] as usize].active,
                                    },
                                });
                            }
                            continue;
                        }
                        // Radio off (dead or dormant): the beacon goes
                        // unheard — and its tracking cost unpaid.
                        if !in_warmup {
                            sink.on_fault(&FaultRecord {
                                node: i as u32,
                                kind: FaultKind::MissedBeacon { listened: false },
                            });
                        }
                        if f.dormant {
                            continue;
                        }
                        f.down_superframes += 1;
                        if in_outage
                            || f.down_superframes <= fplan.rejoin_delay
                            || f.join_retries >= fplan.max_join_retries
                        {
                            // Still backing off, no coordinator to join,
                            // or a zero-budget plan (permanent death).
                            continue;
                        }
                        // Re-association exchange: the response gets
                        // through iff the channel does not corrupt it.
                        let success = !corrupt(i as u32);
                        if !in_warmup {
                            sink.on_fault(&FaultRecord {
                                node: i as u32,
                                kind: FaultKind::JoinAttempt { success },
                            });
                        }
                        if success {
                            f.alive = true;
                            let latency_superframes = f.down_superframes;
                            f.join_retries = 0;
                            let n = &mut nodes[rank[i] as usize];
                            n.carry_packet = false;
                            n.superframes_waited = 0;
                            if !in_warmup {
                                sink.on_fault(&FaultRecord {
                                    node: i as u32,
                                    kind: FaultKind::Reassociated {
                                        latency_superframes,
                                    },
                                });
                            }
                            if (i as u32) < gts_nodes {
                                if let Some(reg) = gts_registry.as_mut() {
                                    // A former holder reclaims a
                                    // descriptor; the envelope it left
                                    // always has room (only original
                                    // holders ever allocate).
                                    let _ = reg.allocate(i as u16, plan.slots_per_gts);
                                }
                            }
                        } else {
                            f.join_retries += 1;
                            if f.join_retries >= fplan.max_join_retries {
                                f.dormant = true;
                                if !in_warmup {
                                    sink.on_fault(&FaultRecord {
                                        node: i as u32,
                                        kind: FaultKind::Dormant,
                                    });
                                }
                            }
                        }
                    }
                }
                if !in_outage {
                    busy_until_us = busy_until_us.max(slot_us + beacon_us);
                    // Lazy scheduling: this superframe's arrivals and the
                    // next beacon. GTS holders skip CSMA entirely: their
                    // packet transmits in their dedicated CFP slot, which
                    // starts where the live registry says (re-resolved
                    // each superframe under churn); dead and dormant nodes
                    // schedule nothing. Only the plan's holders ever hold
                    // a descriptor, and the `< gts_nodes` guard keeps a
                    // node id past the registry's 16-bit short addresses
                    // from aliasing one.
                    let gts_start = |i: usize| match &gts_registry {
                        Some(reg) if (i as u32) < gts_nodes => reg
                            .allocations()
                            .iter()
                            .find(|d| d.short_address == i as u16)
                            .map(|d| d.starting_slot),
                        _ => None,
                    };
                    let down = |i: usize| faults_active && !fault[i].alive;
                    // Dead-node records and GTS pushes keep node order.
                    for (i, &rec) in rank.iter().enumerate() {
                        if down(i) {
                            // The application's per-superframe reading
                            // still exists; with the radio down the
                            // offered packet is lost. Recording it as an
                            // undelivered transaction is what makes the
                            // delivery ratio degrade with churn instead
                            // of silently shrinking the denominator.
                            if !in_warmup {
                                sink.on_transaction(&TransactionRecord::lost(i as u32));
                            }
                        } else if let Some(start) = gts_start(i) {
                            let gts_off = start as u64 * timings.mac_slot_backoffs;
                            queue.push(slot + gts_off, PRIO_CFP, Ev::GtsTx { rec });
                        }
                    }
                    // Arrivals go in record order, which is offset order,
                    // so at 10⁵ nodes each push lands next to the last one
                    // instead of at a random ring slot. They pop in the
                    // order a node-order push would give, naming the same
                    // nodes, because:
                    // * the pop key is (slot, class, insertion);
                    // * only beacon-time pushes use PRIO_ARRIVAL;
                    // * records sort by (offset, node), so same-slot
                    //   arrivals are pushed in node order;
                    // * downlink polls, which share the class, are still
                    //   pushed after every arrival;
                    // * offsets are below `sf_slots`, so every class-3
                    //   event of the previous superframe lies before this
                    //   beacon and none shares a slot with these arrivals;
                    // * record `k` is node `arrivals.order[k].1`.
                    for (k, &(off, node)) in arrivals.order.iter().enumerate() {
                        let i = node as usize;
                        if down(i) || gts_start(i).is_some() {
                            continue;
                        }
                        queue.push(slot + off, PRIO_ARRIVAL, Ev::Arrival { rec: k as u32 });
                    }
                    if polling {
                        // One independent pending draw per node per
                        // superframe (drawn for every node, whether or not
                        // it fires — and whether or not it is alive — so
                        // the stream shape is load-independent).
                        for (i, &off) in dl_offsets.iter().enumerate() {
                            let fire = dl_rng.bernoulli(plan.downlink_rate);
                            if fire && !down(i) {
                                queue.push(slot + off, PRIO_ARRIVAL, Ev::DlPoll { rec: rank[i] });
                            }
                        }
                    }
                } else if !in_warmup {
                    // Coordinator silent: no CAP, no CFP — every node's
                    // offered packet for this superframe is lost. Nodes
                    // still mid-procedure carry theirs across the outage
                    // (the skipped arrival counts as an overrun, exactly
                    // as a busy node's arrival would).
                    for (i, &k) in rank.iter().enumerate() {
                        if nodes[k as usize].active {
                            sink.on_overrun();
                        } else {
                            sink.on_transaction(&TransactionRecord::lost(i as u32));
                        }
                    }
                }
                if beacons_left > 0 {
                    beacons_left -= 1;
                    queue.push(slot + sf_slots, PRIO_BEACON, Ev::Beacon);
                }
            }
            Ev::Arrival { rec } => {
                let n = &mut nodes[rec as usize];
                if faults_active && !fault[n.id as usize].alive {
                    // Scheduled at the beacon, but a deferred death
                    // resolved since: the node is gone.
                    continue;
                }
                if n.active {
                    if !in_warmup {
                        sink.on_overrun();
                    }
                    continue;
                }
                n.take_packet();
                n.active = true;
                n.kind = CsmaKind::Uplink;
                n.recording = !in_warmup;
                n.attempt = 1;
                queue.push(n.start_csma(slot, config.csma), PRIO_CCA, Ev::Cca { rec });
            }
            Ev::Cca { rec } => {
                let busy = slot_us < busy_until_us;
                let n = &mut nodes[rec as usize];
                let machine = n.csma.as_mut().expect("CCA without active CSMA");
                match machine.on_cca(busy, &mut n.rng) {
                    CsmaAction::CcaAgain => {
                        queue.push(slot + 1, PRIO_CCA, Ev::Cca { rec });
                    }
                    CsmaAction::BackoffThenCca { periods } => {
                        queue.push(slot + 1 + periods as u64, PRIO_CCA, Ev::Cca { rec });
                    }
                    CsmaAction::Transmit => {
                        let machine = n.csma.take().expect("machine present");
                        let start_slot = slot + 1;
                        let airtime_us = match n.kind {
                            CsmaKind::Uplink => packet_us,
                            CsmaKind::DataRequest => timings.data_request_us,
                        };
                        let end_us = start_slot * SLOT_US + airtime_us;
                        n.ccas = machine.ccas_performed();
                        // Same-slot starters collide with each other:
                        // joining the current cohort (or opening a new
                        // one) is the whole collision bookkeeping.
                        if cohort_slot == start_slot {
                            cohort_size += 1;
                        } else {
                            if let Some(t) = telem.as_deref_mut() {
                                if cohort_size > 0 {
                                    t.cohort_size.record(cohort_size as u64);
                                }
                            }
                            cohort_slot = start_slot;
                            cohort_size = 1;
                        }
                        n.tx_start_slot = start_slot;
                        debug_assert!(
                            pending_air.is_none_or(|(s, _)| s == start_slot),
                            "at most one undecided cohort can be pending"
                        );
                        // A cohort mixing packet and data-request airtimes
                        // has several endings; the pending horizon is the
                        // latest (identical to the single end when all
                        // airtimes agree, so the CAP-only fold is
                        // unchanged).
                        let merged_end = match pending_air {
                            Some((s, e)) if s == start_slot => e.max(end_us),
                            _ => end_us,
                        };
                        pending_air = Some((start_slot, merged_end));
                        queue.push(
                            end_us.div_ceil(SLOT_US),
                            PRIO_TXEND,
                            Ev::TxEnd { rec, end_us },
                        );
                    }
                    CsmaAction::Failure => {
                        let ccas = n.csma.take().expect("machine present").ccas_performed();
                        let contention_slots = slot - n.cont_start_slot;
                        match n.kind {
                            CsmaKind::Uplink => {
                                let record = n.end_transaction(AttemptOutcome::AccessFailure);
                                if n.recording {
                                    sink.on_attempt(&AttemptRecord {
                                        node: n.id,
                                        contention_slots,
                                        ccas,
                                        outcome: AttemptOutcome::AccessFailure,
                                    });
                                    sink.on_transaction(&record);
                                    if let Some(t) = telem.as_deref_mut() {
                                        t.attempts_access_failure += 1;
                                        t.ccas_per_attempt.record(ccas as u64);
                                        t.contention_slots.record(contention_slots);
                                        t.transactions += 1;
                                        t.attempts_per_transaction.record(record.attempts as u64);
                                    }
                                }
                            }
                            CsmaKind::DataRequest => {
                                if n.recording {
                                    sink.on_downlink(&DownlinkRecord {
                                        node: n.id,
                                        contention_slots,
                                        ccas,
                                        outcome: DownlinkOutcome::AccessFailure,
                                    });
                                }
                                n.active = false;
                                n.kind = CsmaKind::Uplink;
                            }
                        }
                        if faults_active {
                            let f = &mut fault[n.id as usize];
                            if std::mem::take(&mut f.death_pending) {
                                die(f, n.id, in_warmup, gts_nodes, &mut gts_registry, sink);
                            }
                        }
                    }
                }
            }
            Ev::TxEnd { rec, end_us } => {
                // The transmission itself kept the channel busy.
                busy_until_us = busy_until_us.max(end_us);
                let n = &mut nodes[rec as usize];
                debug_assert_eq!(
                    n.tx_start_slot, cohort_slot,
                    "TxEnd must belong to the current cohort"
                );
                let contention_slots = n.tx_start_slot - n.cont_start_slot;
                if n.kind == CsmaKind::DataRequest {
                    // A data request's ending: the coordinator answers a
                    // clean request with an acknowledgement and (promptly)
                    // the downlink frame, both of which occupy the CAP
                    // channel; the node's frame acknowledgement closes the
                    // exchange. One procedure per poll — an undelivered
                    // frame stays pending at the coordinator.
                    let outcome = if cohort_size >= 2 {
                        DownlinkOutcome::Collided
                    } else if corrupt(n.id) {
                        DownlinkOutcome::Corrupted
                    } else {
                        DownlinkOutcome::Delivered
                    };
                    let mut hold_us = 0;
                    if outcome != DownlinkOutcome::Collided {
                        // Request ACK, turnaround, downlink frame …
                        hold_us = ack_hold_us + TURNAROUND_US + packet_us;
                        if outcome == DownlinkOutcome::Delivered {
                            // … and the node's frame acknowledgement.
                            hold_us += ack_hold_us;
                        }
                    }
                    busy_until_us = busy_until_us.max(end_us + hold_us);
                    if n.recording {
                        sink.on_downlink(&DownlinkRecord {
                            node: n.id,
                            contention_slots,
                            ccas: n.ccas,
                            outcome,
                        });
                    }
                    n.active = false;
                    n.kind = CsmaKind::Uplink;
                } else {
                    let outcome = if cohort_size >= 2 {
                        AttemptOutcome::Collided
                    } else if corrupt(n.id) {
                        AttemptOutcome::Corrupted
                    } else {
                        AttemptOutcome::Delivered
                    };
                    if n.recording {
                        if let Some(t) = telem.as_deref_mut() {
                            match outcome {
                                AttemptOutcome::Delivered => t.attempts_delivered += 1,
                                AttemptOutcome::Collided => t.attempts_collided += 1,
                                AttemptOutcome::Corrupted => t.attempts_corrupted += 1,
                                AttemptOutcome::AccessFailure => t.attempts_access_failure += 1,
                            }
                            t.ccas_per_attempt.record(n.ccas as u64);
                            t.contention_slots.record(contention_slots);
                        }
                        sink.on_attempt(&AttemptRecord {
                            node: n.id,
                            contention_slots,
                            ccas: n.ccas,
                            outcome,
                        });
                    }
                    if outcome == AttemptOutcome::Delivered {
                        // The acknowledgement occupies the channel too.
                        busy_until_us = busy_until_us.max(end_us + ack_hold_us);
                    } else if n.attempt < config.retries.n_max() {
                        // Wait out t_ack⁺, then contend again.
                        n.attempt += 1;
                        let retry_slot = (end_us + ack_timeout_us).div_ceil(SLOT_US);
                        let cca_slot = n.start_csma(retry_slot, config.csma);
                        queue.push(cca_slot, PRIO_CCA, Ev::Cca { rec });
                        continue;
                    }
                    let record = n.end_transaction(outcome);
                    if n.recording {
                        sink.on_transaction(&record);
                        if let Some(t) = telem.as_deref_mut() {
                            t.transactions += 1;
                            t.transactions_delivered += u64::from(record.delivered);
                            t.attempts_per_transaction.record(record.attempts as u64);
                        }
                    }
                }
                if faults_active {
                    let f = &mut fault[n.id as usize];
                    if std::mem::take(&mut f.death_pending) {
                        die(f, n.id, in_warmup, gts_nodes, &mut gts_registry, sink);
                    }
                }
            }
            Ev::GtsTx { rec } => {
                // Contention-free uplink: no CSMA, no cohort, no CAP
                // channel interaction — the dedicated slot carries exactly
                // this node. Channel noise still applies; a corrupted
                // packet is carried to the holder's slot in the next
                // superframe (persistence costs no contention, so N_max
                // does not apply).
                let n = &mut nodes[rec as usize];
                if faults_active && !fault[n.id as usize].alive {
                    // The holder died mid-superframe (deferred death)
                    // after this slot was scheduled.
                    continue;
                }
                n.take_packet();
                let delivered = !corrupt(n.id);
                if !in_warmup {
                    sink.on_gts(&GtsRecord {
                        node: n.id,
                        delivered,
                        superframes_waited: n.superframes_waited,
                    });
                }
                n.carry_packet = !delivered;
            }
            Ev::DlPoll { rec } => {
                // The beacon listed this node's address: contend in the
                // CAP with a data request, unless the node is mid-uplink
                // (the frame then stays pending — a deferral).
                let n = &mut nodes[rec as usize];
                if faults_active && !fault[n.id as usize].alive {
                    // The node died mid-superframe after the poll was
                    // scheduled; the frame stays pending upstream.
                    continue;
                }
                if n.active {
                    if !in_warmup {
                        sink.on_downlink(&DownlinkRecord {
                            node: n.id,
                            contention_slots: 0,
                            ccas: 0,
                            outcome: DownlinkOutcome::Deferred,
                        });
                    }
                    continue;
                }
                n.active = true;
                n.kind = CsmaKind::DataRequest;
                n.recording = !in_warmup;
                queue.push(n.start_csma(slot, config.csma), PRIO_CCA, Ev::Cca { rec });
            }
        }
    }
    if let Some(mut t) = telem {
        t.runs = 1;
        if cohort_size > 0 {
            t.cohort_size.record(cohort_size as u64);
        }
        let mut window_growths = 0;
        if let Some(qs) = queue.stats() {
            t.queue_pushes = qs.pushes;
            t.queue_pops = qs.pops;
            window_growths = qs.window_growths;
            t.queue_skip_slots.merge(&qs.skip_slots);
        }
        crate::telemetry::merge_engine(&t, window_growths);
    }
    events
}

/// Runs the channel simulation with a per-attempt corruption oracle and
/// collects the full [`SimTrace`].
///
/// `corrupt(node)` is consulted for every collision-free transmission; when
/// it returns `true` the packet is treated as FCS-corrupted (no
/// acknowledgement, retry). [`simulate_contention`] instead reduces online
/// with a constant `false` oracle — the pure-MAC setting of Figure 6.
pub fn run_channel_sim<F>(config: &ChannelSimConfig, corrupt: F) -> SimTrace
where
    F: FnMut(u32) -> bool,
{
    let timings = config.timings();
    let mut collector = TraceCollector::new(timings.superframe_slots);
    with_workspace(|ws| run_channel_sim_into_ws(config, &timings, corrupt, &mut collector, ws));
    collector.into_trace()
}

/// Runs the pure-MAC contention characterization (no channel noise) and
/// reduces it to [`ContentionStats`] — one point of the paper's Figure 6.
///
/// # Examples
///
/// ```
/// use wsn_sim::{simulate_contention, ChannelSimConfig};
///
/// let mut cfg = ChannelSimConfig::figure6(50, 0.3, 42);
/// cfg.superframes = 10; // keep the doctest quick
/// let stats = simulate_contention(&cfg);
/// assert!(stats.mean_ccas >= 2.0);
/// assert!(stats.pr_access_failure.value() < 0.5);
/// ```
pub fn simulate_contention(config: &ChannelSimConfig) -> ContentionStats {
    let timings = config.timings();
    let mut sink = StatsSink::new();
    with_workspace(|ws| run_channel_sim_into_ws(config, &timings, |_| false, &mut sink, ws));
    sink.contention_stats()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wsn_units::Probability;

    fn quick(payload: usize, load: f64, seed: u64) -> ChannelSimConfig {
        let mut c = ChannelSimConfig::figure6(payload, load, seed);
        c.superframes = 12;
        c
    }

    /// The trace's records folded into a [`StatsSink`].
    fn reduced(trace: &SimTrace) -> StatsSink {
        let mut sink = StatsSink::new();
        trace.replay(&mut sink);
        sink
    }

    #[test]
    fn single_node_never_collides_or_fails() {
        let mut cfg = quick(50, 0.05, 1);
        cfg.nodes = 1;
        let stats = simulate_contention(&cfg);
        assert_eq!(stats.pr_collision, Probability::ZERO);
        assert_eq!(stats.pr_access_failure, Probability::ZERO);
        assert_eq!(stats.mean_ccas, 2.0);
        // Contention = initial backoff (0..=7 slots) + 2 CCA slots; mean
        // near (3.5 + 2) × 320 µs with generous tolerance.
        let mean_us = stats.mean_contention.micros();
        assert!(
            (800.0..2600.0).contains(&mean_us),
            "mean contention {mean_us} µs"
        );
    }

    #[test]
    fn stats_degrade_with_load() {
        let lo = simulate_contention(&quick(100, 0.1, 7));
        let hi = simulate_contention(&quick(100, 0.8, 7));
        assert!(
            hi.pr_access_failure.value() >= lo.pr_access_failure.value(),
            "Pr_cf should not improve with load: {lo} vs {hi}"
        );
        assert!(
            hi.mean_contention > lo.mean_contention,
            "contention time should grow with load"
        );
        assert!(hi.mean_ccas > lo.mean_ccas);
        assert!(hi.pr_collision.value() >= lo.pr_collision.value());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_channel_sim(&quick(50, 0.4, 99), |_| false);
        let b = run_channel_sim(&quick(50, 0.4, 99), |_| false);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.transactions, b.transactions);
        let c = run_channel_sim(&quick(50, 0.4, 100), |_| false);
        assert_ne!(a.attempts, c.attempts, "different seeds should differ");
    }

    #[test]
    fn corruption_forces_retries() {
        let cfg = quick(50, 0.2, 5);
        let clean = reduced(&run_channel_sim(&cfg, |_| false));
        let noisy = reduced(&run_channel_sim(&cfg, |_| true)); // every packet corrupted
        assert!(noisy.mean_attempts() > clean.mean_attempts());
        // All transactions fail when every packet is corrupted.
        assert!((noisy.failure_ratio().value() - 1.0).abs() < 1e-12);
        assert!(clean.failure_ratio().value() < 0.2);
    }

    #[test]
    fn transactions_account_for_all_nodes() {
        let cfg = quick(50, 0.3, 11);
        let trace = run_channel_sim(&cfg, |_| false);
        // 100 nodes × (superframes − warmup − tail losses): at least half
        // the nominal count must be recorded.
        let nominal = cfg.nodes as u64 * (cfg.superframes as u64 - 1);
        assert!(
            trace.transactions.len() as u64 > nominal / 2,
            "only {} of {} transactions recorded",
            trace.transactions.len(),
            nominal
        );
        // Per-record bounds over random payloads, loads and seeds, and
        // without a corruption oracle one delivered attempt per delivered
        // transaction.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7ACE);
        for case in 0..40 {
            let load = 0.05 + 0.85 * rng.next_f64();
            let mut cfg = quick(5 + rng.index(119), load, rng.next_u64());
            (cfg.nodes, cfg.superframes) = (20, 4);
            let trace = run_channel_sim(&cfg, |_| false);
            let rounds = u32::from(cfg.csma.max_backoffs) + 1;
            let max_ccas = rounds * u32::from(cfg.csma.cw);
            for a in &trace.attempts {
                assert!((1..=max_ccas).contains(&a.ccas), "case {case}");
                let failed = a.outcome == AttemptOutcome::AccessFailure;
                assert!(!failed || a.ccas >= rounds, "case {case}");
                assert_ne!(a.outcome, AttemptOutcome::Corrupted, "case {case}");
            }
            for t in &trace.transactions {
                assert!(t.attempts <= cfg.retries.n_max(), "case {case}");
                let ok = t.attempts >= 1 && !t.access_failure;
                assert!(!t.delivered || ok, "case {case}");
            }
            let delivered = |o| trace.attempts.iter().filter(|a| a.outcome == o).count();
            let done = trace.transactions.iter().filter(|t| t.delivered).count();
            assert_eq!(delivered(AttemptOutcome::Delivered), done, "case {case}");
            let st = reduced(&trace).contention_stats();
            assert!(st.procedures == 0 || st.mean_ccas >= 1.0, "case {case}");
        }
    }

    #[test]
    fn synchronized_arrivals_are_much_worse() {
        let mut staggered = quick(100, 0.42, 3);
        staggered.nodes = 100;
        let mut synced = staggered.clone();
        synced.synchronized_arrivals = true;
        let s1 = simulate_contention(&staggered);
        let s2 = simulate_contention(&synced);
        assert!(
            s2.pr_access_failure.value() > 2.0 * s1.pr_access_failure.value(),
            "beacon-synchronized contention should collapse: {s1} vs {s2}"
        );
    }

    #[test]
    fn delivery_delay_at_low_load_is_one_superframe() {
        let cfg = quick(20, 0.05, 13);
        let mean = reduced(&run_channel_sim(&cfg, |_| false)).mean_delivery_superframes();
        assert!(
            (mean - 1.0).abs() < 0.05,
            "mean delivery superframes {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "load must be in (0,1)")]
    fn absurd_load_rejected() {
        let _ = ChannelSimConfig::figure6(50, 1.5, 0);
    }

    #[test]
    fn validate_mirrors_engine_preconditions() {
        let good = quick(20, 0.3, 1);
        assert_eq!(good.validate(), Ok(()));

        let mut cfg = good.clone();
        cfg.nodes = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoNodes));

        let mut cfg = good.clone();
        cfg.load = 1.0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadLoad(1.0)));
        cfg.load = f64::NAN;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadLoad(_))));

        let mut cfg = good.clone();
        cfg.superframes = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewSuperframes(1)));

        // A superframe long enough to overflow the calendar ceiling: huge
        // node count at vanishing load explodes T_ib = N·T_packet/λ.
        let mut cfg = good;
        cfg.nodes = 50_000_000;
        cfg.load = 1e-4;
        match cfg.validate() {
            Err(ConfigError::Window(err)) => {
                assert!(err.requested > crate::events::MAX_WINDOW);
            }
            other => panic!("expected window overflow, got {other:?}"),
        }
        // CSMA/CA parameters `SlottedCsmaCa::start` would panic on, a CFP
        // on an 8-slot superframe, and a packet longer than its GTS.
        let mut cfg = quick(20, 0.3, 1);
        cfg.csma.cw = 0;
        let csma = ConfigError::Csma(InvalidCsmaParams::ZeroContentionWindow);
        assert_eq!(cfg.validate(), Err(csma));
        let mut cfg = quick(5, 0.9, 1);
        cfg.nodes = 1;
        cfg.cfp = plan_channel_cfp(1, 0, 1, 8, 0.5);
        assert_eq!(cfg.validate(), Err(ConfigError::CfpSpan));
        let mut cfg = quick(123, 0.9, 1);
        cfg.nodes = 4;
        cfg.cfp = plan_channel_cfp(4, 4, 1, 8, 0.0);
        let fit = ConfigError::GtsFit {
            packet_us: 4352,
            slots: 1,
        };
        assert_eq!(cfg.validate(), Err(fit));
        assert!(fit.to_string().contains("does not fit"));
        // Error text matches the engine's panic messages (pinned by the
        // `should_panic(expected = ...)` substring tests).
        assert_eq!(
            ConfigError::NoNodes.to_string(),
            "at least one node required"
        );
        assert!(ConfigError::BadLoad(1.5)
            .to_string()
            .starts_with("load must be in (0,1)"));
        assert!(ConfigError::TooFewSuperframes(1)
            .to_string()
            .starts_with("need at least two superframes"));
    }

    // --- CFP engine ------------------------------------------------------

    use crate::cfp::{plan_channel_cfp, DownlinkOutcome};

    fn cfp_cfg(gts_demand: u32, downlink_rate: f64, seed: u64) -> ChannelSimConfig {
        let mut c = quick(50, 0.3, seed);
        c.nodes = 20;
        c.cfp = plan_channel_cfp(c.nodes as u32, gts_demand, 1, 8, downlink_rate);
        c
    }

    #[test]
    fn inert_plans_are_interchangeable_and_schedule_nothing() {
        // Cross-version inertness (an inert plan reproduces the PR 4
        // CAP-only engine bit-for-bit) is pinned by golden-diffing the
        // figure binaries; what a unit test *can* pin is that every
        // inert-plan construction behaves identically and that no CFP
        // record ever reaches the sink.
        let base = quick(80, 0.4, 0xCF9);
        let mut planned = base.clone();
        // A registry-resolved plan with zero demand and zero rate is
        // inert by a different construction path than `inert()`.
        planned.cfp = plan_channel_cfp(base.nodes as u32, 0, 1, 8, 0.0);
        assert!(planned.cfp.is_inert());
        let a = run_channel_sim(&base, |_| false);
        let b = run_channel_sim(&planned, |_| false);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.transactions, b.transactions);
        assert!(a.gts.is_empty() && a.downlinks.is_empty());
        // Nothing in the CFP machinery consumed engine RNG: a third run
        // with the default-constructed plan agrees too.
        let c = run_channel_sim(&quick(80, 0.4, 0xCF9), |_| false);
        assert_eq!(a.attempts, c.attempts);
    }

    #[test]
    fn gts_holders_never_contend_and_never_collide() {
        let cfg = cfp_cfg(7, 0.0, 0x61);
        let trace = run_channel_sim(&cfg, |_| false);
        // Seven holders × (superframes − warmup), minus at most the
        // horizon tail.
        assert!(
            trace.gts.len() as u32 >= 7 * (cfg.superframes - 2),
            "only {} GTS records",
            trace.gts.len()
        );
        assert!(trace.gts.iter().all(|g| g.node < 7));
        assert!(trace.gts.iter().all(|g| g.delivered), "GTS cannot collide");
        // CAP records never name a GTS holder.
        assert!(trace.attempts.iter().all(|a| a.node >= 7));
        assert!(trace.transactions.iter().all(|t| t.node >= 7));
    }

    #[test]
    fn gts_offload_relieves_cap_contention() {
        let cap_only = simulate_contention(&cfp_cfg(0, 0.0, 0x62));
        let offloaded = simulate_contention(&cfp_cfg(7, 0.0, 0x62));
        assert!(
            offloaded.mean_contention <= cap_only.mean_contention,
            "7 of 20 nodes moved to the CFP must not worsen CAP contention: \
             {cap_only} vs {offloaded}"
        );
    }

    #[test]
    fn corrupted_gts_packets_carry_to_the_next_superframe() {
        let cfg = cfp_cfg(7, 0.0, 0x63);
        let trace = run_channel_sim(&cfg, |_| true); // every packet corrupted
        assert!(trace.gts.iter().all(|g| !g.delivered));
        // The carried packet's wait grows monotonically per holder.
        let waits: Vec<u32> = trace
            .gts
            .iter()
            .filter(|g| g.node == 0)
            .map(|g| g.superframes_waited)
            .collect();
        assert!(
            waits.windows(2).all(|w| w[1] == w[0] + 1),
            "waits {waits:?}"
        );
    }

    #[test]
    fn downlink_polls_record_every_outcome_class() {
        let cfg = cfp_cfg(0, 1.0, 0x64);
        let trace = run_channel_sim(&cfg, |_| false);
        // One poll per node per recorded superframe (rate 1.0), minus the
        // horizon tail.
        assert!(
            trace.downlinks.len() as u32 >= cfg.nodes as u32 * (cfg.superframes - 2),
            "only {} downlink records",
            trace.downlinks.len()
        );
        let delivered = trace
            .downlinks
            .iter()
            .filter(|d| d.outcome == DownlinkOutcome::Delivered)
            .count();
        assert!(delivered > trace.downlinks.len() / 2);
        // Deferred polls exist (uplink transactions overlap the polls)
        // and carry no contention measurements.
        assert!(trace
            .downlinks
            .iter()
            .filter(|d| d.outcome == DownlinkOutcome::Deferred)
            .all(|d| d.contention_slots == 0 && d.ccas == 0));
        // Non-deferred polls contended: they performed CCAs.
        assert!(trace
            .downlinks
            .iter()
            .filter(|d| d.outcome != DownlinkOutcome::Deferred)
            .all(|d| d.ccas >= 2));
    }

    #[test]
    fn downlink_rate_scales_poll_volume() {
        let light = run_channel_sim(&cfp_cfg(0, 0.1, 0x65), |_| false);
        let heavy = run_channel_sim(&cfp_cfg(0, 0.9, 0x65), |_| false);
        assert!(heavy.downlinks.len() > 4 * light.downlinks.len());
    }

    #[test]
    fn downlink_contention_pressures_the_cap() {
        // Data requests contend like any packet, so polling every
        // superframe must raise the CAP's observed contention.
        let quiet = simulate_contention(&cfp_cfg(0, 0.0, 0x66));
        let polled = simulate_contention(&cfp_cfg(0, 1.0, 0x66));
        assert!(
            polled.mean_contention > quiet.mean_contention,
            "polling must load the CAP: {quiet} vs {polled}"
        );
    }

    #[test]
    fn cfp_runs_are_deterministic_per_seed() {
        let cfg = cfp_cfg(5, 0.5, 0x67);
        let a = run_channel_sim(&cfg, |_| false);
        let b = run_channel_sim(&cfg, |_| false);
        assert_eq!(a.gts, b.gts);
        assert_eq!(a.downlinks, b.downlinks);
        assert_eq!(a.attempts, b.attempts);
    }

    /// The GTS registry addresses devices by 16-bit short address. Node
    /// 65536 + k must not stand in for holder k under churn: its death
    /// must not free holder k's descriptor, and it must not transmit in
    /// holder k's slot.
    #[test]
    fn node_ids_past_65535_do_not_alias_gts_holders() {
        let mut cfg = ChannelSimConfig::figure6(50, 0.4, 7);
        cfg.nodes = 65_540;
        cfg.superframes = 3;
        cfg.cfp = plan_channel_cfp(65_540, 3, 1, 8, 0.0);
        cfg.faults = FaultPlan::inert().with_churn(0.3, 1, 0);
        let trace = run_channel_sim(&cfg, |_| false);
        assert!(!trace.gts.is_empty() && !trace.attempts.is_empty());
        let strays: Vec<_> = trace.gts.iter().filter(|g| g.node >= 3).collect();
        assert!(strays.is_empty(), "GTS records of non-holders {strays:?}");
        let holders: Vec<_> = trace.attempts.iter().filter(|a| a.node < 3).collect();
        assert!(
            holders.is_empty(),
            "CAP attempts of GTS holders {holders:?}"
        );
    }

    // --- Engine goldens ---------------------------------------------------

    /// FNV-1a over a value's `Debug` text, as perfbench's `probe::digest`
    /// computes it: `Debug` prints every field and every record in engine
    /// order, so two digests agree exactly when the traces do.
    pub(crate) fn digest(value: &impl core::fmt::Debug) -> u64 {
        crate::persist::fnv1a64(format!("{value:?}").as_bytes())
    }

    /// The trace of `cfg` under a seeded corruption oracle. The oracle
    /// draws once per consultation, in event order, so a change in the
    /// order same-slot events pop moves the draws and the digest with it.
    fn golden_trace(cfg: &ChannelSimConfig) -> SimTrace {
        let mut oracle = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0x6017_DE45);
        run_channel_sim(cfg, |_| oracle.bernoulli(0.15))
    }

    /// The golden configurations: staggered, synchronized, polled and
    /// churned (see `engine_goldens_hold_under_same_slot_ties`).
    fn golden_configs() -> [ChannelSimConfig; 4] {
        let mut staggered = quick(50, 0.4, 0x901C);
        staggered.nodes = 400;

        let mut synced = quick(50, 0.4, 0x901D);
        synced.synchronized_arrivals = true;

        let mut polled = quick(50, 0.3, 0x901E);
        polled.nodes = 120;
        polled.cfp = plan_channel_cfp(120, 6, 1, 8, 1.0);

        let mut churned = quick(50, 0.6, 0x901F);
        churned.nodes = 60;
        churned.superframes = 24;
        churned.cfp = plan_channel_cfp(60, 5, 1, 8, 0.5);
        churned.faults = FaultPlan::inert()
            .with_churn(0.05, 1, 2)
            .with_outages(0.08, 1);
        [staggered, synced, polled, churned]
    }

    /// Engine goldens over configurations built to create same-slot ties
    /// between events of one priority class, the ties the
    /// `(time, class, insertion)` pop order has to break:
    ///
    /// * staggered arrivals at 400 nodes, where several nodes share an
    ///   arrival offset;
    /// * `synchronized_arrivals`, which puts every arrival of a superframe
    ///   in one slot;
    /// * GTS holders plus a downlink poll per node per superframe, whose
    ///   polls share the arrival class;
    /// * churn and coordinator outages with GTS, which drive the live
    ///   GTS registry and deaths deferred to a procedure's end.
    ///
    /// The digests were captured before the calendar queue moved to one
    /// 4-byte cell per ring slot and before beacons pushed their arrivals
    /// in slot order; both changes had to leave them as they were.
    #[test]
    fn engine_goldens_hold_under_same_slot_ties() {
        let traces = golden_configs().each_ref().map(golden_trace);
        // The workloads reach the paths they are meant to.
        assert!(traces.iter().all(|t| !t.attempts.is_empty()));
        assert!(!traces[2].gts.is_empty() && !traces[2].downlinks.is_empty());
        assert!(!traces[3].gts.is_empty() && !traces[3].downlinks.is_empty());
        assert!(traces[3].faults.iter().any(|f| f.kind == FaultKind::Death));
        assert!(traces[3].overruns > 0, "no procedure outlived a beacon");

        let digests = traces.each_ref().map(digest);
        assert_eq!(
            digests,
            [
                0xa8c8_af47_c1bd_fdf6,
                0x0c65_b9a6_7a16_5ca0,
                0xb549_81ab_16d4_1a49,
                0x9d3b_7317_3e3b_f797,
            ],
            "engine output changed: staggered, synchronized, polled, churned"
        );
    }

    /// Engine goldens under an oracle whose answer depends on the node it
    /// is asked about: never corrupt for even nodes, even odds for odd
    /// ones. The oracle still draws once per consultation, so a `corrupt`
    /// call that names the wrong node moves the digest. The staggered
    /// configuration reaches the uplink call; the churned one reaches the
    /// data-request, GTS and re-association calls too.
    ///
    /// The digests were captured before node state moved into one record
    /// per node stored in arrival order, which had to leave them as they
    /// were.
    #[test]
    fn engine_goldens_hold_under_a_node_dependent_oracle() {
        let [staggered, _, _, churned] = golden_configs();
        let traces = [&staggered, &churned].map(|cfg| {
            let p: Vec<f64> = (0..cfg.nodes).map(|i| 0.5 * (i % 2) as f64).collect();
            let mut oracle = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0x0DD_0DD5);
            run_channel_sim(cfg, |node| oracle.bernoulli(p[node as usize]))
        });
        // Only odd nodes are ever corrupted, and every call site is hit.
        for t in &traces {
            let mut corrupted = t
                .attempts
                .iter()
                .filter(|a| a.outcome == AttemptOutcome::Corrupted)
                .peekable();
            assert!(corrupted.peek().is_some());
            assert!(corrupted.all(|a| a.node % 2 == 1));
        }
        let churned = &traces[1];
        assert!(churned.gts.iter().any(|g| !g.delivered));
        assert!(churned
            .downlinks
            .iter()
            .any(|d| d.outcome == DownlinkOutcome::Corrupted));
        let join = |ok| FaultKind::JoinAttempt { success: ok };
        assert!(churned.faults.iter().any(|f| f.kind == join(true)));
        assert!(churned.faults.iter().any(|f| f.kind == join(false)));

        let digests = traces.each_ref().map(digest);
        assert_eq!(
            digests,
            [0x36f7_049c_621b_f062, 0x4019_5b05_49ed_7422],
            "engine output changed: staggered, churned"
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_packet_for_gts_rejected() {
        // A high-load configuration shrinks the superframe (and with it
        // the MAC slots) until a 123-byte packet cannot fit one slot.
        let mut c = quick(123, 0.9, 1);
        c.nodes = 4;
        c.cfp = plan_channel_cfp(4, 4, 1, 8, 0.0);
        let _ = run_channel_sim(&c, |_| false);
    }
}
