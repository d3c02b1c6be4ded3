//! Full-network energy simulation: the contention engine combined with the
//! paper's radio activation policy and per-node energy ledgers.
//!
//! For every node and superframe the simulated lifecycle is the one in the
//! paper's Figure 5, billed as a list of radio procedures:
//!
//! 1. the **beacon window**: wake the chip ~1 ms before the beacon
//!    (shutdown → idle), turn the receiver on (`T_ia`) and receive the
//!    beacon;
//! 2. return to shutdown until the node's packet is ready, then **wake**
//!    again and run **slotted CSMA/CA** — idle between CCAs, receiver on
//!    for each 194 µs turn-on plus the 128 µs assessment;
//! 3. **send** the packet at the node's power level and turn around to RX;
//! 4. the **ACK listen**: the ACK duration when acknowledged, the full
//!    `t_ack⁺ − t_ack⁻` window otherwise;
//! 5. the **IFS**: observe the interframe spacing and shut down.
//!
//! GTS transmissions, downlink polls, orphan scans and re-association
//! exchanges are lists of the same procedures, each billed by one piece of
//! code. Energy is derived from the contention trace (backoff wall-time,
//! CCA counts, attempts, outcomes) — every state residency is known
//! exactly, so the ledger is bit-deterministic given the seed.

use wsn_channel::received_power;
use wsn_mac::timing::{
    cca_detection_time, turnaround_time, unit_backoff_period, ACK_WAIT_MAX_SYMBOLS, LIFS_SYMBOLS,
    TURNAROUND_SYMBOLS,
};
use wsn_phy::ber::BerModel;
use wsn_phy::consts::symbols;
use wsn_phy::frame::{ack_duration, beacon_duration, PacketLayout};
use wsn_radio::ledger::{EnergyLedger, PhaseTag};
use wsn_radio::{RadioModel, RadioState, TxPowerLevel};
use wsn_units::{DBm, Db, Power, Probability, Seconds};

use std::collections::HashMap;
use std::sync::Arc;

use crate::cfp::{DownlinkOutcome, DownlinkRecord, GtsRecord, DATA_REQUEST_AIR_BYTES};
use crate::contention::{
    run_drawn, with_workspace, AttemptOutcome, AttemptRecord, ChannelSimConfig, TransactionRecord,
};
use crate::faults::{FaultKind, FaultRecord};
use crate::rng::Xoshiro256StarStar;
use crate::sink::{StatsSink, TraceSink};
use crate::stats::{Accumulator, Counter};

/// Per-node transmit power assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum TxPowerPolicy {
    /// Every node transmits at the same level.
    Fixed(TxPowerLevel),
    /// Channel inversion: each node picks the cheapest level whose received
    /// power at the coordinator is at least `target_rx`; nodes that cannot
    /// reach it use 0 dBm.
    ChannelInversion {
        /// Desired received power at the coordinator.
        target_rx: DBm,
    },
    /// Explicit per-node levels (e.g. computed by the analytical link
    /// adaptation). The levels live behind an [`Arc`] so cloning the
    /// policy — which every per-replication config view does — shares the
    /// allocation instead of copying it.
    PerNode(Arc<[TxPowerLevel]>),
}

impl TxPowerPolicy {
    /// Resolves the policy into per-node levels.
    ///
    /// # Panics
    ///
    /// Panics if a `PerNode` assignment has the wrong length.
    pub fn resolve(&self, path_losses: &[Db]) -> Vec<TxPowerLevel> {
        match self {
            TxPowerPolicy::Fixed(level) => vec![*level; path_losses.len()],
            TxPowerPolicy::ChannelInversion { target_rx } => path_losses
                .iter()
                .map(|a| {
                    let required = DBm::new(target_rx.dbm() + a.db());
                    TxPowerLevel::cheapest_reaching(required).unwrap_or(TxPowerLevel::strongest())
                })
                .collect(),
            TxPowerPolicy::PerNode(levels) => {
                assert_eq!(
                    levels.len(),
                    path_losses.len(),
                    "per-node level count must match node count"
                );
                levels.to_vec()
            }
        }
    }
}

/// Configuration of the network energy simulation.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Channel/contention parameters (node count, packet, load, CSMA…).
    pub channel: ChannelSimConfig,
    /// Radio energy model.
    pub radio: RadioModel,
    /// Per-node path losses to the coordinator (length = node count).
    /// Shared behind an [`Arc`]: per-replication and per-job config views
    /// clone the `NetworkConfig` in O(1) — only the seed differs per job.
    pub path_losses: Arc<[Db]>,
    /// Transmit power assignment.
    pub tx_policy: TxPowerPolicy,
    /// Coordinator transmit power (beacon and acknowledgements).
    pub coordinator_tx: DBm,
    /// How early the chip wakes before the beacon (the paper uses 1 ms to
    /// cover the ~970 µs shutdown→idle transition).
    pub wakeup_margin: Seconds,
    /// Optional precomputed per-node corruption probabilities, in node
    /// order (length = node count). `None` makes the simulator derive them
    /// from the BER model on entry; `Some` skips that derivation.
    ///
    /// No caller in this workspace sets it. It is kept because
    /// `perfbench` builds `NetworkConfig` literals and its engine probe
    /// reads it. Values must equal what the simulator's own
    /// packet-or-ACK corruption math computes bit for bit, or traces
    /// diverge from the `None` path.
    pub corrupt_probs: Option<Arc<[f64]>>,
}

impl NetworkConfig {
    /// Validates structural consistency.
    ///
    /// # Panics
    ///
    /// Panics if the path-loss vector (or a provided corruption-probability
    /// vector) length differs from the node count.
    fn validate(&self) {
        assert_eq!(
            self.path_losses.len(),
            self.channel.nodes,
            "one path loss per node required"
        );
        if let Some(probs) = &self.corrupt_probs {
            assert_eq!(
                probs.len(),
                self.channel.nodes,
                "one corruption probability per node required"
            );
        }
    }
}

/// Packet-or-ACK corruption probability of one uplink transaction: the
/// packet at the node's `level` over `loss`, the acknowledgement back at
/// `coordinator_tx` over the same loss, either direction failing costing
/// the acknowledgement. [`NetworkSimulator::run_accumulate_counted`]
/// derives each run's probabilities through it.
fn corruption_probability<B: BerModel>(
    ber: &B,
    packet: PacketLayout,
    coordinator_tx: DBm,
    loss: Db,
    level: TxPowerLevel,
) -> f64 {
    // The ACK's preamble/SFD are sent before the receiver's correlator
    // locks; 11 - 4 = 7 exposed octets.
    let ack_exposed_bits = 8.0 * (11.0 - 4.0);
    let p_rx = received_power(level.output_power(), loss);
    let pr_packet = ber.packet_error_probability(p_rx, packet).value();
    let p_rx_ack = received_power(coordinator_tx, loss);
    let pr_bit_ack = ber.bit_error_probability(p_rx_ack).value();
    let pr_ack = 1.0 - (1.0 - pr_bit_ack).powf(ack_exposed_bits);
    1.0 - (1.0 - pr_packet) * (1.0 - pr_ack)
}

/// Aggregated results of a network simulation, computed online — the
/// finalized form of a [`NetworkAccumulator`] such as
/// [`NetworkSimulator::run_accumulate_counted`] returns.
#[derive(Debug, Clone)]
pub struct NetworkSummary {
    /// Mean average power per node over the recorded window.
    pub mean_node_power: Power,
    /// Per-node average powers (channel-major when channels were merged).
    pub node_powers: Vec<Power>,
    /// Population energy ledger (all nodes merged) — Figure 9 material.
    pub ledger: EnergyLedger,
    /// Fraction of transactions that failed (`Pr_fail`).
    pub failure_ratio: Probability,
    /// Number of transactions observed (the trials behind
    /// [`failure_ratio`](Self::failure_ratio)) — the sample size
    /// allocation policies weight their per-channel observations by.
    pub transactions: u64,
    /// Mean delivery delay.
    pub mean_delay: Seconds,
    /// Mean transmission attempts per transaction.
    pub mean_attempts: f64,
    /// Energy per delivered payload bit.
    pub energy_per_bit_nj: f64,
    /// Number of independent replications merged into this summary.
    pub replications: u32,
    /// Standard error of [`mean_node_power`](Self::mean_node_power):
    /// across replication means when `replications ≥ 2`, otherwise across
    /// the node population of the single run.
    pub power_standard_error: Power,
    /// Standard error of [`failure_ratio`](Self::failure_ratio): across
    /// replications when available, otherwise the binomial error over
    /// transactions.
    pub failure_standard_error: f64,
    /// Standard error of [`mean_delay`](Self::mean_delay): across
    /// replications when available, otherwise across delivered
    /// transactions.
    pub delay_standard_error: Seconds,
    /// Mean per-node power spent on CAP traffic (contention, uplink
    /// transmission, acknowledgement wait, interframe spacing).
    pub cap_power: Power,
    /// Mean per-node power spent on contention-free traffic (GTS
    /// transmissions plus downlink polling).
    pub cfp_power: Power,
    /// Standard error of [`cap_power`](Self::cap_power): across
    /// replication means when `replications ≥ 2`, otherwise across the
    /// node population.
    pub cap_power_standard_error: Power,
    /// Standard error of [`cfp_power`](Self::cfp_power), like
    /// [`cap_power_standard_error`](Self::cap_power_standard_error).
    pub cfp_power_standard_error: Power,
    /// GTS transmissions observed (CFP transactions).
    pub gts_transactions: u64,
    /// Fraction of GTS transmissions that failed (channel noise only —
    /// GTS never collides).
    pub gts_failure_ratio: Probability,
    /// GTS requests denied at compile time, summed over merged runs.
    pub gts_denied: u64,
    /// Downlink polls that ran a data request (deferred polls excluded).
    pub downlink_polls: u64,
    /// Fraction of those polls that failed to deliver the frame.
    pub downlink_failure_ratio: Probability,
    /// Downlink polls deferred because the node was busy.
    pub downlink_deferred: u64,
    /// Node deaths injected by the fault plan (0 without faults).
    pub deaths: u64,
    /// Orphan-scan windows: beacons an alive node woke for and missed
    /// (coordinator outages).
    pub orphan_scans: u64,
    /// Re-association exchanges attempted by churned nodes.
    pub join_attempts: u64,
    /// Fraction of those exchanges that failed (response lost).
    pub join_failure_ratio: Probability,
    /// Mean death → successful re-association latency over rejoins.
    pub mean_reassociation_delay: Seconds,
    /// Nodes that exhausted their join-retry budget and stayed dormant.
    pub dormant_nodes: u64,
    /// Total energy divided by delivered uplink packets, in µJ — the
    /// graceful-degradation headline under churn (∞ when nothing was
    /// delivered).
    pub energy_per_delivered_packet_uj: f64,
}

/// Mergeable sufficient statistics of one or more network simulation runs.
///
/// This is the network-level analogue of [`StatsSink`] (which it carries
/// as [`contention`](Self::contention)): every field merges exactly
/// ([`Accumulator::merge`] / [`Counter::merge`] /
/// [`EnergyLedger::merge`]), so per-channel and per-replication shards
/// reduced on worker threads and combined in a fixed order are
/// bit-identical to a serial fold.
/// [`NetworkSimulator::run_accumulate_counted`] produces one per run, its
/// energy accountant folding each engine record into it once, next to
/// that record's billing; the parallel runner and the scenario layer
/// merge them.
///
/// Replication-level confidence intervals come from the `rep_*`
/// accumulators, which receive **one sample per sealed replication**
/// ([`seal_replication`](Self::seal_replication)): seal each replication's
/// accumulator (possibly after merging that replication's channels) before
/// merging it into the total.
#[derive(Debug, Clone, Default)]
pub struct NetworkAccumulator {
    /// Per-node average powers in µW (one sample per node).
    pub node_power_uw: Accumulator,
    /// Per-node average powers in accrual order (concatenated on merge).
    pub node_powers: Vec<Power>,
    /// Population energy ledger (all nodes merged).
    pub ledger: EnergyLedger,
    /// Failed-transaction counter (`Pr_fail`).
    pub failures: Counter,
    /// Transmission attempts per transaction.
    pub attempts: Accumulator,
    /// Delivery delay in seconds, over delivered transactions.
    pub delay_secs: Accumulator,
    /// Delivered payload bits (energy-per-bit denominator).
    pub delivered_payload_bits: f64,
    /// Replication means of the per-node power (µW); one sample per
    /// sealed replication.
    pub rep_power_uw: Accumulator,
    /// Replication failure ratios; one sample per sealed replication.
    pub rep_failure: Accumulator,
    /// Replication mean delays (s); one sample per sealed replication.
    pub rep_delay_secs: Accumulator,
    /// Per-node CAP power in µW (contention + transmit + ACK + IFS).
    pub cap_uw: Accumulator,
    /// Per-node CFP power in µW (GTS + downlink phases).
    pub cfp_uw: Accumulator,
    /// Replication means of the per-node CAP power; one per sealed
    /// replication.
    pub rep_cap_uw: Accumulator,
    /// Replication means of the per-node CFP power; one per sealed
    /// replication.
    pub rep_cfp_uw: Accumulator,
    /// Failed GTS transmissions over GTS transmissions.
    pub gts_failures: Counter,
    /// GTS requests denied at compile time, summed over merged runs.
    pub gts_denied: u64,
    /// Undelivered downlink polls over non-deferred polls.
    pub downlink_failures: Counter,
    /// Downlink polls deferred because the node was busy.
    pub downlink_deferred: u64,
    /// Node deaths injected by the fault plan.
    pub deaths: u64,
    /// Orphan-scan windows (beacons alive nodes woke for and missed).
    pub orphan_scans: u64,
    /// Failed re-association exchanges over all exchanges (hit = the
    /// response was lost).
    pub join_failures: Counter,
    /// Death → successful re-association latency in seconds.
    pub reassoc_delay_secs: Accumulator,
    /// Nodes that exhausted their join-retry budget and went dormant.
    pub dormant_nodes: u64,
    /// The run's own contention statistics (Figure 6 quantities), from
    /// the CAP attempts the accountant billed.
    pub contention: StatsSink,
}

impl NetworkAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        NetworkAccumulator::default()
    }

    /// Merges another accumulator into this one. Exact, and
    /// bit-deterministic when performed in a fixed order.
    pub fn merge(&mut self, other: &NetworkAccumulator) {
        self.node_power_uw.merge(&other.node_power_uw);
        self.node_powers.extend_from_slice(&other.node_powers);
        self.ledger.merge(&other.ledger);
        self.failures.merge(&other.failures);
        self.attempts.merge(&other.attempts);
        self.delay_secs.merge(&other.delay_secs);
        self.delivered_payload_bits += other.delivered_payload_bits;
        self.rep_power_uw.merge(&other.rep_power_uw);
        self.rep_failure.merge(&other.rep_failure);
        self.rep_delay_secs.merge(&other.rep_delay_secs);
        self.cap_uw.merge(&other.cap_uw);
        self.cfp_uw.merge(&other.cfp_uw);
        self.rep_cap_uw.merge(&other.rep_cap_uw);
        self.rep_cfp_uw.merge(&other.rep_cfp_uw);
        self.gts_failures.merge(&other.gts_failures);
        self.gts_denied += other.gts_denied;
        self.downlink_failures.merge(&other.downlink_failures);
        self.downlink_deferred += other.downlink_deferred;
        self.deaths += other.deaths;
        self.orphan_scans += other.orphan_scans;
        self.join_failures.merge(&other.join_failures);
        self.reassoc_delay_secs.merge(&other.reassoc_delay_secs);
        self.dormant_nodes += other.dormant_nodes;
        self.contention.merge(&other.contention);
    }

    /// Records the current aggregate scalars as one replication sample.
    ///
    /// Call exactly once per independent replication, after all of that
    /// replication's shards (e.g. its channels) have been merged and
    /// before merging into the cross-replication total.
    pub fn seal_replication(&mut self) {
        self.rep_power_uw.push(self.node_power_uw.mean());
        self.rep_failure.push(self.failures.ratio().value());
        self.rep_delay_secs.push(self.delay_secs.mean());
        self.rep_cap_uw.push(self.cap_uw.mean());
        self.rep_cfp_uw.push(self.cfp_uw.mean());
    }

    /// Number of sealed replications.
    pub fn replications(&self) -> u32 {
        self.rep_power_uw.count() as u32
    }

    /// Finalizes into a [`NetworkSummary`].
    ///
    /// Standard errors are replication-based when at least two
    /// replications were sealed; with fewer they fall back to the
    /// within-run sample errors (node population for power, binomial over
    /// transactions for failures, delivered transactions for delay).
    pub fn summary(&self) -> NetworkSummary {
        let replications = self.replications();
        let (power_se_uw, failure_se, delay_se_secs, cap_se_uw, cfp_se_uw) = if replications >= 2 {
            (
                self.rep_power_uw.standard_error(),
                self.rep_failure.standard_error(),
                self.rep_delay_secs.standard_error(),
                self.rep_cap_uw.standard_error(),
                self.rep_cfp_uw.standard_error(),
            )
        } else {
            (
                self.node_power_uw.standard_error(),
                self.failures.standard_error(),
                self.delay_secs.standard_error(),
                self.cap_uw.standard_error(),
                self.cfp_uw.standard_error(),
            )
        };
        let energy_per_bit_nj = if self.delivered_payload_bits > 0.0 {
            self.ledger.total_energy().nanojoules() / self.delivered_payload_bits
        } else {
            f64::INFINITY
        };
        let delivered = self.failures.trials() - self.failures.hits();
        let energy_per_delivered_packet_uj = if delivered > 0 {
            self.ledger.total_energy().nanojoules() / 1e3 / delivered as f64
        } else {
            f64::INFINITY
        };
        NetworkSummary {
            mean_node_power: Power::from_microwatts(self.node_power_uw.mean()),
            node_powers: self.node_powers.clone(),
            ledger: self.ledger.clone(),
            failure_ratio: self.failures.ratio(),
            transactions: self.failures.trials(),
            mean_delay: Seconds::from_secs(self.delay_secs.mean()),
            mean_attempts: self.attempts.mean(),
            energy_per_bit_nj,
            replications,
            power_standard_error: Power::from_microwatts(power_se_uw),
            failure_standard_error: failure_se,
            delay_standard_error: Seconds::from_secs(delay_se_secs),
            cap_power: Power::from_microwatts(self.cap_uw.mean()),
            cfp_power: Power::from_microwatts(self.cfp_uw.mean()),
            cap_power_standard_error: Power::from_microwatts(cap_se_uw),
            cfp_power_standard_error: Power::from_microwatts(cfp_se_uw),
            gts_transactions: self.gts_failures.trials(),
            gts_failure_ratio: self.gts_failures.ratio(),
            gts_denied: self.gts_denied,
            downlink_polls: self.downlink_failures.trials(),
            downlink_failure_ratio: self.downlink_failures.ratio(),
            downlink_deferred: self.downlink_deferred,
            deaths: self.deaths,
            orphan_scans: self.orphan_scans,
            join_attempts: self.join_failures.trials(),
            join_failure_ratio: self.join_failures.ratio(),
            mean_reassociation_delay: Seconds::from_secs(self.reassoc_delay_secs.mean()),
            dormant_nodes: self.dormant_nodes,
            energy_per_delivered_packet_uj,
        }
    }
}

/// The network energy simulator.
#[derive(Debug, Clone)]
pub struct NetworkSimulator {
    config: NetworkConfig,
}

impl NetworkSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally inconsistent.
    pub fn new(config: NetworkConfig) -> Self {
        config.validate();
        NetworkSimulator { config }
    }

    /// One run as one sealed replication:
    /// [`run_accumulate_counted`](Self::run_accumulate_counted), then
    /// [`seal_replication`](NetworkAccumulator::seal_replication) and
    /// [`summary`](NetworkAccumulator::summary).
    pub fn run<B: BerModel>(&self, ber: &B) -> NetworkSummary {
        let (mut acc, _) = self.run_accumulate_counted(ber);
        acc.seal_replication();
        acc.summary()
    }

    /// Runs the simulation fully streaming into a mergeable
    /// [`NetworkAccumulator`]: every attempt/transaction is folded into
    /// the energy ledgers and statistics as it happens, and no trace `Vec`
    /// is ever allocated. This is the one network run: [`run`](Self::run),
    /// the scenario grid and the policy loop all go through it. Also
    /// returns the number of engine events processed — the work counter
    /// that normalises a run's wall clock to time per event, counted in
    /// the same pass so throughput and energy come from one run.
    ///
    /// The returned accumulator is **unsealed** — no replication sample
    /// has been recorded — so callers aggregating the channels of one
    /// replication can merge first and
    /// [`seal_replication`](NetworkAccumulator::seal_replication) once.
    pub fn run_accumulate_counted<B: BerModel>(&self, ber: &B) -> (NetworkAccumulator, u64) {
        let cfg = &self.config;
        let timings = cfg.channel.timings();
        let by_node = cfg.tx_policy.resolve(&cfg.path_losses);
        let mut noise_rng =
            Xoshiro256StarStar::seed_from_u64(cfg.channel.seed ^ 0x5EED_CAFE_F00D_u64);
        with_workspace(|ws| {
            // The accountant and the oracle read the arrival order and the
            // probability buffer while the engine borrows the rest of the
            // workspace: take both out for the run, hand them back after.
            let mut arrivals = std::mem::take(&mut ws.arrivals);
            let mut probs = std::mem::take(&mut ws.corrupt_probs);
            // The engine runs on this draw too, so it happens once per run.
            arrivals.draw(&cfg.channel, &timings);
            // Levels and probabilities are laid out in arrival order; the
            // oracle maps each node id it is asked about to its rank.
            let nodes = || arrivals.order.iter().map(|&(_, node)| node as usize);
            let levels: Vec<TxPowerLevel> = nodes().map(|node| by_node[node]).collect();
            probs.clear();
            match &cfg.corrupt_probs {
                // Precomputed in node order: skip the per-node BER math.
                Some(given) => probs.extend(nodes().map(|node| given[node])),
                None => probs.extend(nodes().zip(&levels).map(|(node, &level)| {
                    let loss = cfg.path_losses[node];
                    corruption_probability(ber, cfg.channel.packet, cfg.coordinator_tx, loss, level)
                })),
            }
            let rank = &arrivals.rank;
            let mut accountant = EnergyAccountant::new(cfg, rank, &levels);
            let events = run_drawn(
                &cfg.channel,
                &timings,
                &arrivals,
                |node| noise_rng.bernoulli(probs[rank[node as usize] as usize]),
                &mut accountant,
                ws,
            );
            let acc = accountant.finish();
            ws.arrivals = arrivals;
            ws.corrupt_probs = probs;
            (acc, events)
        })
    }

    /// The accumulator of
    /// [`run_accumulate_counted`](Self::run_accumulate_counted), whatever
    /// the shard count: a channel's accounting runs on the calling thread.
    /// Kept with this signature because `perfbench` calls it.
    pub fn run_accumulate_sharded<B: BerModel>(
        &self,
        ber: &B,
        _shards: usize,
    ) -> NetworkAccumulator {
        self.run_accumulate_counted(ber).0
    }
}

/// Per-configuration timing constants hoisted off the per-record accrual
/// path of the [`EnergyAccountant`].
#[derive(Debug, Clone, Copy)]
struct AccountingConsts {
    packet_airtime: Seconds,
    slot: Seconds,
    t_ack: Seconds,
    cca_sense: Seconds,
    noack_listen: Seconds,
    ifs: Seconds,
    turn_on: Seconds,
    turnaround: Seconds,
    dl_request_air: Seconds,
    t_beacon: Seconds,
    /// Idle dwell before the beacon: wakeup margin minus the
    /// shutdown→idle transition, floored at zero.
    margin: Seconds,
}

impl AccountingConsts {
    fn new(cfg: &NetworkConfig) -> Self {
        AccountingConsts {
            packet_airtime: cfg.channel.packet.duration(),
            slot: unit_backoff_period(),
            t_ack: ack_duration(),
            cca_sense: cca_detection_time(),
            noack_listen: symbols(ACK_WAIT_MAX_SYMBOLS - TURNAROUND_SYMBOLS),
            ifs: symbols(LIFS_SYMBOLS),
            turn_on: cfg.radio.turn_on_time(),
            turnaround: turnaround_time(),
            dl_request_air: wsn_phy::consts::bytes(DATA_REQUEST_AIR_BYTES),
            t_beacon: beacon_duration(),
            margin: (cfg.wakeup_margin - cfg.radio.wakeup_time()).max(Seconds::ZERO),
        }
    }
}

/// One node's ledger seen through the radio procedures of Figure 5: each
/// method bills one procedure to the ledger phase it is given, so a record
/// kind reads as the list of its procedures. The transmit level is an
/// argument of the procedures that transmit, so the beacon prototype in
/// [`EnergyAccountant::finish`] bills through the same view without one.
struct Bill<'a> {
    ledger: &'a mut EnergyLedger,
    radio: &'a RadioModel,
    k: &'a AccountingConsts,
}

impl Bill<'_> {
    /// Wakes the chip: shutdown → idle.
    fn wake(&mut self, phase: PhaseTag) {
        self.ledger
            .accrue_transition(self.radio, RadioState::Shutdown, RadioState::Idle, phase);
    }

    /// Stays in `state` for `duration`.
    fn hold(&mut self, state: RadioState, duration: Seconds, phase: PhaseTag) {
        self.ledger.accrue(self.radio, state, phase, duration);
    }

    /// The beacon window: wake ahead of the beacon, idle out the margin,
    /// turn the receiver on and listen for the beacon's airtime.
    fn beacon_window(&mut self, phase: PhaseTag) {
        self.wake(phase);
        self.hold(RadioState::Idle, self.k.margin, phase);
        self.ledger
            .accrue_transition(self.radio, RadioState::Idle, RadioState::Rx, phase);
        self.hold(RadioState::Rx, self.k.t_beacon, phase);
    }

    /// Slotted CSMA/CA over `slots` backoff slots with `ccas`
    /// clear-channel assessments: idle except for each assessment's
    /// receiver turn-on and listen.
    fn csma(&mut self, slots: u64, ccas: u32, phase: PhaseTag) {
        let k = self.k;
        let wall = k.slot * slots as f64;
        let cca_active = (k.turn_on + k.cca_sense) * ccas as f64;
        let idle = (wall - cca_active).max(Seconds::ZERO);
        self.hold(RadioState::Idle, idle, phase);
        for _ in 0..ccas {
            self.ledger
                .accrue_transition(self.radio, RadioState::Idle, RadioState::Rx, phase);
            self.ledger.accrue_listen(self.radio, phase, k.cca_sense);
        }
    }

    /// Sends a frame of airtime `air` at `level` (idle → TX, then the
    /// airtime), billed to `phase`, then turns around to RX, billed to
    /// `turn`.
    fn send(&mut self, level: TxPowerLevel, air: Seconds, phase: PhaseTag, turn: PhaseTag) {
        let tx = RadioState::Tx(level);
        self.ledger
            .accrue_transition(self.radio, RadioState::Idle, tx, phase);
        self.hold(tx, air, phase);
        self.ledger
            .accrue_transition(self.radio, tx, RadioState::Rx, turn);
    }

    /// Listens for an acknowledgement: its airtime when it comes, the full
    /// `t_ack⁺ − t_ack⁻` window when it does not.
    fn ack_listen(&mut self, acked: bool, phase: PhaseTag) {
        let k = self.k;
        let listen = if acked { k.t_ack } else { k.noack_listen };
        self.ledger.accrue_listen(self.radio, phase, listen);
    }

    /// Observes the interframe spacing in idle.
    fn ifs(&mut self, phase: PhaseTag) {
        self.hold(RadioState::Idle, self.k.ifs, phase);
    }
}

/// Online energy reducer: a [`TraceSink`] that accrues each record into
/// its node's ledger the moment its outcome is final, and folds the
/// record's statistics into the [`NetworkAccumulator`] it returns, next to
/// that billing.
///
/// The ledgers and levels are stored in the run's arrival order, the
/// order of the engine's node records. Nodes active at the same time sit
/// next to each other, so at 10⁵ nodes a record updates a ledger near the
/// last one instead of a random slot of a 22 MB array. Records carry node
/// ids, which the rank table maps to that order.
#[derive(Debug)]
struct EnergyAccountant<'a> {
    cfg: &'a NetworkConfig,
    /// Node id → arrival rank, the index into `levels` and `ledgers`.
    rank: &'a [u32],
    /// Resolved transmit levels, in arrival order.
    levels: &'a [TxPowerLevel],
    /// One ledger per node, in arrival order.
    ledgers: Vec<EnergyLedger>,
    /// Beacons each node woke for (or slept through) but did not receive,
    /// by node id — these superframes are excluded from the node's fixed
    /// beacon overhead in [`finish`](Self::finish).
    missed_beacons: Vec<u32>,
    /// The run's statistics, folded record by record. Delivery delays and
    /// re-association latencies stay in superframes until
    /// [`finish`](Self::finish) rescales them to seconds.
    acc: NetworkAccumulator,
    /// Per-configuration constants hoisted off the per-record path.
    consts: AccountingConsts,
}

/// Ledgers [`EnergyAccountant::finish`] copies out of arrival order per
/// batch: enough independent loads to overlap their cache misses, few
/// enough (14 KiB) to stay in L1.
const FINISH_BATCH: usize = 64;

impl<'a> EnergyAccountant<'a> {
    fn new(cfg: &'a NetworkConfig, rank: &'a [u32], levels: &'a [TxPowerLevel]) -> Self {
        EnergyAccountant {
            cfg,
            rank,
            levels,
            ledgers: vec![EnergyLedger::new(); cfg.channel.nodes],
            missed_beacons: vec![0; cfg.channel.nodes],
            acc: NetworkAccumulator::new(),
            consts: AccountingConsts::new(cfg),
        }
    }

    /// The billing view of `node`'s ledger, and the node's transmit level.
    fn bill(&mut self, node: u32) -> (Bill<'_>, TxPowerLevel) {
        let r = self.rank[node as usize] as usize;
        let bill = Bill {
            ledger: &mut self.ledgers[r],
            radio: &self.cfg.radio,
            k: &self.consts,
        };
        (bill, self.levels[r])
    }

    /// Folds one uplink transaction's outcome. A GTS transmission is a
    /// one-attempt transaction, so CAP-only and GTS scenarios compare on
    /// the same transaction statistics.
    fn fold_uplink(&mut self, delivered: bool, attempts: u32, superframes_waited: u32) {
        self.acc.failures.observe(!delivered);
        self.acc.attempts.push(attempts as f64);
        if delivered {
            self.acc.delay_secs.push(superframes_waited as f64 + 1.0);
        }
    }

    /// Adds the fixed beacon overhead and the sleep remainder to each
    /// node's ledger, then folds the ledgers into the run's (unsealed)
    /// mergeable accumulator. The fold walks the arrival-ordered ledgers
    /// in node order (`rank` maps a node id to its ledger), so its f64
    /// operations and their order never depend on the arrival order.
    fn finish(self) -> NetworkAccumulator {
        let EnergyAccountant {
            cfg,
            rank,
            ledgers,
            missed_beacons,
            mut acc,
            consts: k,
            ..
        } = self;
        let radio = &cfg.radio;
        let recorded_superframes = cfg.channel.superframes as f64 - 1.0;
        let t_ib = cfg.channel.beacon_interval();
        let window = t_ib * recorded_superframes;

        acc.node_powers.reserve(cfg.channel.nodes);
        // The beacon window of every superframe is identical for every
        // node, so it is billed **once** per superframe into a prototype
        // ledger that every node then merges: `finish` is O(nodes +
        // superframes) instead of O(nodes × superframes). The beacon-phase
        // cells of every per-node ledger start at zero, so the merged
        // values are the very sums the per-node loop produced.
        //
        // Nodes that missed beacons (outages, churn deaths) receive fewer
        // windows; one prototype per distinct received count is cached so
        // the skipped windows still come from the same repeated-addition
        // loop — and a fault-free run, where every node receives every
        // beacon, merges the single full prototype bit-identically.
        let beacon_windows = |windows: u32| {
            let mut l = EnergyLedger::new();
            let mut bill = Bill {
                ledger: &mut l,
                radio,
                k: &k,
            };
            for _ in 0..windows {
                bill.beacon_window(PhaseTag::Beacon);
            }
            l
        };
        let recorded = cfg.channel.superframes.saturating_sub(1);
        let beacon_ledger = beacon_windows(recorded);
        let mut partial: HashMap<u32, EnergyLedger> = HashMap::new();
        // The fold runs in node order over arrival-ordered ledgers.
        // Reading them one at a time would wait out each ledger's cache
        // misses in turn, so each batch of nodes is first copied out, which
        // overlaps the loads, and then folded from the copy.
        let mut batch: Vec<EnergyLedger> = Vec::with_capacity(FINISH_BATCH);
        for (b, ranks) in rank.chunks(FINISH_BATCH).enumerate() {
            batch.clear();
            batch.extend(ranks.iter().map(|&r| ledgers[r as usize].clone()));
            for (j, ledger) in batch.iter_mut().enumerate() {
                let missed = missed_beacons[b * FINISH_BATCH + j];
                if missed == 0 {
                    ledger.merge(&beacon_ledger);
                } else {
                    let received = recorded.saturating_sub(missed);
                    let l = partial
                        .entry(received)
                        .or_insert_with(|| beacon_windows(received));
                    ledger.merge(l);
                }
                // Sleep is the remainder of the window.
                let active = ledger.total_time();
                let sleep = (window - active).max(Seconds::ZERO);
                ledger.accrue(radio, RadioState::Shutdown, PhaseTag::Sleep, sleep);
                let power = ledger.average_power(window);
                acc.node_power_uw.push(power.microwatts());
                acc.node_powers.push(power);
                // CAP vs CFP split: what this node spent contending and
                // uplinking in the CAP versus its contention-free traffic.
                let cap_energy = ledger.energy_in_phase(PhaseTag::Contention)
                    + ledger.energy_in_phase(PhaseTag::Transmit)
                    + ledger.energy_in_phase(PhaseTag::AckWait)
                    + ledger.energy_in_phase(PhaseTag::Ifs);
                let cfp_energy = ledger.energy_in_phase(PhaseTag::Gts)
                    + ledger.energy_in_phase(PhaseTag::Downlink);
                acc.cap_uw.push((cap_energy / window).microwatts());
                acc.cfp_uw.push((cfp_energy / window).microwatts());
                acc.ledger.merge(ledger);
            }
        }

        let delivered = acc.failures.trials() - acc.failures.hits();
        acc.delivered_payload_bits = delivered as f64 * cfg.channel.packet.payload_bits() as f64;
        acc.gts_denied = cfg.channel.cfp.gts_denied as u64;
        // Delays and re-association latencies were accumulated in
        // superframes; rescale to seconds once, exactly, so accumulators
        // from channels with different beacon intervals merge in common
        // units.
        acc.delay_secs = acc.delay_secs.scaled(t_ib.secs());
        acc.reassoc_delay_secs = acc.reassoc_delay_secs.scaled(t_ib.secs());
        acc
    }
}

impl TraceSink for EnergyAccountant<'_> {
    fn on_attempt(&mut self, a: &AttemptRecord) {
        self.acc.contention.on_attempt(a);
        let (mut bill, level) = self.bill(a.node);
        bill.csma(a.contention_slots, a.ccas, PhaseTag::Contention);
        if a.outcome == AttemptOutcome::AccessFailure {
            return;
        }
        bill.send(
            level,
            bill.k.packet_airtime,
            PhaseTag::Transmit,
            PhaseTag::AckWait,
        );
        bill.ack_listen(a.outcome == AttemptOutcome::Delivered, PhaseTag::AckWait);
        bill.ifs(PhaseTag::Ifs);
    }

    fn on_transaction(&mut self, t: &TransactionRecord) {
        self.fold_uplink(t.delivered, t.attempts, t.superframes_waited);
        // Second wake-up for the transaction (the node slept between the
        // beacon and its packet-ready offset).
        self.bill(t.node).0.wake(PhaseTag::Contention);
    }

    fn on_gts(&mut self, r: &GtsRecord) {
        self.acc.gts_failures.observe(!r.delivered);
        self.fold_uplink(r.delivered, 1, r.superframes_waited);
        // Wake for the dedicated slot and send without any contention, all
        // billed to the GTS phase so the CFP energy split is exact.
        let (mut bill, level) = self.bill(r.node);
        bill.wake(PhaseTag::Gts);
        bill.send(level, bill.k.packet_airtime, PhaseTag::Gts, PhaseTag::Gts);
        bill.ack_listen(r.delivered, PhaseTag::Gts);
        bill.ifs(PhaseTag::Gts);
    }

    fn on_downlink(&mut self, r: &DownlinkRecord) {
        if r.outcome == DownlinkOutcome::Deferred {
            // The node was mid-uplink; its radio time is already billed.
            self.acc.downlink_deferred += 1;
            return;
        }
        self.acc
            .downlink_failures
            .observe(r.outcome != DownlinkOutcome::Delivered);
        // One wake-up per poll (the downlink analogue of the
        // per-transaction wake), then the data request's contention.
        let phase = PhaseTag::Downlink;
        let (mut bill, level) = self.bill(r.node);
        let k = bill.k;
        bill.wake(phase);
        bill.csma(r.contention_slots, r.ccas, phase);
        if r.outcome == DownlinkOutcome::AccessFailure {
            return;
        }
        bill.send(level, k.dl_request_air, phase, phase);
        if r.outcome == DownlinkOutcome::Collided {
            // No acknowledgement ever comes.
            bill.ack_listen(false, phase);
        } else {
            // Request acknowledgement, then the (promptly answered)
            // downlink frame, the receiver on throughout; a delivered frame
            // is acknowledged (turnaround + ACK airtime at TX power).
            bill.hold(RadioState::Rx, k.turnaround + k.t_ack, phase);
            bill.hold(RadioState::Rx, k.turnaround + k.packet_airtime, phase);
            if r.outcome == DownlinkOutcome::Delivered {
                bill.hold(RadioState::Tx(level), k.turnaround + k.t_ack, phase);
            }
        }
        bill.ifs(phase);
    }

    fn on_fault(&mut self, r: &FaultRecord) {
        let phase = PhaseTag::Association;
        match r.kind {
            FaultKind::MissedBeacon { listened } => {
                // This superframe's beacon window must not be billed in
                // `finish` — the beacon never arrived. A node that woke for
                // it ran an orphan scan: the same window, nothing received.
                self.missed_beacons[r.node as usize] += 1;
                if listened {
                    self.acc.orphan_scans += 1;
                    self.bill(r.node).0.beacon_window(phase);
                }
            }
            FaultKind::JoinAttempt { success } => {
                self.acc.join_failures.observe(!success);
                // Association request (a MAC command the size of a data
                // request), then its acknowledgement and — on success — the
                // association response, each after a turnaround with the
                // receiver on. A lost response costs the no-ACK window.
                let (mut bill, level) = self.bill(r.node);
                let k = bill.k;
                bill.wake(phase);
                bill.send(level, k.dl_request_air, phase, phase);
                if success {
                    bill.hold(RadioState::Rx, k.turnaround + k.t_ack, phase);
                    bill.hold(RadioState::Rx, k.turnaround + k.t_ack, phase);
                } else {
                    bill.ack_listen(false, phase);
                }
                bill.ifs(phase);
            }
            // Deaths, rejoin confirmations and dormancy carry no radio
            // activity of their own, only their tallies.
            FaultKind::Death => self.acc.deaths += 1,
            FaultKind::Reassociated {
                latency_superframes,
            } => self.acc.reassoc_delay_secs.push(latency_superframes as f64),
            FaultKind::Dormant => self.acc.dormant_nodes += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_phy::ber::EmpiricalCc2420Ber;
    use wsn_radio::state::StateKind;

    fn small_config(load: f64, loss_db: f64, seed: u64) -> NetworkConfig {
        let mut channel = ChannelSimConfig::figure6(120, load, seed);
        channel.nodes = 20;
        channel.superframes = 8;
        NetworkConfig {
            path_losses: vec![Db::new(loss_db); channel.nodes].into(),
            channel,
            radio: RadioModel::cc2420(),
            tx_policy: TxPowerPolicy::ChannelInversion {
                target_rx: DBm::new(-88.0),
            },
            coordinator_tx: DBm::new(0.0),
            wakeup_margin: Seconds::from_millis(1.0),
            corrupt_probs: None,
        }
    }

    #[test]
    fn average_power_is_hundreds_of_microwatts() {
        let report =
            NetworkSimulator::new(small_config(0.4, 70.0, 1)).run(&EmpiricalCc2420Ber::paper());
        let uw = report.mean_node_power.microwatts();
        assert!(
            (50.0..1000.0).contains(&uw),
            "mean node power {uw} µW outside plausible band"
        );
    }

    #[test]
    fn sleep_dominates_time_but_not_energy() {
        let report =
            NetworkSimulator::new(small_config(0.4, 70.0, 2)).run(&EmpiricalCc2420Ber::paper());
        let ledger = &report.ledger;
        let fractions = ledger.state_time_fractions();
        let shutdown_frac = fractions
            .iter()
            .find(|(k, _)| *k == StateKind::Shutdown)
            .unwrap()
            .1;
        assert!(
            shutdown_frac > 0.90,
            "nodes should sleep ≥90 % of the time, got {shutdown_frac}"
        );
        let sleep_energy = ledger.energy_in_phase(PhaseTag::Sleep);
        assert!(sleep_energy < ledger.total_energy() * 0.05);
    }

    #[test]
    fn good_links_deliver_reliably() {
        let report =
            NetworkSimulator::new(small_config(0.2, 60.0, 3)).run(&EmpiricalCc2420Ber::paper());
        assert!(
            report.failure_ratio.value() < 0.1,
            "failure ratio {} too high for a 60 dB path",
            report.failure_ratio
        );
        assert!(report.mean_delay >= Seconds::ZERO);
        assert!(report.mean_attempts >= 1.0);
    }

    #[test]
    fn bad_links_fail_often_and_spend_more() {
        let good =
            NetworkSimulator::new(small_config(0.3, 60.0, 4)).run(&EmpiricalCc2420Ber::paper());
        // 94 dB path: even 0 dBm arrives at −94 dBm where BER is high.
        let bad =
            NetworkSimulator::new(small_config(0.3, 94.0, 4)).run(&EmpiricalCc2420Ber::paper());
        assert!(bad.failure_ratio.value() > good.failure_ratio.value());
        assert!(bad.mean_attempts > good.mean_attempts);
        assert!(bad.energy_per_bit_nj > good.energy_per_bit_nj);
    }

    #[test]
    fn channel_inversion_picks_cheapest_sufficient_level() {
        let losses = [Db::new(55.0), Db::new(75.0), Db::new(95.0)];
        let levels = TxPowerPolicy::ChannelInversion {
            target_rx: DBm::new(-88.0),
        }
        .resolve(&losses);
        assert_eq!(levels[0], TxPowerLevel::Neg25); // −25 − 55 = −80 ≥ −88
        assert_eq!(levels[1], TxPowerLevel::Neg10); // −10 − 75 = −85 ≥ −88
        assert_eq!(levels[2], TxPowerLevel::Zero); // unreachable → strongest
    }

    #[test]
    fn ledger_views_agree() {
        let report =
            NetworkSimulator::new(small_config(0.4, 75.0, 5)).run(&EmpiricalCc2420Ber::paper());
        let by_state: f64 = StateKind::ALL
            .iter()
            .map(|&k| report.ledger.energy_in(k).joules())
            .sum();
        let by_phase: f64 = PhaseTag::ALL
            .iter()
            .map(|&p| report.ledger.energy_in_phase(p).joules())
            .sum();
        assert!((by_state - by_phase).abs() < 1e-12);
    }

    #[test]
    fn deterministic_reports() {
        let run =
            || NetworkSimulator::new(small_config(0.4, 70.0, 9)).run(&EmpiricalCc2420Ber::paper());
        let (a, b) = (run(), run());
        assert_eq!(a.mean_node_power, b.mean_node_power);
        assert_eq!(a.failure_ratio, b.failure_ratio);
    }

    #[test]
    #[should_panic(expected = "one path loss per node")]
    fn mismatched_losses_rejected() {
        let mut cfg = small_config(0.4, 70.0, 1);
        let short: Vec<Db> = cfg.path_losses[..cfg.path_losses.len() - 1].to_vec();
        cfg.path_losses = short.into();
        let _ = NetworkSimulator::new(cfg);
    }

    // --- CFP accounting --------------------------------------------------

    use crate::cfp::plan_channel_cfp;

    #[test]
    fn cap_only_runs_report_zero_cfp_power() {
        let summary =
            NetworkSimulator::new(small_config(0.4, 70.0, 21)).run(&EmpiricalCc2420Ber::paper());
        assert_eq!(summary.cfp_power.microwatts(), 0.0);
        assert!(summary.cap_power.microwatts() > 0.0);
        assert_eq!(summary.gts_transactions, 0);
        assert_eq!(summary.downlink_polls, 0);
        assert_eq!(summary.gts_denied, 0);
    }

    #[test]
    fn gts_offload_shifts_energy_from_cap_to_cfp() {
        let ber = EmpiricalCc2420Ber::paper();
        let base = small_config(0.4, 70.0, 22);
        let mut gts = base.clone();
        gts.channel.cfp = plan_channel_cfp(gts.channel.nodes as u32, 7, 1, 8, 0.0);
        let cap_only = NetworkSimulator::new(base).run(&ber);
        let offloaded = NetworkSimulator::new(gts).run(&ber);
        assert!(offloaded.cfp_power.microwatts() > 0.0);
        assert!(offloaded.cap_power < cap_only.cap_power);
        assert!(offloaded.gts_transactions > 0);
        // GTS holders skip contention entirely, so their traffic is
        // cheaper than a CSMA transaction: total power must not rise.
        assert!(offloaded.mean_node_power < cap_only.mean_node_power);
        // The ledger's GTS phase carries the CFP energy.
        assert!(offloaded.ledger.energy_in_phase(PhaseTag::Gts).joules() > 0.0);
        assert_eq!(cap_only.ledger.energy_in_phase(PhaseTag::Gts).joules(), 0.0);
    }

    #[test]
    fn downlink_polling_charges_the_downlink_phase() {
        let ber = EmpiricalCc2420Ber::paper();
        let base = small_config(0.3, 65.0, 23);
        let mut polled = base.clone();
        polled.channel.cfp = plan_channel_cfp(polled.channel.nodes as u32, 0, 1, 8, 0.8);
        let quiet = NetworkSimulator::new(base).run(&ber);
        let busy = NetworkSimulator::new(polled).run(&ber);
        assert!(busy.downlink_polls > 0);
        assert!(busy.cfp_power.microwatts() > 0.0);
        assert!(busy.ledger.energy_in_phase(PhaseTag::Downlink).joules() > 0.0);
        // Bidirectional traffic costs strictly more than uplink alone.
        assert!(busy.mean_node_power > quiet.mean_node_power);
        assert!(busy.downlink_failure_ratio.value() < 0.5);
        assert_eq!(quiet.downlink_polls, 0);
    }

    #[test]
    fn cfp_ledger_views_still_agree() {
        let mut cfg = small_config(0.4, 75.0, 24);
        cfg.channel.cfp = plan_channel_cfp(cfg.channel.nodes as u32, 5, 1, 8, 0.5);
        let summary = NetworkSimulator::new(cfg).run(&EmpiricalCc2420Ber::paper());
        let by_state: f64 = StateKind::ALL
            .iter()
            .map(|&k| summary.ledger.energy_in(k).joules())
            .sum();
        let by_phase: f64 = PhaseTag::ALL
            .iter()
            .map(|&p| summary.ledger.energy_in_phase(p).joules())
            .sum();
        assert!((by_state - by_phase).abs() < 1e-12);
        // cap + cfp + beacon + sleep ≈ total mean power.
        let split = summary.cap_power.watts() + summary.cfp_power.watts();
        assert!(split < summary.mean_node_power.watts());
    }

    #[test]
    fn gts_denied_count_survives_merge_and_summary() {
        let mut cfg = small_config(0.4, 70.0, 25);
        // 20 nodes all want a slot; 7 granted, 13 denied.
        cfg.channel.cfp = plan_channel_cfp(cfg.channel.nodes as u32, 20, 1, 8, 0.0);
        let ber = EmpiricalCc2420Ber::paper();
        let (mut a, _) = NetworkSimulator::new(cfg).run_accumulate_counted(&ber);
        a.seal_replication();
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.summary().gts_denied, 26, "13 denied per merged run");
    }

    /// At 55 dB with every node and the coordinator at 0 dBm, the
    /// hard-decision receiver's packet-or-ACK corruption probability is
    /// exactly 0 (the paper's empirical curve never reaches 0). The
    /// oracle then never fires and the engine runs the pure-MAC channel of
    /// Figure 6, so the run's own contention statistics are
    /// `simulate_contention`'s, bit for bit.
    #[test]
    fn clean_run_keeps_the_pure_mac_contention_statistics() {
        let mut cfg = small_config(0.42, 55.0, 0xC1EA);
        cfg.channel.nodes = 100;
        cfg.path_losses = vec![Db::new(55.0); 100].into();
        cfg.tx_policy = TxPowerPolicy::Fixed(TxPowerLevel::strongest());
        let ber = wsn_phy::ber::HardDecisionDsssBer::new(Db::new(10.0));
        let p = corruption_probability(
            &ber,
            cfg.channel.packet,
            cfg.coordinator_tx,
            Db::new(55.0),
            TxPowerLevel::strongest(),
        );
        assert_eq!(p, 0.0);
        let (acc, _) = NetworkSimulator::new(cfg.clone()).run_accumulate_counted(&ber);
        let stats = acc.contention.contention_stats();
        assert!(stats.pr_collision.value() > 0.0);
        assert_eq!(stats, crate::simulate_contention(&cfg.channel));
    }

    // --- Network goldens ---------------------------------------------------

    /// `small_config` with `nodes` nodes whose path losses differ by node
    /// id: a 55–95 dB ramp, strided so loss does not follow the index.
    /// Under channel inversion the levels and the corruption
    /// probabilities differ by node too.
    fn ramped_config(nodes: usize, load: f64, seed: u64) -> NetworkConfig {
        let mut cfg = small_config(load, 0.0, seed);
        cfg.channel.nodes = nodes;
        cfg.path_losses = (0..nodes)
            .map(|i| Db::new(55.0 + 40.0 * ((i * 37) % nodes) as f64 / nodes as f64))
            .collect();
        cfg
    }

    /// Network goldens: digests of the sealed `run_accumulate_counted`
    /// summaries, hashed like the engine goldens. `Debug` prints
    /// `node_powers` in node order and the merged ledger to the last bit,
    /// so a ledger billed at another node's level, or an oracle asked with
    /// another node's probability, moves the digest. The configurations:
    ///
    /// * CAP-only, with per-node path losses;
    /// * GTS holders plus downlink polling;
    /// * churn and coordinator outages with GTS, which reach the
    ///   re-association, orphan-scan and missed-beacon accounting.
    ///
    /// Each configuration runs twice: once deriving its corruption
    /// probabilities, once with them given in node order through
    /// `NetworkConfig::corrupt_probs`. Both must give the golden digests.
    ///
    /// The digests were captured before the accountant stored its
    /// per-node state in arrival order, which had to leave them as they
    /// were.
    #[test]
    fn network_goldens_hold() {
        let cap = ramped_config(60, 0.4, 0xA11);
        let mut polled = ramped_config(40, 0.3, 0xA12);
        polled.channel.cfp = plan_channel_cfp(40, 5, 1, 8, 0.6);
        let mut churned = ramped_config(40, 0.5, 0xA13);
        churned.channel.superframes = 16;
        churned.channel.cfp = plan_channel_cfp(40, 4, 1, 8, 0.3);
        churned.channel.faults = crate::faults::FaultPlan::inert()
            .with_churn(0.05, 1, 2)
            .with_outages(0.1, 1);

        let ber = EmpiricalCc2420Ber::paper();
        let configs = [cap, polled, churned];
        let summaries = configs
            .clone()
            .map(|cfg| NetworkSimulator::new(cfg).run(&ber));
        // The workloads reach the paths they are meant to, with both
        // outcomes of every GTS, downlink and join exchange.
        let mixed = |p: Probability| p.value() > 0.0 && p.value() < 1.0;
        assert!(summaries.iter().all(|s| s.failure_ratio.value() > 0.0));
        let polled = &summaries[1];
        assert!(polled.gts_transactions > 0 && polled.downlink_polls > 0);
        assert!(mixed(polled.gts_failure_ratio) && mixed(polled.downlink_failure_ratio));
        assert!(polled.downlink_deferred > 0);
        let churned = &summaries[2];
        assert!(churned.gts_transactions > 0 && churned.deaths > 0);
        assert!(churned.orphan_scans > 0 && churned.join_attempts > 0);
        assert!(mixed(churned.gts_failure_ratio) && mixed(churned.join_failure_ratio));
        assert!(churned.dormant_nodes > 0);

        let digests = summaries.each_ref().map(crate::contention::tests::digest);
        assert_eq!(
            digests,
            [
                0xed46_fcc4_8873_bf69,
                0x4c22_466d_91d1_eb0e,
                0xa861_13fc_b401_7527,
            ],
            "network output changed: CAP-only, GTS and polling, churned"
        );

        let given = configs.map(|mut cfg| {
            let levels = cfg.tx_policy.resolve(&cfg.path_losses);
            let probs = cfg.path_losses.iter().zip(&levels).map(|(&loss, &level)| {
                corruption_probability(&ber, cfg.channel.packet, cfg.coordinator_tx, loss, level)
            });
            cfg.corrupt_probs = Some(probs.collect());
            crate::contention::tests::digest(&NetworkSimulator::new(cfg).run(&ber))
        });
        assert_eq!(
            given, digests,
            "precomputed corruption probabilities changed the output"
        );
    }

    /// Every record the engine streams reaches the run's statistics once.
    /// The test replays the run's engine into a trace with the run's own
    /// corruption oracle (the noise stream `seed ^ 0x5EED_CAFE_F00D`, one
    /// probability per node at its resolved level) and holds each tally
    /// of the accumulator to the trace's record count. The configuration
    /// reaches every record kind, so a kind folded twice, or not at all,
    /// fails.
    #[test]
    fn each_record_is_folded_once() {
        let mut cfg = ramped_config(40, 0.5, 0xF01D);
        cfg.channel.superframes = 12;
        cfg.channel.cfp = plan_channel_cfp(40, 5, 1, 8, 0.4);
        cfg.channel.faults = crate::faults::FaultPlan::inert()
            .with_churn(0.05, 1, 1)
            .with_outages(0.3, 1);
        let ber = EmpiricalCc2420Ber::paper();
        let (acc, _) = NetworkSimulator::new(cfg.clone()).run_accumulate_counted(&ber);

        let levels = cfg.tx_policy.resolve(&cfg.path_losses);
        let probs: Vec<f64> = (cfg.path_losses.iter().zip(&levels))
            .map(|(&loss, &level)| {
                corruption_probability(&ber, cfg.channel.packet, cfg.coordinator_tx, loss, level)
            })
            .collect();
        let mut noise = Xoshiro256StarStar::seed_from_u64(cfg.channel.seed ^ 0x5EED_CAFE_F00D);
        let trace = crate::contention::run_channel_sim(&cfg.channel, |node| {
            noise.bernoulli(probs[node as usize])
        });

        let faults = |kind: fn(&FaultKind) -> bool| {
            trace.faults.iter().filter(|f| kind(&f.kind)).count() as u64
        };
        let transactions = trace.transactions.len() as u64;
        let gts = trace.gts.len() as u64;
        let delivered = trace.transactions.iter().filter(|t| t.delivered).count()
            + trace.gts.iter().filter(|g| g.delivered).count();
        let deferred = (trace.downlinks.iter())
            .filter(|d| d.outcome == DownlinkOutcome::Deferred)
            .count() as u64;
        let polls = trace.downlinks.len() as u64 - deferred;
        let deaths = faults(|k| *k == FaultKind::Death);
        let orphan_scans = faults(|k| *k == FaultKind::MissedBeacon { listened: true });
        let joins = faults(|k| matches!(k, FaultKind::JoinAttempt { .. }));
        let rejoins = faults(|k| matches!(k, FaultKind::Reassociated { .. }));
        let dormant = faults(|k| *k == FaultKind::Dormant);
        let kinds = [
            ("transactions", transactions),
            ("GTS", gts),
            ("polls", polls),
            ("deferred polls", deferred),
            ("deaths", deaths),
            ("orphan scans", orphan_scans),
            ("joins", joins),
            ("rejoins", rejoins),
            ("dormant nodes", dormant),
        ];
        for (kind, n) in kinds {
            assert!(n > 0, "the run reached no {kind}");
        }

        assert_eq!(acc.failures.trials(), transactions + gts);
        assert_eq!(acc.attempts.count(), transactions + gts);
        assert_eq!(acc.delay_secs.count(), delivered as u64);
        assert_eq!(acc.gts_failures.trials(), gts);
        assert_eq!(acc.downlink_deferred, deferred);
        assert_eq!(acc.downlink_failures.trials(), polls);
        assert_eq!(acc.deaths, deaths);
        assert_eq!(acc.dormant_nodes, dormant);
        assert_eq!(acc.orphan_scans, orphan_scans);
        assert_eq!(acc.join_failures.trials(), joins);
        assert_eq!(acc.reassoc_delay_secs.count(), rejoins);
        let mut replayed = StatsSink::new();
        trace.replay(&mut replayed);
        assert_eq!(acc.contention, replayed);
    }

    /// `wsn-radio` depends only on `wsn-units`, so `RadioModelBuilder`
    /// states the RX↔TX turnaround as a literal; this pins it to the
    /// 802.15.4 timing that every other constant comes from.
    #[test]
    fn radio_turnaround_matches_mac_timing() {
        let radio = RadioModel::cc2420().turnaround_time().secs();
        assert_eq!(radio.to_bits(), turnaround_time().secs().to_bits());
    }
}
