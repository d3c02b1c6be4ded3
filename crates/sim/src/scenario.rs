//! Declarative network experiments: the scenario layer.
//!
//! A [`Scenario`] describes a whole multi-channel deployment — geometry,
//! node-to-channel allocation, traffic, CSMA and radio parameters, the BER
//! model, the transmit-power policy and the replication count — and
//! [compiles](Scenario::compile) into one [`NetworkConfig`] per channel.
//! [`Scenario::run`] then executes the full grid (channels ×
//! replications) on the deterministic parallel [`Runner`] and reduces the
//! per-run [`NetworkAccumulator`]s in a fixed order, so the outcome is
//! **bit-identical for every thread count**, like every other runner
//! reduction.
//!
//! The paper's §5 case study — 1600 nodes on 16 channels, path losses
//! uniform in 55–95 dB — is [`Scenario::paper_case_study`]; the other
//! deployment specs (uniform disc, concentric rings, per-channel
//! clusters) and the per-channel traffic spec open scenarios the paper
//! could not sweep, such as ring-stratified path loss and heterogeneous
//! loads.
//!
//! Pipeline: **scenario → per-channel configs → runner grid → merged
//! accumulators → per-channel + overall summaries.**

use std::sync::Arc;
use std::time::Instant;

use wsn_channel::{
    assignment_partition, block_partition, round_robin_partition, shadowed_population, Deployment,
    LogDistance, LogNormalShadowing, UniformPathLossPopulation,
};
use wsn_mac::csma::CsmaParams;
use wsn_mac::{BeaconOrder, RetryPolicy};
use wsn_phy::ber::{BerModel, EmpiricalCc2420Ber, HardDecisionDsssBer, StandardOqpskBer};
use wsn_phy::consts::NUM_CHANNELS_2450;
use wsn_phy::frame::PacketLayout;
use wsn_phy::noise::SplitMix64;
use wsn_radio::RadioModel;
use wsn_units::{DBm, Db, Meters, Seconds};

use crate::batch::ScenarioStatus;
use crate::cfp::{plan_channel_cfp, CfpPlan};
use crate::contention::ChannelSimConfig;
use crate::faults::FaultPlan;
use crate::network::{
    NetworkAccumulator, NetworkConfig, NetworkSimulator, NetworkSummary, TxPowerPolicy,
};
use crate::runner::{panic_message, replication_seed, Runner};

/// The most superframes per replication [`Scenario::validate`] accepts;
/// the studies default to tens.
const MAX_SUPERFRAMES: u32 = 1_000_000;
/// The most replications per channel [`Scenario::validate`] accepts; the
/// studies default to at most 4.
const MAX_REPLICATIONS: u32 = 1_000;
/// The largest [`Scenario::shards`] value [`Scenario::validate`] accepts.
/// The key has no effect; format-1 files keep it and this bound.
const MAX_SHARDS: usize = 16;
/// The most per-node power samples, channels × nodes per channel ×
/// replications, [`Scenario::validate`] accepts. Every job holds its
/// nodes' powers until the grid reduces, and the reduction copies them
/// into the per-channel and overall summaries: at 8 bytes a sample, one
/// copy takes at most 128 MiB. The caps on each factor alone let 16
/// channels × 1,000 replications × a few hundred thousand nodes through,
/// tens of GB. The studies at their defaults hold at most 6,400.
const MAX_NODE_SAMPLES: u64 = 1 << 24;

/// Where the nodes are, physically — compiled into per-node path losses.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentSpec {
    /// The paper's abstract population: every channel's losses form the
    /// deterministic midpoint grid of a uniform distribution over
    /// `[min_db, max_db]`. Geometry-free; the
    /// [`ChannelAllocation`] is irrelevant for this spec.
    UniformLossGrid {
        /// Lower loss bound in dB.
        min_db: f64,
        /// Upper loss bound in dB.
        max_db: f64,
    },
    /// Nodes uniform (by area) in a disc, log-distance path loss with the
    /// 2.45 GHz free-space reference.
    Disc {
        /// Disc radius in meters.
        radius_m: f64,
        /// Path-loss exponent (2 = free space, ≈3 indoors).
        exponent: f64,
        /// Log-normal shadowing σ in dB (0 disables shadowing).
        shadowing_db: f64,
    },
    /// Nodes on concentric rings (uniform random angles), emitted
    /// ring-major. With one ring per channel and
    /// [`ChannelAllocation::Contiguous`], every channel sees a single
    /// range.
    Rings {
        /// Ring radii in meters; the total node count must be divisible
        /// by the ring count.
        radii_m: Vec<f64>,
        /// Path-loss exponent.
        exponent: f64,
        /// Log-normal shadowing σ in dB (0 disables shadowing).
        shadowing_db: f64,
    },
    /// One compact cluster per channel, centers evenly spaced on a circle
    /// inside the field. Emitted cluster-major, so
    /// [`ChannelAllocation::Contiguous`] maps cluster `c` to channel `c`.
    Clustered {
        /// Field radius in meters.
        field_radius_m: f64,
        /// Cluster radius in meters (each cluster is a small disc).
        cluster_radius_m: f64,
        /// Path-loss exponent.
        exponent: f64,
        /// Log-normal shadowing σ in dB (0 disables shadowing).
        shadowing_db: f64,
    },
}

/// How node indices map onto channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelAllocation {
    /// Round-robin interleaving ([`round_robin_partition`]) — the
    /// paper's reading: every channel samples the whole population.
    RoundRobin,
    /// Contiguous index blocks ([`block_partition`] of the index order) —
    /// pairs with group-major deployments (rings, clusters).
    Contiguous,
    /// Concentric distance bands ([`Deployment::ring_partition`]) —
    /// ring-stratified: channel 0 takes the nearest nodes, the last
    /// channel the farthest.
    RingStratified,
}

/// Per-channel uplink payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadSpec {
    /// Every channel carries the same payload.
    Uniform {
        /// Uplink payload in bytes (≤ 123).
        payload_bytes: usize,
    },
    /// Heterogeneous traffic: channel `c` carries `payload_bytes[c]`.
    PerChannel {
        /// One payload per channel.
        payload_bytes: Vec<usize>,
    },
}

/// Per-channel traffic: what each node buffers and uplinks per
/// superframe, plus the channel's contention-free demand — GTS slots and
/// downlink polling ([`crate::cfp`]).
///
/// # Examples
///
/// ```
/// use wsn_sim::scenario::TrafficSpec;
///
/// // CAP-only (the default everywhere):
/// let cap = TrafficSpec::uniform(120);
/// assert!(cap.is_cap_only());
/// // Every node requests a one-slot GTS; the coordinator grants seven.
/// let gts = TrafficSpec::uniform(120).with_gts(1);
/// // Half the superframes deliver one downlink frame per node.
/// let bidi = TrafficSpec::uniform(120).with_downlink(0.5);
/// assert!(!gts.is_cap_only() && !bidi.is_cap_only());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Uplink payload per channel.
    pub payloads: PayloadSpec,
    /// GTS slots each requesting node asks for (0 = CAP-only uplink).
    /// Requests resolve through a real [`wsn_mac::gts::GtsRegistry`] at
    /// compile time: at most seven descriptors, and the CAP never
    /// shrinks below the scenario's
    /// [`min_cap_slots`](Scenario::min_cap_slots); overflow falls back
    /// to CAP and is reported as a typed count.
    pub gts_slots_per_node: u8,
    /// Nodes per channel requesting a GTS, in node order; `None` means
    /// every node asks (the paper's dense-network reading, where the
    /// seven-descriptor table is the binding constraint).
    pub gts_demand: Option<u32>,
    /// Fraction of superframes in which the coordinator holds one
    /// pending downlink frame per node.
    pub downlink_rate: f64,
}

impl TrafficSpec {
    /// Uniform CAP-only traffic: every channel carries `payload_bytes`.
    pub fn uniform(payload_bytes: usize) -> Self {
        TrafficSpec {
            payloads: PayloadSpec::Uniform { payload_bytes },
            gts_slots_per_node: 0,
            gts_demand: None,
            downlink_rate: 0.0,
        }
    }

    /// Heterogeneous CAP-only traffic: channel `c` carries
    /// `payload_bytes[c]`.
    pub fn per_channel(payload_bytes: Vec<usize>) -> Self {
        TrafficSpec {
            payloads: PayloadSpec::PerChannel { payload_bytes },
            gts_slots_per_node: 0,
            gts_demand: None,
            downlink_rate: 0.0,
        }
    }

    /// Every node requests a GTS of `slots_per_node` superframe slots.
    pub fn with_gts(mut self, slots_per_node: u8) -> Self {
        self.gts_slots_per_node = slots_per_node;
        self
    }

    /// Caps the per-channel GTS demand at `nodes` requesting nodes
    /// (combine with [`with_gts`](Self::with_gts) for the slot length).
    pub fn with_gts_demand(mut self, nodes: u32) -> Self {
        self.gts_demand = Some(nodes);
        self
    }

    /// A fraction `frames_per_superframe` of superframes delivers one
    /// pending downlink frame per node.
    pub fn with_downlink(mut self, frames_per_superframe: f64) -> Self {
        self.downlink_rate = frames_per_superframe;
        self
    }

    /// `true` when the spec schedules no contention-free traffic — the
    /// compiled channels carry a provably inert [`CfpPlan`].
    pub fn is_cap_only(&self) -> bool {
        (self.gts_slots_per_node == 0 || self.gts_demand == Some(0)) && self.downlink_rate == 0.0
    }

    /// The GTS demand for a channel holding `nodes` nodes.
    fn demand_for(&self, nodes: usize) -> u32 {
        if self.gts_slots_per_node == 0 {
            return 0;
        }
        self.gts_demand.unwrap_or(nodes as u32).min(nodes as u32)
    }
}

/// Which bit-error-rate model corrupts packets and acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BerChoice {
    /// The paper's empirical CC2420 fit.
    EmpiricalCc2420,
    /// Hard-decision DSSS with the given receiver noise figure.
    HardDecisionDsss {
        /// Receiver noise figure in dB.
        noise_figure_db: f64,
    },
    /// Standard O-QPSK with the given receiver noise figure.
    StandardOqpsk {
        /// Receiver noise figure in dB.
        noise_figure_db: f64,
    },
}

impl BerChoice {
    /// Instantiates the chosen BER model.
    pub fn model(&self) -> ResolvedBer {
        match *self {
            BerChoice::EmpiricalCc2420 => ResolvedBer::Empirical(EmpiricalCc2420Ber::paper()),
            BerChoice::HardDecisionDsss { noise_figure_db } => {
                ResolvedBer::HardDecisionDsss(HardDecisionDsssBer::new(Db::new(noise_figure_db)))
            }
            BerChoice::StandardOqpsk { noise_figure_db } => {
                ResolvedBer::StandardOqpsk(StandardOqpskBer::new(Db::new(noise_figure_db)))
            }
        }
    }

    /// The same choice with its receiver noise figure raised by
    /// `offset_db` — the per-channel quality-asymmetry knob. The empirical
    /// CC2420 fit has no explicit noise figure, so a nonzero offset
    /// switches it to the hard-decision DSSS model at the paper's nominal
    /// 23 dB figure plus the offset.
    pub fn with_noise_offset(&self, offset_db: f64) -> BerChoice {
        if offset_db == 0.0 {
            return *self;
        }
        match *self {
            BerChoice::EmpiricalCc2420 => BerChoice::HardDecisionDsss {
                noise_figure_db: 23.0 + offset_db,
            },
            BerChoice::HardDecisionDsss { noise_figure_db } => BerChoice::HardDecisionDsss {
                noise_figure_db: noise_figure_db + offset_db,
            },
            BerChoice::StandardOqpsk { noise_figure_db } => BerChoice::StandardOqpsk {
                noise_figure_db: noise_figure_db + offset_db,
            },
        }
    }
}

/// An instantiated [`BerChoice`]: one concrete model per variant, so
/// per-channel BER choices can run side by side on the worker pool without
/// generics over the channel index.
#[derive(Debug, Clone, Copy)]
pub enum ResolvedBer {
    /// The paper's empirical CC2420 fit.
    Empirical(EmpiricalCc2420Ber),
    /// Hard-decision DSSS.
    HardDecisionDsss(HardDecisionDsssBer),
    /// Standard O-QPSK.
    StandardOqpsk(StandardOqpskBer),
}

impl BerModel for ResolvedBer {
    fn bit_error_probability(&self, p_rx: wsn_units::DBm) -> wsn_units::Probability {
        match self {
            ResolvedBer::Empirical(m) => m.bit_error_probability(p_rx),
            ResolvedBer::HardDecisionDsss(m) => m.bit_error_probability(p_rx),
            ResolvedBer::StandardOqpsk(m) => m.bit_error_probability(p_rx),
        }
    }
}

/// A declarative multi-channel network experiment.
///
/// # Examples
///
/// ```
/// use wsn_sim::scenario::Scenario;
/// use wsn_sim::Runner;
///
/// let scenario = Scenario::paper_case_study()
///     .with_superframes(4)
///     .with_replications(2);
/// let configs = scenario.compile();
/// assert_eq!(configs.len(), 16);
/// assert!(configs.iter().all(|c| c.channel.nodes == 100));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (printed by the experiment binaries).
    pub name: String,
    /// Number of independent channels.
    pub channels: usize,
    /// Nodes sharing each channel.
    pub nodes_per_channel: usize,
    /// Physical deployment / path-loss population.
    pub deployment: DeploymentSpec,
    /// Node-to-channel allocation for geometric deployments.
    pub allocation: ChannelAllocation,
    /// Traffic per channel.
    pub traffic: TrafficSpec,
    /// Beacon order (sets the inter-beacon period, hence the load).
    pub beacon_order: BeaconOrder,
    /// CSMA/CA parameters.
    pub csma: CsmaParams,
    /// Retransmission budget.
    pub retries: RetryPolicy,
    /// Simulated superframes per replication (first is warm-up).
    pub superframes: u32,
    /// Independent replications per channel.
    pub replications: u32,
    /// Master seed: deployment, per-channel and per-replication seeds all
    /// derive from it.
    pub seed: u64,
    /// Radio energy model.
    pub radio: RadioModel,
    /// Transmit power assignment (scenario-wide; swap per-channel
    /// policies onto the compiled configs for e.g. link adaptation).
    pub tx_policy: TxPowerPolicy,
    /// Coordinator transmit power (beacons, acknowledgements).
    pub coordinator_tx: DBm,
    /// Chip wake-up margin before each beacon.
    pub wakeup_margin: Seconds,
    /// BER model choice (scenario-wide default).
    pub ber: BerChoice,
    /// Per-channel BER overrides — channel `c` runs with `channel_ber[c]`
    /// when set, [`ber`](Self::ber) otherwise. The channel-quality
    /// asymmetry seam: asymmetric noise figures make physically identical
    /// channels behave differently.
    pub channel_ber: Option<Vec<BerChoice>>,
    /// Per-channel link-budget penalties in dB, added to every path loss
    /// compiled onto that channel (e.g. interference raising a channel's
    /// effective noise floor). `None` means all channels are clean.
    pub channel_loss_offsets_db: Option<Vec<f64>>,
    /// Minimum contention-access-period slots every channel's GTS
    /// allocation must preserve (the standard mandates a minimum CAP;
    /// [`GtsRegistry`](wsn_mac::gts::GtsRegistry) enforces it at compile
    /// time).
    pub min_cap_slots: u8,
    /// `true` to start all contentions at the beacon (ablation).
    pub synchronized_arrivals: bool,
    /// Fault-injection plan applied to every compiled channel
    /// ([`FaultPlan::inert`] by default — provably invisible; see
    /// [`crate::faults`]).
    pub faults: FaultPlan,
    /// Accepted and validated (at most 16) for format-1 files, and hashed
    /// into the scenario's fingerprint, but without effect: each
    /// channel's energy accounting runs on its job's thread.
    pub shards: usize,
}

impl Scenario {
    /// A scenario skeleton with the paper's MAC/radio defaults: BO = 6,
    /// standard 2003 CSMA, `N_max = 5`, CC2420 radio and BER, channel
    /// inversion to −88 dBm, 1 ms wake-up margin, one replication.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        nodes_per_channel: usize,
        deployment: DeploymentSpec,
    ) -> Self {
        Scenario {
            name: name.into(),
            channels,
            nodes_per_channel,
            deployment,
            allocation: ChannelAllocation::RoundRobin,
            traffic: TrafficSpec::uniform(120),
            beacon_order: BeaconOrder::new(6).expect("BO 6 valid"),
            csma: CsmaParams::standard_2003(),
            retries: RetryPolicy::paper(),
            superframes: 20,
            replications: 1,
            seed: 0x5CE7_A210,
            radio: RadioModel::cc2420(),
            tx_policy: TxPowerPolicy::ChannelInversion {
                target_rx: DBm::new(-88.0),
            },
            coordinator_tx: DBm::new(0.0),
            wakeup_margin: Seconds::from_millis(1.0),
            ber: BerChoice::EmpiricalCc2420,
            channel_ber: None,
            channel_loss_offsets_db: None,
            min_cap_slots: 8,
            synchronized_arrivals: false,
            faults: FaultPlan::inert(),
            shards: 1,
        }
    }

    /// The paper's §5 dense-network case study: 16 channels × 100 nodes,
    /// 120-byte payloads, BO = 6, path losses uniform over
    /// [`UniformPathLossPopulation::paper_case_study`] (55–95 dB).
    pub fn paper_case_study() -> Self {
        let band = UniformPathLossPopulation::paper_case_study();
        Scenario::new(
            "paper §5 case study",
            16,
            100,
            DeploymentSpec::UniformLossGrid {
                min_db: band.min().db(),
                max_db: band.max().db(),
            },
        )
    }

    /// Overrides the node-to-channel allocation.
    pub fn with_allocation(mut self, allocation: ChannelAllocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Overrides the traffic spec.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Overrides the beacon order.
    pub fn with_beacon_order(mut self, beacon_order: BeaconOrder) -> Self {
        self.beacon_order = beacon_order;
        self
    }

    /// Overrides the simulated superframes per replication.
    pub fn with_superframes(mut self, superframes: u32) -> Self {
        self.superframes = superframes;
        self
    }

    /// Overrides the replication count (clamped to at least 1 at run
    /// time).
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a fault-injection plan: node churn, coordinator outages
    /// and round-level load/quality dynamics, all derived from the master
    /// seed (see [`crate::faults`]). The inert plan leaves every compiled
    /// channel bit-identical to a fault-free scenario.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Gives every channel its own BER model — the channel-quality
    /// asymmetry seam promoted from the scenario-wide
    /// [`ber`](Self::ber). One entry per channel.
    pub fn with_channel_ber(mut self, channel_ber: Vec<BerChoice>) -> Self {
        self.channel_ber = Some(channel_ber);
        self
    }

    /// The BER choice governing channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if a per-channel BER list is shorter than the channel count.
    pub fn channel_ber(&self, c: usize) -> BerChoice {
        match &self.channel_ber {
            Some(bers) => {
                assert!(
                    bers.len() >= self.channels,
                    "one BER choice per channel required ({} < {})",
                    bers.len(),
                    self.channels
                );
                bers[c]
            }
            None => self.ber,
        }
    }

    /// Every channel's resolved BER model, in channel order — what
    /// [`run_compiled`](Self::run_compiled), the farm and the policy loop
    /// run the channels against.
    pub(crate) fn channel_bers(&self) -> Vec<ResolvedBer> {
        (0..self.channels)
            .map(|c| self.channel_ber(c).model())
            .collect()
    }

    /// The link-budget penalty of channel `c` in dB (0 when none is set).
    ///
    /// # Panics
    ///
    /// Panics if a per-channel offset list is shorter than the channel
    /// count.
    pub fn channel_loss_offset(&self, c: usize) -> Db {
        match &self.channel_loss_offsets_db {
            Some(offsets) => {
                assert!(
                    offsets.len() >= self.channels,
                    "one loss offset per channel required ({} < {})",
                    offsets.len(),
                    self.channels
                );
                Db::new(offsets[c])
            }
            None => Db::new(0.0),
        }
    }

    /// Total node count across all channels.
    pub fn total_nodes(&self) -> usize {
        self.channels * self.nodes_per_channel
    }

    /// The payload carried by channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if a per-channel payload list is shorter than the channel
    /// count or a payload exceeds the 123-byte maximum.
    pub fn channel_packet(&self, c: usize) -> PacketLayout {
        let bytes = self.payload_bytes(c).unwrap_or_else(|e| panic!("{e}"));
        PacketLayout::with_payload(bytes).expect("payload within the 123-byte maximum")
    }

    /// The payload size of channel `c` in bytes, or why a per-channel
    /// list cannot give one: it is shorter than the channel count.
    fn payload_bytes(&self, c: usize) -> Result<usize, String> {
        match &self.traffic.payloads {
            PayloadSpec::Uniform { payload_bytes } => Ok(*payload_bytes),
            PayloadSpec::PerChannel { payload_bytes } if payload_bytes.len() < self.channels => {
                Err(format!(
                    "one payload per channel required ({} < {})",
                    payload_bytes.len(),
                    self.channels
                ))
            }
            PayloadSpec::PerChannel { payload_bytes } => Ok(payload_bytes[c]),
        }
    }

    /// The contention-free plan of a channel holding `nodes` nodes: the
    /// traffic's GTS demand resolved through a real
    /// [`GtsRegistry`](wsn_mac::gts::GtsRegistry) (seven descriptors,
    /// [`min_cap_slots`](Self::min_cap_slots) preserved; overflow is
    /// counted in [`CfpPlan::gts_denied`] and falls back to CAP), plus
    /// the downlink polling rate.
    pub fn channel_cfp(&self, nodes: usize) -> CfpPlan {
        if self.traffic.is_cap_only() {
            return CfpPlan::inert();
        }
        plan_channel_cfp(
            nodes as u32,
            self.traffic.demand_for(nodes),
            self.traffic.gts_slots_per_node.max(1),
            self.min_cap_slots,
            self.traffic.downlink_rate,
        )
    }

    /// The network load λ channel `c` carries with `nodes` nodes assigned
    /// to it, implied by its traffic and the beacon order:
    /// `N·T_packet / T_ib`.
    pub fn load_for(&self, c: usize, nodes: usize) -> f64 {
        nodes as f64 * self.channel_packet(c).duration().secs()
            / self.beacon_order.beacon_interval().secs()
    }

    /// Channel `c`'s contention configuration with `nodes` nodes and
    /// contention seed `seed` — the one place
    /// [`network_config`](Self::network_config) and
    /// [`validate`](Self::validate) build it.
    fn channel_sim_config(&self, c: usize, nodes: usize, seed: u64) -> ChannelSimConfig {
        ChannelSimConfig {
            nodes,
            packet: self.channel_packet(c),
            load: self.load_for(c, nodes),
            csma: self.csma,
            retries: self.retries,
            superframes: self.superframes,
            seed,
            synchronized_arrivals: self.synchronized_arrivals,
            cfp: self.channel_cfp(nodes),
            faults: self.faults,
        }
    }

    /// The most nodes channel `c` can hold while keeping its load below
    /// `max_load` — the capacity bound allocation policies must respect.
    pub fn channel_capacity(&self, c: usize, max_load: f64) -> usize {
        let per_node = self.channel_packet(c).duration().secs();
        let budget = self.beacon_order.beacon_interval().secs() * max_load;
        (budget / per_node).floor() as usize
    }

    /// The geometric deployment and its per-node losses, or `None` for the
    /// geometry-free [`DeploymentSpec::UniformLossGrid`].
    ///
    /// Deterministic in the master seed: the geometry RNG stream is
    /// derived from it and independent of the per-channel contention
    /// seeds.
    fn geometry(&self) -> Option<(Vec<Db>, Deployment)> {
        let n = self.total_nodes();
        // A dedicated geometry stream, disjoint from the per-channel
        // contention seeds (which use small indices).
        let mut rng = SplitMix64::new(replication_seed(self.seed, 0xDE9_1077));
        let (deployment, exponent, shadowing_db) = match &self.deployment {
            DeploymentSpec::UniformLossGrid { .. } => return None,
            DeploymentSpec::Disc {
                radius_m,
                exponent,
                shadowing_db,
            } => {
                let d = Deployment::uniform_disc(n, Meters::new(*radius_m), &mut rng);
                (d, exponent, shadowing_db)
            }
            DeploymentSpec::Rings {
                radii_m,
                exponent,
                shadowing_db,
            } => {
                assert!(
                    !radii_m.is_empty() && n.is_multiple_of(radii_m.len()),
                    "total node count {} must divide over {} rings",
                    n,
                    radii_m.len()
                );
                let radii: Vec<Meters> = radii_m.iter().map(|&r| Meters::new(r)).collect();
                let d = Deployment::rings(n / radii.len(), &radii, &mut rng);
                (d, exponent, shadowing_db)
            }
            DeploymentSpec::Clustered {
                field_radius_m,
                cluster_radius_m,
                exponent,
                shadowing_db,
            } => {
                let d = Deployment::clustered(
                    self.channels,
                    self.nodes_per_channel,
                    Meters::new(*field_radius_m),
                    Meters::new(*cluster_radius_m),
                    &mut rng,
                );
                (d, exponent, shadowing_db)
            }
        };
        // Path losses draw their shadowing after the positions, from the
        // same stream.
        let model = LogDistance::free_space_2450().with_exponent(*exponent);
        let losses = if *shadowing_db > 0.0 {
            let shadowed =
                LogNormalShadowing::new(model, Db::new(*shadowing_db), deployment.len(), &mut rng);
            shadowed_population(&shadowed, &deployment.ranges())
        } else {
            deployment.path_losses(&model)
        };
        Some((losses, deployment))
    }

    /// The scenario's [`ChannelAllocation`] applied to a geometric
    /// deployment — the single dispatch point shared by
    /// [`channel_losses`](Self::channel_losses) and
    /// [`population`](Self::population).
    fn geometric_partition(&self, deployment: &Deployment) -> Vec<Vec<usize>> {
        match self.allocation {
            ChannelAllocation::RoundRobin => round_robin_partition(deployment.len(), self.channels),
            ChannelAllocation::Contiguous => block_partition(0..deployment.len(), self.channels),
            ChannelAllocation::RingStratified => deployment.ring_partition(self.channels),
        }
    }

    /// Per-node path losses for every channel, from the deployment spec,
    /// with any [per-channel loss offsets](Self::channel_loss_offsets_db)
    /// applied.
    ///
    /// Deterministic in the master seed: the geometry RNG stream is
    /// derived from it and independent of the per-channel contention
    /// seeds.
    pub fn channel_losses(&self) -> Vec<Vec<Db>> {
        let mut per_channel: Vec<Vec<Db>> = match self.geometry() {
            None => vec![self.loss_grid(self.nodes_per_channel); self.channels],
            Some((losses, deployment)) => self
                .geometric_partition(&deployment)
                .iter()
                .map(|part| part.iter().map(|&i| losses[i]).collect())
                .collect(),
        };
        for (c, losses) in per_channel.iter_mut().enumerate() {
            let offset = self.channel_loss_offset(c);
            if offset.db() != 0.0 {
                for loss in losses.iter_mut() {
                    *loss += offset;
                }
            }
        }
        per_channel
    }

    /// The whole population's path losses in node-index order, **without**
    /// per-channel offsets (those depend on which channel a node lands on
    /// — [`compile_assignment`](Self::compile_assignment) applies them).
    ///
    /// For geometric deployments this is the same loss vector
    /// [`channel_losses`](Self::channel_losses) partitions; for the
    /// geometry-free uniform grid it is the deterministic midpoint grid
    /// over the *total* node count, so an assignment-driven experiment
    /// still spans the full 55–95 dB band.
    pub fn population_losses(&self) -> Vec<Db> {
        self.population().0
    }

    /// The geometry-free [`DeploymentSpec::UniformLossGrid`]'s `n`
    /// midpoint losses, the population of every scenario without a
    /// [`geometry`](Self::geometry).
    fn loss_grid(&self, n: usize) -> Vec<Db> {
        let DeploymentSpec::UniformLossGrid { min_db, max_db } = self.deployment else {
            unreachable!("geometry() is None only for the uniform grid");
        };
        UniformPathLossPopulation::new(Db::new(min_db), Db::new(max_db)).grid(n)
    }

    /// The node→channel assignment the scenario's [`ChannelAllocation`]
    /// implies — the starting point of every adaptive re-allocation loop.
    ///
    /// For geometric deployments the partition methods of the deployment
    /// are inverted into per-node labels. For the uniform grid (sorted
    /// ascending in loss) `RoundRobin` interleaves the band across
    /// channels while `Contiguous`/`RingStratified` both stratify it into
    /// consecutive loss bands.
    pub fn initial_assignment(&self) -> Vec<usize> {
        self.population().1
    }

    /// [`population_losses`](Self::population_losses) and
    /// [`initial_assignment`](Self::initial_assignment) from one
    /// [`geometry`](Self::geometry), which places every node and draws its
    /// shadowing.
    pub(crate) fn population(&self) -> (Vec<Db>, Vec<usize>) {
        let n = self.total_nodes();
        let (losses, parts) = match self.geometry() {
            Some((losses, deployment)) => (losses, self.geometric_partition(&deployment)),
            None => {
                let parts = match self.allocation {
                    ChannelAllocation::RoundRobin => round_robin_partition(n, self.channels),
                    // The grid is sorted ascending in loss, so contiguous
                    // blocks are loss bands — the stratified reading.
                    ChannelAllocation::Contiguous | ChannelAllocation::RingStratified => {
                        block_partition(0..n, self.channels)
                    }
                };
                (self.loss_grid(n), parts)
            }
        };
        let mut assignment = vec![0usize; n];
        for (c, part) in parts.iter().enumerate() {
            for &i in part {
                assignment[i] = c;
            }
        }
        (losses, assignment)
    }

    /// Channel `c`'s network configuration over `path_losses`, one per
    /// node, with contention seed `seed` — the one place
    /// [`compile`](Self::compile) and the assignment compiles build it.
    ///
    /// # Panics
    ///
    /// Panics if the channel's load leaves `(0, 1)`, as it does for a
    /// channel without nodes.
    fn network_config(&self, c: usize, path_losses: Arc<[Db]>, seed: u64) -> NetworkConfig {
        let channel = self.channel_sim_config(c, path_losses.len(), seed);
        let load = channel.load;
        assert!(
            load > 0.0 && load < 1.0,
            "channel {c} load {load:.3} outside (0,1) — keep every channel populated, \
             lower the traffic or raise BO"
        );
        NetworkConfig {
            channel,
            radio: self.radio.clone(),
            path_losses,
            tx_policy: self.tx_policy.clone(),
            coordinator_tx: self.coordinator_tx,
            wakeup_margin: self.wakeup_margin,
            corrupt_probs: None,
        }
    }

    /// Checks every structural invariant [`compile`](Self::compile) and
    /// the run path would otherwise `assert!` — the non-panicking front
    /// door for scenarios that arrive as data ([`crate::persist`],
    /// [`crate::batch`]) rather than as code.
    ///
    /// Returns the first violation as a human-readable message. A
    /// scenario that validates cleanly compiles and runs without
    /// panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("at least one channel required".into());
        }
        // The checks below loop over channels, so a count read from a file
        // is bounded first.
        if self.channels > usize::from(NUM_CHANNELS_2450) {
            return Err(format!(
                "at most {NUM_CHANNELS_2450} channels (the 2450 MHz band's), got {}",
                self.channels
            ));
        }
        if self.nodes_per_channel == 0 {
            return Err("at least one node per channel required".into());
        }
        if self.superframes < 2 {
            return Err(format!(
                "at least 2 superframes required (first is warm-up), got {}",
                self.superframes
            ));
        }
        // Sizes read from a file: every job's result is held until its
        // grid reduces. `shards` has no effect, but format-1 files keep
        // the key and its bound.
        if self.superframes > MAX_SUPERFRAMES {
            return Err(format!(
                "at most {MAX_SUPERFRAMES} superframes, got {}",
                self.superframes
            ));
        }
        if self.replications > MAX_REPLICATIONS {
            return Err(format!(
                "at most {MAX_REPLICATIONS} replications, got {}",
                self.replications
            ));
        }
        if self.shards > MAX_SHARDS {
            return Err(format!("at most {MAX_SHARDS} shards, got {}", self.shards));
        }
        // Channels and replications are bounded above, so the product
        // fits a u128.
        let samples = self.channels as u128
            * self.nodes_per_channel as u128
            * u128::from(self.replications.max(1));
        if samples > u128::from(MAX_NODE_SAMPLES) {
            return Err(format!(
                "at most {MAX_NODE_SAMPLES} per-node samples \
                 (channels × nodes per channel × replications), got {samples}"
            ));
        }
        for c in 0..self.channels {
            PacketLayout::with_payload(self.payload_bytes(c)?)
                .map_err(|e| format!("channel {c} payload: {e}"))?;
            let load = self.load_for(c, self.nodes_per_channel);
            if !(load > 0.0 && load < 1.0) {
                return Err(format!(
                    "channel {c} load {load:.3} outside (0,1) — lower the traffic or raise BO"
                ));
            }
        }
        if let Some(bers) = &self.channel_ber {
            if bers.len() < self.channels {
                return Err(format!(
                    "one BER choice per channel required ({} < {})",
                    bers.len(),
                    self.channels
                ));
            }
        }
        if let Some(offsets) = &self.channel_loss_offsets_db {
            if offsets.len() < self.channels {
                return Err(format!(
                    "one loss offset per channel required ({} < {})",
                    offsets.len(),
                    self.channels
                ));
            }
            if let Some(bad) = offsets.iter().find(|o| !o.is_finite()) {
                return Err(format!("non-finite channel loss offset {bad}"));
            }
        }
        if self.min_cap_slots > 15 {
            return Err(format!(
                "min_cap_slots must stay within the 16-slot superframe, got {}",
                self.min_cap_slots
            ));
        }
        let t = &self.traffic;
        if !(0.0..=1.0).contains(&t.downlink_rate) {
            return Err(format!(
                "downlink rate must be a fraction of superframes, got {}",
                t.downlink_rate
            ));
        }
        let demand_nonzero = t.gts_slots_per_node > 0 && t.gts_demand.is_none_or(|d| d > 0);
        if demand_nonzero && t.gts_slots_per_node > 15 {
            return Err(format!(
                "a GTS allocation must span 1..=15 slots, got {}",
                t.gts_slots_per_node
            ));
        }
        let f = &self.faults;
        for (field, rate) in [("death_rate", f.death_rate), ("outage_rate", f.outage_rate)] {
            if !(0.0..1.0).contains(&rate) {
                return Err(format!("fault {field} must lie in [0,1), got {rate}"));
            }
        }
        if !(0.0..=1.0).contains(&f.burst_downlink_rate) {
            return Err(format!(
                "fault burst_downlink_rate must lie in [0,1], got {}",
                f.burst_downlink_rate
            ));
        }
        if f.outage_rate > 0.0 && f.outage_superframes == 0 {
            return Err("a nonzero outage rate needs a nonzero outage window".into());
        }
        if !f.drift_amplitude_db.is_finite() || f.drift_amplitude_db < 0.0 {
            return Err(format!(
                "fault drift amplitude must be finite and non-negative, got {}",
                f.drift_amplitude_db
            ));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let exponent = match &self.deployment {
            DeploymentSpec::UniformLossGrid { min_db, max_db } => {
                if !(min_db.is_finite() && max_db.is_finite() && min_db <= max_db) {
                    return Err(format!(
                        "loss grid bounds must be finite with min <= max, got {min_db}..{max_db} dB"
                    ));
                }
                None
            }
            DeploymentSpec::Disc {
                radius_m, exponent, ..
            } => {
                if !positive(*radius_m) {
                    return Err(format!(
                        "disc radius must be finite and positive, got {radius_m}"
                    ));
                }
                Some(*exponent)
            }
            DeploymentSpec::Rings {
                radii_m, exponent, ..
            } => {
                if radii_m.is_empty() || !self.total_nodes().is_multiple_of(radii_m.len()) {
                    return Err(format!(
                        "total node count {} must divide over {} rings",
                        self.total_nodes(),
                        radii_m.len()
                    ));
                }
                if let Some(bad) = radii_m.iter().find(|&&r| !positive(r)) {
                    return Err(format!(
                        "ring radius must be finite and positive, got {bad}"
                    ));
                }
                Some(*exponent)
            }
            DeploymentSpec::Clustered {
                field_radius_m,
                cluster_radius_m,
                exponent,
                ..
            } => {
                if !(field_radius_m.is_finite()
                    && *cluster_radius_m > 0.0
                    && cluster_radius_m < field_radius_m)
                {
                    return Err(format!(
                        "cluster radius must lie in (0, field radius {field_radius_m}), \
                         got {cluster_radius_m}"
                    ));
                }
                Some(*exponent)
            }
        };
        if let Some(bad) = exponent.filter(|&e| !positive(e)) {
            return Err(format!(
                "path-loss exponent must be finite and positive, got {bad}"
            ));
        }
        if let TxPowerPolicy::PerNode(levels) = &self.tx_policy {
            if levels.len() != self.nodes_per_channel {
                return Err(format!(
                    "per-node level table holds {} levels for {} nodes per channel",
                    levels.len(),
                    self.nodes_per_channel
                ));
            }
        }
        for c in 0..self.channels {
            self.channel_sim_config(c, self.nodes_per_channel, self.seed)
                .validate()
                .map_err(|e| format!("channel {c}: {e}"))?;
        }
        Ok(())
    }

    /// Compiles the scenario into one [`NetworkConfig`] per channel.
    ///
    /// Channel `c` gets the seed `replication_seed(master, c)` (the
    /// replication layer derives further seeds from it), its traffic's
    /// load, and its slice of the deployment's path losses.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is structurally inconsistent (zero
    /// channels/nodes, payload list too short, a channel load outside
    /// `(0, 1)`).
    pub fn compile(&self) -> Vec<NetworkConfig> {
        assert!(self.channels > 0, "at least one channel required");
        assert!(self.nodes_per_channel > 0, "at least one node per channel");
        self.channel_losses()
            .into_iter()
            .enumerate()
            .map(|(c, losses)| {
                self.network_config(c, losses.into(), replication_seed(self.seed, c as u64))
            })
            .collect()
    }

    /// Compiles the scenario for an explicit node→channel `assignment`
    /// over [`population_losses`](Self::population_losses) — the seam the
    /// adaptive [`policy`](crate::policy) loop re-compiles through every
    /// round. Channel `c`'s node count, path-loss slice (with its
    /// [loss offset](Self::channel_loss_offset)) and load all follow the
    /// assignment rather than the static `nodes_per_channel`.
    ///
    /// Contention seeds derive from `(master, salt, channel)`: pass a
    /// distinct `salt` per round so rounds observe independent contention
    /// noise while staying bit-deterministic. Nodes keep their identity
    /// (their path loss travels with them), so only channel membership —
    /// and hence per-channel load and BER — changes between rounds.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the total node count,
    /// any channel ends up empty, or a channel load leaves `(0, 1)`.
    pub fn compile_assignment(&self, assignment: &[usize], salt: u64) -> Vec<NetworkConfig> {
        self.compile_assignment_with_losses(&self.population_losses(), assignment, salt)
    }

    /// [`compile_assignment`](Self::compile_assignment) over precomputed
    /// [`population_losses`](Self::population_losses), so round loops pay
    /// for the deployment geometry once instead of once per round.
    ///
    /// # Panics
    ///
    /// As [`compile_assignment`](Self::compile_assignment), plus if
    /// `losses` is not one per node.
    pub fn compile_assignment_with_losses(
        &self,
        losses: &[Db],
        assignment: &[usize],
        salt: u64,
    ) -> Vec<NetworkConfig> {
        assert_eq!(
            assignment.len(),
            self.total_nodes(),
            "one channel per node required"
        );
        assert_eq!(losses.len(), assignment.len(), "one path loss per node");
        let parts = assignment_partition(assignment, self.channels);
        let salted = replication_seed(self.seed, 0xAD00_0000 + salt);
        parts
            .iter()
            .enumerate()
            .map(|(c, part)| {
                let offset = self.channel_loss_offset(c);
                let losses = part.iter().map(|&i| losses[i] + offset).collect();
                self.network_config(c, losses, replication_seed(salted, c as u64))
            })
            .collect()
    }

    /// Compiles and runs the scenario on `runner` with the configured BER
    /// model(s).
    pub fn run(&self, runner: &Runner) -> ScenarioOutcome {
        let configs = self.compile();
        self.run_compiled(runner, &configs)
    }

    /// Runs pre-compiled (possibly caller-adjusted) channel configs, one
    /// per channel, with the scenario's BER choice(s) — e.g. after
    /// swapping per-node link-adapted transmit levels onto each config.
    /// Per-channel BER overrides
    /// ([`with_channel_ber`](Self::with_channel_ber)) apply here: config
    /// `c` runs against [`channel_ber(c)`](Self::channel_ber).
    ///
    /// # Panics
    ///
    /// Panics unless there is one config per channel.
    pub fn run_compiled(&self, runner: &Runner, configs: &[NetworkConfig]) -> ScenarioOutcome {
        self.run_resolved(runner, configs, &self.channel_bers())
    }

    /// Runs pre-compiled configs with an explicit BER model shared by all
    /// channels.
    ///
    /// The full channels × replications grid is one flat job list on the
    /// runner, so a 16-channel study with 4 replications exposes 64-way
    /// parallelism; the reduction is
    /// [`ScenarioOutcome::reduce`]. Bit-identical for every thread count.
    pub fn run_with<B: BerModel + Sync>(
        &self,
        runner: &Runner,
        configs: &[NetworkConfig],
        ber: &B,
    ) -> ScenarioOutcome {
        self.run_resolved(runner, configs, &vec![ber; configs.len()])
    }

    /// Runs one grid of this scenario with one BER model per channel and
    /// no deadline: the one grid executor behind [`Scenario::run`] and the
    /// policy loop (the batch farm feeds the same per-job body and per-grid
    /// reduction through its own long-lived stream). The grid's (channel,
    /// replication) jobs go to one runner stream, each under panic
    /// isolation, and reduce in feed order, so the outcome is
    /// bit-identical for every thread count. A job's panic re-panics here
    /// with the job's own message. `pub(crate)` so the policy loop can
    /// resolve its BER models once and reuse them across rounds.
    pub(crate) fn run_resolved<B: BerModel + Sync>(
        &self,
        runner: &Runner,
        configs: &[NetworkConfig],
        bers: &[B],
    ) -> ScenarioOutcome {
        let grid = self.grid(configs, bers);
        let result = runner.stream(
            grid.jobs(),
            |(c, r): (usize, u64)| grid.run_job(c, r, None),
            |s| {
                grid.job_keys().for_each(|job| s.feed(job));
                grid.reduce(std::iter::from_fn(|| s.recv()))
            },
        );
        match result {
            Ok((outcome, _)) => outcome,
            Err(ScenarioStatus::Failed { panic }) => std::panic::panic_any(panic),
            Err(_) => unreachable!("a grid without a deadline never times out"),
        }
    }

    /// This scenario's replications over `configs`, ready to run.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one BER model per config.
    pub(crate) fn grid<'a, B>(
        &'a self,
        configs: &'a [NetworkConfig],
        bers: &'a [B],
    ) -> Grid<'a, B> {
        assert_eq!(
            bers.len(),
            configs.len(),
            "one BER model per channel config required"
        );
        Grid {
            name: &self.name,
            configs,
            bers,
            replications: self.replications.max(1),
        }
    }
}

/// One compiled scenario ready to run: a config and a BER model per
/// channel, and the replications per channel.
pub(crate) struct Grid<'a, B> {
    name: &'a str,
    configs: &'a [NetworkConfig],
    bers: &'a [B],
    replications: u32,
}

/// One grid job's output: the unsealed accumulator and the job's wall
/// clock in milliseconds, or `None` when the deadline passed before the
/// job started.
pub(crate) type JobOutput = Option<(NetworkAccumulator, f64)>;

impl<B: BerModel> Grid<'_, B> {
    /// Jobs the grid puts on the runner: channels × replications, fed
    /// channel-major.
    pub(crate) fn jobs(&self) -> usize {
        self.configs.len() * self.replications as usize
    }

    /// The grid's jobs as `(channel, replication)`, in feed order: the
    /// order [`reduce`](Self::reduce) consumes their results in.
    pub(crate) fn job_keys(&self) -> impl Iterator<Item = (usize, u64)> {
        let reps = u64::from(self.replications);
        (0..self.configs.len()).flat_map(move |c| (0..reps).map(move |r| (c, r)))
    }

    /// The per-job body: replication `r` of channel `c`, skipped when it
    /// would start after `deadline`.
    pub(crate) fn run_job(&self, c: usize, r: u64, deadline: Option<Instant>) -> JobOutput {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        let t = Instant::now();
        // O(1) view, not a deep copy: `path_losses` (and any `PerNode`
        // level table) live behind `Arc`, so the only per-job state is
        // the replication seed written below.
        let mut cfg = self.configs[c].clone();
        cfg.channel.seed = replication_seed(cfg.channel.seed, r);
        let (acc, _) = NetworkSimulator::new(cfg).run_accumulate_counted(&self.bers[c]);
        Some((acc, t.elapsed().as_secs_f64() * 1e3))
    }

    /// The per-grid reduction over the grid's [`jobs`](Self::jobs)
    /// results in feed order (it consumes exactly that many): the outcome
    /// and summed job wall clock in milliseconds, or how the grid ended
    /// without one — a panic wins over a timeout. A complete grid reduces
    /// in fixed order through [`ScenarioOutcome::reduce`].
    pub(crate) fn reduce(
        &self,
        mut results: impl Iterator<Item = std::thread::Result<JobOutput>>,
    ) -> Result<(ScenarioOutcome, f64), ScenarioStatus> {
        let mut accs = Vec::with_capacity(self.configs.len());
        let mut job_ms = 0.0;
        let mut panic = None;
        let mut timed_out = false;
        for _ in self.configs {
            let mut reps = Vec::with_capacity(self.replications as usize);
            for _ in 0..self.replications {
                match results.next().expect("one result per grid job") {
                    Ok(Some((acc, ms))) => {
                        reps.push(acc);
                        job_ms += ms;
                    }
                    Ok(None) => timed_out = true,
                    Err(payload) => {
                        panic.get_or_insert_with(|| panic_message(payload));
                    }
                }
            }
            accs.push(reps);
        }
        if let Some(panic) = panic {
            return Err(ScenarioStatus::Failed { panic });
        }
        if timed_out {
            return Err(ScenarioStatus::Timeout);
        }
        let mut outcome = ScenarioOutcome::reduce(self.name, &accs);
        // Compile-time CFP bookkeeping rides on the configs, not the
        // accumulators: surface each channel's denied GTS requests as
        // the typed overflow signal.
        outcome.gts_denied = self
            .configs
            .iter()
            .map(|c| c.channel.cfp.gts_denied)
            .collect();
        Ok((outcome, job_ms))
    }
}

/// Results of a scenario run: one summary per channel plus the
/// network-wide reduction.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's name (echoed for experiment logs).
    pub name: String,
    /// Per-channel summaries, in channel order.
    pub per_channel: Vec<NetworkSummary>,
    /// All channels and replications merged.
    pub overall: NetworkSummary,
    /// GTS requests denied per channel at compile time (descriptor table
    /// exhausted or minimum CAP reached) — those nodes fell back to CAP.
    /// Empty when the outcome was reduced outside the scenario run path.
    pub gts_denied: Vec<u32>,
}

impl ScenarioOutcome {
    /// Reduces a channels × replications grid of unsealed accumulators
    /// (`accs[c][r]` = channel `c`, replication `r`) into per-channel and
    /// overall summaries. Serial and fixed-order, so the result is
    /// bit-identical no matter how the grid was produced:
    ///
    /// * **per channel** — its replications merge in replication order,
    ///   each sealed, so per-channel standard errors are
    ///   replication-based;
    /// * **overall** — for each replication, all channels merge
    ///   (channel-major) into one network-wide accumulator which is then
    ///   sealed; the sealed replications merge in order, so the overall
    ///   standard errors are replication-based too.
    ///
    /// # Panics
    ///
    /// Panics if channels disagree on their replication count.
    pub fn reduce(name: impl Into<String>, accs: &[Vec<NetworkAccumulator>]) -> ScenarioOutcome {
        let reps = accs.first().map_or(0, Vec::len);
        assert!(
            accs.iter().all(|channel_reps| channel_reps.len() == reps),
            "every channel needs the same replication count"
        );

        let per_channel = accs
            .iter()
            .map(|channel_reps| {
                let mut total = NetworkAccumulator::new();
                for shard in channel_reps {
                    let mut shard = shard.clone();
                    shard.seal_replication();
                    total.merge(&shard);
                }
                total.summary()
            })
            .collect();

        let mut overall = NetworkAccumulator::new();
        for r in 0..reps {
            let mut rep_acc = NetworkAccumulator::new();
            for channel_reps in accs {
                rep_acc.merge(&channel_reps[r]);
            }
            rep_acc.seal_replication();
            overall.merge(&rep_acc);
        }

        ScenarioOutcome {
            name: name.into(),
            per_channel,
            overall: overall.summary(),
            gts_denied: Vec::new(),
        }
    }

    /// Total GTS requests denied across all channels.
    pub fn total_gts_denied(&self) -> u32 {
        self.gts_denied.iter().sum()
    }

    /// Index and summary of the channel with the highest failure ratio.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has no channels.
    pub fn worst_channel(&self) -> (usize, &NetworkSummary) {
        self.per_channel
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.failure_ratio
                    .value()
                    .total_cmp(&b.1.failure_ratio.value())
            })
            .expect("at least one channel")
    }

    /// Spread of per-channel mean node powers, `(min µW, max µW)`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has no channels.
    pub fn power_spread_uw(&self) -> (f64, f64) {
        assert!(!self.per_channel.is_empty(), "at least one channel");
        let powers: Vec<f64> = self
            .per_channel
            .iter()
            .map(|s| s.mean_node_power.microwatts())
            .collect();
        (
            powers.iter().copied().fold(f64::INFINITY, f64::min),
            powers.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(deployment: DeploymentSpec) -> Scenario {
        let mut s = Scenario::new("tiny", 4, 10, deployment);
        s.superframes = 4;
        s
    }

    #[test]
    fn paper_case_study_compiles_to_16x100() {
        let configs = Scenario::paper_case_study().compile();
        assert_eq!(configs.len(), 16);
        for cfg in &configs {
            assert_eq!(cfg.channel.nodes, 100);
            assert_eq!(cfg.path_losses.len(), 100);
            assert_eq!(cfg.channel.packet.payload_bytes(), 120);
            // BO 6 → T_ib 983.04 ms → the paper's ≈42 % load.
            assert!((cfg.channel.load - 0.433).abs() < 0.005);
            // Identical loss grid per channel, spanning 55–95 dB.
            assert!(cfg.path_losses.first().unwrap().db() > 55.0);
            assert!(cfg.path_losses.last().unwrap().db() < 95.0);
        }
        // Per-channel seeds are distinct.
        let mut seeds: Vec<u64> = configs.iter().map(|c| c.channel.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn geometric_scenarios_partition_all_nodes() {
        for (spec, allocation) in [
            (
                DeploymentSpec::Disc {
                    radius_m: 30.0,
                    exponent: 3.0,
                    shadowing_db: 0.0,
                },
                ChannelAllocation::RingStratified,
            ),
            (
                DeploymentSpec::Rings {
                    radii_m: vec![5.0, 12.0, 20.0, 28.0],
                    exponent: 3.0,
                    shadowing_db: 2.0,
                },
                ChannelAllocation::Contiguous,
            ),
            (
                DeploymentSpec::Clustered {
                    field_radius_m: 40.0,
                    cluster_radius_m: 4.0,
                    exponent: 3.0,
                    shadowing_db: 0.0,
                },
                ChannelAllocation::Contiguous,
            ),
        ] {
            let s = tiny(spec).with_allocation(allocation);
            let configs = s.compile();
            assert_eq!(configs.len(), 4);
            assert!(configs.iter().all(|c| c.path_losses.len() == 10));
        }
    }

    #[test]
    fn ring_stratified_channels_order_by_loss() {
        let s = tiny(DeploymentSpec::Disc {
            radius_m: 30.0,
            exponent: 3.0,
            shadowing_db: 0.0,
        })
        .with_allocation(ChannelAllocation::RingStratified);
        let configs = s.compile();
        let mean_loss = |cfg: &NetworkConfig| {
            cfg.path_losses.iter().map(|l| l.db()).sum::<f64>() / cfg.path_losses.len() as f64
        };
        for w in configs.windows(2) {
            assert!(mean_loss(&w[0]) <= mean_loss(&w[1]));
        }
    }

    #[test]
    fn heterogeneous_traffic_changes_per_channel_load() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 80.0,
        })
        .with_traffic(TrafficSpec::per_channel(vec![40, 80, 120, 123]));
        let configs = s.compile();
        let loads: Vec<f64> = configs.iter().map(|c| c.channel.load).collect();
        assert!(loads.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(configs[3].channel.packet.payload_bytes(), 123);
    }

    #[test]
    fn compilation_is_deterministic_in_the_seed() {
        let spec = DeploymentSpec::Disc {
            radius_m: 25.0,
            exponent: 3.0,
            shadowing_db: 4.0,
        };
        let a = tiny(spec.clone()).with_seed(7).compile();
        let b = tiny(spec.clone()).with_seed(7).compile();
        let c = tiny(spec).with_seed(8).compile();
        assert_eq!(a[0].path_losses, b[0].path_losses);
        assert_ne!(a[0].path_losses, c[0].path_losses);
    }

    #[test]
    fn scenario_run_is_bit_identical_across_thread_counts() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_replications(3);
        let serial = s.run(&Runner::serial());
        for threads in [2, 4] {
            let parallel = s.run(&Runner::with_threads(threads));
            assert_eq!(
                serial.overall.mean_node_power, parallel.overall.mean_node_power,
                "threads={threads}"
            );
            assert_eq!(serial.overall.failure_ratio, parallel.overall.failure_ratio);
            assert_eq!(
                serial.overall.power_standard_error,
                parallel.overall.power_standard_error
            );
            for (a, b) in serial.per_channel.iter().zip(&parallel.per_channel) {
                assert_eq!(a.mean_node_power, b.mean_node_power);
                assert_eq!(a.failure_ratio, b.failure_ratio);
            }
        }
        assert_eq!(serial.overall.replications, 3);
        assert_eq!(serial.per_channel[0].replications, 3);
    }

    #[test]
    fn cap_only_traffic_compiles_inert_plans() {
        let configs = Scenario::paper_case_study().compile();
        assert!(configs.iter().all(|c| c.channel.cfp.is_inert()));
    }

    #[test]
    fn gts_traffic_resolves_through_the_registry() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_traffic(TrafficSpec::uniform(80).with_gts(1).with_downlink(0.25));
        let configs = s.compile();
        for cfg in &configs {
            // All 10 nodes asked; 7 descriptors exist.
            assert_eq!(cfg.channel.cfp.gts_nodes, 7);
            assert_eq!(cfg.channel.cfp.gts_denied, 3);
            assert_eq!(cfg.channel.cfp.cfp_start_slot, 9);
            assert_eq!(cfg.channel.cfp.downlink_rate, 0.25);
        }
        let outcome = s.with_superframes(4).run(&Runner::serial());
        assert_eq!(outcome.gts_denied, vec![3, 3, 3, 3]);
        assert_eq!(outcome.total_gts_denied(), 12);
        assert!(outcome.overall.cfp_power.microwatts() > 0.0);
        assert!(outcome.overall.gts_transactions > 0);
        assert!(outcome.overall.downlink_polls > 0);
    }

    #[test]
    fn min_cap_floor_limits_gts_grants() {
        let mut s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_traffic(TrafficSpec::uniform(80).with_gts(2));
        s.min_cap_slots = 10;
        // Two-slot allocations above a 10-slot CAP: only 3 fit (slots
        // 10..16).
        let configs = s.compile();
        assert_eq!(configs[0].channel.cfp.gts_nodes, 3);
        assert_eq!(configs[0].channel.cfp.gts_denied, 7);
        assert_eq!(configs[0].channel.cfp.cfp_start_slot, 10);
    }

    #[test]
    fn gts_demand_caps_the_requesting_nodes() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_traffic(TrafficSpec::uniform(80).with_gts(1).with_gts_demand(4));
        let configs = s.compile();
        assert_eq!(configs[0].channel.cfp.gts_nodes, 4);
        assert_eq!(configs[0].channel.cfp.gts_denied, 0);
    }

    #[test]
    fn cfp_scenario_runs_are_bit_identical_across_thread_counts() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_traffic(TrafficSpec::uniform(100).with_gts(1).with_downlink(0.5))
        .with_replications(2);
        let serial = s.run(&Runner::serial());
        for threads in [2, 4] {
            let parallel = s.run(&Runner::with_threads(threads));
            assert_eq!(
                serial.overall.mean_node_power,
                parallel.overall.mean_node_power
            );
            assert_eq!(serial.overall.cap_power, parallel.overall.cap_power);
            assert_eq!(serial.overall.cfp_power, parallel.overall.cfp_power);
            assert_eq!(
                serial.overall.cfp_power_standard_error,
                parallel.overall.cfp_power_standard_error
            );
            assert_eq!(serial.gts_denied, parallel.gts_denied);
            assert_eq!(
                serial.overall.downlink_failure_ratio,
                parallel.overall.downlink_failure_ratio
            );
        }
    }

    #[test]
    fn overall_pools_all_channels() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        });
        let outcome = s.run(&Runner::serial());
        assert_eq!(outcome.per_channel.len(), 4);
        // 4 channels × 10 nodes × 1 replication.
        assert_eq!(outcome.overall.node_powers.len(), 40);
        let (lo, hi) = outcome.power_spread_uw();
        assert!(lo <= hi);
        let (worst, summary) = outcome.worst_channel();
        assert!(worst < 4);
        assert!(summary.failure_ratio.value() <= 1.0);
    }

    #[test]
    fn validate_rejects_geometry_that_compile_would_panic_on() {
        let disc = |radius_m, exponent| DeploymentSpec::Disc {
            radius_m,
            exponent,
            shadowing_db: 0.0,
        };
        let rings = |radii_m: &[f64]| DeploymentSpec::Rings {
            radii_m: radii_m.to_vec(),
            exponent: 3.0,
            shadowing_db: 0.0,
        };
        let clustered = |field_radius_m, cluster_radius_m| DeploymentSpec::Clustered {
            field_radius_m,
            cluster_radius_m,
            exponent: 3.0,
            shadowing_db: 0.0,
        };
        let grid = |min_db, max_db| DeploymentSpec::UniformLossGrid { min_db, max_db };
        for (spec, message) in [
            (disc(-1.0, 3.0), "disc radius"),
            (disc(0.0, 3.0), "disc radius"),
            (disc(f64::NAN, 3.0), "disc radius"),
            (disc(f64::INFINITY, 3.0), "disc radius"),
            (rings(&[5.0, 0.0]), "ring radius"),
            (rings(&[f64::NAN, 10.0]), "ring radius"),
            (rings(&[5.0, -3.0, 8.0, 9.0]), "ring radius"),
            (clustered(40.0, 0.0), "cluster radius"),
            (clustered(40.0, 40.0), "cluster radius"),
            (clustered(40.0, f64::NAN), "cluster radius"),
            (clustered(f64::INFINITY, 4.0), "cluster radius"),
            (disc(30.0, 0.0), "path-loss exponent"),
            (grid(95.0, 55.0), "loss grid bounds"),
            (grid(f64::NAN, 85.0), "loss grid bounds"),
        ] {
            let err = tiny(spec.clone()).validate().unwrap_err();
            assert!(err.contains(message), "{spec:?}: {err}");
        }
        // CSMA parameters `SlottedCsmaCa::start` panics on, and a GTS too
        // short for its frame: 133 bytes last 4256 µs, a BO 0 slot 960 µs.
        for (min_be, max_be, cw) in [(3, 5, 0), (6, 5, 2), (3, 9, 2)] {
            let mut s = tiny(grid(55.0, 95.0));
            (s.csma.min_be, s.csma.max_be, s.csma.cw) = (min_be, max_be, cw);
            let err = s.validate().unwrap_err();
            assert!(err.contains("invalid CSMA parameters"), "{err}");
        }
        // Payloads `channel_packet` panics on: over the 123-byte maximum
        // on every channel or on one, and a per-channel list shorter than
        // the channel count.
        for (traffic, message) in [
            (TrafficSpec::uniform(124), "channel 0 payload"),
            (
                TrafficSpec::per_channel(vec![120, 120, 124, 120]),
                "channel 2 payload",
            ),
            (
                TrafficSpec::per_channel(vec![120, 120, 120]),
                "one payload per channel required (3 < 4)",
            ),
        ] {
            let err = tiny(grid(55.0, 95.0))
                .with_traffic(traffic)
                .validate()
                .unwrap_err();
            assert!(err.contains(message), "{err}");
        }
        let mut s = tiny(grid(55.0, 95.0))
            .with_beacon_order(BeaconOrder::new(0).unwrap())
            .with_traffic(TrafficSpec::uniform(120).with_gts(1));
        (s.channels, s.nodes_per_channel) = (1, 3);
        let err = s.validate().unwrap_err();
        assert!(err.contains("does not fit a 1-slot GTS"), "{err}");
        // A count a file can carry: the per-channel checks must not loop
        // over `usize::MAX` channels.
        let mut s = tiny(grid(55.0, 95.0));
        s.channels = usize::MAX;
        let err = s.validate().unwrap_err();
        assert!(err.contains("at most 16 channels"), "{err}");
        // The other sizes a file carries: 4e9 replications validated and
        // then aborted the process on a failed job-list allocation.
        let mut s = tiny(grid(55.0, 95.0));
        s.replications = 4_000_000_000;
        let err = s.validate().unwrap_err();
        assert!(err.contains("at most 1000 replications"), "{err}");
        let mut s = tiny(grid(55.0, 95.0));
        s.superframes = u32::MAX;
        let err = s.validate().unwrap_err();
        assert!(err.contains("at most 1000000 superframes"), "{err}");
        let mut s = tiny(grid(55.0, 95.0));
        s.shards = usize::MAX;
        let err = s.validate().unwrap_err();
        assert!(err.contains("at most 16 shards"), "{err}");
        // Each size under its own cap, but their product over the total:
        // 16 × 2049 × 512 per-node powers. At BO 10 the load stays below 1.
        let mut s = tiny(grid(55.0, 95.0)).with_beacon_order(BeaconOrder::new(10).unwrap());
        (s.channels, s.nodes_per_channel, s.replications) = (16, 2049, 512);
        let err = s.validate().unwrap_err();
        assert!(err.contains("at most 16777216 per-node samples"), "{err}");
        // The caps themselves still validate.
        s.nodes_per_channel = 2048;
        assert_eq!(16 * 2048 * 512, MAX_NODE_SAMPLES);
        assert_eq!(s.validate(), Ok(()));
        let mut s = tiny(grid(55.0, 95.0));
        (s.superframes, s.replications, s.shards) = (MAX_SUPERFRAMES, MAX_REPLICATIONS, MAX_SHARDS);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "one path loss per node required")]
    fn a_panicking_job_re_panics_with_its_own_message() {
        let s = tiny(DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 85.0,
        })
        .with_replications(2);
        let mut configs = s.compile();
        configs[1].path_losses = configs[1].path_losses[1..].into();
        s.run_compiled(&Runner::with_threads(2), &configs);
    }
}
