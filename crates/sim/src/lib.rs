//! Deterministic discrete-event simulation of 802.15.4 channels and nodes.
//!
//! Two simulators are built on a shared deterministic core:
//!
//! * [`contention`] — a slot-grid Monte-Carlo simulation of the slotted
//!   CSMA/CA contention procedure on one channel. This regenerates the
//!   paper's Figure 6: mean contention duration `T̄_cont`, mean CCA count
//!   `N̄_CCA`, residual collision probability `Pr_col` and channel access
//!   failure probability `Pr_cf`, as functions of the network load λ and
//!   the packet duration.
//! * [`network`] — a full network energy simulation: the contention
//!   engine plus the paper's radio activation policy, per-node energy
//!   ledgers, BER-driven packet corruption and application-level retries.
//!   Used to cross-validate the analytical model (average power, Figure 9
//!   breakdowns, failure probability and delay).
//!
//! The engine models both superframe regimes: the contention access
//! period (slotted CSMA/CA) and, through [`cfp`], the contention-free
//! period — GTS holders transmitting in dedicated tail slots (allocated
//! through the real `wsn_mac` [`GtsRegistry`](wsn_mac::gts::GtsRegistry))
//! and indirect downlink traffic polled with CAP data requests. CFP
//! configuration rides on a [`CfpPlan`]; an inert plan is provably
//! invisible, and energy splits into CAP vs CFP components in every
//! [`NetworkSummary`].
//!
//! Robustness experiments ride on [`faults`]: a seed-deterministic
//! [`FaultPlan`] injects node churn (deaths, orphaning, bounded-retry
//! re-association in the contention engine's beacon handling),
//! coordinator outage windows, and per-round load/quality dynamics for
//! the policy loop. Like the CFP, an inert plan is provably invisible,
//! and fault event ordering is part of the determinism contract.
//!
//! Support modules: [`rng`] (seedable xoshiro256★★), [`events`] (a
//! deterministic calendar queue with O(1) push/pop and a pinned pop-order
//! contract), [`stats`] (mergeable accumulators and the
//! [`stats::ContentionStats`] exchange type), [`sink`] (streaming trace
//! reduction — the engine pushes records into a [`sink::TraceSink`]
//! instead of materializing `Vec`s), and [`runner`] (the deterministic
//! parallel runner; every replicated contention sweep, Figure 6's and the
//! model's Monte-Carlo statistics alike, is one
//! [`Runner::sweep_contention`]). The engine's scratch — queue ring,
//! node array, corruption buffer — lives in a reusable per-thread
//! [`SimWorkspace`] ([`with_workspace`]): serial runs reuse one workspace
//! across entire sweeps and policy loops, and each parallel worker
//! allocates its scratch once per streaming call (a grid, or a whole
//! batch-farm stream) rather than once per job.
//!
//! ## The experiment pipeline: scenario → config → runner → accumulator
//!
//! Network experiments flow through four layers:
//!
//! 1. **[`scenario`]** — a [`scenario::Scenario`] declaratively describes
//!    the whole experiment: deployment geometry (uniform 55–95 dB
//!    population, disc, rings, per-channel clusters), node-to-channel
//!    allocation, per-channel traffic, CSMA/radio parameters, the BER
//!    model and the replication count;
//! 2. **config** — [`scenario::Scenario::compile`] lowers it into one
//!    [`NetworkConfig`] per channel, with per-channel loads and
//!    splitmix-derived seeds;
//! 3. **runner** — the channels × replications grid runs as flat jobs on
//!    one ordered [`Runner::stream`] of scoped worker threads, deriving
//!    each replication's seed from `(master, index)` only.
//!    [`scenario::Scenario::run`], the policy loop and the batch farm
//!    share the grid's per-job body and per-grid reduction;
//! 4. **accumulator** — every run streams into a mergeable
//!    [`network::NetworkAccumulator`] (built on [`Accumulator`],
//!    [`Counter`] and `EnergyLedger::merge`) through
//!    [`NetworkSimulator::run_accumulate_counted`], of which
//!    [`NetworkSimulator::run`] is the sealed one-replication form; the
//!    accumulator also keeps the run's own contention statistics. Shards
//!    merge in a fixed order and finalize into [`NetworkSummary`] with
//!    replication-based standard errors.
//!
//! A fifth layer, [`policy`], closes the loop: a [`policy::PolicyEngine`]
//! re-runs a scenario in rounds, feeding each round's per-channel
//! summaries to a pluggable [`policy::AllocationPolicy`] that emits the
//! next round's node→channel assignment — adaptive channel assignment
//! evaluated entirely on the same deterministic pipeline.
//!
//! Scenarios are also **data**: [`persist`] saves and loads the full
//! [`scenario::Scenario`] surface (plus an optional policy choice) as
//! versioned, canonical JSON — the format-1 schema is documented key by
//! key in the repository's `SCHEMA.md` — and [`batch`] runs a directory
//! or manifest of saved scenarios as one deterministic job stream on
//! long-lived workers, streaming per-scenario JSON result records.
//!
//! The batch service is a **fault-tolerant farm**: [`journal`] keeps a
//! progress journal, written per record and synced once per wave, keyed
//! by config fingerprint ([`persist::fingerprint_scenario`]) so a killed
//! run resumes exactly where it stopped ([`batch::RunConfig::resume`]),
//! records are written
//! through a [`sink::ResultSink`] ([`sink::WriteSink`] over a file or
//! stdout), and each scenario runs once, isolated — a panicking config or
//! a wall-clock overrun becomes a typed `"status":"failed"` / `"timeout"`
//! record while the rest of the farm keeps running (every runner job
//! runs under panic isolation). The journal plus resume is the
//! farm's delivery guarantee: a record is emitted before its journal line
//! is written, so a kill can duplicate one record but never lose one. The
//! journal and record schemas — including the `status` field — are
//! documented in `SCHEMA.md` alongside the scenario format.
//!
//! The whole stack is observable through [`telemetry`]: a process-wide,
//! dependency-free metrics registry (counters, gauges, log₂ histograms,
//! wall-clock spans) that the engine, runner, policy loop and farm feed
//! behind a single enable flag. Telemetry is **deterministically inert**:
//! it draws from no RNG stream, a metrics-enabled run is bit-identical on
//! every simulation output to a metrics-disabled one, and the
//! deterministic metric section itself is bit-identical across thread
//! counts (merges are commutative integer folds). Wall-clock data lives
//! in a separate timing section; the snapshot JSONL format is specified
//! in `SCHEMA.md` § OBSERVABILITY.
//!
//! Everything is reproducible: equal seeds give bit-identical traces, and
//! every parallel reduction — contention sweeps, network replications,
//! whole scenarios, closed policy loops — is bit-identical to the serial
//! path for every thread count. A channel's energy accounting runs on its
//! job's thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cfp;
pub mod contention;
pub mod events;
pub mod faults;
pub mod journal;
pub mod network;
pub mod persist;
pub mod policy;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod sink;
pub mod stats;
pub mod telemetry;

pub use batch::{
    scenario_master_seed, BatchEntry, BatchError, BatchReport, BatchSet, RunConfig, ScenarioRecord,
    ScenarioStatus,
};
pub use journal::{
    load_journal, repair_jsonl_tail, JournalError, JournalLoad, JournalRecord, JournalWriter,
};
pub use persist::{
    fingerprint_scenario, load_scenario, save_scenario, ParseError, PolicyChoice, SaveError,
    SavedScenario,
};

pub use cfp::{plan_channel_cfp, CfpPlan, DownlinkOutcome, DownlinkRecord, GtsRecord};
pub use contention::{
    run_channel_sim_into_ws, simulate_contention, with_workspace, ChannelSimConfig, ConfigError,
    SimTrace, SimWorkspace, SlotTimings,
};
pub use events::WindowError;
pub use faults::{FaultKind, FaultPlan, FaultRecord};
pub use network::{
    NetworkAccumulator, NetworkConfig, NetworkSimulator, NetworkSummary, TxPowerPolicy,
};
pub use policy::{
    AllocationPolicy, GreedyRebalance, PolicyEngine, PolicyTrace, ProportionalFair,
    RoundObservation, StaticAllocation,
};
pub use rng::Xoshiro256StarStar;
pub use runner::{replication_seed, Runner, THREADS_ENV};
pub use scenario::{
    BerChoice, ChannelAllocation, DeploymentSpec, ResolvedBer, Scenario, ScenarioOutcome,
    TrafficSpec,
};
pub use sink::{ResultSink, SinkCounters, StatsSink, TraceCollector, TraceSink, WriteSink};
pub use stats::{Accumulator, ContentionStats, Counter};
