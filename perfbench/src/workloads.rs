//! The three workloads. Each generates its inputs from the seed, runs one
//! closed-loop iteration per `iterate` call, and hands back per-scenario
//! output digests and deterministic work counters for the correctness
//! gate. Why each workload exists is recorded in `RATIONALE.md`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::RadioModel;
use wsn_sim::scenario::{ChannelAllocation, DeploymentSpec, ResolvedBer, Scenario, TrafficSpec};
use wsn_sim::{
    fingerprint_scenario, replication_seed, save_scenario, BatchReport, BatchSet, ChannelSimConfig,
    FaultPlan, GreedyRebalance, JournalRecord, NetworkAccumulator, NetworkConfig, NetworkSimulator,
    PolicyEngine, PolicyTrace, RunConfig, Runner, SavedScenario, ScenarioOutcome, SimWorkspace,
    TxPowerPolicy, WriteSink,
};
use wsn_units::{DBm, Db, Seconds};

use crate::probe::{self, ms_since, TimingSink};

/// Deterministic work counters, by name.
pub type Counters = BTreeMap<&'static str, u64>;
/// Per-layer metric values, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one iteration produced.
pub struct Output {
    /// One digest per scenario, in scenario order.
    pub digests: Vec<u64>,
    /// Scenarios that ended failed or timed out, or went missing.
    pub failed: u64,
    pub counters: Counters,
}

pub trait Workload {
    /// Node-superframes one iteration simulates: nodes × recorded
    /// superframes × replications, summed over jobs.
    fn node_superframes(&self) -> u64;

    /// One timed iteration.
    fn iterate(&mut self, runner: &Runner);

    /// The outputs of the last iteration.
    fn output(&mut self) -> Output;

    /// One iteration at the other thread count, for the 1-vs-2-thread
    /// digest check.
    fn cross_check(&mut self) -> Output {
        self.iterate(&Runner::serial());
        self.output()
    }

    /// One iteration with the benchmark's wrappers and timers in place;
    /// returns its wall time in seconds. Telemetry is on around it.
    fn traced_iteration(&mut self, runner: &Runner) -> f64 {
        let t = Instant::now();
        self.iterate(runner);
        t.elapsed().as_secs_f64()
    }

    /// Workload-specific per-layer numbers from probes after the traced
    /// iteration. Returns how many scenarios the replay found differing.
    fn probes(&mut self, layers: &mut Layers) -> u64;
}

/// Node-superframes of one scenario run (first superframe is warm-up).
fn scenario_node_superframes(s: &Scenario) -> u64 {
    (s.total_nodes() as u64)
        * u64::from(s.superframes.saturating_sub(1))
        * u64::from(s.replications.max(1))
}

// ---------------------------------------------------------------------------
// farm
// ---------------------------------------------------------------------------

/// Copies of each committed fixture per farm: 6 × 50 = 300 scenarios,
/// 1,750 jobs.
const FARM_COPIES: usize = 50;
const FIXTURE_MANIFEST: &str = "scenarios/manifest.json";

pub struct Farm {
    dir: PathBuf,
    scratch: PathBuf,
    scenarios: usize,
    node_sf: u64,
    bytes: u64,
    config: RunConfig,
    last: Option<BatchReport>,
    traced: Option<(BatchSet, f64, TimingSink<WriteSink<fs::File>>)>,
}

impl Farm {
    pub fn new(seed: u64, scratch: &Path) -> Farm {
        let fixtures =
            BatchSet::load_manifest(Path::new(FIXTURE_MANIFEST)).expect("committed fixtures load");
        let dir = scratch.join("scenarios");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch directory is writable");
        let (mut bytes, mut node_sf) = (0u64, 0u64);
        let n = fixtures.entries().len();
        for k in 0..FARM_COPIES {
            for (f, entry) in fixtures.entries().iter().enumerate() {
                let idx = k * n + f;
                let mut saved = entry.saved.clone();
                saved.scenario.name = format!("{} #{k}", entry.name);
                saved.scenario.seed = replication_seed(seed, idx as u64);
                let text = save_scenario(&saved).expect("a loaded fixture re-encodes");
                fs::write(dir.join(format!("s{idx:04}.json")), &text).expect("scratch is writable");
                bytes += text.len() as u64;
                node_sf += scenario_node_superframes(&saved.scenario);
            }
        }
        Farm {
            config: RunConfig {
                journal: Some(scratch.join("journal.jsonl")),
                ..RunConfig::default()
            },
            dir,
            scratch: scratch.to_path_buf(),
            scenarios: FARM_COPIES * n,
            node_sf,
            bytes,
            last: None,
            traced: None,
        }
    }

    fn records_file(&self) -> fs::File {
        fs::File::create(self.scratch.join("records.jsonl")).expect("scratch is writable")
    }
}

impl Workload for Farm {
    fn node_superframes(&self) -> u64 {
        self.node_sf
    }

    fn iterate(&mut self, runner: &Runner) {
        let set = BatchSet::load_dir(&self.dir).expect("generated scenarios load");
        let mut sink = WriteSink::new(self.records_file());
        let report = set
            .run_with(runner, &mut sink, &self.config)
            .expect("farm journal and sink I/O");
        self.last = Some(report);
    }

    fn output(&mut self) -> Output {
        let report = self.last.take().expect("an iteration ran");
        let digests = report
            .records
            .iter()
            .map(|r| {
                probe::digest(&(
                    &r.name,
                    r.seed,
                    &r.fingerprint,
                    r.status.as_str(),
                    &r.outcome,
                ))
            })
            .collect();
        let not_ok = report.records.iter().filter(|r| !r.status.is_ok()).count();
        let missing = self.scenarios.saturating_sub(report.records.len());
        Output {
            digests,
            failed: (not_ok + missing) as u64,
            counters: Counters::from([
                ("node_superframes", self.node_sf),
                ("persist.bytes", self.bytes),
                ("batch.jobs", report.jobs as u64),
            ]),
        }
    }

    fn traced_iteration(&mut self, runner: &Runner) -> f64 {
        let t = Instant::now();
        let set = BatchSet::load_dir(&self.dir).expect("generated scenarios load");
        let load_ms = ms_since(t);
        let mut sink = TimingSink::new(WriteSink::new(self.records_file()));
        let report = set
            .run_with(runner, &mut sink, &self.config)
            .expect("farm journal and sink I/O");
        let wall = t.elapsed().as_secs_f64();
        self.last = Some(report);
        self.traced = Some((set, load_ms, sink));
        wall
    }

    fn probes(&mut self, layers: &mut Layers) -> u64 {
        let (set, load_ms, sink) = self.traced.take().expect("a traced iteration ran");
        let report = self.last.as_ref().expect("a traced iteration ran");
        layers.insert("persist.load_ms", load_ms);
        layers.insert("persist.bytes", self.bytes as f64);
        layers.insert("sink.write_ms", sink.ms);
        layers.insert("sink.bytes", sink.bytes as f64);

        let t = Instant::now();
        for entry in set.entries() {
            std::hint::black_box(fingerprint_scenario(&SavedScenario {
                scenario: set.effective_scenario(entry),
                policy: entry.saved.policy,
            }));
        }
        layers.insert("persist.fingerprint_ms", ms_since(t));

        // Replay the farm's pipeline through public calls: compile, one
        // counted run per job, reduce. Must be bit-identical to run_with.
        let (mut compile_ms, mut reduce_ms, mut mismatched) = (0.0, 0.0, 0u64);
        let mut compiled: Vec<(Vec<NetworkConfig>, Vec<ResolvedBer>, u32)> = Vec::new();
        for (entry, record) in set.entries().iter().zip(&report.records) {
            let scenario = set.effective_scenario(entry);
            let t = Instant::now();
            let configs = scenario.compile();
            let bers: Vec<ResolvedBer> = (0..configs.len())
                .map(|c| scenario.channel_ber(c).model())
                .collect();
            compile_ms += ms_since(t);
            let reps = scenario.replications.max(1);
            let accs: Vec<Vec<NetworkAccumulator>> = configs
                .iter()
                .zip(&bers)
                .map(|(cfg, ber)| {
                    (0..u64::from(reps))
                        .map(|r| {
                            let mut cfg = cfg.clone();
                            cfg.channel.seed = replication_seed(cfg.channel.seed, r);
                            NetworkSimulator::new(cfg).run_accumulate_counted(ber).0
                        })
                        .collect()
                })
                .collect();
            let t = Instant::now();
            let mut outcome = ScenarioOutcome::reduce(scenario.name.clone(), &accs);
            reduce_ms += ms_since(t);
            outcome.gts_denied = configs.iter().map(|c| c.channel.cfp.gts_denied).collect();
            if record.outcome.as_ref().map(probe::digest) != Some(probe::digest(&outcome)) {
                mismatched += 1;
            }
            compiled.push((configs, bers, reps));
        }
        layers.insert("scenario.compile_ms", compile_ms);
        layers.insert("stats.reduce_ms", reduce_ms);

        let channels: Vec<(&NetworkConfig, &ResolvedBer)> = compiled
            .iter()
            .flat_map(|(configs, bers, _)| configs.iter().zip(bers))
            .collect();
        layers.insert("phy.ber_ns_per_node", probe::ber_ns_per_node(&channels));
        let jobs: Vec<(&NetworkConfig, &ResolvedBer, Option<u64>)> = compiled
            .iter()
            .flat_map(|(configs, bers, reps)| {
                configs
                    .iter()
                    .zip(bers)
                    .flat_map(move |(c, b)| (0..u64::from(*reps)).map(move |r| (c, b, Some(r))))
            })
            .collect();
        insert_engine_pass(layers, &jobs);

        let records: Vec<JournalRecord> = report
            .records
            .iter()
            .map(|r| JournalRecord {
                scenario: r.name.clone(),
                fingerprint: r.fingerprint.clone(),
                status: r.status.as_str().to_string(),
                attempts: u64::from(r.attempts),
                elapsed_ms: r.job_ms,
            })
            .collect();
        layers.insert(
            "journal.append_ms_mean",
            probe::journal_append_ms(&self.scratch.join("probe-journal.jsonl"), &records),
        );
        mismatched
    }
}

/// One warm pass, then one timed engine-alone pass; records
/// `contention.ns_per_event` and the pass's event count.
fn insert_engine_pass<B: wsn_phy::ber::BerModel + ?Sized>(
    layers: &mut Layers,
    jobs: &[(&NetworkConfig, &B, Option<u64>)],
) {
    let mut ws = SimWorkspace::new();
    probe::engine_pass(jobs, &mut ws);
    let (events, ns) = probe::engine_pass(jobs, &mut ws);
    layers.insert("contention.ns_per_event", ns / events.max(1) as f64);
    layers.insert("contention.engine_pass_events", events as f64);
}

// ---------------------------------------------------------------------------
// dense_channel
// ---------------------------------------------------------------------------

/// The `bench_scale` configuration at 10⁵ nodes.
const DENSE_NODES: usize = 100_000;
const DENSE_SUPERFRAMES: u32 = 4;
const DENSE_PAYLOAD_BYTES: usize = 120;
const DENSE_LOAD: f64 = 0.4;

pub struct Dense {
    cfg: NetworkConfig,
    ber: EmpiricalCc2420Ber,
    build_ms: f64,
    job_ms: f64,
    last: Option<(NetworkAccumulator, Option<u64>)>,
}

impl Dense {
    pub fn new(seed: u64) -> Dense {
        let t = Instant::now();
        let mut channel =
            ChannelSimConfig::figure6(DENSE_PAYLOAD_BYTES, DENSE_LOAD, replication_seed(seed, 0));
        channel.nodes = DENSE_NODES;
        channel.superframes = DENSE_SUPERFRAMES;
        // The 55–95 dB ramp of `bench_scale` (stride 997 decorrelates loss
        // from node index), rotated by the seed.
        let offset = (seed % 997) as usize;
        let cfg = NetworkConfig {
            channel,
            radio: RadioModel::cc2420(),
            path_losses: (0..DENSE_NODES)
                .map(|i| Db::new(55.0 + 40.0 * ((i + offset) % 997) as f64 / 997.0))
                .collect(),
            tx_policy: TxPowerPolicy::ChannelInversion {
                target_rx: DBm::new(-88.0),
            },
            coordinator_tx: DBm::new(0.0),
            wakeup_margin: Seconds::from_millis(1.0),
            corrupt_probs: None,
        };
        Dense {
            cfg,
            ber: EmpiricalCc2420Ber::paper(),
            build_ms: ms_since(t),
            job_ms: 0.0,
            last: None,
        }
    }
}

impl Workload for Dense {
    fn node_superframes(&self) -> u64 {
        DENSE_NODES as u64 * u64::from(DENSE_SUPERFRAMES - 1)
    }

    /// Serial by design: one channel, no runner.
    fn iterate(&mut self, _runner: &Runner) {
        let (acc, events) =
            NetworkSimulator::new(self.cfg.clone()).run_accumulate_counted(&self.ber);
        self.last = Some((acc, Some(events)));
    }

    fn output(&mut self) -> Output {
        let (mut acc, events) = self.last.take().expect("an iteration ran");
        acc.seal_replication();
        let mut counters = Counters::from([("node_superframes", self.node_superframes())]);
        if let Some(events) = events {
            counters.insert("contention.events", events);
        }
        Output {
            digests: vec![probe::digest(&acc.summary())],
            failed: 0,
            counters,
        }
    }

    /// The two-thread variant is the spatially sharded accounting, which
    /// must be bit-identical to the serial run.
    fn cross_check(&mut self) -> Output {
        let acc = NetworkSimulator::new(self.cfg.clone()).run_accumulate_sharded(&self.ber, 2);
        self.last = Some((acc, None));
        self.output()
    }

    fn traced_iteration(&mut self, runner: &Runner) -> f64 {
        let t = Instant::now();
        self.iterate(runner);
        self.job_ms = ms_since(t);
        self.job_ms / 1e3
    }

    fn probes(&mut self, layers: &mut Layers) -> u64 {
        layers.insert("scenario.compile_ms", self.build_ms);
        layers.insert("network.job_ms_mean", self.job_ms);
        layers.insert("network.job_ms_max", self.job_ms);
        layers.insert(
            "phy.ber_ns_per_node",
            probe::ber_ns_per_node(&[(&self.cfg, &self.ber)]),
        );
        insert_engine_pass(layers, &[(&self.cfg, &self.ber, None)]);
        0
    }
}

// ---------------------------------------------------------------------------
// policy_loop
// ---------------------------------------------------------------------------

const POLICY_ROUNDS: usize = 6;
const POLICY_SUPERFRAMES: u32 = 6;
const POLICY_REPLICATIONS: u32 = 2;

pub struct PolicyLoop {
    scenario: Scenario,
    last: Option<PolicyTrace>,
}

impl PolicyLoop {
    pub fn new(seed: u64) -> PolicyLoop {
        let scenario = Scenario::new(
            "policy loop: ring-stratified disc with GTS, downlink, churn and drift",
            8,
            100,
            DeploymentSpec::Disc {
                radius_m: 60.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::RingStratified)
        .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.25))
        .with_faults(FaultPlan::inert().with_churn(0.02, 1, 3).with_drift(3.0, 4))
        .with_superframes(POLICY_SUPERFRAMES)
        .with_replications(POLICY_REPLICATIONS)
        .with_seed(replication_seed(seed, 1));
        PolicyLoop {
            scenario,
            last: None,
        }
    }

    fn engine(&self) -> PolicyEngine {
        PolicyEngine::new(self.scenario.clone())
            .with_rounds(POLICY_ROUNDS)
            .run_all_rounds()
    }
}

impl Workload for PolicyLoop {
    fn node_superframes(&self) -> u64 {
        POLICY_ROUNDS as u64 * scenario_node_superframes(&self.scenario)
    }

    fn iterate(&mut self, runner: &Runner) {
        let mut policy = GreedyRebalance::new(8).with_move_cost(0.005);
        self.last = Some(self.engine().run(runner, &mut policy));
    }

    fn output(&mut self) -> Output {
        let trace = self.last.take().expect("an iteration ran");
        let rounds: Vec<_> = trace
            .rounds
            .iter()
            .map(|r| (r.round, &r.assignment, r.moved, &r.outcome))
            .collect();
        Output {
            digests: vec![probe::digest(&(&trace.policy, &rounds, trace.converged_at))],
            failed: 0,
            counters: Counters::from([
                ("node_superframes", self.node_superframes()),
                ("policy.rounds", trace.rounds.len() as u64),
                (
                    "policy.moves",
                    trace.rounds.iter().map(|r| r.moved as u64).sum(),
                ),
            ]),
        }
    }

    fn probes(&mut self, layers: &mut Layers) -> u64 {
        let trace = self.last.as_ref().expect("a traced iteration ran");
        let rounds = trace.rounds.len().max(1) as f64;
        layers.insert(
            "policy.round_ms_mean",
            trace.rounds.iter().map(|r| r.wall_ms).sum::<f64>() / rounds,
        );

        // Each round recompiles its assignment over the drifted losses.
        let losses = self.scenario.population_losses();
        let mut compile_ms = 0.0;
        for r in &trace.rounds {
            let drift = Db::new(self.scenario.faults.loss_drift_db(r.round as u32));
            let drifted: Vec<Db> = losses.iter().map(|&l| l + drift).collect();
            let t = Instant::now();
            std::hint::black_box(self.scenario.compile_assignment_with_losses(
                &drifted,
                &r.assignment,
                r.round as u64,
            ));
            compile_ms += ms_since(t);
        }
        layers.insert("scenario.compile_ms", compile_ms);

        // BER and engine probes over round 0's grid.
        let configs = self
            .scenario
            .compile_assignment(&self.scenario.initial_assignment(), 0);
        let bers: Vec<ResolvedBer> = (0..configs.len())
            .map(|c| self.scenario.channel_ber(c).model())
            .collect();
        let channels: Vec<_> = configs.iter().zip(&bers).collect();
        layers.insert("phy.ber_ns_per_node", probe::ber_ns_per_node(&channels));
        let jobs: Vec<_> = channels
            .iter()
            .flat_map(|&(c, b)| (0..u64::from(POLICY_REPLICATIONS)).map(move |r| (c, b, Some(r))))
            .collect();
        insert_engine_pass(layers, &jobs);
        0
    }
}
