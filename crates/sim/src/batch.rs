//! Batch simulation service: run a directory of saved scenarios as one
//! deterministic job grid.
//!
//! [`crate::persist`] makes scenarios data; this module makes them a
//! workload. A [`BatchSet`] loads every scenario file in a directory
//! ([`BatchSet::load_dir`]) or the files a manifest lists
//! ([`BatchSet::load_manifest`]), validates **all** of them up front
//! (one bad file fails the batch before any simulation starts), and
//! [`BatchSet::run_with`] executes the whole set through one [`Runner`]:
//!
//! * **Long-lived workers, pipelined waves.** Consecutive open-loop
//!   scenarios run as one [`Runner::stream`] on one set of workers. The
//!   calling thread compiles *waves* — consecutive scenarios carrying
//!   four jobs per worker — and queues up to eight of them ahead; it
//!   receives each wave's channels × replications results in feed order,
//!   reduces them and emits and journals the wave's records while the
//!   workers simulate the waves behind it. Compile, emission and journal
//!   fsyncs thus overlap simulation, and a 10 000-scenario directory
//!   saturates every core for the entire batch. Each scenario runs the
//!   same per-job body and reduces through the same per-grid reduction
//!   ([`ScenarioOutcome::reduce`] in fixed order) as [`Scenario::run`],
//!   so every per-scenario summary is **bit-identical** to running that
//!   scenario alone, for any thread count and any file ordering (results
//!   are keyed by scenario, not by position). Scenarios carrying a
//!   [`PolicyChoice`] are closed-loop and sequential by nature; each ends
//!   the open-loop stream and runs in its place in entry order as a
//!   one-entry wave, through one [`PolicyEngine`] on the same runner.
//! * **Deterministic seeds.** By default every scenario runs with the
//!   master seed saved in its file. A manifest may instead set a batch
//!   seed: each scenario then runs with
//!   [`scenario_master_seed`]`(batch_seed, name)` — a pure function of
//!   the manifest seed and the scenario *name*, so reordering or adding
//!   files never changes any scenario's stream.
//! * **Streamed results.** Each finished scenario emits one compact JSON
//!   record (JSON-lines) with the full [`NetworkSummary`] surface —
//!   CAP/CFP split, fault counters and standard errors included — and
//!   the batch ends with one aggregate record, all through a
//!   [`ResultSink`] (any `Write` via [`WriteSink`](crate::sink::WriteSink)).
//! * **Fault tolerance.** [`BatchSet::run_with`] takes a [`RunConfig`]:
//!   an fsync'd progress [journal](crate::journal) makes a killed farm
//!   resumable ([`RunConfig::resume`] skips scenarios whose
//!   [config fingerprint](crate::persist::fingerprint_scenario) already
//!   completed, and re-runs ones whose file changed — resumed records are
//!   bit-identical to an uninterrupted run), a panicking scenario is
//!   isolated into a typed `"status":"failed"` record while the rest of
//!   the farm keeps running, and a per-scenario wall-clock watchdog turns
//!   runaway configs into `"timeout"` records. Each scenario runs once:
//!   a validated scenario's jobs are deterministic, so a second attempt
//!   would panic with the same message.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::journal::{load_journal, JournalError, JournalRecord, JournalWriter};
use crate::network::{NetworkConfig, NetworkSummary, TxPowerPolicy};
use crate::persist::{
    self, fingerprint_scenario, load_scenario, render_compact, Node, ObjReader, ParseError,
    PolicyChoice, SavedScenario,
};
use crate::policy::PolicyEngine;
use crate::runner::{panic_message, replication_seed, Runner, Stream};
use crate::scenario::{JobOutput, ResolvedBer, Scenario, ScenarioOutcome};
use crate::sink::ResultSink;

/// The per-scenario master seed under a manifest batch seed: a pure
/// function of `(batch_seed, name)` (FNV-1a over the name, fed through
/// the runner's SplitMix64 derivation), so a scenario's streams do not
/// depend on its position in the manifest or directory.
///
/// # Examples
///
/// ```
/// use wsn_sim::batch::scenario_master_seed;
///
/// assert_eq!(
///     scenario_master_seed(7, "churn"),
///     scenario_master_seed(7, "churn"),
/// );
/// assert_ne!(
///     scenario_master_seed(7, "churn"),
///     scenario_master_seed(7, "case-study"),
/// );
/// ```
pub fn scenario_master_seed(batch_seed: u64, name: &str) -> u64 {
    replication_seed(batch_seed, persist::fnv1a64(name.as_bytes()))
}

/// Why a batch failed to load or validate. Everything is diagnosed up
/// front: no simulation starts while any entry is bad.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchError {
    /// A file or directory could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error text.
        error: String,
    },
    /// A scenario (or manifest) file failed to parse or decode.
    Parse {
        /// The offending file.
        path: PathBuf,
        /// The typed position-carrying diagnostic.
        error: ParseError,
    },
    /// A scenario parsed but is structurally inconsistent
    /// ([`Scenario::validate`]), or pairs a per-node power table with a
    /// policy that moves nodes.
    Invalid {
        /// The offending file.
        path: PathBuf,
        /// The first violated invariant.
        error: String,
    },
    /// Two entries share a scenario name — results are keyed by name, so
    /// names must be unique.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
    /// The directory or manifest listed no scenarios.
    Empty,
    /// The progress journal could not be loaded or appended.
    Journal {
        /// The typed journal diagnostic.
        error: JournalError,
    },
    /// The result sink failed — the record could not be written, so
    /// continuing would silently drop results.
    Sink {
        /// The I/O error text.
        error: String,
    },
}

impl BatchError {
    /// Maps an I/O failure on `path` to [`BatchError::Io`].
    fn io(path: &Path) -> impl Fn(io::Error) -> BatchError + '_ {
        move |e| BatchError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        }
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            BatchError::Parse { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            BatchError::Invalid { path, error } => {
                write!(f, "{}: invalid scenario: {error}", path.display())
            }
            BatchError::DuplicateName { name } => {
                write!(f, "duplicate scenario name `{name}`")
            }
            BatchError::Empty => write!(f, "no scenario files to run"),
            BatchError::Journal { error } => write!(f, "journal: {error}"),
            BatchError::Sink { error } => write!(f, "result sink: {error}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One loaded batch entry: a saved scenario plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// The scenario's name (unique within the batch).
    pub name: String,
    /// The file it was loaded from.
    pub path: PathBuf,
    /// The decoded scenario + optional policy choice.
    pub saved: SavedScenario,
}

/// A validated set of scenarios ready to run as one job grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSet {
    entries: Vec<BatchEntry>,
    batch_seed: Option<u64>,
}

/// How the farm runs a batch: journaling, resume, strict mode, the
/// watchdog and observability. [`Default`] runs every scenario once with
/// no journal and no watchdog.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Progress journal path. Every completed scenario appends one
    /// fsync'd [`JournalRecord`] *after* its result record was emitted
    /// (emit-then-journal: a crash between the two duplicates at most one
    /// record on resume — identifiable by fingerprint — and never loses
    /// one). Records are emitted and journaled wave by wave while up to
    /// eight later waves are in flight, so a kill loses at most that
    /// in-flight window, which a resume re-runs.
    pub journal: Option<PathBuf>,
    /// With a journal: skip scenarios whose config fingerprint already
    /// completed `ok` in the journal, append to the journal instead of
    /// truncating it, and tolerate the torn final journal line a kill
    /// leaves behind. Scenarios whose file changed (different
    /// fingerprint) or that previously failed or timed out re-run.
    pub resume: bool,
    /// Stop after emitting the first `failed`/`timeout` record instead of
    /// completing the rest of the farm.
    pub strict: bool,
    /// Per-scenario wall-clock watchdog. Cooperative: the deadline is
    /// checked before each grid job (open-loop) or before the entry
    /// starts (closed-loop), so a scenario that blows its budget becomes
    /// a `"timeout"` record instead of hanging the farm. `Some(ZERO)` is
    /// a deadline that has already passed, so every scenario times out
    /// deterministically (the test hook); a timeout too large for the
    /// clock to represent means no deadline. When set, the in-flight
    /// window shrinks to one one-scenario wave, so the clock measures a
    /// single scenario and a kill loses at most that scenario.
    pub timeout: Option<Duration>,
    /// Telemetry snapshot stream: after every wave (and once at the end)
    /// append one deterministic and one timing JSONL record
    /// ([`crate::telemetry::snapshot_lines`], `SCHEMA.md`
    /// § OBSERVABILITY) to this path — `"-"` means stdout. Setting this
    /// enables telemetry collection process-wide for the run; telemetry
    /// is provably inert, so the simulation records are unaffected.
    pub metrics: Option<PathBuf>,
    /// Print a single-line `# heartbeat:` progress report to stderr after
    /// each wave (rate-limited) and once at the end: `done/total, failed,
    /// ETA, events/s` (events/s requires telemetry, i.e. `metrics`;
    /// printed as `-` otherwise). `done` includes resume-skipped
    /// scenarios, but the ETA extrapolates only from scenarios run in
    /// this process. Stderr only — the record stream stays
    /// byte-identical.
    pub heartbeat: bool,
}

impl RunConfig {
    /// The watchdog deadline for work starting now.
    fn deadline(&self) -> Option<Instant> {
        self.timeout.and_then(|t| Instant::now().checked_add(t))
    }
}

/// How a scenario ended within a batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Ran to completion; the record carries the outcome.
    Ok,
    /// The scenario's compile or one of its jobs panicked; the record
    /// carries the panic text.
    Failed {
        /// The first panic message in job order.
        panic: String,
    },
    /// The wall-clock watchdog fired before the jobs finished.
    Timeout,
}

impl ScenarioStatus {
    /// The JSONL `status` field value: `ok`, `failed` or `timeout`.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScenarioStatus::Ok => "ok",
            ScenarioStatus::Failed { .. } => "failed",
            ScenarioStatus::Timeout => "timeout",
        }
    }

    /// True for [`ScenarioStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ScenarioStatus::Ok)
    }
}

/// One scenario's results within a batch run.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The scenario's name.
    pub name: String,
    /// The master seed it effectively ran with.
    pub seed: u64,
    /// [`fingerprint_scenario`] of the effective saved scenario (seed
    /// adjustments and policy choice included) — the resume key.
    pub fingerprint: String,
    /// How the scenario ended.
    pub status: ScenarioStatus,
    /// Always 1: each scenario runs once. Kept as a format-1 record and
    /// journal field.
    pub attempts: u32,
    /// Channels the scenario spans (available even when it failed).
    pub channels: usize,
    /// The reduced outcome — bit-identical to [`Scenario::run`] of the
    /// same (seed-adjusted) scenario for open-loop entries; for policy
    /// entries, the final round's outcome. `None` unless
    /// [`status`](Self::status) is `Ok`.
    pub outcome: Option<ScenarioOutcome>,
    /// The policy that closed the loop, if any, with the rounds it ran.
    pub policy: Option<(PolicyChoice, usize)>,
    /// Summed per-job wall-clock in milliseconds (CPU cost, not elapsed
    /// time, under parallelism).
    pub job_ms: f64,
}

/// A completed batch: per-scenario records plus batch-level timing.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One record per scenario that *ran*, in entry order (resume-skipped
    /// scenarios have no record; a strict abort stops the list early).
    pub records: Vec<ScenarioRecord>,
    /// Scenarios skipped by resume (journaled `ok` with a matching
    /// fingerprint).
    pub skipped: usize,
    /// True when [`RunConfig::strict`] stopped the batch at the first
    /// non-`ok` record.
    pub strict_aborted: bool,
    /// Elapsed wall-clock of the whole batch in milliseconds.
    pub wall_ms: f64,
    /// Jobs whose results the farm used (open-loop channels ×
    /// replications; policy rounds are counted per round grid). Work
    /// simulated ahead of a strict abort and discarded is not counted.
    pub jobs: usize,
}

impl BatchReport {
    /// Scenarios completed per second of batch wall-clock.
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.records.len() as f64 / (self.wall_ms / 1e3)
    }

    /// Records that ended `failed`.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, ScenarioStatus::Failed { .. }))
            .count()
    }

    /// Records that ended `timeout`.
    pub fn timed_out(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == ScenarioStatus::Timeout)
            .count()
    }

    /// True when every record is `ok` and nothing was aborted (skipped
    /// scenarios count as ok — they completed in a previous run).
    pub fn all_ok(&self) -> bool {
        !self.strict_aborted && self.records.iter().all(|r| r.status.is_ok())
    }
}

impl BatchSet {
    /// Wraps already-loaded entries (the test seam). Validates like the
    /// file loaders.
    ///
    /// # Errors
    ///
    /// Returns the first [`BatchError`] among the entries.
    pub fn from_entries(
        entries: Vec<BatchEntry>,
        batch_seed: Option<u64>,
    ) -> Result<Self, BatchError> {
        if entries.is_empty() {
            return Err(BatchError::Empty);
        }
        for (i, entry) in entries.iter().enumerate() {
            let saved = &entry.saved;
            saved
                .scenario
                .validate()
                .and_then(|()| match saved.policy {
                    // A positional table cannot follow nodes a policy moves.
                    Some(
                        p @ (PolicyChoice::Greedy { .. } | PolicyChoice::ProportionalFair { .. }),
                    ) if matches!(saved.scenario.tx_policy, TxPowerPolicy::PerNode(_)) => {
                        Err(format!(
                            "a per-node tx power table cannot follow the nodes `{}` moves",
                            p.name()
                        ))
                    }
                    _ => Ok(()),
                })
                .map_err(|error| BatchError::Invalid {
                    path: entry.path.clone(),
                    error,
                })?;
            if entries[..i].iter().any(|e| e.name == entry.name) {
                return Err(BatchError::DuplicateName {
                    name: entry.name.clone(),
                });
            }
        }
        Ok(BatchSet {
            entries,
            batch_seed,
        })
    }

    /// Loads every `*.json` scenario file in `dir` (sorted by file name;
    /// `manifest.json` is skipped), each running with its saved seed.
    ///
    /// # Errors
    ///
    /// Returns the first I/O, parse, validation or duplicate-name
    /// failure — nothing runs until the whole directory is good.
    pub fn load_dir(dir: &Path) -> Result<Self, BatchError> {
        let read = std::fs::read_dir(dir).map_err(BatchError::io(dir))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for dirent in read {
            let dirent = dirent.map_err(BatchError::io(dir))?;
            let path = dirent.path();
            let is_scenario = path.extension().is_some_and(|x| x == "json")
                && path.file_name().is_some_and(|f| f != "manifest.json");
            if is_scenario {
                paths.push(path);
            }
        }
        paths.sort();
        let entries = paths
            .into_iter()
            .map(load_entry)
            .collect::<Result<_, _>>()?;
        BatchSet::from_entries(entries, None)
    }

    /// Loads the scenarios a manifest lists. The manifest is itself
    /// format-1 JSON:
    ///
    /// ```json
    /// {
    ///   "format": 1,
    ///   "seed": null,
    ///   "scenarios": ["case_study_s5.json", "churn_outage.json"]
    /// }
    /// ```
    ///
    /// Paths are relative to the manifest's directory. A non-null `seed`
    /// overrides every scenario's saved master seed via
    /// [`scenario_master_seed`]; `null` keeps the saved seeds (so the
    /// batch reproduces each in-code study bit for bit).
    ///
    /// # Errors
    ///
    /// Returns the first I/O, parse, validation or duplicate-name
    /// failure.
    pub fn load_manifest(path: &Path) -> Result<Self, BatchError> {
        let text = std::fs::read_to_string(path).map_err(BatchError::io(path))?;
        let parse_err = |error: ParseError| BatchError::Parse {
            path: path.to_path_buf(),
            error,
        };
        let root = persist::parse_document(&text).map_err(parse_err)?;
        let (batch_seed, files) = decode_manifest(&root).map_err(parse_err)?;
        let base = path.parent().unwrap_or(Path::new("."));
        let entries = files
            .into_iter()
            .map(|f| load_entry(base.join(f)))
            .collect::<Result<_, _>>()?;
        BatchSet::from_entries(entries, batch_seed)
    }

    /// The validated entries, in load order.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// The manifest batch seed, if one overrides the saved seeds.
    pub fn batch_seed(&self) -> Option<u64> {
        self.batch_seed
    }

    /// The scenario an entry effectively runs: the saved scenario, with
    /// its master seed re-derived when the batch carries a manifest seed.
    pub fn effective_scenario(&self, entry: &BatchEntry) -> Scenario {
        let mut scenario = entry.saved.scenario.clone();
        if let Some(batch_seed) = self.batch_seed {
            scenario.seed = scenario_master_seed(batch_seed, &entry.name);
        }
        scenario
    }

    /// Runs the whole batch on `runner`, streaming one compact JSON
    /// record per scenario (plus a final aggregate record) into `sink`,
    /// under the fault-tolerance knobs in `config`.
    ///
    /// Consecutive open-loop scenarios execute in *waves* on one
    /// [`Runner::stream`] of long-lived workers: the calling thread
    /// compiles and queues up to eight waves ahead (each sized to give
    /// every worker four jobs), and emits and journals each wave's
    /// records, strictly in entry order, once its last result arrives —
    /// so a killed farm loses at most the in-flight window, one
    /// one-scenario wave under a [`RunConfig::timeout`] watchdog.
    /// Policy-bearing scenarios end the stream and run alone, each
    /// through a [`PolicyEngine`] on the same runner. A single-threaded
    /// runner runs every job inline on the calling thread. Per-scenario
    /// summaries are bit-identical to running each scenario alone, for
    /// every thread count, entry ordering, wave split and resume point.
    ///
    /// [`BatchReport::jobs`] counts the jobs of the waves the farm
    /// consumed: after a strict abort, work the workers simulated ahead
    /// of the failing wave is discarded and not counted (nor does it
    /// reach telemetry).
    ///
    /// A panicking scenario — in `compile` or in any job — becomes a
    /// `"status":"failed"` record and the rest of the farm keeps running;
    /// the [`RunConfig::timeout`] watchdog likewise yields `"timeout"`
    /// records. With [`RunConfig::strict`], the batch stops after the
    /// first non-`ok` record.
    ///
    /// # Errors
    ///
    /// [`BatchError::Sink`] when a record cannot be written;
    /// [`BatchError::Journal`] when the progress journal
    /// cannot be read, repaired or appended. Simulation failures are
    /// *not* errors — they are typed records.
    pub fn run_with(
        &self,
        runner: &Runner,
        sink: &mut dyn ResultSink,
        config: &RunConfig,
    ) -> Result<BatchReport, BatchError> {
        let t0 = Instant::now();

        let scenarios: Vec<Scenario> = self
            .entries
            .iter()
            .map(|e| self.effective_scenario(e))
            .collect();
        let fingerprints: Vec<String> = self
            .entries
            .iter()
            .zip(&scenarios)
            .map(|(entry, scenario)| {
                fingerprint_scenario(&SavedScenario {
                    scenario: scenario.clone(),
                    policy: entry.saved.policy,
                })
            })
            .collect();

        // Resume: decide what to skip before anything runs. Only an `ok`
        // journal entry with a matching fingerprint skips — a changed
        // file, a failure or a timeout re-runs.
        let mut skip = vec![false; self.entries.len()];
        let mut skipped = 0usize;
        if config.resume {
            if let Some(path) = &config.journal {
                let prior = load_journal(path).map_err(|error| BatchError::Journal { error })?;
                for (i, entry) in self.entries.iter().enumerate() {
                    if prior
                        .latest(&entry.name)
                        .is_some_and(|r| r.skippable(&fingerprints[i]))
                    {
                        skip[i] = true;
                        skipped += 1;
                    }
                }
            }
        }

        let journal = match &config.journal {
            Some(path) => {
                let writer = if config.resume {
                    // Drop the torn final line a kill left behind, so
                    // appended records concatenate cleanly.
                    crate::journal::repair_jsonl_tail(path).map_err(|e| BatchError::Journal {
                        error: JournalError::Io {
                            path: path.clone(),
                            error: e.to_string(),
                        },
                    })?;
                    JournalWriter::resume(path)
                } else {
                    JournalWriter::create(path)
                };
                Some(writer.map_err(|error| BatchError::Journal { error })?)
            }
            None => None,
        };

        // Telemetry / progress plumbing. Requesting a metrics stream
        // enables collection process-wide; telemetry is provably inert,
        // so the simulation record stream stays byte-identical to a
        // metrics-off run (`telemetry_inert` pins this).
        if config.metrics.is_some() {
            crate::telemetry::set_enabled(true);
        }
        let metrics_out: Option<Box<dyn Write>> = match &config.metrics {
            Some(path) if path.as_os_str() == "-" => Some(Box::new(io::stdout())),
            Some(path) => {
                let file = std::fs::File::create(path).map_err(|e| BatchError::Sink {
                    error: format!("metrics stream {}: {e}", path.display()),
                })?;
                Some(Box::new(file))
            }
            None => None,
        };
        let telem = crate::telemetry::enabled();
        if telem {
            crate::telemetry::note_farm_start(self.entries.len() as u64, skipped as u64);
        }
        let batch_span =
            telem.then(|| crate::telemetry::Span::enter(crate::telemetry::Phase::Batch));
        let mut out = Emitter {
            sink,
            journal,
            metrics: metrics_out,
            telem,
            strict: config.strict,
            heartbeat: config.heartbeat,
            last_heartbeat: Instant::now(),
            t0,
            skipped,
            total: self.entries.len(),
            events_at_start: if telem {
                crate::telemetry::snapshot().engine.events
            } else {
                0
            },
            records: Vec::new(),
            jobs: 0,
            strict_aborted: false,
        };

        // Each policy entry ends the open-loop stream before it and runs
        // alone, in its place in entry order.
        let open_loop = OpenLoop {
            set: self,
            runner,
            config,
            skip: &skip,
            scenarios: &scenarios,
            fingerprints: &fingerprints,
        };
        let n = self.entries.len();
        let mut i = 0usize;
        while i < n && !out.strict_aborted {
            if skip[i] {
                i += 1;
            } else if self.entries[i].saved.policy.is_some() {
                let t = Instant::now();
                let record = self.run_policy_entry(
                    runner,
                    i,
                    &scenarios[i],
                    &fingerprints[i],
                    config,
                    &mut out.jobs,
                );
                out.wave(ms_since(t), vec![record])?;
                i += 1;
            } else {
                let end = (i..n)
                    .find(|&k| self.entries[k].saved.policy.is_some())
                    .unwrap_or(n);
                open_loop.run(i..end, &mut out)?;
                i = end;
            }
        }

        // Close the batch span before the final snapshot so the timing
        // record includes the whole-batch wall.
        drop(batch_span);
        if let Some(metrics) = out.metrics.as_mut() {
            write_metrics_snapshot(metrics.as_mut(), true)?;
        }
        if out.heartbeat {
            out.emit_heartbeat();
        }

        let Emitter {
            sink,
            records,
            jobs,
            strict_aborted,
            ..
        } = out;
        let report = BatchReport {
            records,
            skipped,
            strict_aborted,
            wall_ms: ms_since(t0),
            jobs,
        };
        sink.emit(&render_compact(&report.aggregate_json()))
            .map_err(|e| BatchError::Sink {
                error: e.to_string(),
            })?;
        sink.done().map_err(|e| BatchError::Sink {
            error: e.to_string(),
        })?;
        Ok(report)
    }

    /// An entry's `ok` record before it runs: identity, seed and
    /// fingerprint, one attempt, no outcome.
    fn base_record(&self, idx: usize, scenario: &Scenario, fingerprint: &str) -> ScenarioRecord {
        ScenarioRecord {
            name: self.entries[idx].name.clone(),
            seed: scenario.seed,
            fingerprint: fingerprint.to_string(),
            status: ScenarioStatus::Ok,
            attempts: 1,
            channels: scenario.channels,
            outcome: None,
            policy: None,
            job_ms: 0.0,
        }
    }

    /// Runs one closed-loop (policy) entry with panic isolation. The
    /// watchdog is checked before the entry starts (a policy loop is
    /// inherently sequential; only the `Some(ZERO)` deterministic hook can
    /// interrupt it).
    fn run_policy_entry(
        &self,
        runner: &Runner,
        idx: usize,
        scenario: &Scenario,
        fingerprint: &str,
        config: &RunConfig,
        jobs_run: &mut usize,
    ) -> ScenarioRecord {
        let choice = self.entries[idx].saved.policy.expect("policy entry");
        let base = self.base_record(idx, scenario, fingerprint);
        if config.timeout == Some(Duration::ZERO) {
            return ScenarioRecord {
                status: ScenarioStatus::Timeout,
                ..base
            };
        }
        let t = Instant::now();
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut policy = choice.build();
            PolicyEngine::new(scenario.clone())
                .with_rounds(choice.rounds() as usize)
                .run(runner, &mut *policy)
        }));
        match run {
            Ok(trace) => {
                let rounds_run = trace.rounds.len();
                *jobs_run += rounds_run * scenario.channels * scenario.replications.max(1) as usize;
                let outcome = trace
                    .rounds
                    .into_iter()
                    .last()
                    .map(|round| round.outcome)
                    .expect("a policy loop runs at least one round");
                ScenarioRecord {
                    outcome: Some(outcome),
                    policy: Some((choice, rounds_run)),
                    job_ms: t.elapsed().as_secs_f64() * 1e3,
                    ..base
                }
            }
            Err(payload) => ScenarioRecord {
                status: ScenarioStatus::Failed {
                    panic: panic_message(payload),
                },
                ..base
            },
        }
    }
}

/// Waves a farm stream keeps in flight: while the calling thread reduces,
/// emits and journals one wave, the workers simulate up to this many
/// later ones, so a burst of slow fsyncs does not drain the pool.
const WINDOW_WAVES: usize = 8;

/// An entry's compiled channel configs and BER models, shared by its jobs.
type Compiled = (Vec<NetworkConfig>, Vec<ResolvedBer>);

/// One farm job: replication `r` of channel `c` of a compiled entry.
struct FarmJob<'a> {
    scenario: &'a Scenario,
    compiled: Arc<Compiled>,
    c: usize,
    r: u64,
    deadline: Option<Instant>,
}

/// A wave in flight: its entries in order, each compiled or failed by
/// its compile panic, and how many jobs it fed.
struct Wave {
    entries: Vec<(usize, Result<Arc<Compiled>, ScenarioStatus>)>,
    jobs: usize,
}

/// What every wave of a farm stream shares: the set, its runner and
/// knobs, and the per-entry resume flags, effective scenarios and
/// fingerprints.
struct OpenLoop<'a> {
    set: &'a BatchSet,
    runner: &'a Runner,
    config: &'a RunConfig,
    skip: &'a [bool],
    scenarios: &'a [Scenario],
    fingerprints: &'a [String],
}

impl<'a> OpenLoop<'a> {
    /// Runs the open-loop entries in `span` as one [`Runner::stream`] on
    /// long-lived workers. The calling thread compiles and feeds up to
    /// [`WINDOW_WAVES`] waves ahead, then takes the oldest wave's results
    /// in feed order, reduces them into records and emits those before
    /// topping the window up again.
    fn run(&self, span: Range<usize>, out: &mut Emitter<'_>) -> Result<(), BatchError> {
        // Wave sizing: enough jobs to give every worker several, so
        // per-wave emission costs almost no parallelism. A watchdog keeps
        // one one-scenario wave in flight so the clock measures a single
        // scenario.
        let target = self.runner.threads() * 4;
        let window = if self.config.timeout.is_some() {
            1
        } else {
            WINDOW_WAVES
        };
        let run = |job: FarmJob<'a>| {
            let (configs, bers) = &*job.compiled;
            job.scenario
                .grid(configs, bers)
                .run_job(job.c, job.r, job.deadline)
        };
        self.runner.stream(usize::MAX, run, |stream| {
            let mut next = span.start;
            let mut waves = VecDeque::with_capacity(window);
            let mut top_up = |waves: &mut VecDeque<Wave>, stream: &mut Stream<'_, _, _>| {
                while waves.len() < window {
                    match self.feed_wave(&mut next, span.end, target, stream) {
                        Some(wave) => waves.push_back(wave),
                        None => break,
                    }
                }
            };
            top_up(&mut waves, stream);
            while let Some(wave) = waves.pop_front() {
                let t = Instant::now();
                let results: Vec<_> = (0..wave.jobs)
                    .map(|_| stream.recv().expect("the wave's jobs are in flight"))
                    .collect();
                let wait_ms = ms_since(t);
                // Refill the freed slot before the slow part, so the
                // workers simulate while this wave is emitted and
                // journaled — except under a watchdog, whose clock starts
                // when a wave is fed and must not include this emission.
                if self.config.timeout.is_none() {
                    top_up(&mut waves, stream);
                }
                let records = self.finish_wave(wave, results, &mut out.jobs);
                out.wave(wait_ms, records)?;
                if out.strict_aborted {
                    break;
                }
                top_up(&mut waves, stream);
            }
            Ok(())
        })
    }

    /// Compiles the next wave — unskipped entries from `*next` until the
    /// wave carries `target` jobs, or a single entry under a watchdog —
    /// and feeds its jobs; `None` once `end` is reached.
    fn feed_wave(
        &self,
        next: &mut usize,
        end: usize,
        target: usize,
        stream: &mut Stream<'_, FarmJob<'a>, JobOutput>,
    ) -> Option<Wave> {
        let mut entries = Vec::new();
        let mut wave_jobs = 0usize;
        while *next < end {
            let idx = *next;
            *next += 1;
            if self.skip[idx] {
                continue;
            }
            let scenario = &self.scenarios[idx];
            // Compile with panic isolation: a config that blows up in
            // `compile` (calling-thread work) must poison only itself.
            let compiled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Arc::new((scenario.compile(), scenario.channel_bers())) as Arc<Compiled>
            }))
            .map_err(|payload| ScenarioStatus::Failed {
                panic: panic_message(payload),
            });
            entries.push((idx, compiled));
            wave_jobs += scenario.channels * scenario.replications.max(1) as usize;
            if wave_jobs >= target || self.config.timeout.is_some() {
                break;
            }
        }
        if entries.is_empty() {
            return None;
        }
        let deadline = self.config.deadline();
        let mut jobs = 0;
        for (idx, compiled) in &entries {
            let Ok(compiled) = compiled else { continue };
            let scenario = &self.scenarios[*idx];
            let grid = scenario.grid(&compiled.0, &compiled.1);
            for (c, r) in grid.job_keys() {
                stream.feed(FarmJob {
                    scenario,
                    compiled: Arc::clone(compiled),
                    c,
                    r,
                    deadline,
                });
            }
            jobs += grid.jobs();
        }
        Some(Wave { entries, jobs })
    }

    /// Reduces a finished wave's results (in feed order) into its
    /// records, in entry order.
    fn finish_wave(
        &self,
        wave: Wave,
        results: Vec<std::thread::Result<JobOutput>>,
        jobs_run: &mut usize,
    ) -> Vec<ScenarioRecord> {
        let mut results = results.into_iter();
        wave.entries
            .into_iter()
            .map(|(idx, compiled)| {
                let scenario = &self.scenarios[idx];
                let base = self.set.base_record(idx, scenario, &self.fingerprints[idx]);
                let reduced = compiled.and_then(|compiled| {
                    let grid = scenario.grid(&compiled.0, &compiled.1);
                    *jobs_run += grid.jobs();
                    grid.reduce(results.by_ref())
                });
                match reduced {
                    Ok((outcome, job_ms)) => ScenarioRecord {
                        outcome: Some(outcome),
                        job_ms,
                        ..base
                    },
                    Err(status) => ScenarioRecord { status, ..base },
                }
            })
            .collect()
    }
}

/// The calling thread's half of a farm run: emits, journals and accounts
/// finished waves, strictly in entry order.
struct Emitter<'s> {
    sink: &'s mut dyn ResultSink,
    journal: Option<JournalWriter>,
    metrics: Option<Box<dyn Write>>,
    telem: bool,
    strict: bool,
    heartbeat: bool,
    last_heartbeat: Instant,
    t0: Instant,
    skipped: usize,
    total: usize,
    events_at_start: u64,
    records: Vec<ScenarioRecord>,
    jobs: usize,
    strict_aborted: bool,
}

impl Emitter<'_> {
    /// Emits a finished wave's records in entry order — each record, then
    /// its fsync'd journal line — and stops after the first non-`ok` one
    /// under strict mode; otherwise writes the wave's metrics snapshot
    /// and (rate-limited) heartbeat. `wait_ms` is the calling thread's
    /// wait for the wave's last result.
    fn wave(&mut self, wait_ms: f64, records: Vec<ScenarioRecord>) -> Result<(), BatchError> {
        if self.telem {
            crate::telemetry::note_wave(wait_ms);
        }
        for record in records {
            let line = render_compact(&record.to_json());
            self.sink.emit(&line).map_err(|e| BatchError::Sink {
                error: e.to_string(),
            })?;
            if let Some(journal) = self.journal.as_mut() {
                journal
                    .append(&JournalRecord {
                        scenario: record.name.clone(),
                        fingerprint: record.fingerprint.clone(),
                        status: record.status.as_str().to_string(),
                        attempts: u64::from(record.attempts),
                        elapsed_ms: record.job_ms,
                    })
                    .map_err(|error| BatchError::Journal { error })?;
            }
            if self.telem {
                crate::telemetry::note_farm_record(&record.status);
            }
            let ok = record.status.is_ok();
            self.records.push(record);
            if !ok && self.strict {
                self.strict_aborted = true;
                return Ok(());
            }
        }
        if let Some(metrics) = self.metrics.as_mut() {
            write_metrics_snapshot(metrics.as_mut(), false)?;
        }
        if self.heartbeat && self.last_heartbeat.elapsed() >= Duration::from_millis(500) {
            self.emit_heartbeat();
            self.last_heartbeat = Instant::now();
        }
        Ok(())
    }

    /// The single-line stderr progress report ([`RunConfig::heartbeat`]);
    /// events/s counts engine events since the farm started, when
    /// telemetry is on.
    fn emit_heartbeat(&self) {
        let ran = self.records.len();
        let done = self.skipped + ran;
        let failed = self.records.iter().filter(|r| !r.status.is_ok()).count();
        let elapsed_s = self.t0.elapsed().as_secs_f64();
        let eta = eta(ran, self.total.saturating_sub(done), elapsed_s);
        let rate = if self.telem && elapsed_s > 0.0 {
            let events = crate::telemetry::snapshot().engine.events - self.events_at_start;
            format!("{:.0}", events as f64 / elapsed_s)
        } else {
            "-".to_string()
        };
        eprintln!(
            "# heartbeat: {done}/{} done, {failed} failed, eta {eta}, {rate} events/s",
            self.total
        );
    }
}

/// The heartbeat's ETA for `remaining` scenarios at this process's rate:
/// `ran` scenarios run (not resume-skipped) in `elapsed_s` seconds. `?`
/// before anything ran, `0.0s` when nothing remains.
fn eta(ran: usize, remaining: usize, elapsed_s: f64) -> String {
    if remaining == 0 {
        "0.0s".to_string()
    } else if ran == 0 {
        "?".to_string()
    } else {
        format!("{:.1}s", elapsed_s / ran as f64 * remaining as f64)
    }
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn load_entry(path: PathBuf) -> Result<BatchEntry, BatchError> {
    let text = std::fs::read_to_string(&path).map_err(BatchError::io(&path))?;
    let saved = load_scenario(&text).map_err(|error| BatchError::Parse {
        path: path.clone(),
        error,
    })?;
    Ok(BatchEntry {
        name: saved.scenario.name.clone(),
        path,
        saved,
    })
}

fn decode_manifest(root: &Node) -> Result<(Option<u64>, Vec<String>), ParseError> {
    let mut o = ObjReader::new(root, "the manifest")?;
    persist::check_format(o.get("format")?)?;
    let seed = match o.opt("seed") {
        Some(node) if !persist::is_null(node) => Some(persist::as_u64(node)?),
        _ => None,
    };
    let files = persist::as_arr(o.get("scenarios")?)?
        .iter()
        .map(|item| persist::as_str(item).map(str::to_string))
        .collect::<Result<_, _>>()?;
    o.finish()?;
    Ok((seed, files))
}

// ---------------------------------------------------------------------------
// Record rendering
// ---------------------------------------------------------------------------

use persist::json;

/// Writes one deterministic + one timing snapshot record to the metrics
/// stream ([`RunConfig::metrics`]).
fn write_metrics_snapshot(out: &mut dyn Write, last: bool) -> Result<(), BatchError> {
    let (det, timing) = crate::telemetry::snapshot_lines(last);
    writeln!(out, "{det}")
        .and_then(|_| writeln!(out, "{timing}"))
        .and_then(|_| out.flush())
        .map_err(|e| BatchError::Sink {
            error: format!("metrics stream: {e}"),
        })
}

fn summary_json(s: &NetworkSummary) -> Node {
    json::obj(vec![
        ("power_uw", json::num(s.mean_node_power.microwatts())),
        (
            "power_se_uw",
            json::num(s.power_standard_error.microwatts()),
        ),
        ("cap_power_uw", json::num(s.cap_power.microwatts())),
        (
            "cap_power_se_uw",
            json::num(s.cap_power_standard_error.microwatts()),
        ),
        ("cfp_power_uw", json::num(s.cfp_power.microwatts())),
        (
            "cfp_power_se_uw",
            json::num(s.cfp_power_standard_error.microwatts()),
        ),
        ("pr_fail", json::num(s.failure_ratio.value())),
        ("pr_fail_se", json::num(s.failure_standard_error)),
        ("delay_s", json::num(s.mean_delay.secs())),
        ("delay_se_s", json::num(s.delay_standard_error.secs())),
        ("attempts", json::num(s.mean_attempts)),
        ("transactions", json::uint(s.transactions)),
        ("energy_per_bit_nj", json::num(s.energy_per_bit_nj)),
        (
            "energy_per_packet_uj",
            json::num(s.energy_per_delivered_packet_uj),
        ),
        ("replications", json::uint(s.replications as u64)),
        ("gts_transactions", json::uint(s.gts_transactions)),
        ("gts_failure_ratio", json::num(s.gts_failure_ratio.value())),
        ("gts_denied", json::uint(s.gts_denied)),
        ("downlink_polls", json::uint(s.downlink_polls)),
        (
            "downlink_failure_ratio",
            json::num(s.downlink_failure_ratio.value()),
        ),
        ("downlink_deferred", json::uint(s.downlink_deferred)),
        ("deaths", json::uint(s.deaths)),
        ("orphan_scans", json::uint(s.orphan_scans)),
        ("join_attempts", json::uint(s.join_attempts)),
        (
            "join_failure_ratio",
            json::num(s.join_failure_ratio.value()),
        ),
        (
            "reassociation_delay_s",
            json::num(s.mean_reassociation_delay.secs()),
        ),
        ("dormant_nodes", json::uint(s.dormant_nodes)),
    ])
}

impl ScenarioRecord {
    /// The streamed record: identity, seed, resume fingerprint, status,
    /// timing, the overall summary and the per-channel breakdown. A
    /// non-`ok` record carries `"overall":null`, empty per-channel
    /// arrays and (for failures) the panic text under `"panic"`.
    pub fn to_json(&self) -> Node {
        let policy = match &self.policy {
            None => json::null(),
            Some((choice, rounds_run)) => json::obj(vec![
                ("name", json::string(choice.name())),
                ("rounds_run", json::uint(*rounds_run as u64)),
            ]),
        };
        let panic = match &self.status {
            ScenarioStatus::Failed { panic } => json::string(panic),
            _ => json::null(),
        };
        let (overall, per_channel, gts_denied) = match &self.outcome {
            Some(outcome) => (
                summary_json(&outcome.overall),
                json::arr(outcome.per_channel.iter().map(summary_json).collect()),
                json::arr(
                    outcome
                        .gts_denied
                        .iter()
                        .map(|&d| json::uint(d as u64))
                        .collect(),
                ),
            ),
            None => (json::null(), json::arr(Vec::new()), json::arr(Vec::new())),
        };
        json::obj(vec![
            ("scenario", json::string(&self.name)),
            ("seed", json::uint(self.seed)),
            ("fingerprint", json::string(&self.fingerprint)),
            ("status", json::string(self.status.as_str())),
            ("attempts", json::uint(u64::from(self.attempts))),
            ("channels", json::uint(self.channels as u64)),
            ("job_ms", json::num(self.job_ms)),
            ("policy", policy),
            ("panic", panic),
            ("overall", overall),
            ("per_channel", per_channel),
            ("gts_denied_per_channel", gts_denied),
        ])
    }
}

impl BatchReport {
    /// The final aggregate record: batch-level counts (including the
    /// skipped/failed/timed-out tallies resume and isolation produce),
    /// timing and pooled transaction totals over the `ok` records.
    pub fn aggregate_json(&self) -> Node {
        let outcomes: Vec<&ScenarioOutcome> = self
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .collect();
        let total_transactions: u64 = outcomes.iter().map(|o| o.overall.transactions).sum();
        let total_failures: f64 = outcomes
            .iter()
            .map(|o| o.overall.failure_ratio.value() * o.overall.transactions as f64)
            .sum();
        let pooled_failure = if total_transactions > 0 {
            total_failures / total_transactions as f64
        } else {
            0.0
        };
        let total_deaths: u64 = outcomes.iter().map(|o| o.overall.deaths).sum();
        let mean_power = if outcomes.is_empty() {
            0.0
        } else {
            outcomes
                .iter()
                .map(|o| o.overall.mean_node_power.microwatts())
                .sum::<f64>()
                / outcomes.len() as f64
        };
        json::obj(vec![
            ("aggregate", json::boolean(true)),
            ("scenarios", json::uint(self.records.len() as u64)),
            ("skipped", json::uint(self.skipped as u64)),
            ("failed", json::uint(self.failed() as u64)),
            ("timed_out", json::uint(self.timed_out() as u64)),
            ("strict_aborted", json::boolean(self.strict_aborted)),
            ("jobs", json::uint(self.jobs as u64)),
            ("wall_ms", json::num(self.wall_ms)),
            ("scenarios_per_sec", json::num(self.scenarios_per_sec())),
            ("total_transactions", json::uint(total_transactions)),
            ("pooled_failure_ratio", json::num(pooled_failure)),
            ("total_deaths", json::uint(total_deaths)),
            ("mean_scenario_power_uw", json::num(mean_power)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DeploymentSpec;
    use crate::sink::WriteSink;

    fn tiny(name: &str, seed: u64) -> SavedScenario {
        SavedScenario::open_loop(
            Scenario::new(
                name,
                2,
                8,
                DeploymentSpec::UniformLossGrid {
                    min_db: 60.0,
                    max_db: 85.0,
                },
            )
            .with_superframes(3)
            .with_replications(2)
            .with_seed(seed),
        )
    }

    fn entry(name: &str, seed: u64) -> BatchEntry {
        BatchEntry {
            name: name.to_string(),
            path: PathBuf::from(format!("{name}.json")),
            saved: tiny(name, seed),
        }
    }

    #[test]
    fn batch_matches_standalone_runs_bit_for_bit() {
        let set = BatchSet::from_entries(vec![entry("a", 11), entry("b", 22)], None).unwrap();
        let runner = Runner::serial();
        let mut sink = WriteSink::new(Vec::new());
        let report = set
            .run_with(&runner, &mut sink, &RunConfig::default())
            .unwrap();
        assert!(report.all_ok());
        for record in &report.records {
            let alone = set
                .entries()
                .iter()
                .find(|e| e.name == record.name)
                .map(|e| set.effective_scenario(e).run(&runner))
                .unwrap();
            let outcome = record.outcome.as_ref().unwrap();
            assert_eq!(
                outcome.overall.mean_node_power,
                alone.overall.mean_node_power
            );
            assert_eq!(outcome.overall.failure_ratio, alone.overall.failure_ratio);
            assert_eq!(
                outcome.overall.power_standard_error,
                alone.overall.power_standard_error
            );
        }
        // One JSONL line per scenario plus the aggregate.
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().last().unwrap().contains("\"aggregate\":true"));
    }

    #[test]
    fn manifest_seed_overrides_saved_seeds_by_name() {
        let set = BatchSet::from_entries(vec![entry("a", 11), entry("b", 22)], Some(99)).unwrap();
        let a = set.effective_scenario(&set.entries()[0]);
        let b = set.effective_scenario(&set.entries()[1]);
        assert_eq!(a.seed, scenario_master_seed(99, "a"));
        assert_eq!(b.seed, scenario_master_seed(99, "b"));
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn validation_runs_before_anything_else() {
        let mut bad = entry("bad", 1);
        bad.saved.scenario.channels = 0;
        let err = BatchSet::from_entries(vec![entry("ok", 2), bad], None).unwrap_err();
        assert!(matches!(err, BatchError::Invalid { .. }), "{err}");
        // A per-node table under a policy that moves nodes; static keeps it.
        let mut moved = entry("moved", 1);
        let levels = vec![wsn_radio::TxPowerLevel::Zero; 8];
        moved.saved.scenario.tx_policy = TxPowerPolicy::PerNode(levels.into());
        for policy in [
            PolicyChoice::Greedy {
                rounds: 3,
                max_moves: 2,
                tolerance: 0.0,
                move_cost: 0.0,
            },
            PolicyChoice::ProportionalFair {
                rounds: 3,
                epsilon: 0.1,
            },
        ] {
            moved.saved.policy = Some(policy);
            let err = BatchSet::from_entries(vec![moved.clone()], None).unwrap_err();
            assert!(err.to_string().contains("per-node"), "{err}");
        }
        moved.saved.policy = Some(PolicyChoice::Static { rounds: 3 });
        assert!(BatchSet::from_entries(vec![moved], None).is_ok());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err =
            BatchSet::from_entries(vec![entry("same", 1), entry("same", 2)], None).unwrap_err();
        assert_eq!(
            err,
            BatchError::DuplicateName {
                name: "same".into()
            }
        );
    }

    #[test]
    fn empty_batches_are_rejected() {
        assert_eq!(
            BatchSet::from_entries(Vec::new(), None).unwrap_err(),
            BatchError::Empty
        );
    }

    #[test]
    fn policy_entries_run_closed_loop() {
        let mut e = entry("looped", 5);
        e.saved.policy = Some(PolicyChoice::Static { rounds: 2 });
        let set = BatchSet::from_entries(vec![e], None).unwrap();
        let mut sink = WriteSink::new(Vec::new());
        let report = set
            .run_with(&Runner::serial(), &mut sink, &RunConfig::default())
            .unwrap();
        let (choice, rounds_run) = report.records[0].policy.unwrap();
        assert_eq!(choice.name(), "static");
        assert!(rounds_run >= 1);
        assert!(
            report.records[0]
                .outcome
                .as_ref()
                .unwrap()
                .overall
                .transactions
                > 0
        );
    }

    /// A scenario that panics in `compile` (the deliberate poison of the
    /// isolation tests): `uniform_disc` asserts a positive radius.
    /// [`Scenario::validate`] rejects it, so poisoned batches are built by
    /// [`unvalidated`].
    fn poisoned(name: &str) -> BatchEntry {
        let mut e = entry(name, 3);
        e.saved.scenario.deployment = DeploymentSpec::Disc {
            radius_m: -1.0,
            exponent: 3.0,
            shadowing_db: 0.0,
        };
        e
    }

    /// A batch that skips validation, so a poisoned entry reaches the run.
    fn unvalidated(entries: Vec<BatchEntry>) -> BatchSet {
        BatchSet {
            entries,
            batch_seed: None,
        }
    }

    #[test]
    fn a_panicking_scenario_poisons_only_itself() {
        let set = unvalidated(vec![entry("a", 11), poisoned("boom"), entry("b", 22)]);
        let mut sink = WriteSink::new(Vec::new());
        let report = set
            .run_with(&Runner::serial(), &mut sink, &RunConfig::default())
            .unwrap();
        assert_eq!(report.records.len(), 3);
        assert!(!report.all_ok());
        assert_eq!(report.failed(), 1);
        let bad = report.records.iter().find(|r| r.name == "boom").unwrap();
        assert_eq!(bad.attempts, 1);
        match &bad.status {
            ScenarioStatus::Failed { panic } => {
                assert!(panic.contains("radius"), "panic text: {panic}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(bad.outcome.is_none());
        for name in ["a", "b"] {
            let good = report.records.iter().find(|r| r.name == name).unwrap();
            assert!(good.status.is_ok());
            assert!(good.outcome.is_some());
        }
        // The failed record is typed JSONL with a panic field.
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let line = text.lines().find(|l| l.contains("\"boom\"")).unwrap();
        assert!(line.contains("\"status\":\"failed\""), "{line}");
        assert!(line.contains("\"panic\":\""), "{line}");
        assert!(line.contains("\"overall\":null"), "{line}");
    }

    #[test]
    fn strict_mode_stops_at_the_first_failure() {
        let set = unvalidated(vec![entry("a", 11), poisoned("boom"), entry("b", 22)]);
        let mut sink = WriteSink::new(Vec::new());
        let config = RunConfig {
            strict: true,
            ..RunConfig::default()
        };
        let report = set.run_with(&Runner::serial(), &mut sink, &config).unwrap();
        assert!(report.strict_aborted);
        assert!(!report.all_ok());
        // `a` may share the failing wave, but `b` never runs.
        assert!(report.records.iter().all(|r| r.name != "b"));
        assert!(report
            .records
            .iter()
            .any(|r| matches!(r.status, ScenarioStatus::Failed { .. })));
    }

    #[test]
    fn zero_timeout_times_every_scenario_out_deterministically() {
        let mut policy_entry = entry("looped", 5);
        policy_entry.saved.policy = Some(PolicyChoice::Static { rounds: 2 });
        let set = BatchSet::from_entries(vec![entry("a", 11), policy_entry], None).unwrap();
        let mut sink = WriteSink::new(Vec::new());
        let config = RunConfig {
            timeout: Some(Duration::ZERO),
            ..RunConfig::default()
        };
        let report = set.run_with(&Runner::serial(), &mut sink, &config).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.timed_out(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"status\":\"timeout\""))
                .count(),
            2
        );
    }

    #[test]
    fn an_unrepresentable_timeout_means_no_deadline() {
        let set = BatchSet::from_entries(vec![entry("a", 11), entry("b", 22)], None).unwrap();
        let mut sink = WriteSink::new(Vec::new());
        let config = RunConfig {
            timeout: Some(Duration::MAX),
            ..RunConfig::default()
        };
        let report = set.run_with(&Runner::serial(), &mut sink, &config).unwrap();
        assert_eq!(report.records.len(), 2);
        assert!(report.all_ok());
    }

    /// A scenario that passes `compile` but panics in every job on the
    /// worker that runs it: the engine needs at least two superframes.
    fn poisoned_job(name: &str) -> BatchEntry {
        let mut e = entry(name, 4);
        e.saved.scenario.superframes = 1;
        e
    }

    /// Forty tiny entries (4 jobs each) — 40, 20 and 10 waves on 1, 2 and
    /// 4 threads — with a policy entry mid-stream, a scenario that panics
    /// in `compile` and one that panics in its jobs.
    fn mixed_batch() -> BatchSet {
        let entries = (0..40)
            .map(|k| match k {
                9 => poisoned(&format!("e{k:02}")),
                17 => {
                    let mut e = entry(&format!("e{k:02}"), 100 + k);
                    e.saved.policy = Some(PolicyChoice::Static { rounds: 2 });
                    e
                }
                26 => poisoned_job(&format!("e{k:02}")),
                _ => entry(&format!("e{k:02}"), 100 + k),
            })
            .collect();
        unvalidated(entries)
    }

    /// Runs `set` on `threads` workers with a fresh journal; returns the
    /// report, the record lines (aggregate dropped, `job_ms` stripped) and
    /// the journal lines (`elapsed_ms` stripped).
    fn run_journaled(
        set: &BatchSet,
        threads: usize,
        config: RunConfig,
        tag: &str,
    ) -> (BatchReport, Vec<String>, Vec<String>) {
        let journal = std::env::temp_dir().join(format!(
            "wsn_batch_order_{tag}_{threads}_{}.jsonl",
            std::process::id()
        ));
        let config = RunConfig {
            journal: Some(journal.clone()),
            ..config
        };
        let mut sink = WriteSink::new(Vec::new());
        let report = set
            .run_with(&Runner::with_threads(threads), &mut sink, &config)
            .unwrap();
        let strip = |line: &str, key: &str, end: char| {
            let start = line.find(key).expect("field present");
            let stop = start + line[start..].find(end).expect("field terminated");
            format!("{}{}", &line[..start], &line[stop..])
        };
        let records = String::from_utf8(sink.into_inner())
            .unwrap()
            .lines()
            .filter(|l| !l.contains("\"aggregate\":true"))
            .map(|l| strip(l, "\"job_ms\":", ','))
            .collect();
        let journaled = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .map(|l| strip(l, "\"elapsed_ms\":", '}'))
            .collect();
        std::fs::remove_file(&journal).unwrap();
        (report, records, journaled)
    }

    #[test]
    fn records_and_journal_stream_in_entry_order_on_real_threads() {
        let set = mixed_batch();
        let (serial, records, journal) = run_journaled(&set, 1, RunConfig::default(), "mixed");
        let names: Vec<&str> = set.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(records.len(), names.len());
        assert_eq!(journal.len(), names.len());
        for ((record, line), name) in records.iter().zip(&journal).zip(&names) {
            assert!(
                record.starts_with(&format!("{{\"scenario\":\"{name}\"")),
                "{record}"
            );
            assert!(line.contains(&format!("\"scenario\":\"{name}\"")), "{line}");
        }
        assert_eq!(serial.failed(), 2);
        assert!(serial.records[17].policy.is_some());
        for threads in [2, 4] {
            let (report, parallel, parallel_journal) =
                run_journaled(&set, threads, RunConfig::default(), "mixed");
            assert_eq!(parallel, records, "records, threads={threads}");
            assert_eq!(parallel_journal, journal, "journal, threads={threads}");
            assert_eq!(report.jobs, serial.jobs, "threads={threads}");
        }
    }

    #[test]
    fn strict_mode_emits_nothing_after_the_first_failure_on_four_threads() {
        let mut entries: Vec<BatchEntry> = (0..80)
            .map(|k| entry(&format!("e{k:02}"), 200 + k))
            .collect();
        entries[21] = poisoned_job("e21");
        let set = unvalidated(entries);
        let strict = RunConfig {
            strict: true,
            ..RunConfig::default()
        };
        // On 4 threads a wave is 4 entries, so `e21` fails in the sixth
        // wave while up to eight later waves are already simulating.
        let (report, records, journal) = run_journaled(&set, 4, strict.clone(), "strict");
        assert!(report.strict_aborted);
        assert_eq!(report.records.len(), 22);
        assert_eq!(records.len(), 22);
        assert_eq!(journal.len(), 22);
        assert!(
            records[21].contains("\"status\":\"failed\""),
            "{}",
            records[21]
        );
        // `jobs` counts the waves the farm consumed — through the failing
        // wave, `e20`..`e23` — never the work simulated ahead of the abort.
        assert_eq!(report.jobs, 24 * 4);
        // The serial reference runs nothing ahead and emits the same.
        let (serial, serial_records, serial_journal) = run_journaled(&set, 1, strict, "strict");
        assert_eq!(serial.jobs, 22 * 4);
        assert_eq!(serial_records, records);
        assert_eq!(serial_journal, journal);
    }

    #[test]
    fn eta_extrapolates_from_scenarios_run_in_this_process() {
        // Fresh run: 10 of 100 in 1 s leaves 90 at 10/s.
        assert_eq!(eta(10, 90, 1.0), "9.0s");
        // Resumed run: 1,000 skipped by the journal do not count as
        // progress; 10 ran in 1 s and 990 remain.
        assert_eq!(eta(10, 990, 1.0), "99.0s");
        // Nothing run yet (even with skipped scenarios): no rate.
        assert_eq!(eta(0, 5, 0.3), "?");
        // Done.
        assert_eq!(eta(10, 0, 1.0), "0.0s");
        assert_eq!(eta(0, 0, 0.0), "0.0s");
    }

    #[test]
    fn journal_resume_skips_completed_scenarios_and_reruns_changed_ones() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("wsn_batch_resume_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);

        let runner = Runner::serial();
        let config = RunConfig {
            journal: Some(journal.clone()),
            ..RunConfig::default()
        };
        let set = BatchSet::from_entries(vec![entry("a", 11), entry("b", 22)], None).unwrap();
        let mut sink = WriteSink::new(Vec::new());
        let first = set.run_with(&runner, &mut sink, &config).unwrap();
        assert!(first.all_ok());

        // Resume with nothing changed: everything skips, nothing re-runs.
        let resume = RunConfig {
            resume: true,
            ..config.clone()
        };
        let mut sink = WriteSink::new(Vec::new());
        let second = set.run_with(&runner, &mut sink, &resume).unwrap();
        assert_eq!(second.skipped, 2);
        assert_eq!(second.records.len(), 0);
        assert_eq!(second.jobs, 0);

        // Change one scenario's config: only it re-runs, bit-identical to
        // a fresh standalone run.
        let changed = BatchSet::from_entries(vec![entry("a", 11), entry("b", 23)], None).unwrap();
        let mut sink = WriteSink::new(Vec::new());
        let third = changed.run_with(&runner, &mut sink, &resume).unwrap();
        assert_eq!(third.skipped, 1);
        assert_eq!(third.records.len(), 1);
        assert_eq!(third.records[0].name, "b");
        let alone = changed
            .effective_scenario(&changed.entries()[1])
            .run(&runner);
        assert_eq!(
            third.records[0]
                .outcome
                .as_ref()
                .unwrap()
                .overall
                .mean_node_power,
            alone.overall.mean_node_power
        );
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn resume_reruns_previously_failed_scenarios() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("wsn_batch_refail_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);

        let runner = Runner::serial();
        let config = RunConfig {
            journal: Some(journal.clone()),
            ..RunConfig::default()
        };
        let set = unvalidated(vec![poisoned("boom")]);
        let mut sink = WriteSink::new(Vec::new());
        let first = set.run_with(&runner, &mut sink, &config).unwrap();
        assert_eq!(first.failed(), 1);

        // A failed record is never skippable: the same scenario re-runs.
        let resume = RunConfig {
            resume: true,
            ..config
        };
        let mut sink = WriteSink::new(Vec::new());
        let second = set.run_with(&runner, &mut sink, &resume).unwrap();
        assert_eq!(second.skipped, 0);
        assert_eq!(second.records.len(), 1);
        assert_eq!(second.failed(), 1);
        std::fs::remove_file(&journal).unwrap();
    }

    /// Every scenario the farm accepts runs to an `ok` record. The draws
    /// cover every saved field; a field with an out-of-range value takes
    /// it one draw in 64 (`wild`), and `from_entries` must refuse those
    /// entries at load rather than let a job panic.
    #[test]
    fn every_accepted_scenario_runs_ok() {
        use crate::faults::FaultPlan;
        use crate::persist::save_scenario;
        use crate::rng::Xoshiro256StarStar as Rng;
        use crate::scenario::{BerChoice, ChannelAllocation, PayloadSpec, TrafficSpec};
        use wsn_mac::{BeaconOrder, CsmaParams, RetryPolicy};
        use wsn_phy::noise::UniformSource;
        use wsn_radio::TxPowerLevel;
        use wsn_units::{DBm, Seconds};

        fn wild<T>(good: T, bad: T, rng: &mut Rng) -> T {
            if rng.index(64) == 0 {
                bad
            } else {
                good
            }
        }
        let payload = |rng: &mut Rng| wild(rng.index(124), 124 + rng.index(64), rng);
        let rate = |rng: &mut Rng| {
            // Zero half the time, else up to 0.3.
            let rate = 0.3 * rng.next_f64() * f64::from(u8::from(rng.bernoulli(0.5)));
            wild(rate, 1.0 + rng.next_f64(), rng)
        };
        let ber = |rng: &mut Rng| {
            let noise_figure_db = 5.0 + 25.0 * rng.next_f64();
            match rng.index(3) {
                0 => BerChoice::EmpiricalCc2420,
                1 => BerChoice::HardDecisionDsss { noise_figure_db },
                _ => BerChoice::StandardOqpsk { noise_figure_db },
            }
        };
        let mut rng = Rng::seed_from_u64(0xACCE_97ED);
        let mut ran = 0;
        for case in 0..400 {
            let mut e = entry("drawn", 0);
            let s = &mut e.saved.scenario;
            let (channels, nodes) = (1 + rng.index(3), 1 + rng.index(10));
            (s.channels, s.nodes_per_channel) = (channels, nodes);
            let exponent = wild(2.0 + 2.0 * rng.next_f64(), 0.0, &mut rng);
            let shadowing_db = 6.0 * rng.next_f64();
            // One size serves as loss floor (dB) or radius (m).
            let size = 1.0 + 80.0 * rng.next_f64();
            let rings = wild([1, channels][rng.index(2)], channels * nodes + 1, &mut rng);
            s.deployment = match rng.index(4) {
                0 => DeploymentSpec::UniformLossGrid {
                    min_db: size,
                    max_db: size + wild(30.0 * rng.next_f64(), -5.0, &mut rng),
                },
                1 => DeploymentSpec::Disc {
                    radius_m: wild(size, -size, &mut rng),
                    exponent,
                    shadowing_db,
                },
                2 => DeploymentSpec::Rings {
                    radii_m: vec![size; rings],
                    exponent,
                    shadowing_db,
                },
                _ => DeploymentSpec::Clustered {
                    field_radius_m: size,
                    cluster_radius_m: size * wild(rng.next_f64(), 1.5, &mut rng),
                    exponent,
                    shadowing_db,
                },
            };
            s.allocation = [
                ChannelAllocation::RoundRobin,
                ChannelAllocation::Contiguous,
                ChannelAllocation::RingStratified,
            ][rng.index(3)];
            let payloads = if rng.bernoulli(0.5) {
                PayloadSpec::Uniform {
                    payload_bytes: payload(&mut rng),
                }
            } else {
                let n = wild(channels, channels - 1, &mut rng);
                let payload_bytes = (0..n).map(|_| payload(&mut rng)).collect();
                PayloadSpec::PerChannel { payload_bytes }
            };
            s.traffic = TrafficSpec {
                payloads,
                gts_slots_per_node: wild(rng.index(4) as u8, 16, &mut rng),
                gts_demand: rng.bernoulli(0.5).then(|| rng.index(9) as u32),
                downlink_rate: rate(&mut rng),
            };
            let bo = wild(rng.index(9), 9 + rng.index(6), &mut rng);
            s.beacon_order = BeaconOrder::new(bo as u8).unwrap();
            let max_be = rng.index(9) as u8;
            s.csma = CsmaParams {
                min_be: rng.index(usize::from(max_be) + 1) as u8,
                max_be,
                max_backoffs: rng.index(6) as u8,
                cw: 1 + rng.index(3) as u8,
            };
            let c = &mut s.csma;
            for field in [&mut c.min_be, &mut c.max_be, &mut c.max_backoffs, &mut c.cw] {
                *field = wild(*field, rng.next_u64() as u8, &mut rng);
            }
            s.retries = RetryPolicy::new(1 + rng.index(7) as u32);
            s.superframes = wild(2 + rng.index(2), rng.index(2), &mut rng) as u32;
            s.replications = 1 + rng.index(2) as u32;
            s.seed = rng.next_u64();
            s.tx_policy = match rng.index(3) {
                0 => TxPowerPolicy::Fixed(TxPowerLevel::ALL[rng.index(8)]),
                1 => TxPowerPolicy::ChannelInversion {
                    target_rx: DBm::new(-95.0 + 15.0 * rng.next_f64()),
                },
                _ => {
                    let n = wild(nodes, nodes + 1, &mut rng);
                    let levels = (0..n).map(|_| TxPowerLevel::ALL[rng.index(8)]).collect();
                    TxPowerPolicy::PerNode(levels)
                }
            };
            s.coordinator_tx = DBm::new(-25.0 * rng.next_f64());
            s.wakeup_margin = Seconds::from_millis(2.0 * rng.next_f64());
            s.ber = ber(&mut rng);
            if rng.bernoulli(0.5) {
                let n = wild(channels, channels - 1, &mut rng);
                s.channel_ber = Some((0..n).map(|_| ber(&mut rng)).collect());
            }
            if rng.bernoulli(0.5) {
                let n = wild(channels, channels - 1, &mut rng);
                s.channel_loss_offsets_db = Some((0..n).map(|_| 30.0 * rng.next_f64()).collect());
            }
            s.min_cap_slots = wild(rng.index(16) as u8, 16, &mut rng);
            s.synchronized_arrivals = rng.bernoulli(0.25);
            s.faults = FaultPlan {
                death_rate: rate(&mut rng),
                rejoin_delay: rng.index(3) as u32,
                max_join_retries: rng.index(3) as u32,
                outage_rate: rate(&mut rng),
                outage_superframes: wild(1 + rng.index(2) as u32, 0, &mut rng),
                drift_amplitude_db: wild(5.0 * rng.next_f64(), -1.0, &mut rng),
                drift_period_rounds: rng.index(3) as u32,
                burst_every_rounds: rng.index(3) as u32,
                burst_downlink_rate: rate(&mut rng),
            };
            s.shards = 1 + rng.index(3);
            let rounds = 1 + rng.index(3) as u32;
            e.saved.policy = match rng.index(4) {
                0 => None,
                1 => Some(PolicyChoice::Static { rounds }),
                2 => Some(PolicyChoice::Greedy {
                    rounds,
                    max_moves: rng.index(4) as u32,
                    tolerance: 0.1 * rng.next_f64(),
                    move_cost: 0.1 * rng.next_f64(),
                }),
                _ => Some(PolicyChoice::ProportionalFair {
                    rounds,
                    epsilon: 0.5 * rng.next_f64(),
                }),
            };
            let Ok(set) = BatchSet::from_entries(vec![e.clone()], None) else {
                continue;
            };
            ran += 1;
            let mut sink = WriteSink::new(Vec::new());
            let config = RunConfig::default();
            let report = set.run_with(&Runner::serial(), &mut sink, &config).unwrap();
            let got = &report.records[0].status;
            let text = save_scenario(&e.saved).unwrap();
            assert!(got.is_ok(), "case {case}: {got:?}\n{text}");
        }
        assert!(ran > 200, "only {ran} of 400 draws validated");
    }
}
