//! Process-wide metrics for the engine → runner → farm stack,
//! deterministically inert by construction.
//!
//! The registry holds two strictly separated sections; `SCHEMA.md` §
//! OBSERVABILITY makes the split a schema rule:
//!
//! * **Deterministic** ([`MetricSet`]): monotonic `u64` counters,
//!   max-merged gauges and log₂-bucketed histograms ([`Hist`]). Engine
//!   shards fold in with [`EngineMetrics::merge`], a commutative,
//!   associative integer fold, and the runner, policy and farm values are
//!   integer sums and maxima, so the totals are bit-identical for every
//!   worker count and every shard arrival order — the same merge-algebra
//!   discipline as the accumulator shards in [`crate::stats`].
//! * **Timing** ([`TimingSet`]): wall-clock span statistics
//!   ([`TimingStat`]) and pool-occupancy gauges. These depend on the
//!   host and scheduling and are emitted as a *separate* JSONL record so
//!   downstream tooling can diff the deterministic records alone.
//!
//! The inertness contract: telemetry draws from no RNG stream and only
//! *reads* values the simulation already computed, so a metrics-enabled
//! run is bit-identical on every simulation output to a metrics-disabled
//! one (pinned by the `telemetry_inert` suite). When disabled — the
//! default — the hot-path cost is one relaxed atomic load per run plus a
//! branch on an `Option` handle per event. The repository benchmark
//! (`perfbench/`) reports the enabled cost as `telemetry.overhead_pct`.
//!
//! Shards: the engine accumulates into a private [`EngineMetrics`] per
//! simulation run and folds it into the global registry once at the end
//! (one mutex acquisition per run). Inside a runner job the fold is held
//! back with the job's wall clock and released when the caller receives
//! the job's result, in feed order: `runner.jobs` counts received jobs,
//! and work a farm simulated ahead and then discarded (a strict abort)
//! never reaches the registry. Since the merges commute, the global
//! deterministic totals do not depend on which worker ran which job, nor
//! on how far ahead the workers ran.
//!
//! Runner spans (timing section): `map` is one runner streaming call,
//! open to close — a `Runner::map`, a scenario grid, or one farm stream
//! covering a run of open-loop entries — and `job` is every received
//! job's wall on its worker, so `job.total_ms / (workers × map.total_ms)`
//! is pool efficiency. `wave` is the farm's calling thread blocked on a
//! wave: from the moment it asks for the wave's results until the last
//! one arrives (a policy entry's wave is its whole run). Waves overlap
//! in flight but the waits do not, so `batch − Σ wave` is the calling
//! thread's own work: compile, reduce, emit and journal.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use crate::batch::ScenarioStatus;
use crate::persist::{json, render_compact, Node};

/// Version key carried by every metrics record (`"telemetry"`).
pub const TELEMETRY_VERSION: u64 = 2;

/// Number of log₂ histogram buckets: bucket 0 counts exact zeros and
/// bucket `b ≥ 1` counts values `2^(b-1) ≤ v < 2^b`, up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Deterministic primitives
// ---------------------------------------------------------------------------

/// A log₂-bucketed histogram over `u64` samples.
///
/// All fields are unsigned integers and [`merge`](Self::merge) is a
/// field-wise add (max for `max`), so histogram shards form a
/// commutative monoid: merge order never changes the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating — a practical impossibility to
    /// overflow, but saturation keeps the merge total-ordered anyway).
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Bucket counts; see [`HIST_BUCKETS`] for the bucket rule.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Hist {
    /// Bucket index of `v`: 0 for 0, otherwise `floor(log2(v)) + 1`.
    pub fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Folds `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// JSON form: `{"count","sum","max","buckets":[…]}` with the bucket
    /// array trimmed after the last nonzero bucket (empty when empty).
    pub fn to_json(&self) -> Node {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        json::obj(vec![
            ("count", json::uint(self.count)),
            ("sum", json::uint(self.sum)),
            ("max", json::uint(self.max)),
            (
                "buckets",
                json::arr(
                    self.buckets[..last]
                        .iter()
                        .map(|&b| json::uint(b))
                        .collect(),
                ),
            ),
        ])
    }
}

// `Default` is derived for arrays of at most 32 elements only.
impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic section
// ---------------------------------------------------------------------------

/// Engine-layer metrics: one shard per simulation run, folded into the
/// global registry at run end. Event and queue metrics cover the whole
/// horizon, warm-up included. Attempt and transaction metrics count the
/// recorded (post-warm-up) window only, and only the uplink packets that
/// contend with CSMA/CA: they leave out data requests, GTS transmissions
/// and the lost transactions of down nodes and silent coordinators, all
/// of which the result records count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineMetrics {
    /// Simulation runs folded into this set.
    pub runs: u64,
    /// Events popped and dispatched (all kinds, warm-up included).
    pub events: u64,
    /// Beacon events.
    pub ev_beacon: u64,
    /// Packet-arrival events.
    pub ev_arrival: u64,
    /// CCA (clear-channel assessment) events.
    pub ev_cca: u64,
    /// Transmission-end events.
    pub ev_tx_end: u64,
    /// Contention-free (GTS) uplink slot events.
    pub ev_gts: u64,
    /// Downlink poll events.
    pub ev_dl_poll: u64,
    /// Recorded uplink attempts that were delivered.
    pub attempts_delivered: u64,
    /// Recorded uplink attempts lost to same-slot collision.
    pub attempts_collided: u64,
    /// Recorded uplink attempts lost to FCS corruption.
    pub attempts_corrupted: u64,
    /// Recorded uplink attempts abandoned at channel-access failure.
    pub attempts_access_failure: u64,
    /// Recorded uplink transactions that ran CSMA/CA (delivered or
    /// finally failed).
    pub transactions: u64,
    /// Recorded transactions that delivered.
    pub transactions_delivered: u64,
    /// Calendar-queue pushes.
    pub queue_pushes: u64,
    /// Calendar-queue pops. Window growths are *not* here: a ring only
    /// grows the first time a workspace sees a long horizon, so the
    /// count follows workspace reuse (scheduling) and lives in
    /// [`TimingSet`].
    pub queue_pops: u64,
    /// Bitmap cursor skip distances in ring slots (one sample per pop
    /// that found its slot empty and hopped).
    pub queue_skip_slots: Hist,
    /// Same-slot transmission cohort sizes (collision cohorts are the
    /// samples ≥ 2).
    pub cohort_size: Hist,
    /// CCAs performed per recorded uplink attempt (the CSMA backoff
    /// stage reached, since each failed CCA escalates the stage).
    pub ccas_per_attempt: Hist,
    /// Contention duration per recorded uplink attempt, in backoff slots.
    pub contention_slots: Hist,
    /// Attempts consumed per recorded transaction.
    pub attempts_per_transaction: Hist,
}

impl EngineMetrics {
    /// Folds `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.runs += other.runs;
        self.events += other.events;
        self.ev_beacon += other.ev_beacon;
        self.ev_arrival += other.ev_arrival;
        self.ev_cca += other.ev_cca;
        self.ev_tx_end += other.ev_tx_end;
        self.ev_gts += other.ev_gts;
        self.ev_dl_poll += other.ev_dl_poll;
        self.attempts_delivered += other.attempts_delivered;
        self.attempts_collided += other.attempts_collided;
        self.attempts_corrupted += other.attempts_corrupted;
        self.attempts_access_failure += other.attempts_access_failure;
        self.transactions += other.transactions;
        self.transactions_delivered += other.transactions_delivered;
        self.queue_pushes += other.queue_pushes;
        self.queue_pops += other.queue_pops;
        self.queue_skip_slots.merge(&other.queue_skip_slots);
        self.cohort_size.merge(&other.cohort_size);
        self.ccas_per_attempt.merge(&other.ccas_per_attempt);
        self.contention_slots.merge(&other.contention_slots);
        self.attempts_per_transaction
            .merge(&other.attempts_per_transaction);
    }

    fn to_json(&self) -> Node {
        json::obj(vec![
            ("runs", json::uint(self.runs)),
            ("events", json::uint(self.events)),
            (
                "events_by_kind",
                json::obj(vec![
                    ("beacon", json::uint(self.ev_beacon)),
                    ("arrival", json::uint(self.ev_arrival)),
                    ("cca", json::uint(self.ev_cca)),
                    ("tx_end", json::uint(self.ev_tx_end)),
                    ("gts", json::uint(self.ev_gts)),
                    ("dl_poll", json::uint(self.ev_dl_poll)),
                ]),
            ),
            (
                "attempts",
                json::obj(vec![
                    ("delivered", json::uint(self.attempts_delivered)),
                    ("collided", json::uint(self.attempts_collided)),
                    ("corrupted", json::uint(self.attempts_corrupted)),
                    ("access_failure", json::uint(self.attempts_access_failure)),
                ]),
            ),
            (
                "transactions",
                json::obj(vec![
                    ("total", json::uint(self.transactions)),
                    ("delivered", json::uint(self.transactions_delivered)),
                ]),
            ),
            (
                "queue",
                json::obj(vec![
                    ("pushes", json::uint(self.queue_pushes)),
                    ("pops", json::uint(self.queue_pops)),
                    ("skip_slots", self.queue_skip_slots.to_json()),
                ]),
            ),
            ("cohort_size", self.cohort_size.to_json()),
            ("ccas_per_attempt", self.ccas_per_attempt.to_json()),
            ("contention_slots", self.contention_slots.to_json()),
            (
                "attempts_per_transaction",
                self.attempts_per_transaction.to_json(),
            ),
        ])
    }
}

/// Runner-layer deterministic metrics. The total *job* count is a
/// property of the work list, not of scheduling, so it stays in the
/// deterministic section; the `map` call count describes how the work
/// was batched into streaming calls, not the work, so it lives in
/// [`TimingSet`] along with pool occupancy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunnerMetrics {
    /// Jobs whose results a runner caller received (work simulated
    /// ahead and discarded is not counted).
    pub jobs: u64,
}

impl RunnerMetrics {
    fn to_json(&self) -> Node {
        json::obj(vec![("jobs", json::uint(self.jobs))])
    }
}

/// Policy-loop deterministic metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyMetrics {
    /// Policy rounds executed.
    pub rounds: u64,
    /// Channel moves across all rounds.
    pub moves: u64,
    /// Moves per round.
    pub moves_per_round: Hist,
    /// Absolute round-over-round change of the worst-channel failure
    /// ratio, in permille (×1000, rounded) — the convergence signal.
    pub convergence_delta_permille: Hist,
}

impl PolicyMetrics {
    fn to_json(&self) -> Node {
        json::obj(vec![
            ("rounds", json::uint(self.rounds)),
            ("moves", json::uint(self.moves)),
            ("moves_per_round", self.moves_per_round.to_json()),
            (
                "convergence_delta_permille",
                self.convergence_delta_permille.to_json(),
            ),
        ])
    }
}

/// Farm-layer deterministic metrics: batch outcome tallies. Wave counts
/// (sized from the worker pool) are *not* here — they live in
/// [`TimingSet`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FarmMetrics {
    /// Scenarios known to the farm (skipped ones included); a max gauge,
    /// so concurrent farms report the largest.
    pub total_scenarios: u64,
    /// Scenarios that completed ok.
    pub ok: u64,
    /// Scenarios that failed (a compile or job panicked).
    pub failed: u64,
    /// Scenarios that hit the wall-clock watchdog.
    pub timeout: u64,
    /// Scenarios skipped by `--resume` (journal said done).
    pub skipped: u64,
}

impl FarmMetrics {
    fn to_json(&self) -> Node {
        json::obj(vec![
            ("total_scenarios", json::uint(self.total_scenarios)),
            ("ok", json::uint(self.ok)),
            ("failed", json::uint(self.failed)),
            ("timeout", json::uint(self.timeout)),
            ("skipped", json::uint(self.skipped)),
            // A format-1 key: each scenario runs once, so no attempt is
            // ever an extra one.
            ("retries", json::uint(0)),
        ])
    }
}

/// The full deterministic section: every value is bit-identical across
/// 1/2/4 worker threads, shard orderings and wave splits, because every
/// value is an integer sum, maximum or histogram over a fixed job set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricSet {
    /// Engine-layer metrics.
    pub engine: EngineMetrics,
    /// Runner-layer metrics.
    pub runner: RunnerMetrics,
    /// Policy-loop metrics.
    pub policy: PolicyMetrics,
    /// Farm-layer metrics.
    pub farm: FarmMetrics,
}

impl MetricSet {
    /// The deterministic snapshot record (one JSONL object; see
    /// `SCHEMA.md` § OBSERVABILITY). `last` marks the end-of-run
    /// snapshot — the one whose bytes are thread-count invariant
    /// (intermediate snapshots land on wave boundaries, which depend on
    /// the worker count).
    pub fn to_json(&self, last: bool) -> Node {
        json::obj(vec![
            ("telemetry", json::uint(TELEMETRY_VERSION)),
            ("section", json::string("deterministic")),
            ("final", json::boolean(last)),
            ("engine", self.engine.to_json()),
            ("runner", self.runner.to_json()),
            ("policy", self.policy.to_json()),
            ("farm", self.farm.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Timing section (nondeterministic)
// ---------------------------------------------------------------------------

/// Wall-clock statistics for one span kind. Host- and scheduling-
/// dependent; never mixed into the deterministic section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingStat {
    /// Spans recorded.
    pub count: u64,
    /// Total wall-clock milliseconds.
    pub total_ms: f64,
    /// Shortest span, ms (0.0 while empty).
    pub min_ms: f64,
    /// Longest span, ms.
    pub max_ms: f64,
}

impl TimingStat {
    /// Records one span of `ms` milliseconds.
    pub fn record(&mut self, ms: f64) {
        self.min_ms = if self.count == 0 {
            ms
        } else {
            self.min_ms.min(ms)
        };
        self.count += 1;
        self.total_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    fn to_json(&self) -> Node {
        json::obj(vec![
            ("count", json::uint(self.count)),
            ("total_ms", json::num(self.total_ms)),
            ("min_ms", json::num(self.min_ms)),
            ("max_ms", json::num(self.max_ms)),
        ])
    }
}

/// A wall-clock span kind; see [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One runner streaming call, open to close (`Runner::map`, a
    /// scenario grid or a farm stream).
    Map,
    /// One whole batch farm.
    Batch,
}

/// The nondeterministic section: wall-clock spans, pool occupancy, and
/// the counters whose values depend on the execution environment rather
/// than the job set — runner streaming calls and farm waves (how the
/// work was batched; waves are sized from the worker count).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingSet {
    /// Per-job wall clock, on the worker, for every received job.
    pub job: TimingStat,
    /// Per-streaming-call wall clock, open to close.
    pub map: TimingStat,
    /// Per-policy-round wall clock.
    pub policy_round: TimingStat,
    /// Per-wave wait of the farm's calling thread for the wave's last
    /// result (a policy entry: its run).
    pub wave: TimingStat,
    /// Whole-batch wall clock.
    pub batch: TimingStat,
    /// Largest worker count any streaming call ran with (pool occupancy
    /// gauge — thread-count dependent by definition, hence in this
    /// section).
    pub peak_workers: u64,
    /// Runner streaming calls: `Runner::map`, scenario grids and farm
    /// streams.
    pub maps: u64,
    /// Farm waves dispatched.
    pub waves: u64,
    /// Calendar-ring window growths (reallocation + relink). A ring
    /// grows the first time its workspace sees a long horizon, so the
    /// count follows workspace reuse — scheduling, not the job set.
    pub queue_window_growths: u64,
}

impl TimingSet {
    fn stat_mut(&mut self, phase: Phase) -> &mut TimingStat {
        match phase {
            Phase::Map => &mut self.map,
            Phase::Batch => &mut self.batch,
        }
    }

    /// The timing snapshot record (one JSONL object). `events` is the
    /// deterministic engine event count, used for the derived
    /// `events_per_sec` rate (aggregate per-worker CPU rate over the
    /// summed job wall); `last` mirrors the deterministic record's flag.
    pub fn to_json(&self, events: u64, last: bool) -> Node {
        let jobs_per_sec = if self.job.total_ms > 0.0 {
            self.job.count as f64 / (self.job.total_ms / 1e3)
        } else {
            0.0
        };
        let events_per_sec = if self.job.total_ms > 0.0 {
            events as f64 / (self.job.total_ms / 1e3)
        } else {
            0.0
        };
        json::obj(vec![
            ("telemetry", json::uint(TELEMETRY_VERSION)),
            ("section", json::string("timing")),
            ("final", json::boolean(last)),
            (
                "phases",
                json::obj(vec![
                    ("job", self.job.to_json()),
                    ("map", self.map.to_json()),
                    ("policy_round", self.policy_round.to_json()),
                    ("wave", self.wave.to_json()),
                    ("batch", self.batch.to_json()),
                ]),
            ),
            (
                "pool",
                json::obj(vec![
                    ("peak_workers", json::uint(self.peak_workers)),
                    ("maps", json::uint(self.maps)),
                    ("waves", json::uint(self.waves)),
                    (
                        "queue_window_growths",
                        json::uint(self.queue_window_growths),
                    ),
                ]),
            ),
            (
                "rates",
                json::obj(vec![
                    ("jobs_per_sec", json::num(jobs_per_sec)),
                    ("events_per_sec", json::num(events_per_sec)),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// The global registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    det: MetricSet,
    timing: TimingSet,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: LazyLock<Mutex<Registry>> = LazyLock::new(Mutex::default);

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // A panic while holding this lock means a telemetry bug; recovering
    // the data beats poisoning every later run.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns collection on or off process-wide. Off (the default) reduces
/// every instrumentation site to a relaxed atomic load and a never-taken
/// branch; existing accumulated values are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` while collection is on (one relaxed atomic load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes both registry sections (test isolation and run boundaries).
pub fn reset() {
    *registry() = Registry::default();
}

/// Clones the deterministic section.
pub fn snapshot() -> MetricSet {
    registry().det.clone()
}

/// Clones the timing section.
pub fn timing_snapshot() -> TimingSet {
    registry().timing.clone()
}

/// Renders the two snapshot records as compact JSON lines
/// (deterministic first, timing second), under one lock acquisition.
pub fn snapshot_lines(last: bool) -> (String, String) {
    let reg = registry();
    let det = render_compact(&reg.det.to_json(last));
    let timing = render_compact(&reg.timing.to_json(reg.det.engine.events, last));
    (det, timing)
}

/// Folds an engine run shard into the registry (one lock per run).
/// `window_growths` rides along into the timing section — ring growth
/// follows workspace reuse, so it is scheduling-dependent. Inside a
/// runner job the fold is held with the job until its caller receives
/// the result.
pub fn merge_engine(shard: &EngineMetrics, window_growths: u64) {
    let held = HELD.with(|held| match held.borrow_mut().as_mut() {
        Some(job) => {
            job.engine.merge(shard);
            job.window_growths += window_growths;
            true
        }
        None => false,
    });
    if !held {
        let mut reg = registry();
        reg.det.engine.merge(shard);
        reg.timing.queue_window_growths += window_growths;
    }
}

/// Notes one runner streaming call and the worker count it runs with
/// (timing-section pool gauges: they describe how the work was batched
/// and scheduled, not the work).
pub fn note_map(workers: u64) {
    let mut reg = registry();
    reg.timing.maps += 1;
    reg.timing.peak_workers = reg.timing.peak_workers.max(workers);
}

/// One runner job's telemetry, held on the thread that ran it until the
/// caller receives the job's result.
#[derive(Debug, Default)]
pub(crate) struct JobShard {
    engine: EngineMetrics,
    window_growths: u64,
    wall_ms: f64,
}

thread_local! {
    /// The shard of the runner job running on this thread, if any.
    static HELD: RefCell<Option<Box<JobShard>>> = const { RefCell::new(None) };
}

/// Runs one runner job with this thread's engine folds held in a fresh
/// shard instead of the registry; returns the job's output and the
/// shard, stamped with the job's wall clock. `job` must not unwind (the
/// runner catches job panics inside it).
pub(crate) fn hold<R>(job: impl FnOnce() -> R) -> (R, Box<JobShard>) {
    let t = Instant::now();
    let outer = HELD.with(|held| held.borrow_mut().replace(Box::default()));
    let out = job();
    let mut shard = HELD
        .with(|held| std::mem::replace(&mut *held.borrow_mut(), outer))
        .expect("the held shard belongs to this job");
    shard.wall_ms = t.elapsed().as_secs_f64() * 1e3;
    (out, shard)
}

/// Releases a received job's shard into the registry under one lock:
/// the job counts toward `runner.jobs`, its engine metrics merge and its
/// wall joins the `job` span statistics.
pub(crate) fn release(shard: &JobShard) {
    let mut reg = registry();
    reg.det.runner.jobs += 1;
    reg.det.engine.merge(&shard.engine);
    reg.timing.queue_window_growths += shard.window_growths;
    reg.timing.job.record(shard.wall_ms);
}

/// Notes one policy round: moves made, the round-over-round worst-channel
/// failure delta (permille; `None` for the first round) and its grid wall.
pub fn note_policy_round(moves: u64, delta_permille: Option<u64>, wall_ms: f64) {
    let mut reg = registry();
    reg.det.policy.rounds += 1;
    reg.det.policy.moves += moves;
    reg.det.policy.moves_per_round.record(moves);
    if let Some(delta) = delta_permille {
        reg.det.policy.convergence_delta_permille.record(delta);
    }
    reg.timing.policy_round.record(wall_ms);
}

/// Notes a farm starting: its scenario population and how many the
/// resume journal skipped.
pub fn note_farm_start(total: u64, skipped: u64) {
    let mut reg = registry();
    reg.det.farm.total_scenarios = reg.det.farm.total_scenarios.max(total);
    reg.det.farm.skipped += skipped;
}

/// Notes one completed farm scenario and how it ended.
pub fn note_farm_record(status: &ScenarioStatus) {
    let mut reg = registry();
    match status {
        ScenarioStatus::Ok => reg.det.farm.ok += 1,
        ScenarioStatus::Failed { .. } => reg.det.farm.failed += 1,
        ScenarioStatus::Timeout => reg.det.farm.timeout += 1,
    }
}

/// Notes one finished farm wave and the calling thread's wait for its
/// last result (timing section: wave count follows the worker pool).
pub fn note_wave(wall_ms: f64) {
    let mut reg = registry();
    reg.timing.waves += 1;
    reg.timing.wave.record(wall_ms);
}

/// Records one measured wall-clock span.
fn record_phase_ms(phase: Phase, ms: f64) {
    registry().timing.stat_mut(phase).record(ms);
}

/// A span-style timing scope: measures from construction to drop and
/// records into the timing section — nothing at all when telemetry was
/// disabled at entry.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span for `phase` (inert when telemetry is disabled).
    pub fn enter(phase: Phase) -> Span {
        Span {
            phase,
            start: enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_phase_ms(self.phase, start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no external entropy in tests).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    fn random_set(seed: u64) -> MetricSet {
        let mut s = seed;
        let mut set = MetricSet::default();
        set.engine.runs = lcg(&mut s) % 10;
        set.engine.events = lcg(&mut s) % 100_000;
        set.engine.ev_cca = lcg(&mut s) % 50_000;
        set.engine.attempts_delivered = lcg(&mut s) % 10_000;
        for _ in 0..200 {
            set.engine.queue_skip_slots.record(lcg(&mut s) % (1 << 20));
            set.engine.cohort_size.record(lcg(&mut s) % 40);
            set.engine.ccas_per_attempt.record(lcg(&mut s) % 6);
        }
        set.runner.jobs = lcg(&mut s) % 10_000;
        set.policy.rounds = lcg(&mut s) % 20;
        set.policy.moves_per_round.record(lcg(&mut s) % 16);
        set.farm.ok = lcg(&mut s) % 1_000;
        set.farm.total_scenarios = lcg(&mut s) % 1_000;
        set
    }

    #[test]
    fn hist_buckets_follow_log2() {
        assert_eq!(Hist::bucket(0), 0);
        assert_eq!(Hist::bucket(1), 1);
        assert_eq!(Hist::bucket(2), 2);
        assert_eq!(Hist::bucket(3), 2);
        assert_eq!(Hist::bucket(4), 3);
        assert_eq!(Hist::bucket(u64::MAX), 64);
        let mut h = Hist::default();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 10);
        assert_eq!(h.max, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 2);
    }

    #[test]
    fn merges_are_commutative_and_associative() {
        let a = random_set(1).engine;
        let b = random_set(2).engine;
        let c = random_set(3).engine;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must associate");
    }

    #[test]
    fn shard_order_never_changes_the_total() {
        let shards: Vec<EngineMetrics> = (0..6).map(|i| random_set(100 + i).engine).collect();
        let mut forward = EngineMetrics::default();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = EngineMetrics::default();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        let mut interleaved = EngineMetrics::default();
        for s in shards
            .iter()
            .step_by(2)
            .chain(shards.iter().skip(1).step_by(2))
        {
            interleaved.merge(s);
        }
        assert_eq!(forward, reverse);
        assert_eq!(forward, interleaved);
        // The rendered record is therefore order-invariant too.
        assert_eq!(
            render_compact(&forward.to_json()),
            render_compact(&reverse.to_json())
        );
    }

    #[test]
    fn merging_the_identity_is_a_noop() {
        let a = random_set(7).engine;
        let mut merged = a.clone();
        merged.merge(&EngineMetrics::default());
        assert_eq!(merged, a);
        let mut from_zero = EngineMetrics::default();
        from_zero.merge(&a);
        assert_eq!(from_zero, a);
    }

    #[test]
    fn snapshot_records_split_sections_and_carry_the_version() {
        let det = render_compact(&random_set(9).to_json(true));
        let timing = render_compact(&TimingSet::default().to_json(0, true));
        assert!(det.starts_with("{\"telemetry\":2,\"section\":\"deterministic\",\"final\":true"));
        assert!(timing.starts_with("{\"telemetry\":2,\"section\":\"timing\",\"final\":true"));
        assert!(
            !det.contains("_ms"),
            "no wall clocks in the deterministic record"
        );
    }

    #[test]
    fn global_registry_accumulates_and_resets() {
        // Other tests in this process may fold their own shards while
        // telemetry happens to be enabled, so assert monotonically (≥).
        set_enabled(false);
        reset();
        let shard = EngineMetrics {
            runs: 1,
            events: 42,
            ..Default::default()
        };
        merge_engine(&shard, 0);
        let snap = snapshot();
        assert!(snap.engine.runs >= 1);
        assert!(snap.engine.events >= 42);
        reset();
        assert!(!enabled());
    }
}
