//! The telemetry inertness contract, end to end:
//!
//! * **bit-identical output** — every simulation result (engine stats,
//!   scenario outcomes with faults and CFP traffic, farm record bytes)
//!   is identical with telemetry enabled and disabled: the registry
//!   draws no RNG and never touches simulation state;
//! * **thread-count invariance** — the *final* deterministic snapshot
//!   record is byte-identical across 1/2/4 worker threads (every
//!   deterministic metric merges through a commutative integer fold
//!   over a fixed job set);
//! * **collection** — with telemetry on, the registry actually fills.
//!
//! Every test mutates the process-global registry, so they serialize on
//! one lock (cargo runs same-binary tests on multiple threads).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use wsn_sim::scenario::{DeploymentSpec, Scenario, TrafficSpec};
use wsn_sim::telemetry;
use wsn_sim::{
    simulate_contention, BatchEntry, BatchSet, ChannelSimConfig, ContentionStats, FaultPlan,
    RunConfig, Runner, SavedScenario, WriteSink,
};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Serializes registry use across tests (poisoning recovered: a failed
/// sibling test must not cascade).
fn lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` twice — telemetry off, then on (reset in between) — and
/// returns both results for the bit-identity comparison.
fn off_then_on<T>(mut f: impl FnMut() -> T) -> (T, T) {
    telemetry::set_enabled(false);
    let off = f();
    telemetry::reset();
    telemetry::set_enabled(true);
    let on = f();
    telemetry::set_enabled(false);
    (off, on)
}

/// A small but non-trivial closed-loop scenario: faults and GTS/downlink
/// traffic exercise every instrumented engine path (checked in
/// `scenario_outcomes_are_bit_identical_with_telemetry_on`).
fn churn_scenario(seed: u64) -> Scenario {
    Scenario::new(
        "telemetry-churn",
        3,
        12,
        DeploymentSpec::UniformLossGrid {
            min_db: 58.0,
            max_db: 88.0,
        },
    )
    .with_traffic(
        TrafficSpec::uniform(32)
            .with_gts(1)
            .with_gts_demand(2)
            .with_downlink(0.5),
    )
    .with_superframes(4)
    .with_replications(2)
    .with_seed(seed)
    .with_faults(
        FaultPlan::inert()
            .with_churn(0.08, 2, 2)
            .with_outages(0.05, 1),
    )
}

#[test]
fn engine_stats_are_bit_identical_with_telemetry_on() {
    let _guard = lock();
    // A figure-6-style contention point per payload class.
    for (payload, load) in [(20usize, 0.3), (50, 0.6), (100, 0.85)] {
        let mut cfg = ChannelSimConfig::figure6(payload, load, 0xF166 + payload as u64);
        cfg.superframes = 12;
        let (off, on): (ContentionStats, ContentionStats) =
            off_then_on(|| simulate_contention(&cfg));
        assert_eq!(off, on, "payload {payload} load {load}");
    }
}

#[test]
fn scenario_outcomes_are_bit_identical_with_telemetry_on() {
    let _guard = lock();
    let runner = Runner::with_threads(2);

    // Case-study-shaped closed deployment (shrunk) and the churn/outage
    // scenario; `ScenarioOutcome` has no `PartialEq`, but `Debug` prints
    // f64 with round-trip precision, so equal strings ⇔ equal bits.
    let case = Scenario::paper_case_study()
        .with_superframes(3)
        .with_replications(1)
        .with_seed(0xCA5E);
    let (off, on) = off_then_on(|| case.run(&runner));
    let same = format!("{off:?}") == format!("{on:?}");
    assert!(same, "case study outcome changed under telemetry");
    // `engine.transactions` counts the uplink transactions that ran
    // CSMA/CA, which are all of a CAP-only run's.
    let engine = telemetry::snapshot().engine;
    assert_eq!(engine.transactions, on.overall.transactions);

    let churn = churn_scenario(0xC0FE);
    let (off, on) = off_then_on(|| churn.run(&runner));
    let same = format!("{off:?}") == format!("{on:?}");
    assert!(same, "churn outcome changed under telemetry");
    let o = &on.overall;
    assert!(o.gts_transactions > 0, "no GTS transmission");
    assert!(o.downlink_polls > 0, "no downlink poll");
    assert!(o.deaths > 0, "no node death");
    // The record's transactions also count GTS transmissions and the
    // packets of down nodes and silent coordinators, which never contend.
    let engine = telemetry::snapshot().engine;
    assert!(engine.transactions + o.gts_transactions < o.transactions);
}

/// One farm entry per seed, cheap enough for a 6-scenario batch.
fn tiny_entry(name: &str, seed: u64) -> BatchEntry {
    let scenario = Scenario::new(
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
    .with_seed(seed);
    BatchEntry {
        name: name.to_string(),
        path: PathBuf::from(format!("{name}.json")),
        saved: SavedScenario::open_loop(scenario),
    }
}

fn tiny_batch() -> BatchSet {
    BatchSet::from_entries(
        vec![
            tiny_entry("a", 11),
            tiny_entry("b", 22),
            tiny_entry("c", 33),
            tiny_entry("d", 44),
            tiny_entry("e", 55),
            tiny_entry("f", 66),
        ],
        None,
    )
    .unwrap()
}

/// Farm record bytes (including per-record `job_ms` — compared after
/// stripping, like CI does) must not move when telemetry collects.
#[test]
fn farm_records_are_bit_identical_with_telemetry_on() {
    let _guard = lock();
    let set = tiny_batch();
    let runner = Runner::with_threads(2);
    let (off, on) = off_then_on(|| {
        let mut sink = WriteSink::new(Vec::new());
        set.run_with(&runner, &mut sink, &RunConfig::default())
            .unwrap();
        strip_job_ms(std::str::from_utf8(&sink.into_inner()).unwrap())
    });
    assert_eq!(off, on, "farm record bytes changed under telemetry");
}

/// Drops every `"job_ms":<num>,` and the final aggregate line — the
/// only wall-clock bytes in the record stream (the aggregate carries
/// whole-batch wall and rate fields).
fn strip_job_ms(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines().filter(|l| !l.contains("\"aggregate\":true")) {
        let mut line = line.to_string();
        while let Some(start) = line.find("\"job_ms\":") {
            let end = start + line[start..].find(',').expect("job_ms is not last") + 1;
            line.replace_range(start..end, "");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The final deterministic snapshot record is byte-identical across
/// 1/2/4 worker threads: wave splits, shard order and scheduling must
/// never leak into the deterministic section (thread-dependent values —
/// maps, waves, pool occupancy, wall clocks — live in the timing
/// record, which is exempt).
#[test]
fn final_deterministic_snapshot_is_thread_count_invariant() {
    let _guard = lock();
    let set = tiny_batch();
    let mut lines = Vec::new();
    for threads in [1usize, 2, 4] {
        telemetry::reset();
        telemetry::set_enabled(true);
        let runner = Runner::with_threads(threads);
        let mut sink = WriteSink::new(Vec::new());
        set.run_with(&runner, &mut sink, &RunConfig::default())
            .unwrap();
        let (det, _timing) = telemetry::snapshot_lines(true);
        telemetry::set_enabled(false);
        lines.push((threads, det));
    }
    let (_, reference) = &lines[0];
    for (threads, line) in &lines[1..] {
        assert_eq!(line, reference, "{threads} threads diverged from 1 thread");
    }
}

/// With telemetry on the registry actually collects: engine counters,
/// histograms, runner jobs and farm tallies all fill; disabled runs add
/// nothing.
#[test]
fn enabled_registry_collects_and_disabled_registry_does_not() {
    let _guard = lock();
    let set = tiny_batch();
    let runner = Runner::with_threads(2);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut sink = WriteSink::new(Vec::new());
    set.run_with(&runner, &mut sink, &RunConfig::default())
        .unwrap();
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    assert!(snap.engine.runs > 0, "engine shards folded");
    assert!(snap.engine.events > 0, "events counted");
    assert!(snap.engine.queue_pushes > 0, "queue instrumented");
    assert!(
        snap.engine.queue_skip_slots.count > 0,
        "skip histogram filled"
    );
    assert!(snap.runner.jobs > 0, "runner jobs counted");
    assert_eq!(snap.farm.ok, 6, "all six scenarios tallied ok");
    let timing = telemetry::timing_snapshot();
    assert!(
        timing.job.count > 0 && timing.batch.count == 1,
        "spans recorded"
    );

    telemetry::reset();
    let mut sink = WriteSink::new(Vec::new());
    set.run_with(&runner, &mut sink, &RunConfig::default())
        .unwrap();
    assert_eq!(
        telemetry::snapshot(),
        wsn_sim::telemetry::MetricSet::default()
    );
}

/// Only received jobs reach the registry: a stream that ends with work
/// in flight (what a strict farm abort does) leaves the deterministic
/// section exactly as if the discarded jobs never ran, on any thread
/// count.
#[test]
fn discarded_stream_work_never_reaches_the_registry() {
    let _guard = lock();
    let configs: Vec<ChannelSimConfig> = (0..12)
        .map(|k| {
            let mut cfg = ChannelSimConfig::figure6(50, 0.4, 0x5EED + k);
            cfg.superframes = 6;
            cfg
        })
        .collect();
    let first_three = |threads: usize| {
        telemetry::reset();
        telemetry::set_enabled(true);
        let stats: Vec<ContentionStats> = Runner::with_threads(threads).stream(
            usize::MAX,
            |cfg: &ChannelSimConfig| simulate_contention(cfg),
            |s| {
                configs.iter().for_each(|cfg| s.feed(cfg));
                (0..3).map(|_| s.recv().unwrap().unwrap()).collect()
            },
        );
        telemetry::set_enabled(false);
        (stats, telemetry::snapshot(), telemetry::timing_snapshot())
    };
    let (serial, det, timing) = first_three(1);
    assert_eq!(det.runner.jobs, 3);
    assert_eq!(det.engine.runs, 3);
    assert_eq!((timing.job.count, timing.map.count), (3, 1));
    for threads in [2, 4] {
        let (stats, parallel, _) = first_three(threads);
        assert_eq!(stats, serial, "threads={threads}");
        assert_eq!(parallel, det, "threads={threads}");
    }
}

/// The farm trace: one `map` span for the stream that runs every
/// open-loop entry, a `job` wall per received job, and wave waits that
/// fit inside the batch span (outside-wave time is the calling thread's
/// own work, never negative).
#[test]
fn farm_trace_spans_one_stream_and_waits_within_the_batch() {
    let _guard = lock();
    telemetry::reset();
    telemetry::set_enabled(true);
    let mut sink = WriteSink::new(Vec::new());
    tiny_batch()
        .run_with(&Runner::with_threads(2), &mut sink, &RunConfig::default())
        .unwrap();
    telemetry::set_enabled(false);
    let (det, timing) = (telemetry::snapshot(), telemetry::timing_snapshot());
    assert_eq!(
        det.runner.jobs, 24,
        "six entries of 2 channels x 2 replications"
    );
    assert_eq!(timing.job.count, det.runner.jobs);
    assert_eq!(timing.map.count, 1);
    // Two 4-job entries fill a wave on 2 threads (4 jobs per worker).
    assert_eq!(timing.waves, 3);
    assert_eq!(timing.wave.count, 3);
    assert!(timing.wave.total_ms <= timing.batch.total_ms);
}
