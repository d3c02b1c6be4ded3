//! Repository benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from one traced run.
//!
//! ```text
//! perfbench --workload farm|dense_channel|policy_loop --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (`perfbench/run.py` builds it and
//! does). The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; `# detail:` lines
//! before it carry the iteration quartiles, digests and counters.
//! `RATIONALE.md` explains the workloads, the metrics and which layer
//! should move which number.

mod probe;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wsn_sim::telemetry::{self, MetricSet, TimingSet};
use wsn_sim::Runner;

use workloads::{Counters, Dense, Farm, Layers, Output, PolicyLoop, Workload};

const WORKLOADS: [&str; 3] = ["farm", "dense_channel", "policy_loop"];
/// The seed the committed digests in `expected.txt` belong to.
const DEFAULT_SEED: u64 = 42;
const EXPECTED: &str = include_str!("../expected.txt");
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 9;
/// Fewest timed iterations a run takes, however long they last.
const MIN_SAMPLES: usize = 5;

/// Every per-layer metric, with its unit: a `--trace 1` run prints all of
/// them, 0 where the workload does not exercise the layer.
const LAYER_METRICS: [(&str, &str); 28] = [
    ("persist.load_ms", "ms"),
    ("persist.bytes", "bytes"),
    ("persist.fingerprint_ms", "ms"),
    ("scenario.compile_ms", "ms"),
    ("phy.ber_ns_per_node", "ns"),
    ("contention.events", "count"),
    ("contention.events_per_node_sf", "ratio"),
    ("contention.ns_per_event", "ns"),
    ("events.pushes", "count"),
    ("events.pops", "count"),
    ("events.skip_slots_per_pop", "ratio"),
    ("network.job_ms_mean", "ms"),
    ("network.job_ms_max", "ms"),
    ("network.non_engine_share", "ratio"),
    ("runner.jobs", "count"),
    ("runner.efficiency", "ratio"),
    ("runner.idle_ms", "ms"),
    ("stats.reduce_ms", "ms"),
    ("policy.rounds", "count"),
    ("policy.moves", "count"),
    ("policy.round_ms_mean", "ms"),
    ("batch.waves", "count"),
    ("batch.outside_wave_ms", "ms"),
    ("journal.append_ms_mean", "ms"),
    ("sink.write_ms", "ms"),
    ("sink.bytes", "bytes"),
    ("telemetry.overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag} or workload {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn build(workload: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match workload {
        "farm" => Box::new(Farm::new(seed, scratch)),
        "dense_channel" => Box::new(Dense::new(seed)),
        "policy_loop" => Box::new(PolicyLoop::new(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The correctness gate: every output must match the first one a run
/// produced, digest for digest and counter for counter.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
    counters: Counters,
    counter_mismatches: Vec<String>,
}

impl Gate {
    fn record(&mut self, out: Output) {
        self.attempted += out.digests.len() as u64;
        self.failed += out.failed;
        if self.digests.is_empty() {
            self.digests = out.digests;
        } else {
            let differing = (0..self.digests.len().max(out.digests.len()))
                .filter(|&i| self.digests.get(i) != out.digests.get(i))
                .count();
            self.failed += differing as u64;
        }
        for (name, value) in out.counters {
            match self.counters.insert(name, value) {
                Some(old) if old != value => self
                    .counter_mismatches
                    .push(format!("{name}: {old} then {value}")),
                _ => {}
            }
        }
    }

    /// One digest over every scenario's digest.
    fn digest(&self) -> u64 {
        probe::digest(&self.digests)
    }

    /// Mismatches against the committed digest and counters of this
    /// workload at the default seed.
    fn committed_mismatches(&self, workload: &str) -> Vec<String> {
        let mut seen_digest = false;
        let mut out = Vec::new();
        for line in EXPECTED
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [w, name, value] = fields[..] else {
                continue;
            };
            if w != workload {
                continue;
            }
            if name == "digest" {
                seen_digest = true;
                if value != format!("{:016x}", self.digest()) {
                    out.push(format!(
                        "digest {:016x} != committed {value}",
                        self.digest()
                    ));
                }
            } else if let Some(&have) = self.counters.get(name) {
                if value.parse::<u64>() != Ok(have) {
                    out.push(format!("{name} {have} != committed {value}"));
                }
            }
        }
        if !seen_digest {
            out.push(format!("no committed digest for {workload}"));
        }
        out
    }
}

/// The deterministic counters telemetry adds to a workload's own.
fn telemetry_counters(m: &MetricSet) -> Counters {
    Counters::from([
        ("contention.events", m.engine.events),
        ("events.pushes", m.engine.queue_pushes),
        ("events.pops", m.engine.queue_pops),
        ("events.skip_slots", m.engine.queue_skip_slots.sum),
        ("runner.jobs", m.runner.jobs),
        ("policy.rounds", m.policy.rounds),
        ("policy.moves", m.policy.moves),
    ])
}

/// Runs one iteration with telemetry collecting; returns its wall time in
/// seconds and the registry afterwards.
fn with_telemetry<F: FnOnce() -> f64>(f: F) -> (f64, MetricSet, TimingSet) {
    telemetry::reset();
    telemetry::set_enabled(true);
    let wall = f();
    telemetry::set_enabled(false);
    (wall, telemetry::snapshot(), telemetry::timing_snapshot())
}

/// Per-layer numbers the telemetry registry gives for any workload.
fn telemetry_layers(
    m: &MetricSet,
    t: &TimingSet,
    threads: usize,
    node_sf: u64,
    layers: &mut Layers,
) {
    let e = &m.engine;
    layers.insert("contention.events", e.events as f64);
    layers.insert(
        "contention.events_per_node_sf",
        e.events as f64 / node_sf as f64,
    );
    layers.insert("events.pushes", e.queue_pushes as f64);
    layers.insert("events.pops", e.queue_pops as f64);
    layers.insert(
        "events.skip_slots_per_pop",
        e.queue_skip_slots.sum as f64 / e.queue_pops.max(1) as f64,
    );
    layers.insert("runner.jobs", m.runner.jobs as f64);
    if t.job.count > 0 {
        layers.insert("network.job_ms_mean", t.job.total_ms / t.job.count as f64);
        layers.insert("network.job_ms_max", t.job.max_ms);
    }
    if t.map.count > 0 {
        let capacity_ms = threads as f64 * t.map.total_ms;
        layers.insert("runner.efficiency", t.job.total_ms / capacity_ms);
        layers.insert("runner.idle_ms", capacity_ms - t.job.total_ms);
    }
    layers.insert("policy.rounds", m.policy.rounds as f64);
    layers.insert("policy.moves", m.policy.moves as f64);
    layers.insert("batch.waves", t.waves as f64);
    if t.batch.count > 0 {
        layers.insert("batch.outside_wave_ms", t.batch.total_ms - t.wave.total_ms);
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Q1, median and Q3 by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v[0]; 3];
    }
    let at = |p: f64| {
        let m = (n as f64 + 1.0) * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = (m - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn counters_json(counters: &Counters) -> String {
    let fields: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args, scratch: &Path, start: Instant) -> ExitCode {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let runner = Runner::with_threads(threads);
    let mut gate = Gate::default();

    // Set-up: generate the inputs, then one warm-up iteration. The first
    // set-up is timed from process start.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { start } else { Instant::now() };
        drop(workload.take());
        let mut w = build(&args.workload, args.seed, scratch);
        w.iterate(&runner);
        setup_s.push(t0.elapsed().as_secs_f64());
        gate.record(w.output());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let node_sf = w.node_superframes();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut detail = Vec::new();
    if !args.trace {
        let mut times = Vec::new();
        while times.len() < MIN_SAMPLES || Instant::now() < deadline {
            let t = Instant::now();
            w.iterate(&runner);
            times.push(t.elapsed().as_secs_f64());
            gate.record(w.output());
        }
        let [q1, med, q3] = quartiles(&times);
        detail.push(format!(
            "\"iteration_ms\": {{\"q1\": {:?}, \"median\": {:?}, \"q3\": {:?}, \"samples\": {}}}",
            q1 * 1e3,
            med * 1e3,
            q3 * 1e3,
            times.len()
        ));
        metrics.push(("node_superframes_per_s", node_sf as f64 / med, "1/s"));
        metrics.push(("setup_s", median(&setup_s), "s"));
    } else {
        // Telemetry off and on, interleaved, for its overhead and for the
        // counters only telemetry sees.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        while on.len() < MIN_SAMPLES || Instant::now() < deadline {
            let t = Instant::now();
            w.iterate(&runner);
            off.push(t.elapsed().as_secs_f64());
            gate.record(w.output());
            let (wall, m, _) = with_telemetry(|| {
                let t = Instant::now();
                w.iterate(&runner);
                t.elapsed().as_secs_f64()
            });
            on.push(wall);
            let mut out = w.output();
            out.counters.extend(telemetry_counters(&m));
            gate.record(out);
        }
        let (traced_wall, m, t) = with_telemetry(|| w.traced_iteration(&runner));
        let mut layers = Layers::new();
        telemetry_layers(&m, &t, threads, node_sf, &mut layers);
        gate.failed += w.probes(&mut layers);
        let mut out = w.output();
        out.counters.extend(telemetry_counters(&m));
        gate.record(out);

        // Derived: the share of job time outside the contention engine.
        let job_total_ms = if t.job.count > 0 {
            t.job.total_ms
        } else {
            layers.get("network.job_ms_mean").copied().unwrap_or(0.0)
        };
        let engine_ms = m.engine.events as f64 * layers["contention.ns_per_event"] / 1e6;
        layers.insert("network.non_engine_share", 1.0 - engine_ms / job_total_ms);
        let base = median(&off);
        layers.insert("telemetry.overhead_pct", (median(&on) / base - 1.0) * 100.0);
        layers.insert(
            "bench.trace_overhead_pct",
            (traced_wall / base - 1.0) * 100.0,
        );
        detail.push(format!(
            "\"engine_pass_events\": {}, \"traced_events\": {}, \"iterations_off\": {}, \"iterations_on\": {}",
            layers["contention.engine_pass_events"],
            m.engine.events,
            off.len(),
            on.len()
        ));
        for (name, unit) in LAYER_METRICS {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    }

    gate.record(w.cross_check());
    let mut problems = std::mem::take(&mut gate.counter_mismatches);
    if args.seed == DEFAULT_SEED {
        problems.extend(gate.committed_mismatches(&args.workload));
    }
    if !args.trace {
        metrics.push(("peak_rss_mib", peak_rss_mib(), "MiB"));
        let ok = 1.0 - gate.failed as f64 / gate.attempted as f64;
        metrics.push(("ok_ratio", ok, "ratio"));
    }
    let correct = gate.failed == 0 && problems.is_empty();
    let problems: Vec<String> = problems.iter().map(|p| format!("{p:?}")).collect();
    let setup: Vec<String> = setup_s.iter().map(|s| format!("{s:?}")).collect();
    println!(
        "# detail: {{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"node_superframes\": {node_sf}, \
         \"setup_s\": [{}], {}, \"digest\": \"{:016x}\", \"counters\": {}, \"problems\": [{}]}}",
        args.workload,
        args.seed,
        setup.join(", "),
        detail.join(", "),
        gate.digest(),
        counters_json(&gate.counters),
        problems.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(PathBuf::from(".bench_scratch").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0).expect("scratch directory is writable");
    run(&args, &scratch.0, start)
}

/// The run's scratch directory, removed when the run ends, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the shared parent only when no other run is using it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}
