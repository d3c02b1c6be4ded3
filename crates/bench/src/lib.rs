//! Experiment harness crate; see the `fig*` binaries.
//!
//! This library hosts the plumbing every figure binary shares: CLI parsing
//! (`[superframes] [--threads N] [--json]`), construction of the parallel
//! [`Runner`], and the shared pieces of the machine-readable `BENCH_*`
//! documents, which are built with [`wsn_sim::persist::json`] and rendered
//! by [`wsn_sim::persist::render_document`].

use std::time::Instant;

use wsn_sim::persist::{json, Node};
use wsn_sim::Runner;

/// Common command-line arguments of the figure binaries.
///
/// Accepted forms: a positional superframe count, `--threads N` (worker
/// threads; overrides the `WSN_SIM_THREADS` environment variable, which in
/// turn overrides auto-detection), `--reps N` (independent replications
/// per Monte-Carlo point, for replication-based standard errors),
/// `--rounds N` (closed-loop policy rounds, where the binary runs one),
/// `--json` (emit machine-readable benchmark output where the binary
/// supports it), `--export-scenario <path>` (write the binary's scenario
/// as saved JSON instead of running it, where supported),
/// `--save-dir <path>` (write a sweep's scenarios into a directory
/// instead of running them, where supported) and `--metrics <path|->`
/// (enable [`wsn_sim::telemetry`] and write its end-of-run snapshot as
/// JSONL — two records, deterministic then timing; see the repository's
/// `SCHEMA.md` § OBSERVABILITY — to the path, `-` for stdout; telemetry
/// is deterministically inert, so all simulation output is unchanged).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Superframes simulated per Monte-Carlo point.
    pub superframes: u32,
    /// Explicit worker-thread count (`--threads N`), if given.
    pub threads: Option<usize>,
    /// Explicit replication count (`--reps N`), if given; binaries fall
    /// back to their own defaults.
    pub reps: Option<u32>,
    /// Explicit policy-round budget (`--rounds N`), if given; the
    /// adaptive binaries fall back to their own defaults.
    pub rounds: Option<u32>,
    /// `--json`: write machine-readable benchmark output.
    pub json: bool,
    /// `--export-scenario <path>`: write the scenario as saved JSON
    /// ([`wsn_sim::persist`]) and exit, where the binary supports it.
    pub export_scenario: Option<String>,
    /// `--save-dir <path>`: write a sweep's scenarios as saved JSON
    /// files into the directory and exit, where the binary supports it.
    pub save_dir: Option<String>,
    /// `--metrics <path|->`: enable telemetry and write the end-of-run
    /// snapshot (deterministic + timing JSONL records) there; `-` means
    /// stdout.
    pub metrics: Option<String>,
}

impl RunArgs {
    /// Parses `std::env::args`, falling back to `default_superframes`.
    ///
    /// Unknown arguments abort with a usage message rather than being
    /// silently ignored.
    pub fn parse(default_superframes: u32) -> RunArgs {
        let mut out = RunArgs {
            superframes: default_superframes,
            threads: None,
            reps: None,
            rounds: None,
            json: false,
            export_scenario: None,
            save_dir: None,
            metrics: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let value = args
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0);
                    match value {
                        Some(n) => out.threads = Some(n),
                        None => usage("--threads requires a positive integer"),
                    }
                }
                "--reps" => {
                    let value = args
                        .next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .filter(|&n| n > 0);
                    match value {
                        Some(n) => out.reps = Some(n),
                        None => usage("--reps requires a positive integer"),
                    }
                }
                "--rounds" => {
                    let value = args
                        .next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .filter(|&n| n > 0);
                    match value {
                        Some(n) => out.rounds = Some(n),
                        None => usage("--rounds requires a positive integer"),
                    }
                }
                "--json" => out.json = true,
                "--export-scenario" => match args.next() {
                    Some(path) if !path.is_empty() => out.export_scenario = Some(path),
                    _ => usage("--export-scenario requires a file path"),
                },
                "--save-dir" => match args.next() {
                    Some(path) if !path.is_empty() => out.save_dir = Some(path),
                    _ => usage("--save-dir requires a directory path"),
                },
                "--metrics" => match args.next() {
                    Some(path) if !path.is_empty() => out.metrics = Some(path),
                    _ => usage("--metrics requires a file path or `-` for stdout"),
                },
                other => match other.parse::<u32>() {
                    Ok(sf) if sf >= 2 => out.superframes = sf,
                    Ok(_) => usage("superframes must be at least 2 (the first is warm-up)"),
                    Err(_) => usage(&format!("unrecognized argument `{other}`")),
                },
            }
        }
        out
    }

    /// The replication count: `--reps` if given, otherwise `default`.
    pub fn reps_or(&self, default: u32) -> u32 {
        self.reps.unwrap_or(default).max(1)
    }

    /// The policy-round budget: `--rounds` if given, otherwise `default`.
    pub fn rounds_or(&self, default: u32) -> u32 {
        self.rounds.unwrap_or(default).max(1)
    }

    /// Builds the runner: `--threads` beats `WSN_SIM_THREADS` beats
    /// auto-detected core count.
    pub fn runner(&self) -> Runner {
        match self.threads {
            Some(n) => Runner::with_threads(n),
            None => Runner::from_env(),
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: <binary> [superframes] [--threads N] [--reps N] [--rounds N] [--json] \
         [--export-scenario PATH] [--save-dir PATH] [--metrics PATH|-]"
    );
    std::process::exit(2);
}

/// Enables [`wsn_sim::telemetry`] when `--metrics` was given. Call
/// before any simulation work so the whole run is covered.
pub fn init_metrics(args: &RunArgs) {
    if args.metrics.is_some() {
        wsn_sim::telemetry::set_enabled(true);
    }
}

/// Writes the end-of-run telemetry snapshot — one deterministic and one
/// timing JSONL record (`SCHEMA.md` § OBSERVABILITY) — to the
/// `--metrics` path (`-` = stdout) and prints one `# heartbeat:` summary
/// line to stderr. No-op without `--metrics`.
pub fn finish_metrics(args: &RunArgs) {
    let Some(path) = &args.metrics else { return };
    let (det, timing) = wsn_sim::telemetry::snapshot_lines(true);
    let payload = format!("{det}\n{timing}\n");
    if path == "-" {
        print!("{payload}");
    } else if let Err(e) = std::fs::write(path, payload) {
        eprintln!("error: cannot write metrics {path}: {e}");
        std::process::exit(1);
    }
    let snap = wsn_sim::telemetry::snapshot();
    let walls = wsn_sim::telemetry::timing_snapshot();
    let rate = if walls.job.total_ms > 0.0 {
        snap.engine.events as f64 / (walls.job.total_ms / 1e3)
    } else {
        0.0
    };
    eprintln!(
        "# heartbeat: {}/{} done, 0 failed, eta 0.0s, {rate:.0} events/s",
        snap.runner.jobs, snap.runner.jobs
    );
}

/// Logical CPUs the host offers (1 when unknown), recorded as `host_cpus`
/// in every `BENCH_*` document.
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Milliseconds elapsed since `start`, as f64.
pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Canonical output path of the network benchmark document emitted by
/// `case_study --json` and `adaptive --json`.
pub const BENCH_NETWORK_PATH: &str = "BENCH_network.json";

/// Canonical output path of the event-core hot-loop benchmark emitted by
/// `bench_core --json`; CI diffs its `events_per_sec` against the
/// committed baseline (warn-only).
pub const BENCH_CORE_PATH: &str = "BENCH_core.json";

/// Canonical output path of the CFP (GTS + downlink) study emitted by
/// `gts_study --json`, mirroring `BENCH_network.json`'s schema with one
/// point per swept `(gts_nodes, downlink_rate)` cell.
pub const BENCH_CFP_PATH: &str = "BENCH_cfp.json";

/// Canonical output path of the fault-injection study emitted by
/// `churn_study --json`: one point per swept `(death_rate,
/// outage_superframes)` cell, carrying the graceful-degradation curve
/// (delivery ratio and µJ per delivered packet versus churn).
pub const BENCH_FAULTS_PATH: &str = "BENCH_faults.json";

/// Canonical output path of the scale ladder emitted by
/// `bench_scale --json`: one point per decade of single-channel node
/// count (10³ → 10⁶), carrying events/s and µW per node, plus the
/// sharded-vs-unsharded bit-identity verdict.
pub const BENCH_SCALE_PATH: &str = "BENCH_scale.json";

/// Canonical output path of the batch-service benchmark emitted by
/// `batch_run --json`: scenarios/sec over the whole batch, per-scenario
/// wall-clock and `host_cpus`.
pub const BENCH_BATCH_PATH: &str = "BENCH_batch.json";

/// Writes a scenario as saved JSON at `path` (the `--export-scenario`
/// implementation shared by the study binaries), creating parent
/// directories as needed.
///
/// # Panics
///
/// Aborts the process with a message on serialization or I/O failure —
/// these binaries are CLIs, not libraries.
pub fn export_scenario_file(path: &str, saved: &wsn_sim::SavedScenario) {
    let text = match wsn_sim::save_scenario(saved) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot save scenario: {e}");
            std::process::exit(2);
        }
    };
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path} ({} bytes)", text.len());
}

/// Builds the `BENCH_network.json` document, mirroring
/// `BENCH_contention.json`'s schema: the run's elapsed wall-clock, a
/// serial-reference speedup and `host_cpus`, plus one point per channel
/// with its reduced statistics. Per-job timing is not repeated here: the
/// telemetry `job` timing stat reports it under `--metrics`. `extra` pairs
/// (e.g. the adaptive binary's round trajectory) are spliced in before
/// `points`.
#[allow(clippy::too_many_arguments)]
pub fn network_bench_json(
    benchmark: &str,
    superframes: u32,
    replications: u32,
    threads: usize,
    outcome: &wsn_sim::ScenarioOutcome,
    wall_ms: f64,
    serial_wall_ms: Option<f64>,
    extra: Vec<(&'static str, Node)>,
) -> Node {
    let points: Vec<Node> = outcome
        .per_channel
        .iter()
        .enumerate()
        .map(|(c, s)| {
            json::obj(vec![
                ("channel", json::uint(c as u64)),
                ("power_uw", json::num(s.mean_node_power.microwatts())),
                (
                    "power_se_uw",
                    json::num(s.power_standard_error.microwatts()),
                ),
                ("pr_fail", json::num(s.failure_ratio.value())),
                ("pr_fail_se", json::num(s.failure_standard_error)),
                ("delay_s", json::num(s.mean_delay.secs())),
                ("attempts", json::num(s.mean_attempts)),
                ("transactions", json::uint(s.transactions)),
            ])
        })
        .collect();
    let (serial_ms, speedup) = match serial_wall_ms {
        Some(ms) => (json::num(ms), json::num(ms / wall_ms)),
        None => (json::null(), json::null()),
    };
    let mut pairs = vec![
        ("benchmark", json::string(benchmark)),
        ("superframes", json::uint(superframes as u64)),
        ("replications", json::uint(replications as u64)),
        ("threads", json::uint(threads as u64)),
        ("host_cpus", json::uint(host_cpus())),
        ("channels", json::uint(points.len() as u64)),
        ("wall_ms", json::num(wall_ms)),
        ("serial_wall_ms", serial_ms),
        ("speedup_vs_serial", speedup),
        (
            "overall_power_uw",
            json::num(outcome.overall.mean_node_power.microwatts()),
        ),
        (
            "overall_pr_fail",
            json::num(outcome.overall.failure_ratio.value()),
        ),
    ];
    pairs.extend(extra);
    pairs.push(("points", json::arr(points)));
    json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use wsn_sim::persist::{json, render_compact, render_document};

    // The BENCH documents and the `# summary:` record are built with
    // `persist::json`; these pin the rendering the emitters rely on.

    #[test]
    fn json_renders_nested_structures() {
        let doc = json::obj(vec![
            ("name", json::string("fig6")),
            ("threads", json::uint(8)),
            ("speedup", json::num(3.75)),
            ("nan", json::num(f64::NAN)),
            ("points", json::arr(vec![json::uint(1), json::uint(2)])),
            ("empty", json::arr(Vec::new())),
        ]);
        let text = render_document(&doc);
        assert!(text.contains("\"name\": \"fig6\""), "{text}");
        assert!(text.contains("\"speedup\": 3.75"), "{text}");
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
        assert_eq!(
            render_compact(&doc),
            "{\"name\":\"fig6\",\"threads\":8,\"speedup\":3.75,\"nan\":null,\
             \"points\":[1,2],\"empty\":[]}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let doc = json::string("a\"b\\c\nd");
        assert_eq!(render_document(&doc), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(render_compact(&doc), "\"a\\\"b\\\\c\\nd\"");
    }
}
