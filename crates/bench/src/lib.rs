//! Experiment harness crate; see the `fig*` binaries.
//!
//! This library hosts the plumbing every figure binary shares: CLI parsing
//! (`[superframes] [--threads N] [--json]`), construction of the parallel
//! [`Runner`], and a dependency-free JSON emitter for machine-readable
//! benchmark output (`BENCH_contention.json`).

use std::time::Instant;

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
    extra: Vec<(&'static str, Json)>,
) -> Json {
    let points: Vec<Json> = outcome
        .per_channel
        .iter()
        .enumerate()
        .map(|(c, s)| {
            Json::Obj(vec![
                ("channel", Json::Int(c as i64)),
                ("power_uw", Json::Num(s.mean_node_power.microwatts())),
                (
                    "power_se_uw",
                    Json::Num(s.power_standard_error.microwatts()),
                ),
                ("pr_fail", Json::Num(s.failure_ratio.value())),
                ("pr_fail_se", Json::Num(s.failure_standard_error)),
                ("delay_s", Json::Num(s.mean_delay.secs())),
                ("attempts", Json::Num(s.mean_attempts)),
                ("transactions", Json::Int(s.transactions as i64)),
            ])
        })
        .collect();
    let (serial_ms, speedup) = match serial_wall_ms {
        Some(ms) => (Json::Num(ms), Json::Num(ms / wall_ms)),
        None => (Json::Null, Json::Null),
    };
    let mut pairs = vec![
        ("benchmark", Json::Str(benchmark.into())),
        ("superframes", Json::Int(superframes as i64)),
        ("replications", Json::Int(replications as i64)),
        ("threads", Json::Int(threads as i64)),
        (
            "host_cpus",
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as i64)
                    .unwrap_or(1),
            ),
        ),
        ("channels", Json::Int(points.len() as i64)),
        ("wall_ms", Json::Num(wall_ms)),
        ("serial_wall_ms", serial_ms),
        ("speedup_vs_serial", speedup),
        (
            "overall_power_uw",
            Json::Num(outcome.overall.mean_node_power.microwatts()),
        ),
        (
            "overall_pr_fail",
            Json::Num(outcome.overall.failure_ratio.value()),
        ),
    ];
    pairs.extend(extra);
    pairs.push(("points", Json::Arr(points)));
    Json::Obj(pairs)
}

/// A minimal JSON value with a canonical renderer — enough for the
/// benchmark emitters, with no external dependency.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (emitted without a decimal point).
    Int(i64),
    /// Finite float (non-finite values render as `null`).
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: ordered key/value pairs.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no trailing newline, for
    /// machine-parsed records embedded in stderr streams.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{key}\":"));
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("\"{key}\": "));
                    value.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_nested_structures() {
        let doc = Json::Obj(vec![
            ("name", Json::Str("fig6".into())),
            ("threads", Json::Int(8)),
            ("speedup", Json::Num(3.75)),
            ("nan", Json::Num(f64::NAN)),
            ("points", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"fig6\""), "{text}");
        assert!(text.contains("\"speedup\": 3.75"), "{text}");
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn json_escapes_strings() {
        let doc = Json::Str("a\"b\\c\nd".into());
        assert_eq!(doc.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }
}
