//! Batch simulation service CLI — run a directory or manifest of saved
//! scenarios ([`wsn_sim::persist`]) as one fault-tolerant job farm.
//!
//! Every scenario file is loaded and validated before anything runs; the
//! whole set then executes on one set of long-lived workers
//! ([`wsn_sim::BatchSet::run_with`]), streaming one compact JSON record
//! per scenario (JSON-lines) plus a final aggregate record. Results are
//! bit-identical to running each scenario alone, for every `--threads`
//! value, any file ordering and any resume point.
//!
//! Fault tolerance:
//!
//! * `--journal FILE` appends an fsync'd progress record per completed
//!   scenario; `--resume` (requires `--journal`) skips scenarios whose
//!   config fingerprint already completed and re-runs changed ones, so a
//!   `kill -9` mid-farm loses at most the waves in flight (eight; one
//!   one-scenario wave under `--timeout-s`).
//! * A panicking scenario becomes a `"status":"failed"` record (retried
//!   `--retries` times) and the rest of the farm keeps running;
//!   `--timeout-s` turns runaway scenarios into `"timeout"` records.
//! * Results go to stdout or a file (`--out`, whose torn final line is
//!   repaired before appending on `--resume`). Pipe stdout onward if the
//!   records must reach a socket.
//!
//! Exit codes: 0 all scenarios ok, 2 usage error, 3 when any scenario
//! failed or timed out (`--strict` additionally stops the farm at the
//! first such record), 1 on operational errors (load, journal, sink).
//! Once the farm has started, every exit path first prints a structured
//! `# summary:` JSON record on stderr (outcome counts and exit code) so
//! scripts never have to scrape prose.
//!
//! With `--metrics PATH|-`, the [`wsn_sim::telemetry`] registry streams
//! JSONL snapshots per wave plus a final one (see `SCHEMA.md` §
//! OBSERVABILITY); telemetry is deterministically inert, so simulation
//! output stays bit-identical.

use std::path::{Path, PathBuf};
use std::time::Duration;

use wsn_sim::persist::{json, render_compact};
use wsn_sim::{
    repair_jsonl_tail, BatchReport, BatchSet, ResultSink, RunConfig, Runner, ScenarioStatus,
    WriteSink,
};

struct BatchArgs {
    dir: Option<String>,
    manifest: Option<String>,
    threads: Option<usize>,
    journal: Option<PathBuf>,
    resume: bool,
    strict: bool,
    retries: u32,
    timeout: Option<Duration>,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

const USAGE: &str = "usage: batch_run (--dir DIR | --manifest FILE) [--threads N]\n\
     \x20                [--journal FILE] [--resume] [--strict] [--retries N] [--timeout-s S]\n\
     \x20                [--out FILE] [--metrics PATH|-] [--help]";

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn help() -> ! {
    println!("{USAGE}");
    println!(
        "\nRun a directory or manifest of saved scenarios as one fault-tolerant\n\
         job farm. One JSON record per scenario (JSON-lines) plus a final\n\
         aggregate record go to stdout, or to FILE with --out (pipe stdout\n\
         onward if the records must reach a socket); progress goes to stderr,\n\
         including a rate-limited\n\
         `# heartbeat: done/total done, N failed, eta S, R events/s` line per\n\
         wave and a final structured `# summary:` JSON record.\n\
         \n\
         --metrics PATH|-  enable wsn_sim::telemetry and stream snapshot pairs\n\
         \x20                 (one deterministic + one timing JSONL record per\n\
         \x20                 wave, then a final pair with \"final\":true) to PATH,\n\
         \x20                 `-` for stdout. Format: SCHEMA.md, OBSERVABILITY\n\
         \x20                 section. Telemetry is deterministically inert:\n\
         \x20                 simulation output is bit-identical with it on/off.\n\
         \n\
         Exit codes:\n\
         \x20 0  every scenario completed ok\n\
         \x20 1  operational error (scenario load, journal I/O, sink failure)\n\
         \x20 2  usage error (bad or missing arguments)\n\
         \x20 3  farm completed but at least one scenario failed or timed out\n\
         \x20    (with --strict the farm stops at the first such record)"
    );
    std::process::exit(0);
}

fn parse_args() -> BatchArgs {
    let mut out = BatchArgs {
        dir: None,
        manifest: None,
        threads: None,
        journal: None,
        resume: false,
        strict: false,
        retries: 0,
        timeout: None,
        out: None,
        metrics: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(path) if !path.is_empty() => out.dir = Some(path),
                _ => usage("--dir requires a directory path"),
            },
            "--manifest" => match args.next() {
                Some(path) if !path.is_empty() => out.manifest = Some(path),
                _ => usage("--manifest requires a file path"),
            },
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
            "--journal" => match args.next() {
                Some(path) if !path.is_empty() => out.journal = Some(PathBuf::from(path)),
                _ => usage("--journal requires a file path"),
            },
            "--resume" => out.resume = true,
            "--strict" => out.strict = true,
            "--retries" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => out.retries = n,
                None => usage("--retries requires a non-negative integer"),
            },
            "--timeout-s" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .and_then(|s| Duration::try_from_secs_f64(s).ok());
                match value {
                    Some(t) => out.timeout = Some(t),
                    None => usage("--timeout-s requires a non-negative number of seconds"),
                }
            }
            "--out" => match args.next() {
                Some(path) if !path.is_empty() => out.out = Some(PathBuf::from(path)),
                _ => usage("--out requires a file path"),
            },
            "--metrics" => match args.next() {
                Some(path) if !path.is_empty() => out.metrics = Some(PathBuf::from(path)),
                _ => usage("--metrics requires a file path or `-` for stdout"),
            },
            "--help" | "-h" => help(),
            other => usage(&format!("unrecognized argument `{other}`")),
        }
    }
    if out.dir.is_some() == out.manifest.is_some() {
        usage("exactly one of --dir or --manifest is required");
    }
    if out.resume && out.journal.is_none() {
        usage("--resume requires --journal (the journal records what completed)");
    }
    if out.metrics.as_deref() == Some(Path::new("-")) && out.out.is_none() {
        usage("--metrics - (stdout) requires --out so scenario records keep their own stream");
    }
    out
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let runner = match args.threads {
        Some(n) => Runner::with_threads(n),
        None => Runner::from_env(),
    };

    let set = if let Some(dir) = &args.dir {
        BatchSet::load_dir(Path::new(dir))
    } else {
        BatchSet::load_manifest(Path::new(args.manifest.as_deref().expect("checked in parse")))
    };
    let set = match set {
        Ok(set) => set,
        Err(e) => fail(e),
    };
    eprintln!(
        "# batch: {} scenarios, {} threads{}{}",
        set.entries().len(),
        runner.threads(),
        match set.batch_seed() {
            Some(seed) => format!(", manifest seed {seed}"),
            None => ", saved seeds".to_string(),
        },
        if args.resume { ", resuming" } else { "" }
    );

    let config = RunConfig {
        journal: args.journal.clone(),
        resume: args.resume,
        strict: args.strict,
        timeout: args.timeout,
        retries: args.retries,
        metrics: args.metrics.clone(),
        heartbeat: true,
    };

    // Build the result sink: stdout or an (append-on-resume) file.
    let stdout = std::io::stdout();
    let mut sink: Box<dyn ResultSink> = if let Some(path) = &args.out {
        if args.resume {
            // Drop the torn final line a killed run left, then append —
            // the concatenated stream stays clean JSONL.
            if let Err(e) = repair_jsonl_tail(path) {
                fail(format_args!("cannot repair {}: {e}", path.display()));
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(args.resume)
            .write(true)
            .truncate(!args.resume)
            .open(path);
        match file {
            // Unbuffered on purpose: a record must reach the OS before its
            // journal entry is fsync'd, or a kill -9 could lose an output
            // line the journal says is done (emit-then-journal). One
            // line-sized write syscall per scenario is noise next to the
            // simulation itself.
            Ok(file) => Box::new(WriteSink::new(file)),
            Err(e) => fail(format_args!("cannot open {}: {e}", path.display())),
        }
    } else {
        Box::new(WriteSink::new(stdout.lock()))
    };

    let run = set.run_with(&runner, sink.as_mut(), &config);
    drop(sink);

    // The farm has started, so every exit path from here first prints
    // the structured `# summary:` record (then exits 1, 3 or 0).
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            emit_summary(None, 1);
            std::process::exit(1);
        }
    };

    eprintln!(
        "# done: {} scenarios ({} skipped, {} failed, {} timed out), {} jobs, {:.0} ms ({:.2} scenarios/s)",
        report.records.len(),
        report.skipped,
        report.failed(),
        report.timed_out(),
        report.jobs,
        report.wall_ms,
        report.scenarios_per_sec()
    );

    // Scripts must be able to tell a clean farm from a degraded one:
    // the summary record carries the counts and the exit code.
    let exit = if report.all_ok() { 0 } else { 3 };
    emit_summary(Some(&report), exit);
    std::process::exit(exit);
}

/// Prints the structured end-of-run record: one `# summary:` line of
/// JSON on stderr with outcome counts, the exit code and (when degraded)
/// the first failing scenario. Emitted on every exit path once the farm
/// has started.
fn emit_summary(report: Option<&BatchReport>, exit: i32) {
    let first_bad = report.and_then(|report| {
        report
            .records
            .iter()
            .find(|r| !r.status.is_ok())
            .map(|r| match &r.status {
                ScenarioStatus::Failed { panic } => format!("{}: failed: {panic}", r.name),
                ScenarioStatus::Timeout => format!("{}: timeout", r.name),
                ScenarioStatus::Ok => unreachable!(),
            })
            .or_else(|| report.strict_aborted.then(|| "strict abort".to_string()))
    });
    let count = |n: usize| json::uint(n as u64);
    let doc = json::obj(vec![
        ("summary", json::uint(1)),
        (
            "ok",
            report.map_or(json::null(), |r| {
                count(r.records.iter().filter(|r| r.status.is_ok()).count())
            }),
        ),
        ("failed", report.map_or(json::null(), |r| count(r.failed()))),
        (
            "timeout",
            report.map_or(json::null(), |r| count(r.timed_out())),
        ),
        ("skipped", report.map_or(json::null(), |r| count(r.skipped))),
        (
            "strict_aborted",
            report.map_or(json::null(), |r| json::boolean(r.strict_aborted)),
        ),
        (
            "first_degraded",
            first_bad.map_or(json::null(), |s| json::string(&s)),
        ),
        ("exit", json::uint(exit as u64)),
    ]);
    eprintln!("# summary: {}", render_compact(&doc));
}
