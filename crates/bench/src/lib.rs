//! Experiment harness crate; see the `fig*` and study binaries.
//!
//! This library hosts the plumbing every binary shares: CLI parsing
//! ([`RunArgs`], each binary naming the optional [`Flag`]s it
//! implements), construction of the parallel [`Runner`], the `--metrics`
//! telemetry snapshot and the `--export-scenario` writer. Performance is
//! measured by the repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`), not by these binaries.

use wsn_sim::Runner;

/// Writes one line to standard output, like `println!`, for the figure
/// and study binaries and the examples. A reader that stops early
/// (`fig6 | head -1`) ends the process quietly with status 0; any other
/// write error ends it with status 1 and `error: stdout: …` on stderr.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        if let Err(e) = ::std::writeln!(::std::io::stdout().lock(), $($arg)*) {
            if e.kind() == ::std::io::ErrorKind::BrokenPipe {
                ::std::process::exit(0);
            }
            ::std::eprintln!("error: stdout: {e}");
            ::std::process::exit(1);
        }
    }};
}

/// An optional command-line flag a binary implements. Every binary
/// accepts a positional superframe count and `--threads N`; any other
/// argument is a usage error unless the binary passes its flag to
/// [`RunArgs::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--reps N`: independent replications per Monte-Carlo point, for
    /// replication-based standard errors.
    Reps,
    /// `--rounds N`: closed-loop policy rounds.
    Rounds,
    /// `--export-scenario PATH`: write the binary's scenario as saved
    /// JSON ([`wsn_sim::persist`]) instead of running it.
    ExportScenario,
    /// `--save-dir PATH`: write a sweep's scenarios as saved JSON files
    /// into the directory instead of running them.
    SaveDir,
    /// `--metrics PATH|-`: enable [`wsn_sim::telemetry`] and write its
    /// end-of-run snapshot as JSONL — two records, deterministic then
    /// timing; see the repository's `SCHEMA.md` § OBSERVABILITY — to the
    /// path, `-` for stdout. Telemetry is deterministically inert, so all
    /// simulation output is unchanged.
    Metrics,
}

impl Flag {
    /// The flag's spelling and the placeholder of its value.
    fn spelling(self) -> (&'static str, &'static str) {
        match self {
            Flag::Reps => ("--reps", "N"),
            Flag::Rounds => ("--rounds", "N"),
            Flag::ExportScenario => ("--export-scenario", "PATH"),
            Flag::SaveDir => ("--save-dir", "PATH"),
            Flag::Metrics => ("--metrics", "PATH|-"),
        }
    }
}

/// Common command-line arguments of the figure and study binaries.
///
/// `--threads N` sets the worker threads; it overrides the
/// `WSN_SIM_THREADS` environment variable, which in turn overrides
/// auto-detection. The other fields stay `None` unless the binary
/// implements the matching [`Flag`].
#[derive(Debug, Clone, PartialEq)]
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
    /// `--export-scenario <path>`: write the scenario as saved JSON and
    /// exit.
    pub export_scenario: Option<String>,
    /// `--save-dir <path>`: write a sweep's scenarios as saved JSON files
    /// into the directory and exit.
    pub save_dir: Option<String>,
    /// `--metrics <path|->`: enable telemetry and write the end-of-run
    /// snapshot (deterministic + timing JSONL records) there; `-` means
    /// stdout.
    pub metrics: Option<String>,
}

impl RunArgs {
    /// Parses `std::env::args`, falling back to `default_superframes`.
    /// `flags` lists the optional flags the binary implements.
    ///
    /// Any other argument aborts with a usage message and exit status 2
    /// rather than being silently ignored.
    pub fn parse(default_superframes: u32, flags: &[Flag]) -> RunArgs {
        match RunArgs::try_parse(std::env::args().skip(1), default_superframes, flags) {
            Ok(args) => args,
            Err(problem) => {
                eprintln!("error: {problem}");
                let mut line = String::from("usage: <binary> [superframes] [--threads N]");
                for flag in flags {
                    let (name, value) = flag.spelling();
                    line.push_str(&format!(" [{name} {value}]"));
                }
                eprintln!("{line}");
                std::process::exit(2);
            }
        }
    }

    /// [`parse`](Self::parse) over an explicit argument list (program
    /// name excluded), returning the usage problem instead of exiting.
    fn try_parse(
        args: impl IntoIterator<Item = String>,
        default_superframes: u32,
        flags: &[Flag],
    ) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            superframes: default_superframes,
            threads: None,
            reps: None,
            rounds: None,
            export_scenario: None,
            save_dir: None,
            metrics: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--threads" {
                out.threads = Some(positive(&arg, args.next())?);
                continue;
            }
            match flags.iter().find(|f| f.spelling().0 == arg) {
                Some(Flag::Reps) => out.reps = Some(positive(&arg, args.next())?),
                Some(Flag::Rounds) => out.rounds = Some(positive(&arg, args.next())?),
                Some(Flag::ExportScenario) => {
                    out.export_scenario =
                        Some(path(args.next(), "--export-scenario requires a file path")?)
                }
                Some(Flag::SaveDir) => {
                    out.save_dir = Some(path(args.next(), "--save-dir requires a directory path")?)
                }
                Some(Flag::Metrics) => {
                    out.metrics = Some(path(
                        args.next(),
                        "--metrics requires a file path or `-` for stdout",
                    )?)
                }
                None => match arg.parse::<u32>() {
                    Ok(sf) if sf >= 2 => out.superframes = sf,
                    Ok(_) => {
                        return Err("superframes must be at least 2 (the first is warm-up)".into())
                    }
                    Err(_) => return Err(format!("unrecognized argument `{arg}`")),
                },
            }
        }
        Ok(out)
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

/// The positive integer following `flag`.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: Option<String>,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse::<T>().ok())
        .filter(|n| *n != T::from(0))
        .ok_or_else(|| format!("{flag} requires a positive integer"))
}

/// The non-empty path following a flag, or `problem`.
fn path(value: Option<String>, problem: &str) -> Result<String, String> {
    value
        .filter(|p| !p.is_empty())
        .ok_or_else(|| problem.to_string())
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
    if path == "-" {
        outln!("{det}\n{timing}");
    } else if let Err(e) = std::fs::write(path, format!("{det}\n{timing}\n")) {
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
    outln!("wrote {path} ({} bytes)", text.len());
}

#[cfg(test)]
mod tests {
    use super::{Flag, RunArgs};
    use wsn_sim::persist::{json, render_compact, render_document};

    fn parse(args: &[&str], flags: &[Flag]) -> Result<RunArgs, String> {
        RunArgs::try_parse(args.iter().map(|a| a.to_string()), 40, flags)
    }

    const ALL_FLAGS: [Flag; 5] = [
        Flag::Reps,
        Flag::Rounds,
        Flag::ExportScenario,
        Flag::SaveDir,
        Flag::Metrics,
    ];

    #[test]
    fn run_args_reject_json() {
        let err = parse(&["--json"], &ALL_FLAGS).unwrap_err();
        assert_eq!(err, "unrecognized argument `--json`");
    }

    #[test]
    fn run_args_reject_flags_outside_the_binary_set() {
        assert!(parse(&["--rounds", "3"], &[Flag::Reps]).is_err());
        assert!(parse(
            &["--export-scenario", "x.json"],
            &[Flag::Reps, Flag::Metrics]
        )
        .is_err());
        assert!(parse(&["--metrics", "m.jsonl"], &[]).is_err());
        assert_eq!(
            parse(&["--rounds", "3"], &[Flag::Rounds]).unwrap().rounds,
            Some(3)
        );
    }

    #[test]
    fn run_args_reject_zero_threads() {
        let err = parse(&["--threads", "0"], &[]).unwrap_err();
        assert_eq!(err, "--threads requires a positive integer");
        assert!(parse(&["--threads"], &[]).is_err());
        assert!(parse(&["--reps", "0"], &[Flag::Reps]).is_err());
    }

    #[test]
    fn run_args_reject_superframes_below_two() {
        assert!(parse(&["0"], &[]).is_err());
        assert!(parse(&["1"], &[]).is_err());
        assert_eq!(parse(&["2"], &[]).unwrap().superframes, 2);
    }

    #[test]
    fn run_args_fill_every_field() {
        let args = parse(
            &[
                "12",
                "--threads",
                "3",
                "--reps",
                "4",
                "--rounds",
                "5",
                "--export-scenario",
                "s.json",
                "--save-dir",
                "out",
                "--metrics",
                "-",
            ],
            &ALL_FLAGS,
        );
        let expected = RunArgs {
            superframes: 12,
            threads: Some(3),
            reps: Some(4),
            rounds: Some(5),
            export_scenario: Some("s.json".into()),
            save_dir: Some("out".into()),
            metrics: Some("-".into()),
        };
        assert_eq!(args, Ok(expected));
        let defaults = parse(&[], &[]).unwrap();
        assert_eq!((defaults.superframes, defaults.threads), (40, None));
    }

    // `batch_run`'s `# summary:` record is built with `persist::json`;
    // these pin the rendering it relies on.

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
