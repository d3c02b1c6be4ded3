//! Experiment FIG6 — reproduces paper Figure 6: behaviour of the slotted
//! CSMA/CA algorithm versus network load for packet payloads of 10, 20, 50
//! and 100 bytes (100 nodes per channel).
//!
//! Prints one CSV block per metric — mean contention duration, mean number
//! of CCAs, collision probability and channel-access-failure probability —
//! as `value±stderr` cells: the standard error of the means comes from the
//! merged per-procedure accumulators, the probability errors are binomial.
//! `--reps N` merges N independent replications per point (seeds derived
//! with the splitmix scheme) for tighter errors.
//!
//! The `points × reps` grid runs as independent simulations on the
//! parallel [`Runner`]; results are bit-identical to the serial sweep.
//!
//! With `--json`, per-point wall-clock and statistics — plus a serial
//! reference timing and the resulting speedup — are written to
//! `BENCH_contention.json` so the performance trajectory is machine
//! readable across PRs.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig6 [superframes] [--threads N] [--reps N] [--json]`

use std::time::Instant;

use wsn_bench::{elapsed_ms, host_cpus, RunArgs};
use wsn_sim::contention::run_channel_sim_into;
use wsn_sim::persist::{json, render_document, Node};
use wsn_sim::{replication_seed, ChannelSimConfig, Runner, StatsSink};

fn configs_for(payloads: &[usize], loads: &[f64], superframes: u32) -> Vec<ChannelSimConfig> {
    let mut configs = Vec::with_capacity(payloads.len() * loads.len());
    for &payload in payloads {
        for &load in loads {
            let mut cfg = ChannelSimConfig::figure6(payload, load, 0xF166 + payload as u64);
            cfg.superframes = superframes;
            configs.push(cfg);
        }
    }
    configs
}

/// Runs the sweep with `reps` replications per point, timing each job;
/// returns `(merged_sink, point_wall_ms)` in config order plus the total
/// wall-clock in milliseconds. Replication 0 keeps the point's base seed
/// so a single-replication sweep matches the pre-replication outputs;
/// further replications derive their seeds with [`replication_seed`].
fn timed_sweep(
    runner: &Runner,
    configs: &[ChannelSimConfig],
    reps: u32,
) -> (Vec<(StatsSink, f64)>, f64) {
    let t0 = Instant::now();
    let shards = runner.map_replicated(configs, reps, |_, base, r| {
        let t = Instant::now();
        let mut cfg = base.clone();
        if r > 0 {
            cfg.seed = replication_seed(base.seed, r);
        }
        let timings = cfg.timings();
        let mut sink = StatsSink::new();
        run_channel_sim_into(&cfg, &timings, |_| false, &mut sink);
        (sink, elapsed_ms(t))
    });
    let rows = shards
        .into_iter()
        .map(|point_shards| {
            let mut merged = StatsSink::new();
            let mut ms = 0.0;
            for (sink, shard_ms) in &point_shards {
                merged.merge(sink);
                ms += shard_ms;
            }
            (merged, ms)
        })
        .collect();
    let total = elapsed_ms(t0);
    (rows, total)
}

fn main() {
    let args = RunArgs::parse(60);
    wsn_bench::init_metrics(&args);
    let runner = args.runner();
    let reps = args.reps_or(1);

    let payloads = [10usize, 20, 50, 100];
    let loads: Vec<f64> = (1..=18).map(|i| i as f64 * 0.05).collect();
    let configs = configs_for(&payloads, &loads, args.superframes);

    let (rows, wall_ms) = timed_sweep(&runner, &configs, reps);

    println!("# Figure 6 — slotted CSMA/CA behaviour, 100 nodes/channel");
    println!(
        "# ({} superframes per point, {} replication(s), standard CSMA parameters, {} threads, {:.0} ms)",
        args.superframes,
        reps,
        runner.threads(),
        wall_ms
    );
    type Cell = Box<dyn Fn(&StatsSink) -> (f64, f64)>;
    for (title, f) in [
        (
            "mean contention duration T_cont [ms] (±stderr)",
            Box::new(|s: &StatsSink| {
                (
                    s.contention.contention_us.mean() / 1e3,
                    s.contention.contention_us.standard_error() / 1e3,
                )
            }) as Cell,
        ),
        (
            "mean CCAs per procedure N_CCA (±stderr)",
            Box::new(|s: &StatsSink| {
                (s.contention.ccas.mean(), s.contention.ccas.standard_error())
            }),
        ),
        (
            "collision probability Pr_col (±binomial stderr)",
            Box::new(|s: &StatsSink| {
                (
                    s.contention.collisions.ratio().value(),
                    s.contention.collisions.standard_error(),
                )
            }),
        ),
        (
            "channel access failure probability Pr_cf (±binomial stderr)",
            Box::new(|s: &StatsSink| {
                (
                    s.contention.access_failures.ratio().value(),
                    s.contention.access_failures.standard_error(),
                )
            }),
        ),
    ] {
        println!("\n## {title}");
        print!("load");
        for &p in &payloads {
            print!(",{p}B");
        }
        println!();
        for (load_idx, &load) in loads.iter().enumerate() {
            print!("{load:.2}");
            for payload_idx in 0..payloads.len() {
                // Rows are laid out payload-major by construction.
                let (sink, _) = &rows[payload_idx * loads.len() + load_idx];
                let (value, se) = f(sink);
                print!(",{value:.4}±{se:.4}");
            }
            println!();
        }
    }

    if args.json {
        // Serial reference pass for the recorded speedup (skipped when the
        // sweep already ran single-threaded — it would be the same run).
        let (serial_wall_ms, speedup) = if runner.threads() > 1 {
            let (_, serial_ms) = timed_sweep(&Runner::serial(), &configs, reps);
            (json::num(serial_ms), json::num(serial_ms / wall_ms))
        } else {
            (json::null(), json::null())
        };

        let points: Vec<Node> = configs
            .iter()
            .zip(&rows)
            .map(|(cfg, (sink, point_ms))| {
                let stats = sink.contention_stats();
                json::obj(vec![
                    (
                        "payload_bytes",
                        json::uint(cfg.packet.payload_bytes() as u64),
                    ),
                    ("load", json::num(cfg.load)),
                    ("wall_ms", json::num(*point_ms)),
                    ("t_cont_ms", json::num(stats.mean_contention.millis())),
                    (
                        "t_cont_se_ms",
                        json::num(sink.contention.contention_us.standard_error() / 1e3),
                    ),
                    ("n_cca", json::num(stats.mean_ccas)),
                    ("n_cca_se", json::num(sink.contention.ccas.standard_error())),
                    ("pr_col", json::num(stats.pr_collision.value())),
                    (
                        "pr_col_se",
                        json::num(sink.contention.collisions.standard_error()),
                    ),
                    ("pr_cf", json::num(stats.pr_access_failure.value())),
                    (
                        "pr_cf_se",
                        json::num(sink.contention.access_failures.standard_error()),
                    ),
                    ("procedures", json::uint(stats.procedures)),
                ])
            })
            .collect();

        let doc = json::obj(vec![
            ("benchmark", json::string("fig6_contention_sweep")),
            ("superframes", json::uint(args.superframes as u64)),
            ("replications", json::uint(reps as u64)),
            ("threads", json::uint(runner.threads() as u64)),
            ("host_cpus", json::uint(host_cpus())),
            ("points_total", json::uint(points.len() as u64)),
            ("wall_ms", json::num(wall_ms)),
            ("serial_wall_ms", serial_wall_ms),
            ("speedup_vs_serial", speedup),
            ("points", json::arr(points)),
        ]);
        let path = "BENCH_contention.json";
        std::fs::write(path, render_document(&doc)).expect("write benchmark JSON");
        eprintln!("wrote {path}");
    }
    wsn_bench::finish_metrics(&args);
}
