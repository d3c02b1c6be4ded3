//! Experiment FIG6 — reproduces paper Figure 6: behaviour of the slotted
//! CSMA/CA algorithm versus network load for packet payloads of 10, 20, 50
//! and 100 bytes (100 nodes per channel).
//!
//! Prints one CSV block per metric — mean contention duration, mean number
//! of CCAs, collision probability and channel-access-failure probability —
//! as `value±stderr` cells: the standard error of the means comes from the
//! merged per-procedure accumulators, the probability errors are binomial.
//! `--reps N` merges N independent replications per point for tighter
//! errors.
//!
//! The `points × reps` grid is one [`wsn_sim::Runner::sweep_contention`];
//! results are bit-identical for every thread count.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig6 [superframes] [--threads N] [--reps N] [--metrics PATH|-]`

use std::time::Instant;

use wsn_bench::{outln, Flag, RunArgs};
use wsn_sim::{ChannelSimConfig, StatsSink};

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

fn main() {
    let args = RunArgs::parse(60, &[Flag::Reps, Flag::Metrics]);
    wsn_bench::init_metrics(&args);
    let runner = args.runner();
    let reps = args.reps_or(1);

    let payloads = [10usize, 20, 50, 100];
    let loads: Vec<f64> = (1..=18).map(|i| i as f64 * 0.05).collect();
    let configs = configs_for(&payloads, &loads, args.superframes);

    let t0 = Instant::now();
    let rows = runner.sweep_contention(&configs, reps);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    outln!("# Figure 6 — slotted CSMA/CA behaviour, 100 nodes/channel");
    outln!(
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
                    s.contention_us.mean() / 1e3,
                    s.contention_us.standard_error() / 1e3,
                )
            }) as Cell,
        ),
        (
            "mean CCAs per procedure N_CCA (±stderr)",
            Box::new(|s: &StatsSink| (s.ccas.mean(), s.ccas.standard_error())),
        ),
        (
            "collision probability Pr_col (±binomial stderr)",
            Box::new(|s: &StatsSink| (s.collisions.ratio().value(), s.collisions.standard_error())),
        ),
        (
            "channel access failure probability Pr_cf (±binomial stderr)",
            Box::new(|s: &StatsSink| {
                (
                    s.access_failures.ratio().value(),
                    s.access_failures.standard_error(),
                )
            }),
        ),
    ] {
        outln!("\n## {title}");
        let header: String = payloads.iter().map(|p| format!(",{p}B")).collect();
        outln!("load{header}");
        for (load_idx, &load) in loads.iter().enumerate() {
            // Rows are laid out payload-major by construction.
            let cells: String = (0..payloads.len())
                .map(|payload_idx| {
                    let (value, se) = f(&rows[payload_idx * loads.len() + load_idx]);
                    format!(",{value:.4}±{se:.4}")
                })
                .collect();
            outln!("{load:.2}{cells}");
        }
    }

    wsn_bench::finish_metrics(&args);
}
