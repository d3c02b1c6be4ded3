//! The scenario layer in one sweep: the same 4-channel network under
//! four configurations — the paper's uniform loss population, a
//! ring-stratified indoor disc, per-channel clusters, and a GTS +
//! downlink variant — each run as parallel replicated simulations with
//! replication-based standard errors.
//!
//! Accepts the figure binaries' flags: `[superframes] [--threads N]
//! [--reps N]`, plus `--save-dir DIR` to write the sweep as saved
//! scenario JSON files (the `wsn_sim::persist` format) instead of
//! running it — ready for `batch_run --dir DIR`.
//!
//! Run with: `cargo run --release --example scenario_sweep -- [superframes] [--threads N] [--reps N] [--save-dir DIR]`

use ieee802154_energy::sim::scenario::{ChannelAllocation, DeploymentSpec, Scenario, TrafficSpec};
use wsn_bench::{export_scenario_file, outln, Flag, RunArgs};
use wsn_sim::SavedScenario;

/// The scenario name as a file stem: lowercase alphanumerics, runs of
/// anything else collapsed to `_`.
fn file_stem(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

fn main() {
    let args = RunArgs::parse(12, &[Flag::Reps, Flag::SaveDir]);
    let reps = args.reps_or(4);
    let scenarios = [
        Scenario::new(
            "uniform 55-95 dB population",
            4,
            50,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 95.0,
            },
        ),
        Scenario::new(
            "indoor disc, ring-stratified",
            4,
            50,
            DeploymentSpec::Disc {
                radius_m: 55.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::RingStratified),
        Scenario::new(
            "clustered, heterogeneous traffic",
            4,
            50,
            DeploymentSpec::Clustered {
                field_radius_m: 50.0,
                cluster_radius_m: 6.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::Contiguous)
        .with_traffic(TrafficSpec::per_channel(vec![40, 80, 120, 123])),
        Scenario::new(
            "uniform with GTS and downlink",
            4,
            50,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 90.0,
            },
        )
        .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.2)),
    ];

    // `--save-dir`: write the sweep as saved scenario files and exit.
    if let Some(dir) = &args.save_dir {
        for scenario in scenarios {
            let scenario = scenario
                .with_superframes(args.superframes)
                .with_replications(reps);
            let path = format!("{dir}/{}.json", file_stem(&scenario.name));
            export_scenario_file(&path, &SavedScenario::open_loop(scenario));
        }
        return;
    }

    let runner = args.runner();
    outln!(
        "scenario sweep — 4 channels × 50 nodes, {} superframes × {reps} replications ({} threads)\n",
        args.superframes,
        runner.threads()
    );
    for scenario in scenarios {
        let outcome = scenario
            .with_superframes(args.superframes)
            .with_replications(reps)
            .run(&runner);
        let o = &outcome.overall;
        outln!("{}", outcome.name);
        outln!(
            "  power    : {:.1} ± {:.1} µW",
            o.mean_node_power.microwatts(),
            o.power_standard_error.microwatts()
        );
        outln!(
            "  failures : {:.1} ± {:.1} %",
            o.failure_ratio.value() * 100.0,
            o.failure_standard_error * 100.0
        );
        outln!("  delay    : {:.2} s", o.mean_delay.secs());
        for (c, s) in outcome.per_channel.iter().enumerate() {
            outln!(
                "    ch{c}: {:6.1} µW, fail {:5.1} %",
                s.mean_node_power.microwatts(),
                s.failure_ratio.value() * 100.0
            );
        }
        outln!();
    }
}
