//! Experiment GTS — CAP-only versus contention-free operation.
//!
//! The paper argues GTS "does not fit well in a dense sensor network"
//! because seven descriptors cannot serve hundreds of nodes — but it
//! never quantifies what the seven slots *buy* the nodes that get them,
//! nor what coordinator-to-node (downlink) traffic costs on top of the
//! uplink-only budget. This experiment sweeps both axes on the
//! discrete-event simulator's CFP subsystem (`wsn_sim::cfp`):
//!
//! * **GTS fraction** — 0 to 7 of the channel's nodes move their uplink
//!   into dedicated tail slots (requests resolve through the real
//!   `GtsRegistry`, so denials are part of the result);
//! * **downlink rate** — a fraction of superframes delivers one pending
//!   frame per node through CAP data-request polling, loading the CAP the
//!   uplink model never sees.
//!
//! For every sweep cell the per-node energy splits into CAP (contention,
//! uplink transmission, ACK, IFS) and CFP (GTS + downlink) components
//! with replication-based standard errors, and the study reports the
//! **crossover**: the GTS fraction at which contention-free traffic
//! carries more of the node's energy than CAP contention does. A small
//! channel population (10 nodes) keeps the seven-descriptor table a
//! *majority* of the population, so the crossover is reachable — the
//! dense-network reading (100+ nodes per channel) caps the CFP share at
//! 7 %, which is the paper's argument made quantitative.
//!
//! Usage: `cargo run --release -p wsn-bench --bin gts_study [superframes] [--threads N] [--reps N] [--metrics PATH|-]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_sim::scenario::{DeploymentSpec, Scenario, TrafficSpec};
use wsn_sim::{Runner, ScenarioOutcome};

const CHANNELS: usize = 4;
const NODES_PER_CHANNEL: usize = 10;
const GTS_STEPS: [u32; 5] = [0, 2, 4, 6, 7];
const DL_RATES: [f64; 2] = [0.0, 0.5];

fn scenario(gts_nodes: u32, downlink_rate: f64, superframes: u32, reps: u32) -> Scenario {
    let mut traffic = TrafficSpec::uniform(120);
    if gts_nodes > 0 {
        traffic = traffic.with_gts(1).with_gts_demand(gts_nodes);
    }
    if downlink_rate > 0.0 {
        traffic = traffic.with_downlink(downlink_rate);
    }
    Scenario::new(
        format!("gts{gts_nodes}-dl{downlink_rate}"),
        CHANNELS,
        NODES_PER_CHANNEL,
        DeploymentSpec::UniformLossGrid {
            min_db: 55.0,
            max_db: 90.0,
        },
    )
    .with_traffic(traffic)
    // BO 3 lifts the per-channel load to ≈0.35 despite the small
    // population, so CAP contention is worth relieving.
    .with_beacon_order(wsn_mac::BeaconOrder::new(3).expect("BO 3 valid"))
    .with_superframes(superframes)
    .with_replications(reps)
}

struct SweepPoint {
    gts_nodes: u32,
    downlink_rate: f64,
    outcome: ScenarioOutcome,
}

fn run_sweep(runner: &Runner, superframes: u32, reps: u32) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &dl in &DL_RATES {
        for &gts in &GTS_STEPS {
            points.push(SweepPoint {
                gts_nodes: gts,
                downlink_rate: dl,
                outcome: scenario(gts, dl, superframes, reps).run(runner),
            });
        }
    }
    points
}

/// First swept GTS fraction (at the given downlink rate) whose CFP power
/// exceeds its CAP power.
fn crossover(points: &[SweepPoint], dl: f64) -> Option<u32> {
    points
        .iter()
        .filter(|p| p.downlink_rate == dl)
        .find(|p| {
            p.outcome.overall.cfp_power.microwatts() > p.outcome.overall.cap_power.microwatts()
        })
        .map(|p| p.gts_nodes)
}

fn main() {
    let args = RunArgs::parse(20, &[Flag::Reps, Flag::Metrics]);
    wsn_bench::init_metrics(&args);
    let reps = args.reps_or(3);
    let runner = args.runner();

    outln!(
        "# GTS / downlink study — {CHANNELS} channels × {NODES_PER_CHANNEL} nodes, \
         BO 3, {} superframes × {reps} reps ({} threads)",
        args.superframes,
        runner.threads()
    );
    let points = run_sweep(&runner, args.superframes, reps);

    outln!(
        "\ngts_nodes,dl_rate,power_uW,power_se_uW,cap_uW,cap_se_uW,cfp_uW,cfp_se_uW,\
         fail_pct,fail_se_pct,gts_denied,dl_polls,dl_deferred"
    );
    for p in &points {
        let o = &p.outcome.overall;
        outln!(
            "{},{:.2},{:.1},{:.1},{:.2},{:.2},{:.2},{:.2},{:.1},{:.1},{},{},{}",
            p.gts_nodes,
            p.downlink_rate,
            o.mean_node_power.microwatts(),
            o.power_standard_error.microwatts(),
            o.cap_power.microwatts(),
            o.cap_power_standard_error.microwatts(),
            o.cfp_power.microwatts(),
            o.cfp_power_standard_error.microwatts(),
            o.failure_ratio.value() * 100.0,
            o.failure_standard_error * 100.0,
            p.outcome.total_gts_denied(),
            o.downlink_polls,
            o.downlink_deferred,
        );
    }

    outln!("\n## readings");
    for &dl in &DL_RATES {
        match crossover(&points, dl) {
            Some(gts) => outln!(
                "dl={dl:.2}: CFP energy overtakes CAP energy at {gts} GTS nodes \
                 of {NODES_PER_CHANNEL}"
            ),
            None => outln!(
                "dl={dl:.2}: CAP energy dominates across the whole sweep \
                 (no crossover within 7 descriptors)"
            ),
        }
    }
    let cap_only = &points[0].outcome.overall;
    let full_gts = points
        .iter()
        .find(|p| p.gts_nodes == 7 && p.downlink_rate == 0.0)
        .expect("sweep covers 7 GTS nodes");
    outln!(
        "7 GTS nodes cut total node power {:.1} → {:.1} µW and failure \
         {:.1} % → {:.1} % — but a 100-node channel could hand that saving \
         to only 7 % of its population, the paper's scaling argument.",
        cap_only.mean_node_power.microwatts(),
        full_gts.outcome.overall.mean_node_power.microwatts(),
        cap_only.failure_ratio.value() * 100.0,
        full_gts.outcome.overall.failure_ratio.value() * 100.0,
    );

    wsn_bench::finish_metrics(&args);
}
