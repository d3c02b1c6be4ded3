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
//! With `--json`, the sweep is written to `BENCH_cfp.json` — per-point
//! wall-clock, a serial-reference speedup and `host_cpus` — mirroring
//! `BENCH_network.json`'s schema.
//!
//! Usage: `cargo run --release -p wsn-bench --bin gts_study [superframes] [--threads N] [--reps N] [--json]`

use wsn_bench::{elapsed_ms, host_cpus, RunArgs, BENCH_CFP_PATH};
use wsn_sim::persist::{json, render_document, Node};
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
    wall_ms: f64,
}

fn run_sweep(runner: &Runner, superframes: u32, reps: u32) -> (Vec<SweepPoint>, f64) {
    let t0 = std::time::Instant::now();
    let mut points = Vec::new();
    for &dl in &DL_RATES {
        for &gts in &GTS_STEPS {
            let s = scenario(gts, dl, superframes, reps);
            let t = std::time::Instant::now();
            let outcome = s.run(runner);
            points.push(SweepPoint {
                gts_nodes: gts,
                downlink_rate: dl,
                outcome,
                wall_ms: elapsed_ms(t),
            });
        }
    }
    (points, elapsed_ms(t0))
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
    let args = RunArgs::parse(20);
    wsn_bench::init_metrics(&args);
    let reps = args.reps_or(3);
    let runner = args.runner();

    println!(
        "# GTS / downlink study — {CHANNELS} channels × {NODES_PER_CHANNEL} nodes, \
         BO 3, {} superframes × {reps} reps ({} threads)",
        args.superframes,
        runner.threads()
    );
    let (points, wall_ms) = run_sweep(&runner, args.superframes, reps);

    println!(
        "\ngts_nodes,dl_rate,power_uW,power_se_uW,cap_uW,cap_se_uW,cfp_uW,cfp_se_uW,\
         fail_pct,fail_se_pct,gts_denied,dl_polls,dl_deferred"
    );
    for p in &points {
        let o = &p.outcome.overall;
        println!(
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

    println!("\n## readings");
    for &dl in &DL_RATES {
        match crossover(&points, dl) {
            Some(gts) => println!(
                "dl={dl:.2}: CFP energy overtakes CAP energy at {gts} GTS nodes \
                 of {NODES_PER_CHANNEL}"
            ),
            None => println!(
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
    println!(
        "7 GTS nodes cut total node power {:.1} → {:.1} µW and failure \
         {:.1} % → {:.1} % — but a 100-node channel could hand that saving \
         to only 7 % of its population, the paper's scaling argument.",
        cap_only.mean_node_power.microwatts(),
        full_gts.outcome.overall.mean_node_power.microwatts(),
        cap_only.failure_ratio.value() * 100.0,
        full_gts.outcome.overall.failure_ratio.value() * 100.0,
    );

    if args.json {
        // Serial reference pass (always real, as in `adaptive`): the
        // sweep is small, so the recorded speedup stays comparable
        // across hosts.
        let serial_wall_ms = {
            let (_, ms) = run_sweep(&Runner::serial(), args.superframes, reps);
            ms
        };
        let json_points: Vec<Node> = points
            .iter()
            .map(|p| {
                let o = &p.outcome.overall;
                json::obj(vec![
                    ("gts_nodes", json::uint(p.gts_nodes as u64)),
                    ("downlink_rate", json::num(p.downlink_rate)),
                    ("wall_ms", json::num(p.wall_ms)),
                    ("power_uw", json::num(o.mean_node_power.microwatts())),
                    (
                        "power_se_uw",
                        json::num(o.power_standard_error.microwatts()),
                    ),
                    ("cap_uw", json::num(o.cap_power.microwatts())),
                    (
                        "cap_se_uw",
                        json::num(o.cap_power_standard_error.microwatts()),
                    ),
                    ("cfp_uw", json::num(o.cfp_power.microwatts())),
                    (
                        "cfp_se_uw",
                        json::num(o.cfp_power_standard_error.microwatts()),
                    ),
                    ("pr_fail", json::num(o.failure_ratio.value())),
                    ("pr_fail_se", json::num(o.failure_standard_error)),
                    (
                        "gts_denied",
                        json::uint(p.outcome.total_gts_denied() as u64),
                    ),
                    ("gts_transactions", json::uint(o.gts_transactions)),
                    ("downlink_polls", json::uint(o.downlink_polls)),
                    ("downlink_deferred", json::uint(o.downlink_deferred)),
                ])
            })
            .collect();
        let doc = json::obj(vec![
            ("benchmark", json::string("gts_study_cfp")),
            ("superframes", json::uint(args.superframes as u64)),
            ("replications", json::uint(reps as u64)),
            ("threads", json::uint(runner.threads() as u64)),
            ("host_cpus", json::uint(host_cpus())),
            ("channels", json::uint(CHANNELS as u64)),
            ("nodes_per_channel", json::uint(NODES_PER_CHANNEL as u64)),
            ("wall_ms", json::num(wall_ms)),
            ("serial_wall_ms", json::num(serial_wall_ms)),
            ("speedup_vs_serial", json::num(serial_wall_ms / wall_ms)),
            (
                "crossover_gts_nodes",
                crossover(&points, 0.0).map_or(json::null(), |g| json::uint(g as u64)),
            ),
            (
                "crossover_gts_nodes_dl",
                crossover(&points, DL_RATES[1]).map_or(json::null(), |g| json::uint(g as u64)),
            ),
            ("points", json::arr(json_points)),
        ]);
        std::fs::write(BENCH_CFP_PATH, render_document(&doc)).expect("write benchmark JSON");
        eprintln!("wrote {BENCH_CFP_PATH}");
    }
    wsn_bench::finish_metrics(&args);
}
