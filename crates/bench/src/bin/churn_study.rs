//! Experiment FAULTS — graceful degradation under node churn and
//! coordinator outages.
//!
//! The paper's energy model assumes a static association: every node
//! joined once, before time zero, and the coordinator never misses a
//! beacon. Deployed 802.15.4 networks see neither — batteries die, nodes
//! are replaced, and the coordinator itself browns out. This experiment
//! sweeps the fault plan (`wsn_sim::faults`) on two axes:
//!
//! * **churn rate** — per-node, per-superframe death probability; dead
//!   nodes rejoin through the real association machine (orphan scan,
//!   bounded retries, dormancy on exhaustion), every joule of it billed
//!   to the `Association` ledger phase;
//! * **outage duration** — superframes of coordinator silence per outage
//!   event, during which alive nodes burn orphan-scan listens and GTS
//!   holders lose their descriptors to the reallocation pass.
//!
//! The headline is the **degradation curve**: delivery ratio and µJ per
//! *delivered* packet versus churn. A robust stack degrades smoothly —
//! delivery falls with churn, unit energy rises as orphan scans and
//! re-association exchanges are amortized over fewer deliveries — with
//! no cliff and no livelock (retries are bounded, so the dormant count
//! caps the join traffic).
//!
//! Usage: `cargo run --release -p wsn-bench --bin churn_study [superframes] [--threads N] [--reps N] [--export-scenario PATH] [--metrics PATH|-]`

use wsn_bench::{export_scenario_file, outln, Flag, RunArgs};
use wsn_sim::scenario::{DeploymentSpec, Scenario, TrafficSpec};
use wsn_sim::{FaultPlan, Runner, ScenarioOutcome};

const CHANNELS: usize = 3;
const NODES_PER_CHANNEL: usize = 12;
/// Per-node, per-superframe death probability.
const DEATH_RATES: [f64; 5] = [0.0, 0.01, 0.03, 0.06, 0.10];
/// Coordinator-outage duration in superframes (0 = outages disabled).
const OUTAGE_SF: [u32; 2] = [0, 2];
/// Per-superframe outage probability whenever outages are enabled.
const OUTAGE_RATE: f64 = 0.10;
/// Superframes a dead node stays down before its first rejoin attempt.
const REJOIN_DELAY: u32 = 1;
/// Join attempts before a node gives up and goes dormant.
const MAX_JOIN_RETRIES: u32 = 3;

fn scenario(death_rate: f64, outage_sf: u32, superframes: u32, reps: u32) -> Scenario {
    let mut faults = FaultPlan::inert();
    if death_rate > 0.0 {
        faults = faults.with_churn(death_rate, REJOIN_DELAY, MAX_JOIN_RETRIES);
    }
    if outage_sf > 0 {
        faults = faults.with_outages(OUTAGE_RATE, outage_sf);
    }
    Scenario::new(
        format!("churn{death_rate}-out{outage_sf}"),
        CHANNELS,
        NODES_PER_CHANNEL,
        DeploymentSpec::UniformLossGrid {
            min_db: 55.0,
            max_db: 90.0,
        },
    )
    // GTS + downlink traffic so churn also exercises descriptor
    // reallocation and poll scheduling, not just the CAP.
    .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.3))
    .with_beacon_order(wsn_mac::BeaconOrder::new(3).expect("BO 3 valid"))
    .with_faults(faults)
    .with_superframes(superframes)
    .with_replications(reps)
}

struct SweepPoint {
    death_rate: f64,
    outage_sf: u32,
    outcome: ScenarioOutcome,
}

impl SweepPoint {
    fn delivery_ratio(&self) -> f64 {
        1.0 - self.outcome.overall.failure_ratio.value()
    }
}

fn run_sweep(runner: &Runner, superframes: u32, reps: u32) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &out_sf in &OUTAGE_SF {
        for &death in &DEATH_RATES {
            points.push(SweepPoint {
                death_rate: death,
                outage_sf: out_sf,
                outcome: scenario(death, out_sf, superframes, reps).run(runner),
            });
        }
    }
    points
}

fn main() {
    let args = RunArgs::parse(20, &[Flag::Reps, Flag::ExportScenario, Flag::Metrics]);
    wsn_bench::init_metrics(&args);
    let reps = args.reps_or(3);

    // `--export-scenario`: write the sweep's max-stress point (highest
    // churn, outages on) as saved JSON — the fault-plan fixture for the
    // batch service — instead of running the sweep.
    if let Some(path) = &args.export_scenario {
        let death = DEATH_RATES[DEATH_RATES.len() - 1];
        let out_sf = OUTAGE_SF[OUTAGE_SF.len() - 1];
        let s = scenario(death, out_sf, args.superframes, reps);
        export_scenario_file(path, &wsn_sim::SavedScenario::open_loop(s));
        return;
    }

    let runner = args.runner();

    outln!(
        "# churn / outage study — {CHANNELS} channels × {NODES_PER_CHANNEL} nodes, \
         BO 3, {} superframes × {reps} reps ({} threads)",
        args.superframes,
        runner.threads()
    );
    let points = run_sweep(&runner, args.superframes, reps);

    outln!(
        "\ndeath_rate,outage_sf,delivery_pct,power_uW,uj_per_pkt,deaths,orphan_scans,\
         join_attempts,join_fail_pct,reassoc_s,dormant"
    );
    for p in &points {
        let o = &p.outcome.overall;
        outln!(
            "{:.2},{},{:.1},{:.1},{:.2},{},{},{},{:.1},{:.3},{}",
            p.death_rate,
            p.outage_sf,
            p.delivery_ratio() * 100.0,
            o.mean_node_power.microwatts(),
            o.energy_per_delivered_packet_uj,
            o.deaths,
            o.orphan_scans,
            o.join_attempts,
            o.join_failure_ratio.value() * 100.0,
            o.mean_reassociation_delay.secs(),
            o.dormant_nodes,
        );
    }

    outln!("\n## readings");
    for &out_sf in &OUTAGE_SF {
        let curve: Vec<&SweepPoint> = points.iter().filter(|p| p.outage_sf == out_sf).collect();
        let clean = curve.first().expect("sweep covers death_rate 0");
        let worst = curve.last().expect("sweep covers the max churn rate");
        outln!(
            "outage={out_sf} sf: delivery {:.1} % → {:.1} % and {:.2} → {:.2} µJ/pkt \
             as churn rises 0 → {:.0} %/sf ({} deaths, {} dormant at the top)",
            clean.delivery_ratio() * 100.0,
            worst.delivery_ratio() * 100.0,
            clean.outcome.overall.energy_per_delivered_packet_uj,
            worst.outcome.overall.energy_per_delivered_packet_uj,
            worst.death_rate * 100.0,
            worst.outcome.overall.deaths,
            worst.outcome.overall.dormant_nodes,
        );
        let monotone_deaths = curve
            .windows(2)
            .all(|w| w[0].outcome.overall.deaths <= w[1].outcome.overall.deaths);
        let bounded_joins = curve.iter().all(|p| {
            p.outcome.overall.join_attempts
                <= p.outcome.overall.deaths * (MAX_JOIN_RETRIES as u64 + 1)
        });
        outln!(
            "  deaths monotone in churn: {monotone_deaths}; join attempts bounded by \
             deaths × (retries+1): {bounded_joins}"
        );
    }

    wsn_bench::finish_metrics(&args);
}
