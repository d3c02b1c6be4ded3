//! Experiment ADAPT — closed-loop adaptive channel assignment.
//!
//! The paper's §5 allocation is static round-robin; PR 2's ring-stratified
//! ablation showed the outer channels saturating (failure and power climb)
//! while inner channels idle. This experiment runs the
//! `wsn_sim::policy` subsystem over three scenarios where that asymmetry
//! bites —
//!
//! 1. **ring-stratified indoor disc** — channel `c` takes the `c`-th
//!    distance band, so the outer channels concentrate the weak links;
//! 2. **per-channel clusters** — one compact cluster per channel at
//!    different link budgets;
//! 3. **asymmetric channel quality** — identical populations but rising
//!    per-channel receiver noise figures
//!    ([`Scenario::with_channel_ber`]), the channel-quality seam promoted
//!    from scenario-wide to per-channel;
//! 4. **ring-stratified + GTS/downlink** — the same saturating outer
//!    rings, but with contention-free traffic in play: seven nodes per
//!    channel hold GTS uplinks and a quarter of the superframes poll
//!    each node for a downlink frame, so policies observe (and their
//!    moves perturb) CFP load alongside CAP contention;
//!
//! — and compares three [`AllocationPolicy`]s on each: the `static`
//! baseline, `greedy-rebalance` (move nodes off the worst-failure
//! channel) and `proportional-fair` (node counts ∝ inverse observed
//! failure). All policies observe only per-channel statistics, exactly
//! what a real coordinator could measure. Every trace is bit-identical
//! for every `--threads` value.
//!
//! Usage: `cargo run --release -p wsn-bench --bin adaptive [superframes] [--threads N] [--reps N] [--rounds N] [--metrics PATH|-]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_sim::policy::{
    AllocationPolicy, GreedyRebalance, PolicyEngine, PolicyTrace, ProportionalFair,
    StaticAllocation,
};
use wsn_sim::scenario::{BerChoice, ChannelAllocation, DeploymentSpec, Scenario, TrafficSpec};

fn scenarios(superframes: u32, reps: u32) -> Vec<Scenario> {
    let channels = 8;
    let nodes = 100;
    vec![
        Scenario::new(
            "ring-stratified disc",
            channels,
            nodes,
            DeploymentSpec::Disc {
                radius_m: 60.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::RingStratified),
        Scenario::new(
            "per-channel clusters",
            channels,
            nodes,
            DeploymentSpec::Clustered {
                field_radius_m: 55.0,
                cluster_radius_m: 6.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::Contiguous),
        Scenario::new(
            "asymmetric channel quality",
            channels,
            nodes,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 90.0,
            },
        )
        .with_channel_ber(
            // One model family across the sweep (offsets on the paper's
            // nominal 23 dB DSSS figure) so the gradient is the 0.75 dB
            // step, not a model discontinuity.
            (0..channels)
                .map(|c| {
                    BerChoice::HardDecisionDsss {
                        noise_figure_db: 23.0,
                    }
                    .with_noise_offset(c as f64 * 0.75)
                })
                .collect(),
        ),
        Scenario::new(
            "ring-stratified + GTS/downlink",
            channels,
            nodes,
            DeploymentSpec::Disc {
                radius_m: 60.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::RingStratified)
        // Seven of each channel's hundred nodes win a GTS (the registry
        // denies the rest — the paper's scaling limit) and downlink
        // polling loads the CAP with data requests on top of the uplink.
        .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.25)),
    ]
    .into_iter()
    .map(|s| s.with_superframes(superframes).with_replications(reps))
    .collect()
}

fn policies() -> Vec<Box<dyn AllocationPolicy>> {
    vec![
        Box::new(StaticAllocation),
        Box::new(GreedyRebalance::new(8)),
        Box::new(ProportionalFair::default()),
    ]
}

// Wall-clock stays out of these rows so the stdout tables are
// byte-identical across runs and thread counts — CI diffs them.
fn print_trace(scenario: &str, trace: &PolicyTrace) {
    for round in &trace.rounds {
        outln!(
            "{scenario},{},{},{:.2},{:.1},{:.1},{:.4},{}",
            trace.policy,
            round.round,
            round.worst_failure() * 100.0,
            round.outcome.overall.mean_node_power.microwatts(),
            round.outcome.overall.cfp_power.microwatts(),
            round.outcome.overall.ledger.total_energy().joules(),
            round.moved
        );
    }
}

fn main() {
    let args = RunArgs::parse(16, &[Flag::Reps, Flag::Rounds, Flag::Metrics]);
    wsn_bench::init_metrics(&args);
    let runner = args.runner();
    let reps = args.reps_or(2);
    let rounds = args.rounds_or(6) as usize;

    outln!(
        "# Adaptive channel assignment — 8 channels × 100 nodes, \
         {} superframes × {reps} reps × {rounds} rounds ({} threads)",
        args.superframes,
        runner.threads()
    );
    outln!("\n## per-round trajectories");
    outln!("scenario,policy,round,worst_fail_pct,power_uW,cfp_uW,energy_J,moved");

    // (scenario, policy) → trace, every policy on every scenario. Rounds
    // align across policies (no early stop), so per-round columns compare
    // the same per-round contention seeds under different assignments.
    let mut results: Vec<(String, Vec<PolicyTrace>)> = Vec::new();
    for scenario in scenarios(args.superframes, reps) {
        let engine = PolicyEngine::new(scenario.clone())
            .with_rounds(rounds)
            .run_all_rounds();
        let mut traces = Vec::new();
        for mut policy in policies() {
            let trace = engine.run(&runner, policy.as_mut());
            print_trace(&scenario.name, &trace);
            traces.push(trace);
        }
        results.push((scenario.name.clone(), traces));
    }

    outln!("\n## summary (final round vs the static baseline)");
    outln!(
        "scenario,policy,final_worst_fail_pct,delta_vs_static_pct,rounds_to_stabilize,total_moved"
    );
    for (scenario, traces) in &results {
        let static_final = traces[0].final_round().worst_failure();
        for trace in traces {
            let final_worst = trace.final_round().worst_failure();
            outln!(
                "{scenario},{},{:.2},{:+.2},{},{}",
                trace.policy,
                final_worst * 100.0,
                (final_worst - static_final) * 100.0,
                trace
                    .converged_at
                    .map_or("never".to_string(), |r| r.to_string()),
                trace.rounds.iter().map(|r| r.moved).sum::<usize>()
            );
        }
    }
    outln!(
        "⇒ rebalancing is pure load relief: nodes keep their links, only \
         their contention population changes — the lever the paper's \
         static 16-channel split leaves unused."
    );

    wsn_bench::finish_metrics(&args);
}
