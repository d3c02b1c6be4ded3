//! Closed-loop channel assignment in ~60 lines: a ring-stratified
//! deployment saturates its outer channel (high failure, high power);
//! `GreedyRebalance` drains it round by round while the `static` baseline
//! watches it burn. Both traces run the same per-round contention seeds,
//! so every printed delta is the policy's doing — and both are
//! bit-identical for every `--threads` value.
//!
//! Run with: `cargo run --release --example adaptive_rebalance -- [superframes] [--threads N] [--reps N] [--rounds N]`

use ieee802154_energy::sim::policy::{GreedyRebalance, PolicyEngine, StaticAllocation};
use ieee802154_energy::sim::scenario::{ChannelAllocation, DeploymentSpec, Scenario};
use wsn_bench::{outln, Flag, RunArgs};

fn main() {
    let args = RunArgs::parse(8, &[Flag::Reps, Flag::Rounds]);
    let runner = args.runner();
    let reps = args.reps_or(2);
    let rounds = args.rounds_or(8) as usize;

    // 4 channels × 16 nodes at BO 3 — a hot channel load (≈0.55), so the
    // outer distance band pays for both its weak links and its queue.
    let scenario = Scenario::new(
        "ring-stratified disc",
        4,
        16,
        DeploymentSpec::Disc {
            radius_m: 60.0,
            exponent: 3.0,
            shadowing_db: 0.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_beacon_order(ieee802154_energy::mac::BeaconOrder::new(3).expect("BO 3 valid"))
    .with_superframes(args.superframes)
    .with_replications(reps);

    let engine = PolicyEngine::new(scenario)
        .with_rounds(rounds)
        .run_all_rounds();
    let static_trace = engine.run(&runner, &mut StaticAllocation);
    let greedy_trace = engine.run(&runner, &mut GreedyRebalance::new(3));

    outln!(
        "adaptive rebalance — 4 channels × 16 nodes, {} superframes × {reps} reps × {rounds} rounds ({} threads)\n",
        args.superframes,
        runner.threads()
    );
    outln!("round | static worst-fail | greedy worst-fail | moved | greedy ch-loads");
    for (s, g) in static_trace.rounds.iter().zip(&greedy_trace.rounds) {
        let mut counts = [0usize; 4];
        for &c in &g.assignment {
            counts[c] += 1;
        }
        outln!(
            "  {:>3} | {:16.1} % | {:16.1} % | {:>5} | {:?}",
            s.round,
            s.worst_failure() * 100.0,
            g.worst_failure() * 100.0,
            g.moved,
            counts
        );
    }

    let static_final = static_trace.final_round().worst_failure();
    let greedy_final = greedy_trace.final_round().worst_failure();
    outln!(
        "\nfinal worst-channel failure: static {:.1} % → greedy {:.1} % ({:+.1} pts)",
        static_final * 100.0,
        greedy_final * 100.0,
        (greedy_final - static_final) * 100.0
    );
    match greedy_trace.rounds_to_stabilize() {
        Some(r) => outln!("greedy stabilized at round {r}"),
        None => outln!("greedy still rebalancing after {rounds} rounds"),
    }
}
