//! Experiment CORE — hot-loop throughput of the discrete-event core.
//!
//! Everything in this reproduction funnels through one engine loop
//! (`run_channel_sim_into_ws`), so this binary measures that loop as
//! directly as possible and writes the numbers to `BENCH_core.json`,
//! giving the performance trajectory a machine-readable trail across PRs:
//!
//! 1. **Contention grid** — a fixed payloads × loads Figure-6-style grid
//!    run *serially on one explicit workspace*, counting the events the
//!    engine processed: `events_per_sec` is the core throughput metric,
//!    free of thread-pool and reduction overhead.
//! 2. **Policy round** — one closed-loop round of the adaptive
//!    ring-stratified scenario (the policy layer's per-round cost:
//!    compile → grid → reduce → decide), timed end to end.
//! 3. **Telemetry cost** — the same grid re-run with
//!    [`wsn_sim::telemetry`] *enabled* (best of three), asserting the
//!    event count is unchanged (telemetry is inert) and reporting the
//!    enabled-path overhead. The main `events_per_sec` number is always
//!    measured with telemetry disabled, so the committed baseline also
//!    guards the disabled hot-path cost (a branch on an `Option`
//!    handle) against regression.
//!
//! CI regenerates the document on every push and diffs `events_per_sec`
//! against the committed baseline as a *warn-only* gate: host noise never
//! fails the build, but a persistent regression annotates the run.
//!
//! Usage: `cargo run --release -p wsn-bench --bin bench_core [superframes] [--threads N] [--rounds N] [--json]`

use std::time::Instant;

use wsn_bench::{elapsed_ms, host_cpus, RunArgs, BENCH_CORE_PATH};
use wsn_sim::contention::run_channel_sim_into_ws;
use wsn_sim::persist::{json, render_document};
use wsn_sim::policy::{GreedyRebalance, PolicyEngine};
use wsn_sim::scenario::{ChannelAllocation, DeploymentSpec, Scenario};
use wsn_sim::{ChannelSimConfig, SimWorkspace, StatsSink};

/// The fixed contention grid: 3 payloads × 4 loads, 100 nodes each. Fixed
/// so `events_per_sec` is comparable across PRs at equal `superframes`.
fn grid(superframes: u32) -> Vec<ChannelSimConfig> {
    let payloads = [20usize, 50, 100];
    let loads = [0.2, 0.4, 0.6, 0.8];
    let mut configs = Vec::with_capacity(payloads.len() * loads.len());
    for &payload in &payloads {
        for &load in &loads {
            let mut cfg = ChannelSimConfig::figure6(payload, load, 0xC04E + payload as u64);
            cfg.superframes = superframes;
            configs.push(cfg);
        }
    }
    configs
}

/// The policy-round workload: the adaptive binary's ring-stratified
/// scenario, shrunk to one greedy round.
fn policy_scenario(superframes: u32) -> Scenario {
    Scenario::new(
        "bench-core ring-stratified",
        8,
        100,
        DeploymentSpec::Disc {
            radius_m: 60.0,
            exponent: 3.0,
            shadowing_db: 4.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_superframes(superframes)
}

fn main() {
    let args = RunArgs::parse(40);
    let runner = args.runner();
    let rounds = args.rounds_or(1) as usize;

    // --- 1. serial engine throughput over the fixed grid ---------------
    // Best of three passes: the workload is deterministic, so per-pass
    // spread is pure host noise and the minimum is the cleanest estimate
    // of the loop's cost.
    let configs = grid(args.superframes);
    // The headline number is always the disabled hot path, even under
    // `--metrics`: the telemetry pass below measures the enabled cost.
    wsn_sim::telemetry::set_enabled(false);
    let mut ws = SimWorkspace::new();
    let mut total_events = 0u64;
    let mut total_procedures = 0u64;
    let mut grid_wall_ms = f64::INFINITY;
    for pass in 0..3 {
        let mut events = 0u64;
        let mut procedures = 0u64;
        let t0 = Instant::now();
        for cfg in &configs {
            let timings = cfg.timings();
            let mut sink = StatsSink::new();
            events += run_channel_sim_into_ws(cfg, &timings, |_| false, &mut sink, &mut ws);
            procedures += sink.contention_stats().procedures;
        }
        grid_wall_ms = grid_wall_ms.min(elapsed_ms(t0));
        if pass == 0 {
            total_events = events;
            total_procedures = procedures;
        } else {
            assert_eq!(total_events, events, "deterministic workload");
        }
    }
    let events_per_sec = total_events as f64 / (grid_wall_ms / 1e3);

    // --- 1b. the same grid with telemetry enabled ----------------------
    // Asserts the inertness contract (identical event count) and prices
    // the enabled path; best of three like the disabled measurement.
    wsn_sim::telemetry::set_enabled(true);
    let mut telem_events = 0u64;
    let mut telem_wall_ms = f64::INFINITY;
    for pass in 0..3 {
        let mut events = 0u64;
        let t0 = Instant::now();
        for cfg in &configs {
            let timings = cfg.timings();
            let mut sink = StatsSink::new();
            events += run_channel_sim_into_ws(cfg, &timings, |_| false, &mut sink, &mut ws);
        }
        telem_wall_ms = telem_wall_ms.min(elapsed_ms(t0));
        if pass == 0 {
            telem_events = events;
        }
        assert_eq!(events, total_events, "telemetry must be inert");
    }
    wsn_sim::telemetry::set_enabled(args.metrics.is_some());
    let telem_events_per_sec = telem_events as f64 / (telem_wall_ms / 1e3);
    let telem_overhead_pct = (telem_wall_ms / grid_wall_ms - 1.0) * 100.0;

    // --- 2. one closed policy round ------------------------------------
    let scenario = policy_scenario(args.superframes.min(12));
    let engine = PolicyEngine::new(scenario.clone())
        .with_rounds(rounds)
        .run_all_rounds();
    let t1 = Instant::now();
    let trace = engine.run(&runner, &mut GreedyRebalance::new(8));
    let policy_wall_ms = elapsed_ms(t1);

    println!("# Event-core hot loop ({} superframes/point)", args.superframes);
    println!(
        "contention grid : {} points, {} events, {:.1} ms ⇒ {:.0} events/s (serial, 1 workspace)",
        configs.len(),
        total_events,
        grid_wall_ms,
        events_per_sec
    );
    println!(
        "policy round(s) : {} × ({} channels × {} nodes), {:.1} ms ({} threads)",
        trace.rounds.len(),
        scenario.channels,
        scenario.nodes_per_channel,
        policy_wall_ms,
        runner.threads()
    );
    println!(
        "telemetry on    : {:.1} ms ⇒ {:.0} events/s ({:+.1}% vs disabled, events identical)",
        telem_wall_ms, telem_events_per_sec, telem_overhead_pct
    );

    if args.json {
        let doc = json::obj(vec![
            ("benchmark", json::string("core_event_loop")),
            ("superframes", json::uint(args.superframes as u64)),
            ("threads", json::uint(runner.threads() as u64)),
            ("host_cpus", json::uint(host_cpus())),
            (
                "grid",
                json::obj(vec![
                    ("points", json::uint(configs.len() as u64)),
                    ("events", json::uint(total_events)),
                    ("procedures", json::uint(total_procedures)),
                    ("wall_ms", json::num(grid_wall_ms)),
                    ("events_per_sec", json::num(events_per_sec)),
                ]),
            ),
            (
                "policy_round",
                json::obj(vec![
                    ("rounds", json::uint(trace.rounds.len() as u64)),
                    ("channels", json::uint(scenario.channels as u64)),
                    ("nodes", json::uint(scenario.total_nodes() as u64)),
                    ("superframes", json::uint(scenario.superframes as u64)),
                    ("wall_ms", json::num(policy_wall_ms)),
                ]),
            ),
            (
                "telemetry",
                json::obj(vec![
                    ("events", json::uint(telem_events)),
                    ("inert", json::boolean(telem_events == total_events)),
                    ("wall_ms", json::num(telem_wall_ms)),
                    ("enabled_events_per_sec", json::num(telem_events_per_sec)),
                    ("enabled_overhead_pct", json::num(telem_overhead_pct)),
                ]),
            ),
        ]);
        std::fs::write(BENCH_CORE_PATH, render_document(&doc)).expect("write benchmark JSON");
        eprintln!("wrote {BENCH_CORE_PATH}");
    }
    wsn_bench::finish_metrics(&args);
}
