//! Workspace reuse must be invisible in the results: a [`SimWorkspace`]
//! carried across runs — of any mix of configurations — leaves every
//! trace, summary and policy trace bit-identical to fresh-allocation
//! runs. This is the `merge_algebra`-style counterpart for the
//! zero-allocation fast path: reuse changes wall-clock, never bits.

use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::RadioModel;
use wsn_sim::contention::{run_channel_sim_into_ws, SimTrace};
use wsn_sim::network::{NetworkConfig, TxPowerPolicy};
use wsn_sim::policy::{GreedyRebalance, PolicyEngine};
use wsn_sim::scenario::{DeploymentSpec, Scenario};
use wsn_sim::sink::TraceCollector;
use wsn_sim::{ChannelSimConfig, FaultKind, FaultPlan, NetworkSimulator, Runner, SimWorkspace};
use wsn_units::{DBm, Db, Seconds};

fn cfg(payload: usize, nodes: usize, load: f64, seed: u64) -> ChannelSimConfig {
    let mut c = ChannelSimConfig::figure6(payload, load, seed);
    c.nodes = nodes;
    c.superframes = 6;
    c
}

fn collect(config: &ChannelSimConfig, ws: &mut SimWorkspace) -> (SimTrace, u64) {
    let timings = config.timings();
    let mut collector = TraceCollector::new(timings.superframe_slots);
    let events = run_channel_sim_into_ws(config, &timings, |_| false, &mut collector, ws);
    (collector.into_trace(), events)
}

fn assert_traces_identical(a: &SimTrace, b: &SimTrace, context: &str) {
    assert_eq!(a.attempts, b.attempts, "{context}: attempts");
    assert_eq!(a.transactions, b.transactions, "{context}: transactions");
    assert_eq!(a.gts, b.gts, "{context}: gts");
    assert_eq!(a.downlinks, b.downlinks, "{context}: downlinks");
    assert_eq!(a.faults, b.faults, "{context}: faults");
    assert_eq!(a.overruns, b.overruns, "{context}: overruns");
    assert_eq!(a.superframe_slots, b.superframe_slots, "{context}: slots");
}

#[test]
fn reused_workspace_matches_fresh_allocation_across_mixed_configs() {
    // Big → small → big again: shrinking configurations must not leak
    // stale nodes, offsets or queue entries into later runs.
    let mut cfp = cfg(80, 20, 0.4, 0xDDD);
    cfp.cfp = wsn_sim::plan_channel_cfp(20, 7, 1, 8, 0.5);
    let mut churned = cfg(50, 200, 0.6, 0xEEE);
    churned.cfp = wsn_sim::plan_channel_cfp(200, 9, 1, 8, 0.5);
    churned.faults = FaultPlan::inert()
        .with_churn(0.05, 1, 2)
        .with_outages(0.5, 1);
    let configs = [
        cfg(100, 60, 0.7, 0xAAA),
        cfg(20, 5, 0.1, 0xBBB),
        // Churn, outages, GTS holders and polling: the node-order loops
        // (deaths, beacon bookkeeping, dead-node records, GTS and poll
        // pushes, outage records) run over a larger node set than the
        // runs before and after it.
        churned,
        // A CFP run in the middle: its downlink-offset buffer must not
        // leak into the CAP-only runs around it (and vice versa).
        cfp,
        cfg(100, 60, 0.7, 0xAAA),
        cfg(50, 30, 0.45, 0xCCC),
    ];
    let mut shared = SimWorkspace::new();
    for (i, config) in configs.iter().enumerate() {
        let (reused, reused_events) = collect(config, &mut shared);
        let (fresh, fresh_events) = collect(config, &mut SimWorkspace::new());
        assert_traces_identical(&reused, &fresh, &format!("config {i}"));
        assert_eq!(reused_events, fresh_events, "config {i}: event count");
        if config.faults.is_engine_inert() {
            continue;
        }
        // The churned run reaches the paths it is meant to.
        let kinds = |k: fn(&FaultKind) -> bool| reused.faults.iter().any(|f| k(&f.kind));
        assert!(kinds(|k| *k == FaultKind::Death), "config {i}: no death");
        assert!(kinds(|k| matches!(k, FaultKind::Reassociated { .. })));
        assert!(kinds(|k| *k == FaultKind::MissedBeacon { listened: true }));
        assert!(!reused.gts.is_empty() && !reused.downlinks.is_empty());
    }
}

#[test]
fn identical_configs_give_identical_traces_through_one_workspace() {
    let config = cfg(50, 40, 0.5, 0xD06);
    let mut ws = SimWorkspace::new();
    let (first, ev1) = collect(&config, &mut ws);
    let (second, ev2) = collect(&config, &mut ws);
    assert_traces_identical(&first, &second, "same-config rerun");
    assert_eq!(ev1, ev2);
}

#[test]
fn network_runs_are_identical_across_thread_local_reuse() {
    // `run_streaming` uses the calling thread's implicit workspace, so a
    // second invocation on this thread reuses dirty scratch; a run on a
    // brand-new thread starts from a pristine one. All three must agree.
    let mut channel = cfg(120, 20, 0.4, 0x11EE);
    channel.superframes = 5;
    let nodes = channel.nodes;
    let config = NetworkConfig {
        path_losses: (0..nodes)
            .map(|i| Db::new(58.0 + 35.0 * i as f64 / nodes as f64))
            .collect(),
        channel,
        radio: RadioModel::cc2420(),
        tx_policy: TxPowerPolicy::ChannelInversion {
            target_rx: DBm::new(-88.0),
        },
        coordinator_tx: DBm::new(0.0),
        wakeup_margin: Seconds::from_millis(1.0),
        corrupt_probs: None,
    };
    let ber = EmpiricalCc2420Ber::paper();
    let run = {
        let config = config.clone();
        move || NetworkSimulator::new(config.clone()).run_streaming(&EmpiricalCc2420Ber::paper())
    };

    let warm = NetworkSimulator::new(config.clone()).run_streaming(&ber);
    let reused = NetworkSimulator::new(config.clone()).run_streaming(&ber);
    let pristine = std::thread::spawn(run).join().expect("fresh-thread run");

    for (name, other) in [("reused", &reused), ("pristine thread", &pristine)] {
        assert_eq!(warm.mean_node_power, other.mean_node_power, "{name}");
        assert_eq!(warm.failure_ratio, other.failure_ratio, "{name}");
        assert_eq!(warm.mean_delay, other.mean_delay, "{name}");
        assert_eq!(warm.node_powers, other.node_powers, "{name}");
        assert_eq!(warm.ledger, other.ledger, "{name}");
    }
}

#[test]
fn policy_loop_is_identical_on_warm_and_cold_workspaces() {
    // Two back-to-back closed-loop runs on the same (serial) thread: the
    // second reuses whatever the first left in the workspace, across every
    // round's recompiled grid.
    let scenario = Scenario::new(
        "workspace reuse probe",
        3,
        10,
        DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 90.0,
        },
    )
    .with_superframes(4)
    .with_replications(2);
    let engine = PolicyEngine::new(scenario).with_rounds(3).run_all_rounds();
    let runner = Runner::serial();

    let cold = engine.run(&runner, &mut GreedyRebalance::new(2));
    let warm = engine.run(&runner, &mut GreedyRebalance::new(2));
    assert_eq!(cold.converged_at, warm.converged_at);
    assert_eq!(cold.rounds.len(), warm.rounds.len());
    for (a, b) in cold.rounds.iter().zip(&warm.rounds) {
        assert_eq!(a.assignment, b.assignment, "round {}", a.round);
        assert_eq!(a.moved, b.moved, "round {}", a.round);
        assert_eq!(
            a.outcome.overall.mean_node_power, b.outcome.overall.mean_node_power,
            "round {}",
            a.round
        );
        assert_eq!(
            a.outcome.overall.failure_ratio, b.outcome.overall.failure_ratio,
            "round {}",
            a.round
        );
    }
}
