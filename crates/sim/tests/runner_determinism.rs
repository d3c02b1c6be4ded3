//! The parallel runner's contract: for a fixed master seed its output is
//! bit-identical to the serial engine's, for every thread count, and the
//! streaming reduction is bit-identical to trace-then-reduce. The same
//! guarantee covers the network layer: the scenario grid equals serial
//! network runs reduced in replication order, and whole scenarios merge
//! to bit-identical summaries for every thread count.

use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::RadioModel;
use wsn_sim::contention::run_channel_sim;
use wsn_sim::network::{NetworkAccumulator, NetworkConfig, NetworkSummary, TxPowerPolicy};
use wsn_sim::policy::{GreedyRebalance, PolicyEngine, ProportionalFair};
use wsn_sim::scenario::{BerChoice, ChannelAllocation, DeploymentSpec, Scenario, TrafficSpec};
use wsn_sim::{
    replication_seed, simulate_contention, BatchReport, BatchSet, ChannelSimConfig, FaultPlan,
    NetworkSimulator, RunConfig, Runner, StatsSink, WriteSink,
};
use wsn_units::{DBm, Db, Seconds};

fn point(payload: usize, load: f64, seed: u64) -> ChannelSimConfig {
    let mut cfg = ChannelSimConfig::figure6(payload, load, seed);
    cfg.superframes = 8;
    cfg
}

fn network_point(nodes: usize, seed: u64) -> NetworkConfig {
    let mut channel = point(120, 0.4, seed);
    channel.nodes = nodes;
    channel.superframes = 5;
    NetworkConfig {
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
    }
}

/// Bit-exact equality on every scalar of a summary.
fn assert_summaries_identical(a: &NetworkSummary, b: &NetworkSummary, context: &str) {
    assert_eq!(a.mean_node_power, b.mean_node_power, "{context}: power");
    assert_eq!(a.failure_ratio, b.failure_ratio, "{context}: failures");
    assert_eq!(a.transactions, b.transactions, "{context}: transactions");
    assert_eq!(a.mean_delay, b.mean_delay, "{context}: delay");
    assert_eq!(a.mean_attempts, b.mean_attempts, "{context}: attempts");
    assert_eq!(
        a.energy_per_bit_nj, b.energy_per_bit_nj,
        "{context}: energy/bit"
    );
    assert_eq!(a.replications, b.replications, "{context}: reps");
    assert_eq!(
        a.power_standard_error, b.power_standard_error,
        "{context}: power se"
    );
    assert_eq!(
        a.failure_standard_error, b.failure_standard_error,
        "{context}: failure se"
    );
    assert_eq!(
        a.delay_standard_error, b.delay_standard_error,
        "{context}: delay se"
    );
    assert_eq!(a.node_powers, b.node_powers, "{context}: node powers");
    assert_eq!(a.cap_power, b.cap_power, "{context}: cap power");
    assert_eq!(a.cfp_power, b.cfp_power, "{context}: cfp power");
    assert_eq!(
        a.cap_power_standard_error, b.cap_power_standard_error,
        "{context}: cap power se"
    );
    assert_eq!(
        a.cfp_power_standard_error, b.cfp_power_standard_error,
        "{context}: cfp power se"
    );
    assert_eq!(
        a.gts_transactions, b.gts_transactions,
        "{context}: gts txns"
    );
    assert_eq!(
        a.gts_failure_ratio, b.gts_failure_ratio,
        "{context}: gts failures"
    );
    assert_eq!(a.gts_denied, b.gts_denied, "{context}: gts denied");
    assert_eq!(a.downlink_polls, b.downlink_polls, "{context}: dl polls");
    assert_eq!(
        a.downlink_failure_ratio, b.downlink_failure_ratio,
        "{context}: dl failures"
    );
    assert_eq!(
        a.downlink_deferred, b.downlink_deferred,
        "{context}: dl deferred"
    );
    assert_eq!(a.deaths, b.deaths, "{context}: deaths");
    assert_eq!(a.orphan_scans, b.orphan_scans, "{context}: orphan scans");
    assert_eq!(a.join_attempts, b.join_attempts, "{context}: join attempts");
    assert_eq!(
        a.join_failure_ratio, b.join_failure_ratio,
        "{context}: join failures"
    );
    assert_eq!(
        a.mean_reassociation_delay, b.mean_reassociation_delay,
        "{context}: reassoc delay"
    );
    assert_eq!(a.dormant_nodes, b.dormant_nodes, "{context}: dormant");
    assert_eq!(
        a.energy_per_delivered_packet_uj, b.energy_per_delivered_packet_uj,
        "{context}: energy/packet"
    );
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_engine() {
    // A miniature Figure-6 grid: 2 payloads × 5 loads.
    let configs: Vec<ChannelSimConfig> = [20usize, 100]
        .iter()
        .flat_map(|&p| (1..=5).map(move |i| point(p, i as f64 * 0.15, 0xF166 + p as u64)))
        .collect();

    // Reference: the serial engine, point by point.
    let serial: Vec<_> = configs.iter().map(simulate_contention).collect();

    for threads in [1, 2, 4, 8] {
        let parallel: Vec<_> = Runner::with_threads(threads)
            .sweep_contention(&configs, 1)
            .iter()
            .map(StatsSink::contention_stats)
            .collect();
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

#[test]
fn parallel_replications_are_bit_identical_to_serial() {
    let base = point(50, 0.42, 0xB0B);
    // Reference: six traces run one by one on this thread, reduced and
    // merged in replication order; replication 0 keeps the base seed.
    let mut serial = StatsSink::new();
    for r in 0..6 {
        let mut cfg = base.clone();
        if r > 0 {
            cfg.seed = replication_seed(base.seed, r);
        }
        let mut sink = StatsSink::new();
        run_channel_sim(&cfg, |_| false).replay(&mut sink);
        serial.merge(&sink);
    }
    for threads in [1, 2, 3, 6, 12] {
        let parallel =
            Runner::with_threads(threads).sweep_contention(std::slice::from_ref(&base), 6);
        assert_eq!(parallel, [serial], "threads={threads}");
    }
}

#[test]
fn streaming_reduction_equals_trace_reduction() {
    let cfg = point(100, 0.6, 0x7EA);
    let trace = run_channel_sim(&cfg, |_| false);
    let mut sink = StatsSink::new();
    trace.replay(&mut sink);
    assert_eq!(simulate_contention(&cfg), sink.contention_stats());
}

#[test]
fn runner_output_is_reproducible_across_invocations() {
    let configs = [point(50, 0.42, 42), point(100, 0.6, 43)];
    let a = Runner::from_env().sweep_contention(&configs, 2);
    let b = Runner::from_env().sweep_contention(&configs, 2);
    assert_eq!(a, b);
}

/// A scenario grid over explicit network configs: `replications` per
/// channel, run through `Scenario::run_with`.
fn grid_probe(replications: u32) -> Scenario {
    Scenario::new(
        "network grid probe",
        5,
        12,
        DeploymentSpec::UniformLossGrid {
            min_db: 58.0,
            max_db: 93.0,
        },
    )
    .with_replications(replications)
}

/// Replication `r` of a grid channel, run serially: the channel's config
/// reseeded with `replication_seed(seed, r)`.
fn serial_replication(cfg: &NetworkConfig, r: u64) -> NetworkSimulator {
    let mut cfg = cfg.clone();
    cfg.channel.seed = replication_seed(cfg.channel.seed, r);
    NetworkSimulator::new(cfg)
}

#[test]
fn network_sweep_is_bit_identical_to_serial_streaming() {
    let ber = EmpiricalCc2420Ber::paper();
    let configs: Vec<NetworkConfig> = (0..5u64).map(|c| network_point(12, 0x4E7 + c)).collect();

    // Reference: one serial streaming run per config, replication 0's seed.
    let serial: Vec<NetworkSummary> = configs
        .iter()
        .map(|cfg| {
            let (mut acc, _) = serial_replication(cfg, 0).run_accumulate_counted(&ber);
            acc.seal_replication();
            acc.summary()
        })
        .collect();

    for threads in [1, 2, 4] {
        let grid = grid_probe(1).run_with(&Runner::with_threads(threads), &configs, &ber);
        assert_eq!(grid.per_channel.len(), serial.len());
        for (a, b) in serial.iter().zip(&grid.per_channel) {
            assert_summaries_identical(a, b, &format!("sweep threads={threads}"));
        }
    }
}

#[test]
fn network_replications_are_bit_identical_across_1_2_4_threads() {
    let ber = EmpiricalCc2420Ber::paper();
    let configs: Vec<NetworkConfig> = (0..3u64).map(|c| network_point(15, 0xBEE + c)).collect();
    let reps = 4u32;

    // Reference: serial runs, each sealed and merged in replication order.
    let serial: Vec<NetworkSummary> = configs
        .iter()
        .map(|cfg| {
            let mut merged = NetworkAccumulator::new();
            for r in 0..u64::from(reps) {
                let (mut acc, _) = serial_replication(cfg, r).run_accumulate_counted(&ber);
                acc.seal_replication();
                merged.merge(&acc);
            }
            merged.summary()
        })
        .collect();
    assert!(serial.iter().all(|s| s.replications == reps));

    for threads in [1, 2, 4] {
        let grid = grid_probe(reps).run_with(&Runner::with_threads(threads), &configs, &ber);
        for (c, (a, b)) in serial.iter().zip(&grid.per_channel).enumerate() {
            assert_summaries_identical(a, b, &format!("replicate ch{c} threads={threads}"));
        }
    }
}

#[test]
fn scenario_runs_are_bit_identical_across_1_2_4_threads() {
    // A geometric, heterogeneous-traffic scenario exercises deployment
    // compilation, per-channel loads and the two-level (channel ×
    // replication) reduction at once.
    let scenario = Scenario::new(
        "determinism probe",
        3,
        8,
        DeploymentSpec::Disc {
            radius_m: 40.0,
            exponent: 3.0,
            shadowing_db: 3.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_traffic(TrafficSpec::per_channel(vec![60, 100, 123]))
    .with_superframes(4)
    .with_replications(3);

    let serial = scenario.run(&Runner::with_threads(1));
    for threads in [2, 4] {
        let parallel = scenario.run(&Runner::with_threads(threads));
        assert_summaries_identical(
            &serial.overall,
            &parallel.overall,
            &format!("scenario overall threads={threads}"),
        );
        for (c, (a, b)) in serial
            .per_channel
            .iter()
            .zip(&parallel.per_channel)
            .enumerate()
        {
            assert_summaries_identical(a, b, &format!("scenario ch{c} threads={threads}"));
        }
    }
    assert_eq!(serial.overall.replications, 3);
}

/// The closed policy loop is a round-by-round composition of runner
/// reductions and pure policy decisions, so its entire trace — the
/// assignments chosen, nodes moved, convergence round and every round's
/// summaries — must be bit-identical for 1, 2 and 4 worker threads.
#[test]
fn policy_loop_is_bit_identical_across_1_2_4_threads() {
    let scenario = Scenario::new(
        "policy determinism probe",
        3,
        12,
        DeploymentSpec::Disc {
            radius_m: 55.0,
            exponent: 3.0,
            shadowing_db: 3.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_channel_ber(vec![
        BerChoice::EmpiricalCc2420,
        BerChoice::HardDecisionDsss {
            noise_figure_db: 24.0,
        },
        BerChoice::HardDecisionDsss {
            noise_figure_db: 27.0,
        },
    ])
    .with_superframes(4)
    .with_replications(2);
    let engine = PolicyEngine::new(scenario).with_rounds(4).run_all_rounds();

    let serial = engine.run(&Runner::with_threads(1), &mut GreedyRebalance::new(2));
    for threads in [2, 4] {
        let parallel = engine.run(&Runner::with_threads(threads), &mut GreedyRebalance::new(2));
        assert_eq!(
            serial.converged_at, parallel.converged_at,
            "threads={threads}: convergence round"
        );
        assert_eq!(serial.rounds.len(), parallel.rounds.len());
        for (a, b) in serial.rounds.iter().zip(&parallel.rounds) {
            let context = format!("threads={threads} round={}", a.round);
            assert_eq!(a.assignment, b.assignment, "{context}: assignment");
            assert_eq!(a.moved, b.moved, "{context}: moved");
            assert_summaries_identical(
                &a.outcome.overall,
                &b.outcome.overall,
                &format!("{context} overall"),
            );
            for (c, (x, y)) in a
                .outcome
                .per_channel
                .iter()
                .zip(&b.outcome.per_channel)
                .enumerate()
            {
                assert_summaries_identical(x, y, &format!("{context} ch{c}"));
            }
        }
    }
    // The rebalancer actually acted in this configuration — the guarantee
    // above is not vacuous.
    assert!(serial.rounds.iter().any(|r| r.moved > 0));
}

/// Every round of the policy loop reproduces, bit for bit, compiling and
/// running the same round by hand: the round's drifted losses through
/// `compile_assignment_with_losses` (which carries no precomputed
/// probabilities), its downlink boost, then `run_compiled`. Drifting
/// faults give the rounds several distinct loss drifts, and
/// downlink-burst rounds pin that the boost composes with them. The loop
/// once cached corruption probabilities per drift; the name is kept from
/// then.
#[test]
fn policy_corruption_cache_matches_uncached_rounds_bitwise() {
    let scenario = Scenario::new(
        "cache equivalence probe",
        2,
        10,
        DeploymentSpec::UniformLossGrid {
            min_db: 58.0,
            max_db: 90.0,
        },
    )
    .with_superframes(4)
    .with_replications(2)
    .with_faults(FaultPlan::inert().with_drift(2.5, 3).with_bursts(4, 0.3));
    let runner = Runner::with_threads(1);
    let rounds = 5usize;
    let engine = PolicyEngine::new(scenario.clone())
        .with_rounds(rounds)
        .run_all_rounds();
    let trace = engine.run(&runner, &mut wsn_sim::policy::StaticAllocation);
    assert_eq!(trace.rounds.len(), rounds);

    // Manual replication: StaticAllocation never moves a node, so every
    // round re-runs the initial assignment at salt = round.
    let losses = scenario.population_losses();
    let assignment = scenario.initial_assignment();
    for (round, recorded) in trace.rounds.iter().enumerate() {
        let drift = scenario.faults.loss_drift_db(round as u32);
        let round_losses: Vec<Db> = losses.iter().map(|&l| l + Db::new(drift)).collect();
        let mut configs =
            scenario.compile_assignment_with_losses(&round_losses, &assignment, round as u64);
        for cfg in &mut configs {
            assert!(
                cfg.corrupt_probs.is_none(),
                "public compile path must stay uncached"
            );
            let boost = scenario.faults.downlink_boost(round as u32);
            cfg.channel.cfp.downlink_rate = (cfg.channel.cfp.downlink_rate + boost).min(1.0);
        }
        let uncached = scenario.run_compiled(&runner, &configs);
        let context = format!("round={round} (drift {drift} dB)");
        assert_summaries_identical(
            &recorded.outcome.overall,
            &uncached.overall,
            &format!("{context} overall"),
        );
        for (c, (a, b)) in recorded
            .outcome
            .per_channel
            .iter()
            .zip(&uncached.per_channel)
            .enumerate()
        {
            assert_summaries_identical(a, b, &format!("{context} ch{c}"));
        }
    }
    // The probe exercised at least two distinct drift values.
    let drifts: std::collections::BTreeSet<u64> = (0..rounds)
        .map(|r| scenario.faults.loss_drift_db(r as u32).to_bits())
        .collect();
    assert!(
        drifts.len() >= 2,
        "want multiple cache keys, got {drifts:?}"
    );
}

/// ProportionalFair reshuffles many nodes at once; pin its loop too.
#[test]
fn proportional_fair_loop_is_bit_identical_across_threads() {
    let scenario = Scenario::new(
        "pf determinism probe",
        3,
        10,
        DeploymentSpec::UniformLossGrid {
            min_db: 60.0,
            max_db: 92.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_superframes(4)
    .with_replications(2);
    let engine = PolicyEngine::new(scenario).with_rounds(3).run_all_rounds();

    let serial = engine.run(&Runner::with_threads(1), &mut ProportionalFair::default());
    for threads in [2, 4] {
        let parallel = engine.run(
            &Runner::with_threads(threads),
            &mut ProportionalFair::default(),
        );
        assert_eq!(serial.rounds.len(), parallel.rounds.len());
        for (a, b) in serial.rounds.iter().zip(&parallel.rounds) {
            assert_eq!(a.assignment, b.assignment, "threads={threads}");
            assert_eq!(a.moved, b.moved, "threads={threads}");
            assert_eq!(a.worst_failure(), b.worst_failure(), "threads={threads}");
            assert_eq!(
                a.outcome.overall.ledger.total_energy().joules(),
                b.outcome.overall.ledger.total_energy().joules(),
                "threads={threads}"
            );
        }
    }
}

/// The CFP engine — GTS holders transmitting contention-free, downlink
/// polls contending in the CAP — runs on the same runner reductions, so
/// a GTS + downlink scenario must stay bit-identical for 1, 2 and 4
/// worker threads, CFP statistics included.
#[test]
fn cfp_scenario_is_bit_identical_across_1_2_4_threads() {
    let scenario = Scenario::new(
        "cfp determinism probe",
        3,
        14,
        DeploymentSpec::UniformLossGrid {
            min_db: 58.0,
            max_db: 90.0,
        },
    )
    .with_traffic(TrafficSpec::uniform(100).with_gts(1).with_downlink(0.5))
    .with_superframes(5)
    .with_replications(3);

    let serial = scenario.run(&Runner::with_threads(1));
    // The probe actually exercises the CFP: descriptors granted and
    // denied, GTS traffic observed, polls answered and deferred.
    assert_eq!(serial.gts_denied, vec![7, 7, 7]);
    assert!(serial.overall.gts_transactions > 0);
    assert!(serial.overall.downlink_polls > 0);
    assert!(serial.overall.cfp_power.microwatts() > 0.0);

    for threads in [2, 4] {
        let parallel = scenario.run(&Runner::with_threads(threads));
        assert_eq!(serial.gts_denied, parallel.gts_denied, "threads={threads}");
        assert_summaries_identical(
            &serial.overall,
            &parallel.overall,
            &format!("cfp overall threads={threads}"),
        );
        for (c, (a, b)) in serial
            .per_channel
            .iter()
            .zip(&parallel.per_channel)
            .enumerate()
        {
            assert_summaries_identical(a, b, &format!("cfp ch{c} threads={threads}"));
        }
    }
}

/// Fault injection adds RNG draws, event reordering and mid-run state
/// (deaths, outages, GTS reallocation) to the engine — all of it seeded
/// from the per-replication root, never from thread scheduling. A churning
/// scenario with coordinator outages must therefore stay bit-identical
/// for 1, 2 and 4 worker threads, fault statistics included.
#[test]
fn faulted_scenario_is_bit_identical_across_1_2_4_threads() {
    let scenario = Scenario::new(
        "fault determinism probe",
        3,
        14,
        DeploymentSpec::UniformLossGrid {
            min_db: 58.0,
            max_db: 90.0,
        },
    )
    .with_traffic(TrafficSpec::uniform(100).with_gts(1).with_downlink(0.4))
    .with_faults(
        FaultPlan::inert()
            .with_churn(0.04, 1, 2)
            .with_outages(0.10, 1),
    )
    .with_superframes(8)
    .with_replications(3);

    let serial = scenario.run(&Runner::with_threads(1));
    // The probe actually exercises the fault machinery — the determinism
    // guarantee below is not vacuous.
    assert!(serial.overall.deaths > 0, "plan must kill nodes");
    assert!(
        serial.overall.orphan_scans > 0,
        "outages must trigger scans"
    );
    assert!(
        serial.overall.join_attempts > 0,
        "deaths must trigger joins"
    );
    assert!(
        serial.overall.energy_per_delivered_packet_uj.is_finite(),
        "the degraded network still delivers"
    );

    for threads in [2, 4] {
        let parallel = scenario.run(&Runner::with_threads(threads));
        assert_summaries_identical(
            &serial.overall,
            &parallel.overall,
            &format!("faulted overall threads={threads}"),
        );
        for (c, (a, b)) in serial
            .per_channel
            .iter()
            .zip(&parallel.per_channel)
            .enumerate()
        {
            assert_summaries_identical(a, b, &format!("faulted ch{c} threads={threads}"));
        }
    }
}

/// The headline robustness contract: a scenario carrying an explicitly
/// inert `FaultPlan` is byte-for-byte the same simulation as one that
/// never mentions faults at all — no extra RNG draws, no sink traffic, no
/// accumulator drift.
#[test]
fn inert_fault_plan_is_invisible() {
    let build = || {
        Scenario::new(
            "inert fault probe",
            3,
            12,
            DeploymentSpec::UniformLossGrid {
                min_db: 58.0,
                max_db: 90.0,
            },
        )
        .with_traffic(TrafficSpec::uniform(100).with_gts(1).with_downlink(0.5))
        .with_superframes(5)
        .with_replications(2)
    };
    let plain = build().run(&Runner::from_env());
    let inert = build()
        .with_faults(FaultPlan::inert())
        .run(&Runner::from_env());

    assert_summaries_identical(&plain.overall, &inert.overall, "inert overall");
    for (c, (a, b)) in plain.per_channel.iter().zip(&inert.per_channel).enumerate() {
        assert_summaries_identical(a, b, &format!("inert ch{c}"));
    }
    // And the fault counters themselves stay at zero.
    assert_eq!(inert.overall.deaths, 0);
    assert_eq!(inert.overall.orphan_scans, 0);
    assert_eq!(inert.overall.join_attempts, 0);
    assert_eq!(inert.overall.dormant_nodes, 0);
}

/// On the ring-stratified deployment the outer channel saturates first —
/// the paper's dense-network prediction. GreedyRebalance must strictly
/// lower that worst-channel failure relative to the static baseline
/// within the 8-round budget (the PR's acceptance criterion).
#[test]
fn greedy_rebalance_beats_static_on_ring_stratified_scenario() {
    let scenario = Scenario::new(
        "ring-stratified convergence",
        4,
        16,
        DeploymentSpec::Disc {
            radius_m: 60.0,
            exponent: 3.0,
            shadowing_db: 0.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_beacon_order(wsn_mac::BeaconOrder::new(3).expect("BO 3 valid"))
    .with_superframes(6)
    .with_replications(2);
    let engine = PolicyEngine::new(scenario).with_rounds(8).run_all_rounds();
    let runner = Runner::from_env();

    let static_trace = engine.run(&runner, &mut wsn_sim::StaticAllocation);
    let greedy_trace = engine.run(&runner, &mut GreedyRebalance::new(3));

    // Same per-round seeds: round r differs between the traces only by
    // the assignment, so the comparison isolates the policy's effect.
    assert_eq!(static_trace.rounds.len(), 8);
    assert_eq!(greedy_trace.rounds.len(), 8);
    assert_eq!(
        static_trace.rounds[0].worst_failure(),
        greedy_trace.rounds[0].worst_failure(),
        "round 0 runs the identical initial assignment"
    );
    assert!(greedy_trace.rounds.iter().any(|r| r.moved > 0));

    let static_final = static_trace.final_round().worst_failure();
    let greedy_final = greedy_trace.final_round().worst_failure();
    assert!(
        greedy_final < static_final,
        "greedy {greedy_final:.3} must beat static {static_final:.3} by round 8"
    );
}

/// Near convergence the worst/best failure gap is round-to-round
/// contention noise, and zero-tolerance greedy keeps trading nodes
/// between the two best channels forever. The ε-damped variant
/// (`with_move_cost`) raises its bar after every executed move, so on the
/// same ring-stratified scenario it must actually stabilize — while still
/// beating the static baseline.
#[test]
fn move_cost_settles_greedy_on_ring_stratified_scenario() {
    let scenario = Scenario::new(
        "ring-stratified hysteresis",
        4,
        16,
        DeploymentSpec::Disc {
            radius_m: 60.0,
            exponent: 3.0,
            shadowing_db: 0.0,
        },
    )
    .with_allocation(ChannelAllocation::RingStratified)
    .with_beacon_order(wsn_mac::BeaconOrder::new(3).expect("BO 3 valid"))
    .with_superframes(6)
    .with_replications(2);
    let engine = PolicyEngine::new(scenario).with_rounds(10).run_all_rounds();
    let runner = Runner::from_env();

    let static_trace = engine.run(&runner, &mut wsn_sim::StaticAllocation);
    let mut undamped = GreedyRebalance::new(2).with_tolerance(0.0);
    let undamped_trace = engine.run(&runner, &mut undamped);
    let mut damped = GreedyRebalance::new(2)
        .with_tolerance(0.0)
        .with_move_cost(0.05);
    let damped_trace = engine.run(&runner, &mut damped);

    // Zero tolerance without damping oscillates to the round budget.
    assert_eq!(undamped_trace.converged_at, None);
    assert!(undamped_trace
        .rounds
        .iter()
        .all(|r| r.round + 1 == 10 || r.moved > 0));
    // The damped run stabilizes mid-budget and stays stable.
    let settled = damped_trace
        .converged_at
        .expect("damped greedy must stabilize");
    assert!(settled < 9, "settled only at the budget's edge");
    assert!(damped_trace.rounds[settled..].iter().all(|r| r.moved == 0));
    // Damping does not cost the rebalancing win.
    assert!(
        damped_trace.final_round().worst_failure() < static_trace.final_round().worst_failure()
    );
}

/// The committed saved-scenario fixtures at the repository root.
fn fixture_batch() -> BatchSet {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    BatchSet::load_dir(&dir).expect("the committed fixture directory loads")
}

/// Runs `set` with the default [`RunConfig`] into an in-memory sink.
fn run_batch(set: &BatchSet, runner: &Runner) -> BatchReport {
    let mut sink = WriteSink::new(Vec::new());
    set.run_with(runner, &mut sink, &RunConfig::default())
        .unwrap()
}

/// The batch service flattens every scenario's jobs onto one shared pool,
/// so its per-scenario records inherit the runner's contract: bit-identical
/// for 1, 2 and 4 worker threads across the whole committed fixture set.
#[test]
fn batch_of_fixtures_is_bit_identical_across_1_2_4_threads() {
    let set = fixture_batch();
    assert!(
        set.entries().len() >= 4,
        "the fixture set stays non-trivial"
    );

    let serial = run_batch(&set, &Runner::with_threads(1));
    for threads in [2, 4] {
        let parallel = run_batch(&set, &Runner::with_threads(threads));
        assert_eq!(serial.records.len(), parallel.records.len());
        assert_eq!(serial.jobs, parallel.jobs, "threads={threads}");
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            let context = format!("batch `{}` threads={threads}", a.name);
            assert_eq!(a.name, b.name, "{context}: record order");
            assert_eq!(a.seed, b.seed, "{context}: seed");
            assert_eq!(a.fingerprint, b.fingerprint, "{context}: fingerprint");
            let (ao, bo) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_summaries_identical(&ao.overall, &bo.overall, &context);
            for (c, (x, y)) in ao.per_channel.iter().zip(&bo.per_channel).enumerate() {
                assert_summaries_identical(x, y, &format!("{context} ch{c}"));
            }
            assert_eq!(ao.gts_denied, bo.gts_denied, "{context}: gts denied");
        }
    }
}

/// Results are keyed by scenario, not by position: reversing the entry
/// order (as a reordered manifest would) changes nothing about any
/// scenario's record.
#[test]
fn batch_results_are_invariant_to_entry_ordering() {
    let forward = fixture_batch();
    let mut reversed_entries: Vec<_> = forward.entries().to_vec();
    reversed_entries.reverse();
    let reversed = BatchSet::from_entries(reversed_entries, None).unwrap();

    let runner = Runner::from_env();
    let a = run_batch(&forward, &runner);
    let b = run_batch(&reversed, &runner);
    assert_eq!(a.records.len(), b.records.len());
    for record in &a.records {
        let twin = b
            .records
            .iter()
            .find(|r| r.name == record.name)
            .unwrap_or_else(|| panic!("`{}` present in both orders", record.name));
        let context = format!("ordering `{}`", record.name);
        assert_eq!(record.seed, twin.seed, "{context}: seed");
        let (ro, to) = (
            record.outcome.as_ref().unwrap(),
            twin.outcome.as_ref().unwrap(),
        );
        assert_summaries_identical(&ro.overall, &to.overall, &context);
        for (c, (x, y)) in ro.per_channel.iter().zip(&to.per_channel).enumerate() {
            assert_summaries_identical(x, y, &format!("{context} ch{c}"));
        }
    }
}
