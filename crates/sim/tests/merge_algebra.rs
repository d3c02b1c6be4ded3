//! Property tests for the statistics merge algebra (hand-rolled case
//! generation — `proptest` is not vendored in the offline build image):
//! for arbitrary sample sets and arbitrary shard boundaries,
//! `merge(split(xs)) == reduce(xs)`.

use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_phy::noise::UniformSource;
use wsn_radio::ledger::{EnergyLedger, PhaseTag};
use wsn_radio::{RadioModel, RadioState};
use wsn_sim::network::{NetworkConfig, TxPowerPolicy};
use wsn_sim::telemetry::{EngineMetrics, Hist};
use wsn_sim::{
    Accumulator, ChannelSimConfig, ContentionAccumulator, Counter, NetworkAccumulator,
    NetworkSimulator, Xoshiro256StarStar,
};
use wsn_units::{DBm, Db, Seconds};

/// Splits `xs` at the given sorted cut points and reduces each shard
/// separately, then merges the shards left-to-right.
fn merge_accumulator_shards(xs: &[f64], cuts: &[usize]) -> Accumulator {
    let mut merged = Accumulator::default();
    let mut start = 0;
    for &cut in cuts.iter().chain(std::iter::once(&xs.len())) {
        let mut shard = Accumulator::default();
        for &x in &xs[start..cut] {
            shard.push(x);
        }
        merged.merge(&shard);
        start = cut;
    }
    merged
}

#[test]
fn accumulator_merge_of_random_splits_matches_single_pass() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA11E);
    for case in 0..200 {
        let n = 1 + rng.index(400);
        // Mix of scales, including a large common offset (the regime where
        // naive sum-of-squares merging loses precision).
        let offset = if case % 3 == 0 { 1e9 } else { 0.0 };
        let xs: Vec<f64> = (0..n)
            .map(|_| offset + rng.next_f64() * 1e4 - 5e3)
            .collect();

        let mut whole = Accumulator::default();
        for &x in &xs {
            whole.push(x);
        }

        // Random shard boundaries (possibly empty shards).
        let n_cuts = rng.index(5);
        let mut cuts: Vec<usize> = (0..n_cuts).map(|_| rng.index(n + 1)).collect();
        cuts.sort_unstable();
        let merged = merge_accumulator_shards(&xs, &cuts);

        assert_eq!(merged.count(), whole.count(), "case {case}");
        let scale = whole.mean().abs().max(1.0);
        assert!(
            (merged.mean() - whole.mean()).abs() / scale < 1e-12,
            "case {case}: mean {} vs {}",
            merged.mean(),
            whole.mean()
        );
        let vscale = whole.population_variance().abs().max(1.0);
        assert!(
            (merged.population_variance() - whole.population_variance()).abs() / vscale < 1e-9,
            "case {case}: var {} vs {}",
            merged.population_variance(),
            whole.population_variance()
        );
    }
}

#[test]
fn accumulator_merge_is_associative_up_to_rounding() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA550C);
    for case in 0..100 {
        let shards: Vec<Accumulator> = (0..4)
            .map(|_| {
                let mut acc = Accumulator::default();
                for _ in 0..rng.index(50) {
                    acc.push(rng.next_f64() * 100.0);
                }
                acc
            })
            .collect();
        // ((a·b)·c)·d versus (a·b)·(c·d)
        let mut left = shards[0];
        for s in &shards[1..] {
            left.merge(s);
        }
        let mut ab = shards[0];
        ab.merge(&shards[1]);
        let mut cd = shards[2];
        cd.merge(&shards[3]);
        ab.merge(&cd);
        assert_eq!(left.count(), ab.count(), "case {case}");
        assert!((left.mean() - ab.mean()).abs() < 1e-9, "case {case}");
        assert!(
            (left.population_variance() - ab.population_variance()).abs() < 1e-6,
            "case {case}"
        );
    }
}

#[test]
fn counter_merge_of_random_splits_is_exact() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0DE);
    for case in 0..200 {
        let n = rng.index(500);
        let hits: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.3)).collect();

        let mut whole = Counter::default();
        for &h in &hits {
            whole.observe(h);
        }

        let cut = if n == 0 { 0 } else { rng.index(n + 1) };
        let (mut a, mut b) = (Counter::default(), Counter::default());
        for &h in &hits[..cut] {
            a.observe(h);
        }
        for &h in &hits[cut..] {
            b.observe(h);
        }
        a.merge(&b);

        // Counters are integer state: the merge is exact, not approximate.
        assert_eq!(a.hits(), whole.hits(), "case {case}");
        assert_eq!(a.trials(), whole.trials(), "case {case}");
        assert_eq!(a.ratio(), whole.ratio(), "case {case}");
    }
}

#[test]
fn energy_ledger_sharded_merge_matches_single_ledger() {
    // Accruing a random event stream into one ledger equals accruing its
    // shards into separate ledgers and merging — the property that lets
    // per-node and per-channel ledgers combine into population ledgers.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1ED6E5);
    let radio = RadioModel::cc2420();
    for case in 0..50 {
        let n = 1 + rng.index(200);
        let shards = 1 + rng.index(4);
        let mut whole = EnergyLedger::new();
        let mut parts = vec![EnergyLedger::new(); shards];
        for _ in 0..n {
            let which = rng.index(shards);
            let state = match rng.index(4) {
                0 => RadioState::Shutdown,
                1 => RadioState::Idle,
                2 => RadioState::Rx,
                _ => RadioState::Idle,
            };
            let phase = PhaseTag::ALL[rng.index(PhaseTag::ALL.len())];
            let duration = Seconds::from_micros(rng.next_f64() * 1e3);
            whole.accrue(&radio, state, phase, duration);
            parts[which].accrue(&radio, state, phase, duration);
        }
        let mut merged = EnergyLedger::new();
        for p in &parts {
            merged.merge(p);
        }
        assert!(
            (merged.total_energy().joules() - whole.total_energy().joules()).abs() < 1e-15,
            "case {case}: energy"
        );
        assert!(
            (merged.total_time().secs() - whole.total_time().secs()).abs() < 1e-12,
            "case {case}: time"
        );
        for phase in PhaseTag::ALL {
            assert!(
                (merged.energy_in_phase(phase).joules() - whole.energy_in_phase(phase).joules())
                    .abs()
                    < 1e-15,
                "case {case}: phase {phase}"
            );
        }
    }
}

fn small_network(nodes: usize, seed: u64) -> NetworkConfig {
    let mut channel = ChannelSimConfig::figure6(120, 0.4, seed);
    channel.nodes = nodes;
    channel.superframes = 5;
    NetworkConfig {
        path_losses: (0..nodes)
            .map(|i| Db::new(60.0 + 30.0 * i as f64 / nodes.max(1) as f64))
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

#[test]
fn network_accumulator_channel_merge_pools_exactly() {
    // Three "channels" merged into one accumulator: counts, ledgers and
    // delivered bits add exactly; pooled means are the sample-weighted
    // combination.
    let ber = EmpiricalCc2420Ber::paper();
    let accs: Vec<NetworkAccumulator> = (0..3u64)
        .map(|c| {
            NetworkSimulator::new(small_network(12, 0xC0FFEE + c))
                .run_accumulate_counted(&ber)
                .0
        })
        .collect();
    let mut merged = NetworkAccumulator::new();
    for a in &accs {
        merged.merge(a);
    }
    assert_eq!(
        merged.failures.trials(),
        accs.iter().map(|a| a.failures.trials()).sum::<u64>()
    );
    assert_eq!(
        merged.node_power_uw.count(),
        accs.iter().map(|a| a.node_power_uw.count()).sum::<u64>()
    );
    assert_eq!(merged.node_powers.len(), 36);
    let energy_sum: f64 = accs.iter().map(|a| a.ledger.total_energy().joules()).sum();
    assert!((merged.ledger.total_energy().joules() - energy_sum).abs() < 1e-15);
    let bits_sum: f64 = accs.iter().map(|a| a.delivered_payload_bits).sum();
    assert_eq!(merged.delivered_payload_bits, bits_sum);
    let pooled = merged.contention.finish();
    assert_eq!(
        (pooled.procedures, pooled.transmissions),
        accs.iter().fold((0, 0), |(procedures, transmissions), a| {
            let own = a.contention.finish();
            (
                procedures + own.procedures,
                transmissions + own.transmissions,
            )
        })
    );
    // Merge order of replication-less accumulators leaves reps at zero
    // until sealed.
    assert_eq!(merged.replications(), 0);
}

#[test]
fn network_accumulator_merge_is_split_invariant() {
    // Merging (a·b)·c equals a·(b·c) exactly for the integer state and to
    // rounding for the floating accumulators.
    let ber = EmpiricalCc2420Ber::paper();
    let accs: Vec<NetworkAccumulator> = (0..3u64)
        .map(|c| {
            NetworkSimulator::new(small_network(10, 0xAB + c))
                .run_accumulate_counted(&ber)
                .0
        })
        .collect();
    let mut left = accs[0].clone();
    left.merge(&accs[1]);
    left.merge(&accs[2]);
    let mut right_tail = accs[1].clone();
    right_tail.merge(&accs[2]);
    let mut right = accs[0].clone();
    right.merge(&right_tail);
    assert_eq!(left.failures, right.failures);
    assert_eq!(left.overruns, right.overruns);
    assert!((left.node_power_uw.mean() - right.node_power_uw.mean()).abs() < 1e-9);
    assert!((left.attempts.mean() - right.attempts.mean()).abs() < 1e-9);
    let ls = left.summary();
    let rs = right.summary();
    assert!((ls.mean_node_power.microwatts() - rs.mean_node_power.microwatts()).abs() < 1e-9);
    assert_eq!(ls.failure_ratio, rs.failure_ratio);
}

#[test]
fn cfp_counters_merge_exactly() {
    // CFP-carrying accumulators: GTS/downlink counters, denied counts and
    // the CAP/CFP power splits all pool exactly across shards.
    let ber = EmpiricalCc2420Ber::paper();
    let accs: Vec<NetworkAccumulator> = (0..3u64)
        .map(|c| {
            let mut cfg = small_network(12, 0xCF9 + c);
            cfg.channel.cfp = wsn_sim::plan_channel_cfp(cfg.channel.nodes as u32, 12, 1, 8, 0.5);
            NetworkSimulator::new(cfg).run_accumulate_counted(&ber).0
        })
        .collect();
    let mut merged = NetworkAccumulator::new();
    for a in &accs {
        merged.merge(a);
    }
    assert_eq!(
        merged.gts_failures.trials(),
        accs.iter().map(|a| a.gts_failures.trials()).sum::<u64>()
    );
    assert!(
        merged.gts_failures.trials() > 0,
        "the probe carried GTS traffic"
    );
    assert_eq!(merged.gts_denied, 15, "5 denied per shard, summed");
    assert_eq!(
        merged.downlink_failures.trials(),
        accs.iter()
            .map(|a| a.downlink_failures.trials())
            .sum::<u64>()
    );
    assert_eq!(
        merged.downlink_deferred,
        accs.iter().map(|a| a.downlink_deferred).sum::<u64>()
    );
    assert_eq!(
        merged.cap_uw.count(),
        accs.iter().map(|a| a.cap_uw.count()).sum::<u64>()
    );
    assert_eq!(
        merged.cfp_uw.count(),
        accs.iter().map(|a| a.cfp_uw.count()).sum::<u64>()
    );
    // Sealing after the merge records one replication over the pooled
    // splits.
    merged.seal_replication();
    let summary = merged.summary();
    assert_eq!(summary.gts_denied, 15);
    assert!(summary.cfp_power.microwatts() > 0.0);
    assert!(summary.cap_power.microwatts() > 0.0);
}

#[test]
fn fault_counters_merge_exactly() {
    // Fault-carrying accumulators: deaths, orphan scans, join outcomes and
    // the re-association latency accumulator all pool exactly across
    // shards, in any merge order.
    let ber = EmpiricalCc2420Ber::paper();
    let accs: Vec<NetworkAccumulator> = (0..3u64)
        .map(|c| {
            let mut cfg = small_network(12, 0xFA17 + c);
            cfg.channel.superframes = 8;
            cfg.channel.faults = wsn_sim::FaultPlan::inert()
                .with_churn(0.06, 1, 1)
                .with_outages(0.12, 1);
            NetworkSimulator::new(cfg).run_accumulate_counted(&ber).0
        })
        .collect();
    let mut merged = NetworkAccumulator::new();
    for a in &accs {
        merged.merge(a);
    }
    assert_eq!(merged.deaths, accs.iter().map(|a| a.deaths).sum::<u64>());
    assert!(merged.deaths > 0, "the probe actually churned");
    assert_eq!(
        merged.orphan_scans,
        accs.iter().map(|a| a.orphan_scans).sum::<u64>()
    );
    assert_eq!(
        merged.join_failures.trials(),
        accs.iter().map(|a| a.join_failures.trials()).sum::<u64>()
    );
    assert_eq!(
        merged.join_failures.hits(),
        accs.iter().map(|a| a.join_failures.hits()).sum::<u64>()
    );
    assert_eq!(
        merged.reassoc_delay_secs.count(),
        accs.iter()
            .map(|a| a.reassoc_delay_secs.count())
            .sum::<u64>()
    );
    assert_eq!(
        merged.dormant_nodes,
        accs.iter().map(|a| a.dormant_nodes).sum::<u64>()
    );
    // Integer state makes the merge order-invariant; the latency mean is
    // the same pooled mean either way.
    let mut rev = NetworkAccumulator::new();
    for a in accs.iter().rev() {
        rev.merge(a);
    }
    assert_eq!(rev.deaths, merged.deaths);
    assert_eq!(rev.join_failures, merged.join_failures);
    assert!((rev.reassoc_delay_secs.mean() - merged.reassoc_delay_secs.mean()).abs() < 1e-12);
    // Orphan scans and re-association exchanges bill a distinct ledger
    // phase, pooled like every other phase.
    assert!(
        merged
            .ledger
            .energy_in_phase(PhaseTag::Association)
            .joules()
            > 0.0,
        "churn must charge the Association phase"
    );
    // The summary surfaces the pooled fault statistics.
    merged.seal_replication();
    let summary = merged.summary();
    assert_eq!(summary.deaths, accs.iter().map(|a| a.deaths).sum::<u64>());
    assert_eq!(summary.join_attempts, merged.join_failures.trials());
    assert!(summary.energy_per_delivered_packet_uj.is_finite());
}

#[test]
fn sharded_energy_accounting_is_bit_identical_at_1_3_7_shards() {
    // `run_accumulate_sharded` is kept for its callers' sake and ignores
    // the shard count: it must give the serial accounting bit for bit at
    // every count. The probe carries CAP, CFP (GTS + downlink) and fault
    // traffic so every record kind is billed.
    let ber = EmpiricalCc2420Ber::paper();
    let mut cfg = small_network(30, 0x5AAD);
    cfg.channel.superframes = 8;
    cfg.channel.cfp = wsn_sim::plan_channel_cfp(cfg.channel.nodes as u32, 12, 1, 8, 0.5);
    cfg.channel.faults = wsn_sim::FaultPlan::inert()
        .with_churn(0.06, 1, 1)
        .with_outages(0.12, 1);
    let sim = NetworkSimulator::new(cfg);
    let (mut reference, _) = sim.run_accumulate_counted(&ber);
    reference.seal_replication();
    let want = reference.summary();
    assert!(want.deaths > 0, "the probe actually churned");
    assert!(want.gts_transactions > 0, "the probe carried GTS traffic");

    for shards in [1usize, 3, 7] {
        let mut acc = sim.run_accumulate_sharded(&ber, shards);
        acc.seal_replication();
        let got = acc.summary();
        assert_eq!(
            got.mean_node_power.microwatts().to_bits(),
            want.mean_node_power.microwatts().to_bits(),
            "shards {shards}: mean power"
        );
        assert_eq!(got.node_powers.len(), want.node_powers.len());
        for (i, (a, b)) in got.node_powers.iter().zip(&want.node_powers).enumerate() {
            assert_eq!(
                a.microwatts().to_bits(),
                b.microwatts().to_bits(),
                "shards {shards}: node {i} power"
            );
        }
        assert_eq!(
            got.ledger.total_energy().joules().to_bits(),
            want.ledger.total_energy().joules().to_bits(),
            "shards {shards}: total energy"
        );
        for phase in PhaseTag::ALL {
            assert_eq!(
                got.ledger.energy_in_phase(phase).joules().to_bits(),
                want.ledger.energy_in_phase(phase).joules().to_bits(),
                "shards {shards}: phase {phase}"
            );
        }
        assert_eq!(got.failure_ratio, want.failure_ratio, "shards {shards}");
        assert_eq!(got.transactions, want.transactions, "shards {shards}");
        assert_eq!(
            got.mean_delay.secs().to_bits(),
            want.mean_delay.secs().to_bits(),
            "shards {shards}: delay"
        );
        assert_eq!(
            got.cap_power.microwatts().to_bits(),
            want.cap_power.microwatts().to_bits(),
            "shards {shards}: CAP power"
        );
        assert_eq!(
            got.cfp_power.microwatts().to_bits(),
            want.cfp_power.microwatts().to_bits(),
            "shards {shards}: CFP power"
        );
        assert_eq!(
            got.gts_failure_ratio, want.gts_failure_ratio,
            "shards {shards}"
        );
        assert_eq!(got.deaths, want.deaths, "shards {shards}");
        assert_eq!(got.orphan_scans, want.orphan_scans, "shards {shards}");
        assert_eq!(got.join_attempts, want.join_attempts, "shards {shards}");
        assert_eq!(
            got.energy_per_bit_nj.to_bits(),
            want.energy_per_bit_nj.to_bits(),
            "shards {shards}: energy/bit"
        );
    }
}

#[test]
fn sealed_replications_drive_the_standard_errors() {
    let ber = EmpiricalCc2420Ber::paper();
    let mut total = NetworkAccumulator::new();
    for r in 0..4u64 {
        let (mut shard, _) =
            NetworkSimulator::new(small_network(10, 0x5EA1 + r)).run_accumulate_counted(&ber);
        shard.seal_replication();
        total.merge(&shard);
    }
    assert_eq!(total.replications(), 4);
    let summary = total.summary();
    assert_eq!(summary.replications, 4);
    // Four distinct seeds → nonzero spread across replication means.
    assert!(summary.power_standard_error.microwatts() > 0.0);
    // The replication-level mean of means equals the pooled mean (equal
    // shard sizes).
    assert!((total.rep_power_uw.mean() - total.node_power_uw.mean()).abs() < 1e-9);
}

#[test]
fn contention_accumulator_split_merge_matches_reduce() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57A7);
    for case in 0..50 {
        let n = 1 + rng.index(300);
        let cut = rng.index(n + 1);
        let mut whole = ContentionAccumulator::default();
        let (mut a, mut b) = (
            ContentionAccumulator::default(),
            ContentionAccumulator::default(),
        );
        for i in 0..n {
            let part = if i < cut { &mut a } else { &mut b };
            let cont = rng.next_f64() * 1e4;
            let ccas = 1.0 + rng.index(10) as f64;
            let fail = rng.bernoulli(0.1);
            let collided = rng.bernoulli(0.2);
            for acc in [&mut whole, part] {
                acc.contention_us.push(cont);
                acc.ccas.push(ccas);
                acc.access_failures.observe(fail);
                if !fail {
                    acc.collisions.observe(collided);
                }
            }
        }
        a.merge(&b);
        let merged = a.finish();
        let direct = whole.finish();
        assert_eq!(merged.procedures, direct.procedures, "case {case}");
        assert_eq!(merged.transmissions, direct.transmissions, "case {case}");
        assert_eq!(merged.pr_collision, direct.pr_collision, "case {case}");
        assert_eq!(
            merged.pr_access_failure, direct.pr_access_failure,
            "case {case}"
        );
        assert!(
            (merged.mean_ccas - direct.mean_ccas).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (merged.mean_contention.micros() - direct.mean_contention.micros()).abs() < 1e-6,
            "case {case}"
        );
    }
}

// --- telemetry merge algebra -------------------------------------------

/// A pseudo-random engine shard, what one simulation run folds into the
/// registry: every counter and histogram field gets data, so a merge bug
/// in any single field fails the properties below.
fn random_metric_shard(rng: &mut Xoshiro256StarStar) -> EngineMetrics {
    let mut m = EngineMetrics::default();
    for _ in 0..(1 + rng.index(30)) {
        m.runs += 1;
        m.events += rng.next_u64() % 1_000;
        m.ev_beacon += rng.next_u64() % 16;
        m.ev_arrival += rng.next_u64() % 256;
        m.ev_cca += rng.next_u64() % 256;
        m.ev_tx_end += rng.next_u64() % 256;
        m.ev_gts += rng.next_u64() % 16;
        m.ev_dl_poll += rng.next_u64() % 16;
        m.attempts_delivered += rng.next_u64() % 64;
        m.attempts_collided += rng.next_u64() % 64;
        m.attempts_corrupted += rng.next_u64() % 8;
        m.attempts_access_failure += rng.next_u64() % 8;
        m.transactions += rng.next_u64() % 64;
        m.transactions_delivered += rng.next_u64() % 64;
        m.queue_pushes += rng.next_u64() % 2_048;
        m.queue_pops += rng.next_u64() % 2_048;
        // Histogram samples across the whole bucket range, including 0.
        m.queue_skip_slots.record(rng.next_u64() >> rng.index(64));
        m.cohort_size.record(rng.next_u64() % 128);
        m.ccas_per_attempt.record(rng.next_u64() % 8);
        m.contention_slots.record(rng.next_u64() % 4_096);
        m.attempts_per_transaction.record(rng.next_u64() % 6);
    }
    m
}

/// Worker scheduling must never show up in the deterministic metric
/// section: the registry folds every run's engine shard with
/// `EngineMetrics::merge`, and merging the same shards in any order (and
/// any grouping) yields the identical totals.
#[test]
fn telemetry_shard_merge_is_order_invariant_and_associative() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7E1E);
    for case in 0..100 {
        let shards: Vec<EngineMetrics> = (0..2 + rng.index(5))
            .map(|_| random_metric_shard(&mut rng))
            .collect();

        let mut forward = EngineMetrics::default();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = EngineMetrics::default();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        assert_eq!(forward, reverse, "case {case}: merge order leaked");

        // Arbitrary grouping: fold a random prefix into one sub-total,
        // the rest into another, then combine — associativity.
        let cut = rng.index(shards.len() + 1);
        let (mut left, mut right) = (EngineMetrics::default(), EngineMetrics::default());
        for s in &shards[..cut] {
            left.merge(s);
        }
        for s in &shards[cut..] {
            right.merge(s);
        }
        left.merge(&right);
        assert_eq!(forward, left, "case {case}: grouping leaked");
    }
}

/// `Hist` split-merge equals the single-pass histogram for arbitrary
/// samples and arbitrary shard boundaries (the same property the stats
/// accumulators guarantee).
#[test]
fn telemetry_hist_merge_of_random_splits_matches_single_pass() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0C4);
    for case in 0..200 {
        let n = 1 + rng.index(500);
        // Spread samples over the full bucket range, zeros included
        // (a 64-bit shift yields the zero sample; checked_shr keeps the
        // debug build from tripping the shift-overflow panic).
        let xs: Vec<u64> = (0..n)
            .map(|_| {
                let sample = rng.next_u64();
                sample.checked_shr(rng.index(65) as u32).unwrap_or(0)
            })
            .collect();

        let mut whole = Hist::default();
        for &x in &xs {
            whole.record(x);
        }

        let n_cuts = rng.index(6);
        let mut cuts: Vec<usize> = (0..n_cuts).map(|_| rng.index(n + 1)).collect();
        cuts.sort_unstable();

        let mut merged = Hist::default();
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&n)) {
            let mut shard = Hist::default();
            for &x in &xs[start..cut] {
                shard.record(x);
            }
            merged.merge(&shard);
            start = cut;
        }
        assert_eq!(merged, whole, "case {case}");
    }
}

/// The merge identity: folding in an empty shard changes nothing, so
/// workers that never ran a job cannot perturb the totals.
#[test]
fn telemetry_empty_shard_is_the_merge_identity() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1DE4);
    let shard = random_metric_shard(&mut rng);
    let mut merged = shard.clone();
    merged.merge(&EngineMetrics::default());
    assert_eq!(merged, shard);
    let mut from_empty = EngineMetrics::default();
    from_empty.merge(&shard);
    assert_eq!(from_empty, shard);
}
