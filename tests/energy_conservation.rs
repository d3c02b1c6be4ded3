//! Conservation invariants: the double-entry energy ledger must balance,
//! and the analytical model's phase decomposition must reproduce its own
//! eq. (11) state-residency form.

use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::{ActivationModel, ModelInputs};
use ieee802154_energy::model::contention::{
    ContentionModel, IdealContention, MonteCarloContention,
};
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::phy::frame::PacketLayout;
use ieee802154_energy::radio::{PhaseTag, RadioModel, RadioState, StateKind, TxPowerLevel};
use ieee802154_energy::sim::network::{NetworkConfig, NetworkSimulator, TxPowerPolicy};
use ieee802154_energy::sim::ChannelSimConfig;
use ieee802154_energy::units::{DBm, Db, Seconds};

#[test]
fn simulator_ledger_balances_between_views() {
    let mut channel = ChannelSimConfig::figure6(120, 0.42, 77);
    channel.nodes = 30;
    channel.superframes = 10;
    let nodes = channel.nodes;
    let sim = NetworkSimulator::new(NetworkConfig {
        channel,
        radio: RadioModel::cc2420(),
        path_losses: vec![Db::new(75.0); nodes].into(),
        tx_policy: TxPowerPolicy::Fixed(TxPowerLevel::Neg5),
        coordinator_tx: DBm::new(0.0),
        wakeup_margin: Seconds::from_millis(1.0),
        corrupt_probs: None,
    });
    let report = sim.run(&EmpiricalCc2420Ber::paper());

    let by_state: f64 = StateKind::ALL
        .iter()
        .map(|&k| report.ledger.energy_in(k).joules())
        .sum();
    let by_phase: f64 = PhaseTag::ALL
        .iter()
        .map(|&p| report.ledger.energy_in_phase(p).joules())
        .sum();
    let total = report.ledger.total_energy().joules();
    assert!((by_state - total).abs() < total * 1e-12);
    assert!((by_phase - total).abs() < total * 1e-12);

    let t_state: f64 = StateKind::ALL
        .iter()
        .map(|&k| report.ledger.time_in(k).secs())
        .sum();
    let t_phase: f64 = PhaseTag::ALL
        .iter()
        .map(|&p| report.ledger.time_in_phase(p).secs())
        .sum();
    assert!((t_state - t_phase).abs() < t_state * 1e-12);
}

#[test]
fn model_phase_sum_equals_eq11_form() {
    // With the stock radio (listen power == RX power) and no refinements,
    // the model's phase decomposition must equal
    // P_idle·T_idle + P_tx·T_Tx + P_rx·T_Rx exactly.
    let radio = RadioModel::cc2420();
    let model = ActivationModel::paper_defaults(radio.clone());
    let packet = PacketLayout::with_payload(120).unwrap();
    let mc = MonteCarloContention::figure6().with_superframes(10);
    for (loss, level, stats) in [
        (
            60.0,
            TxPowerLevel::Neg25,
            IdealContention.stats(0.42, packet),
        ),
        (85.0, TxPowerLevel::Neg1, mc.stats(0.42, packet)),
        (92.0, TxPowerLevel::Zero, mc.stats(0.7, packet)),
    ] {
        let out = model.evaluate(
            &ModelInputs {
                packet,
                beacon_order: BeaconOrder::new(6).unwrap(),
                tx_level: level,
                path_loss: Db::new(loss),
                contention: stats,
            },
            &EmpiricalCc2420Ber::paper(),
        );
        let eq11 = radio.state_power(RadioState::Idle).watts() * out.t_idle.secs()
            + radio.state_power(RadioState::Tx(level)).watts() * out.t_tx.secs()
            + radio.state_power(RadioState::Rx).watts() * out.t_rx.secs();
        let phases = out.total_energy().joules();
        assert!(
            (eq11 - phases).abs() < eq11 * 1e-9,
            "at {loss} dB: eq11 {eq11:.3e} J vs phases {phases:.3e} J"
        );
        // And the reported average power is that energy over T_ib.
        let p = phases / out.t_ib.secs();
        assert!((p - out.average_power.watts()).abs() < p * 1e-9);
    }
}

#[test]
fn per_superframe_energy_is_population_invariant_at_fixed_load() {
    // At fixed load λ, the inter-beacon period scales with the node count
    // (T_ib = N·T_packet/λ), so per-node *power* falls with N — but the
    // energy a node spends per superframe (one beacon + one transaction)
    // must be nearly population-invariant, because contention statistics
    // depend on λ, not on N directly.
    let run = |nodes: usize, seed: u64| {
        let mut channel = ChannelSimConfig::figure6(50, 0.3, seed);
        channel.nodes = nodes;
        channel.superframes = 8;
        let t_ib = channel.beacon_interval();
        let sim = NetworkSimulator::new(NetworkConfig {
            channel,
            radio: RadioModel::cc2420(),
            path_losses: vec![Db::new(70.0); nodes].into(),
            tx_policy: TxPowerPolicy::Fixed(TxPowerLevel::Neg5),
            coordinator_tx: DBm::new(0.0),
            wakeup_margin: Seconds::from_millis(1.0),
            corrupt_probs: None,
        });
        let report = sim.run(&EmpiricalCc2420Ber::paper());
        report.mean_node_power.watts() * t_ib.secs()
    };
    let small = run(25, 9);
    let large = run(50, 9);
    let ratio = large / small;
    assert!(
        (0.8..1.25).contains(&ratio),
        "per-superframe energy should be population-invariant at fixed load, ratio {ratio:.3}"
    );
}
