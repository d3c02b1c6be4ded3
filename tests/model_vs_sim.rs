//! Cross-validation: the analytical activation model against the
//! discrete-event network simulator, on a homogeneous population (one path
//! loss, one TX level), feeding the model the very contention statistics
//! the simulator produced.
//!
//! The two implementations share no energy-accounting code — the model
//! computes closed-form expectations, the simulator bills a per-node ledger
//! from the event trace — so agreement here validates both.

use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::{ActivationModel, ModelInputs};
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::radio::RadioModel;
use ieee802154_energy::radio::TxPowerLevel;
use ieee802154_energy::sim::network::{NetworkConfig, NetworkSimulator, TxPowerPolicy};
use ieee802154_energy::sim::ChannelSimConfig;
use ieee802154_energy::units::{DBm, Db, Seconds};

struct Comparison {
    model_uw: f64,
    sim_uw: f64,
    model_fail: f64,
    sim_fail: f64,
}

fn compare(loss_db: f64, level: TxPowerLevel, load: f64, seed: u64) -> Comparison {
    let ber = EmpiricalCc2420Ber::paper();
    let nodes = 100;

    let mut channel = ChannelSimConfig::figure6(120, load, seed);
    channel.nodes = nodes;
    channel.superframes = 30;

    let sim = NetworkSimulator::new(NetworkConfig {
        channel: channel.clone(),
        radio: RadioModel::cc2420(),
        path_losses: vec![Db::new(loss_db); nodes].into(),
        tx_policy: TxPowerPolicy::Fixed(level),
        coordinator_tx: DBm::new(0.0),
        wakeup_margin: Seconds::from_millis(1.0),
        corrupt_probs: None,
    });
    let (mut acc, _) = sim.run_accumulate_counted(&ber);

    // The model consumes the contention statistics measured by this very
    // simulation run, with the physical refinements the simulator bills.
    let stats = acc.contention.contention_stats();
    acc.seal_replication();
    let net = acc.summary();
    let bo = BeaconOrder::smallest_covering(channel.beacon_interval()).expect("coverable interval");
    // Scale: the sim's T_ib is not exactly a power of two; evaluate the
    // model at the sim's interval by scaling the BO-based output.
    let model = ActivationModel::paper_defaults(RadioModel::cc2420()).with_physical_refinements();
    let out = model.evaluate(
        &ModelInputs {
            packet: channel.packet,
            beacon_order: bo,
            tx_level: level,
            path_loss: Db::new(loss_db),
            contention: stats,
        },
        &ber,
    );
    // Convert the model's per-superframe energy to the sim's actual T_ib.
    let energy_per_sf = out.average_power.watts() * out.t_ib.secs();
    let model_uw = energy_per_sf / channel.beacon_interval().secs() * 1e6;

    Comparison {
        model_uw,
        sim_uw: net.mean_node_power.microwatts(),
        model_fail: out.pr_fail.value(),
        sim_fail: net.failure_ratio.value(),
    }
}

#[test]
fn power_agrees_on_clean_link() {
    let c = compare(70.0, TxPowerLevel::Neg5, 0.42, 1);
    let ratio = c.model_uw / c.sim_uw;
    assert!(
        (0.8..1.25).contains(&ratio),
        "model {:.1} µW vs sim {:.1} µW (ratio {ratio:.3})",
        c.model_uw,
        c.sim_uw
    );
}

#[test]
fn power_agrees_on_weak_link() {
    // −15 dBm over 80 dB: received −95 dBm, heavy retransmission regime.
    let c = compare(80.0, TxPowerLevel::Neg15, 0.42, 2);
    let ratio = c.model_uw / c.sim_uw;
    assert!(
        (0.75..1.3).contains(&ratio),
        "model {:.1} µW vs sim {:.1} µW (ratio {ratio:.3})",
        c.model_uw,
        c.sim_uw
    );
}

#[test]
fn failure_probability_agrees() {
    let clean = compare(70.0, TxPowerLevel::Neg5, 0.42, 3);
    assert!(
        (clean.model_fail - clean.sim_fail).abs() < 0.08,
        "clean link: model {:.3} vs sim {:.3}",
        clean.model_fail,
        clean.sim_fail
    );

    let weak = compare(80.0, TxPowerLevel::Neg15, 0.42, 4);
    assert!(
        weak.sim_fail > clean.sim_fail,
        "weak link must fail more in the simulator"
    );
    assert!(
        (weak.model_fail - weak.sim_fail).abs() < 0.15,
        "weak link: model {:.3} vs sim {:.3}",
        weak.model_fail,
        weak.sim_fail
    );
}

#[test]
fn load_scaling_matches() {
    // Both worlds should report more power at higher load (more contention
    // and retries), with consistent ordering.
    let lo_sim = compare(75.0, TxPowerLevel::Neg5, 0.15, 5);
    let hi_sim = compare(75.0, TxPowerLevel::Neg5, 0.75, 5);
    assert!(
        hi_sim.sim_uw > lo_sim.sim_uw,
        "sim power should rise with load: {:.1} vs {:.1}",
        lo_sim.sim_uw,
        hi_sim.sim_uw
    );
    assert!(
        hi_sim.model_uw > lo_sim.model_uw,
        "model power should rise with load: {:.1} vs {:.1}",
        lo_sim.model_uw,
        hi_sim.model_uw
    );
}
