//! End-to-end determinism: every stochastic component is seedable and
//! reproducible, so recorded experiments can be regenerated bit-for-bit.

use ieee802154_energy::phy::baseband::{simulate_ber, BasebandConfig};
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::radio::{RadioModel, TxPowerLevel};
use ieee802154_energy::sim::network::{NetworkConfig, NetworkSimulator, TxPowerPolicy};
use ieee802154_energy::sim::{simulate_contention, ChannelSimConfig, Xoshiro256StarStar};
use ieee802154_energy::units::{DBm, Db, Seconds};

#[test]
fn contention_sim_is_bit_reproducible() {
    let mut cfg = ChannelSimConfig::figure6(100, 0.42, 0xDEAD);
    cfg.superframes = 10;
    let a = simulate_contention(&cfg);
    let b = simulate_contention(&cfg);
    assert_eq!(a, b);
}

#[test]
fn network_sim_is_bit_reproducible() {
    let run = || {
        let mut channel = ChannelSimConfig::figure6(120, 0.42, 0xBEEF);
        channel.nodes = 25;
        channel.superframes = 6;
        let nodes = channel.nodes;
        NetworkSimulator::new(NetworkConfig {
            channel,
            radio: RadioModel::cc2420(),
            path_losses: vec![Db::new(75.0); nodes].into(),
            tx_policy: TxPowerPolicy::Fixed(TxPowerLevel::Neg5),
            coordinator_tx: DBm::new(0.0),
            wakeup_margin: Seconds::from_millis(1.0),
            corrupt_probs: None,
        })
        .run(&EmpiricalCc2420Ber::paper())
        .summary
    };
    let a = run();
    let b = run();
    assert_eq!(a.mean_node_power, b.mean_node_power);
    assert_eq!(a.failure_ratio, b.failure_ratio);
    assert_eq!(a.node_powers, b.node_powers);
    assert_eq!(a.ledger, b.ledger);
}

#[test]
fn baseband_mc_is_bit_reproducible() {
    let cfg = BasebandConfig::new(Db::new(21.0));
    let run = || {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xF00D);
        simulate_ber(cfg, DBm::new(-91.0), 100_000, 200, &mut rng)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_traces() {
    let mut a_cfg = ChannelSimConfig::figure6(50, 0.4, 1);
    a_cfg.superframes = 6;
    let mut b_cfg = a_cfg.clone();
    b_cfg.seed = 2;
    let a = simulate_contention(&a_cfg);
    let b = simulate_contention(&b_cfg);
    assert_ne!(
        (a.mean_contention, a.procedures),
        (b.mean_contention, b.procedures),
        "distinct seeds should explore distinct sample paths"
    );
}
