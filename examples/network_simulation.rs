//! Drive the discrete-event network simulator directly: a full channel of
//! 100 nodes on a realistic indoor deployment with log-normal shadowing,
//! link-adapted transmit power, and per-phase energy accounting.
//!
//! Run with: `cargo run --release --example network_simulation`

use ieee802154_energy::channel::{
    shadowed_population, Deployment, LogDistance, LogNormalShadowing,
};
use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::contention::IdealContention;
use ieee802154_energy::model::link_adaptation::LinkAdaptation;
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::phy::frame::PacketLayout;
use ieee802154_energy::phy::noise::SplitMix64;
use ieee802154_energy::radio::RadioModel;
use ieee802154_energy::sim::network::{NetworkConfig, NetworkSimulator, TxPowerPolicy};
use ieee802154_energy::sim::ChannelSimConfig;
use ieee802154_energy::units::{DBm, Db, Meters, Seconds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Geometry: 100 nodes in a 35 m indoor disc, exponent-3 path loss with
    // 4 dB shadowing.
    let mut rng = SplitMix64::new(0xD15C);
    let deployment = Deployment::uniform_disc(100, Meters::new(35.0), &mut rng);
    let shadowed = LogNormalShadowing::new(LogDistance::indoor_2450(), Db::new(4.0), 100, &mut rng);
    let losses = shadowed_population(&shadowed, &deployment.ranges());

    // Transmit power from the energy-optimal link adaptation policy.
    let packet = PacketLayout::with_payload(120)?;
    let adaptation = LinkAdaptation::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        packet,
        BeaconOrder::new(6)?,
    );
    let ber = EmpiricalCc2420Ber::paper();
    let levels = losses
        .iter()
        .map(|&a| adaptation.best_level(a, 0.43, &ber, &IdealContention).level)
        .collect();

    let mut channel = ChannelSimConfig::figure6(120, 0.43, 42);
    channel.superframes = 40;
    let sim = NetworkSimulator::new(NetworkConfig {
        channel,
        radio: RadioModel::cc2420(),
        path_losses: losses.clone().into(),
        tx_policy: TxPowerPolicy::PerNode(levels),
        coordinator_tx: DBm::new(0.0),
        wakeup_margin: Seconds::from_millis(1.0),
        corrupt_probs: None,
    });
    let report = sim.run(&ber);

    println!("indoor channel, 100 nodes, 40 superframes:");
    println!("  mean node power : {}", report.mean_node_power);
    println!(
        "  failure ratio   : {:.1} %",
        report.failure_ratio.value() * 100.0
    );
    println!("  mean delay      : {}", report.mean_delay);
    println!("  mean attempts   : {:.2}", report.mean_attempts);
    println!("  energy per bit  : {:.0} nJ", report.energy_per_bit_nj);

    println!("\nper-phase energy:");
    for (phase, frac) in report.ledger.phase_energy_fractions() {
        if frac > 0.0005 {
            println!("  {:<11}: {:5.1} %", phase.to_string(), frac * 100.0);
        }
    }

    // The five hungriest nodes are the far/shadowed ones.
    let mut by_power: Vec<(usize, f64)> = report
        .node_powers
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.microwatts()))
        .collect();
    by_power.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nhungriest nodes (path loss → power):");
    for (i, uw) in by_power.iter().take(5) {
        println!("  node {i:>3}: {} → {uw:.0} µW", losses[*i]);
    }

    Ok(())
}
