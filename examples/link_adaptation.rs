//! Derive the energy-optimal transmit-power switching thresholds (the
//! paper's channel-inversion link adaptation, Figure 7) and apply the
//! resulting policy to a geometric deployment.
//!
//! Run with: `cargo run --release --example link_adaptation`

use ieee802154_energy::channel::{Deployment, LogDistance};
use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::contention::IdealContention;
use ieee802154_energy::model::link_adaptation::LinkAdaptation;
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::phy::frame::PacketLayout;
use ieee802154_energy::phy::noise::SplitMix64;
use ieee802154_energy::radio::RadioModel;
use ieee802154_energy::units::{Db, Meters};
use wsn_bench::outln;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = LinkAdaptation::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        PacketLayout::with_payload(120)?,
        BeaconOrder::new(6)?,
    );
    let ber = EmpiricalCc2420Ber::paper();

    // Compute the optimal level on a path-loss grid and extract thresholds.
    let losses: Vec<Db> = (50..=95).map(|a| Db::new(a as f64)).collect();
    let sweep = study.sweep(&losses, 0.42, &ber, &IdealContention);
    let policy = LinkAdaptation::thresholds(&sweep);

    outln!("switching thresholds (path loss → level):");
    for (loss, level) in policy.thresholds() {
        outln!("  ≥ {loss} → {level}");
    }

    // Apply to a physical deployment: 100 nodes in a 40 m indoor disc.
    let mut rng = SplitMix64::new(2026);
    let deployment = Deployment::uniform_disc(100, Meters::new(40.0), &mut rng);
    let model = LogDistance::indoor_2450();
    let node_losses = deployment.path_losses(&model);

    let mut counts = std::collections::BTreeMap::new();
    for loss in &node_losses {
        *counts.entry(policy.level_for(*loss)).or_insert(0usize) += 1;
    }
    outln!("\nlevel assignment for 100 nodes in a 40 m indoor disc:");
    for (level, count) in counts {
        outln!("  {level}: {count} nodes");
    }

    Ok(())
}
