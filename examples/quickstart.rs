//! Quickstart: predict the average power of one 802.15.4 sensor node.
//!
//! A node wakes for every beacon (BO = 6 ⇒ every 983 ms), sends one
//! 120-byte packet per superframe through slotted CSMA/CA over an 80 dB
//! path at −5 dBm, and sleeps the rest of the time.
//!
//! Run with: `cargo run --example quickstart`

use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::{ActivationModel, ModelInputs};
use ieee802154_energy::model::contention::{ContentionModel, IdealContention};
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::phy::frame::PacketLayout;
use ieee802154_energy::radio::{RadioModel, TxPowerLevel};
use ieee802154_energy::units::Db;
use wsn_bench::outln;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The radio: the paper's measured CC2420 characterization.
    let radio = RadioModel::cc2420();

    // 2. The analytical model with the paper's protocol constants.
    let model = ActivationModel::paper_defaults(radio);

    // 3. The operating point.
    let packet = PacketLayout::with_payload(120)?;
    let inputs = ModelInputs {
        packet,
        beacon_order: BeaconOrder::new(6)?,
        tx_level: TxPowerLevel::Neg5,
        path_loss: Db::new(80.0),
        contention: IdealContention.stats(0.42, packet),
    };

    // 4. Evaluate.
    let out = model.evaluate(&inputs, &EmpiricalCc2420Ber::paper());

    outln!("inter-beacon period : {}", out.t_ib);
    outln!("average power       : {}", out.average_power);
    outln!("failure probability : {}", out.pr_fail);
    outln!("delivery delay      : {}", out.delay);
    outln!("energy per bit      : {}", out.energy_per_data_bit);
    outln!();
    outln!("radio residencies per superframe:");
    outln!("  idle : {}", out.t_idle);
    outln!("  tx   : {}", out.t_tx);
    outln!("  rx   : {}", out.t_rx);

    Ok(())
}
