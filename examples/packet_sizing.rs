//! Explore the buffering tradeoff: how much data should a node accumulate
//! before transmitting? (The paper's Figure 8 analysis.)
//!
//! Run with: `cargo run --release --example packet_sizing`

use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::contention::IdealContention;
use ieee802154_energy::model::packet_sizing::PacketSizing;
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::radio::{RadioModel, TxPowerLevel};
use ieee802154_energy::units::Db;
use wsn_bench::outln;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = PacketSizing::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        BeaconOrder::new(6)?,
        TxPowerLevel::Neg5,
        Db::new(75.0),
    );
    let ber = EmpiricalCc2420Ber::paper();

    let payloads: Vec<usize> = (1..=12).map(|i| i * 10).chain([123]).collect();
    let points = study.sweep(&payloads, 0.42, &ber, &IdealContention);

    outln!("payload  energy/bit   (sensing 1 B / 8 ms ⇒ send every …)");
    for p in &points {
        let cadence_ms = p.payload_bytes as f64 * 8.0;
        outln!(
            "{:>5} B  {:>10}   {:>7.0} ms",
            p.payload_bytes,
            p.energy_per_bit.to_string(),
            cadence_ms
        );
    }

    let best = PacketSizing::optimal_payload(&points);
    outln!(
        "\noptimal payload: {best} bytes — buffering to the maximum packet \
         size minimizes energy per bit, at the price of {:.2} s of latency",
        best as f64 * 8.0 / 1000.0
    );

    Ok(())
}
