//! The paper's dense-network case study, end to end.
//!
//! 1600 nodes uniformly deployed around a base station share 16 channels
//! (100 nodes each). Every node senses 1 byte per 8 ms, buffers until 120
//! bytes, and uplinks once per 983 ms superframe with link-adapted transmit
//! power. The paper reports 211 µW / 1.45 s / 16 % for this scenario.
//!
//! Run with: `cargo run --release --example dense_network`

use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::case_study::CaseStudy;
use ieee802154_energy::model::contention::MonteCarloContention;
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::radio::{PhaseTag, RadioModel, StateKind};
use wsn_bench::outln;

fn main() {
    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
    let contention = MonteCarloContention::figure6().with_superframes(40);
    let report = study.run(&EmpiricalCc2420Ber::paper(), &contention);

    outln!("dense microsensor network — 1600 nodes, 16 channels");
    outln!("channel load          : {:.1} %", report.load * 100.0);
    outln!("average node power    : {}", report.average_power);
    outln!("mean delivery delay   : {}", report.mean_delay);
    outln!(
        "transmission failures : {:.1} %",
        report.mean_failure.value() * 100.0
    );

    outln!("\nwhere the energy goes:");
    for phase in [
        PhaseTag::Beacon,
        PhaseTag::Contention,
        PhaseTag::Transmit,
        PhaseTag::AckWait,
    ] {
        outln!(
            "  {:<11}: {:4.1} %",
            phase.to_string(),
            report.phase_fraction(phase) * 100.0
        );
    }

    outln!("\nwhere the time goes:");
    for state in StateKind::ALL {
        outln!(
            "  {:<11}: {:6.2} %",
            state.to_string(),
            report.state_fraction(state) * 100.0
        );
    }

    outln!("\ntransmit-power assignment across the population:");
    for (level, share) in report.level_shares {
        if share > 0.0 {
            outln!(
                "  {:<11}: {:4.1} % of nodes",
                level.to_string(),
                share * 100.0
            );
        }
    }
}
