//! Battery lifetime and energy-scavenging feasibility (extension of the
//! paper's §1 motivation: a 100 µW budget enables self-powered nodes).
//!
//! Run with: `cargo run --release --example battery_lifetime`

use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::case_study::CaseStudy;
use ieee802154_energy::model::contention::MonteCarloContention;
use ieee802154_energy::model::improvements::{combined_radio, evaluate_variant};
use ieee802154_energy::phy::ber::EmpiricalCc2420Ber;
use ieee802154_energy::radio::RadioModel;
use ieee802154_energy::units::{Energy, Power};
use wsn_bench::outln;

/// Hours in a coin cell of the given capacity at an average power draw.
fn lifetime_hours(capacity: Energy, draw: Power) -> f64 {
    capacity.joules() / draw.watts() / 3600.0
}

fn main() {
    // CR2032-class coin cell: ~225 mAh × 3 V ≈ 2430 J.
    let coin_cell = Energy::from_joules(2430.0);
    let scavenging_budget = Power::from_microwatts(100.0);

    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6().with_superframes(30);

    let baseline = study.run(&ber, &mc);
    outln!("case-study node, stock CC2420:");
    outln!("  average power : {}", baseline.average_power);
    outln!(
        "  coin-cell life: {:.0} days",
        lifetime_hours(coin_cell, baseline.average_power) / 24.0
    );
    outln!(
        "  vs 100 µW scavenging budget: {:.1}× over",
        baseline.average_power.watts() / scavenging_budget.watts()
    );

    let improved = evaluate_variant(&study, combined_radio(0.5, 0.25), &ber, &mc);
    outln!("\nwith the paper's hardware improvements (fast transitions + scalable RX):");
    outln!("  average power : {}", improved.variant);
    outln!(
        "  coin-cell life: {:.0} days",
        lifetime_hours(coin_cell, improved.variant) / 24.0
    );
    outln!(
        "  vs 100 µW scavenging budget: {:.2}× over",
        improved.variant.watts() / scavenging_budget.watts()
    );
    outln!(
        "\nreduction: {:.1} % — the gap to self-powered operation the paper's \
         conclusions call for",
        improved.reduction() * 100.0
    );
}
