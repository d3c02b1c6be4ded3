//! Experiment IMPR — reproduces the paper's improvement perspectives:
//!
//! * halving all state-transition times ("would decrease the total average
//!   power by 12 %");
//! * a scalable receiver with a low-power listen mode for CCA and ACK wait
//!   ("potential of reducing the total average power by an additional
//!   15 %").
//!
//! Usage: `cargo run --release -p wsn-bench --bin improvements [superframes]`

use wsn_bench::outln;
use wsn_core::activation::ActivationModel;
use wsn_core::case_study::CaseStudy;
use wsn_core::contention::MonteCarloContention;
use wsn_core::improvements::{
    combined_radio, evaluate_variant, faster_transitions_radio, scalable_receiver_radio,
};
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::RadioModel;

fn main() {
    let superframes: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6().with_superframes(superframes);

    outln!("# Improvement perspectives (case-study what-ifs)");
    outln!("\nvariant,power_uW,reduction_pct,paper_claim_pct");
    for (name, radio, claim) in [
        ("transitions ×0.5", faster_transitions_radio(0.5), "12"),
        (
            "scalable receiver ×0.5 listen",
            scalable_receiver_radio(0.5),
            "15 (additional)",
        ),
        (
            "scalable receiver ×0.25 listen",
            scalable_receiver_radio(0.25),
            "-",
        ),
        ("combined (×0.5, ×0.5)", combined_radio(0.5, 0.5), "-"),
        ("combined (×0.5, ×0.25)", combined_radio(0.5, 0.25), "-"),
    ] {
        let r = evaluate_variant(&study, radio, &ber, &mc);
        outln!(
            "{name},{:.1},{:.1},{claim}",
            r.variant.microwatts(),
            r.reduction() * 100.0
        );
    }
    let baseline = study.run(&ber, &mc);
    outln!(
        "\nbaseline power: {:.1} µW (paper: 211 µW)",
        baseline.average_power.microwatts()
    );
}
