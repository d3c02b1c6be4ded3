//! Experiment FIG7 — reproduces paper Figure 7: optimal energy per bit
//! versus path loss at several network loads, with the transmit-power
//! switching thresholds.
//!
//! Paper observations to check: thresholds are load-independent; the
//! transmission is efficient up to ≈88 dB; energy per bit spans
//! ≈135 nJ/bit (low loss) to ≈220 nJ/bit (88 dB); adapting saves up to
//! ≈40 % versus always transmitting at 0 dBm.
//!
//! `--reps N` merges N independent contention replications per load point
//! (exact fixed-order merges) before the model consumes them.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig7 [superframes] [--threads N] [--reps N]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_core::activation::ActivationModel;
use wsn_core::contention::MonteCarloContention;
use wsn_core::link_adaptation::LinkAdaptation;
use wsn_mac::BeaconOrder;
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_phy::frame::PacketLayout;
use wsn_radio::{RadioModel, TxPowerLevel};
use wsn_units::Db;

fn main() {
    let args = RunArgs::parse(40, &[Flag::Reps]);

    let packet = PacketLayout::with_payload(120).expect("within range");
    let study = LinkAdaptation::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        packet,
        BeaconOrder::new(6).expect("valid"),
    );
    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6()
        .with_superframes(args.superframes)
        .with_replications(args.reps_or(1));

    let losses: Vec<Db> = (50..=95).map(|a| Db::new(a as f64)).collect();
    let loads = [0.1, 0.42, 0.7];

    // The full loads × replications Monte-Carlo grid up front, on the
    // parallel runner.
    let points: Vec<(f64, PacketLayout)> = loads.iter().map(|&l| (l, packet)).collect();
    mc.prewarm(&args.runner(), &points);

    outln!("# Figure 7 — optimal energy per bit vs path loss (120 B payload)");
    outln!("\npath_loss_db,e_bit_nj@0.10,e_bit_nj@0.42,e_bit_nj@0.70,level@0.42");
    let sweeps: Vec<_> = loads
        .iter()
        .map(|&l| study.sweep(&losses, l, &ber, &mc))
        .collect();
    for (i, loss) in losses.iter().enumerate() {
        outln!(
            "{:.0},{:.1},{:.1},{:.1},{}",
            loss.db(),
            sweeps[0][i].energy_per_bit.nanojoules(),
            sweeps[1][i].energy_per_bit.nanojoules(),
            sweeps[2][i].energy_per_bit.nanojoules(),
            sweeps[1][i].level
        );
    }

    outln!("\n## switching thresholds per load (paper: load-independent)");
    for (load, sweep) in loads.iter().zip(&sweeps) {
        let policy = LinkAdaptation::thresholds(sweep);
        let text: Vec<String> = policy
            .thresholds()
            .iter()
            .map(|(a, l)| format!("{}→{}", a, l))
            .collect();
        outln!("λ={load:.2}: {}", text.join(", "));
    }

    // The ~40 % adaptation saving at low path loss.
    let adaptive = sweeps[1][5].energy_per_bit; // 55 dB entry
    let fixed_max = study.energy_at(Db::new(55.0), TxPowerLevel::Zero, 0.42, &ber, &mc);
    outln!(
        "\nadaptation saving at 55 dB: {:.1} %  (paper: up to 40 %)",
        (1.0 - adaptive.joules() / fixed_max.joules()) * 100.0
    );
}
