//! Experiment FIG8 — reproduces paper Figure 8: energy per useful bit
//! versus packet payload size at several network loads.
//!
//! Paper observation to check: energy per bit decreases monotonically up to
//! the maximum 123-byte payload (the MAC overhead dominates), so buffering
//! to the largest packet is optimal.
//!
//! `--reps N` merges N independent contention replications per grid point
//! (exact fixed-order merges) before the model consumes them.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig8 [superframes] [--threads N] [--reps N]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_core::activation::ActivationModel;
use wsn_core::contention::MonteCarloContention;
use wsn_core::packet_sizing::PacketSizing;
use wsn_mac::BeaconOrder;
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_phy::frame::PacketLayout;
use wsn_radio::{RadioModel, TxPowerLevel};
use wsn_units::Db;

fn main() {
    let args = RunArgs::parse(40, &[Flag::Reps]);

    // A representative mid-population link: 75 dB at −5 dBm.
    let study = PacketSizing::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        BeaconOrder::new(6).expect("valid"),
        TxPowerLevel::Neg5,
        Db::new(75.0),
    );
    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6()
        .with_superframes(args.superframes)
        .with_replications(args.reps_or(1));

    let payloads: Vec<usize> = (1..=12).map(|i| i * 10).chain([123]).collect();
    let loads = [0.1, 0.42, 0.7];

    // The full 13×3×reps (payload, load, replication) Monte-Carlo grid,
    // on the parallel runner — the dominant cost of this figure.
    let points: Vec<(f64, PacketLayout)> = loads
        .iter()
        .flat_map(|&l| {
            payloads
                .iter()
                .map(move |&p| (l, PacketLayout::with_payload(p).expect("within range")))
        })
        .collect();
    mc.prewarm(&args.runner(), &points);

    outln!("# Figure 8 — energy per bit vs payload size (75 dB, −5 dBm)");
    outln!("\npayload_bytes,e_bit_nj@0.10,e_bit_nj@0.42,e_bit_nj@0.70");
    let sweeps: Vec<_> = loads
        .iter()
        .map(|&l| study.sweep(&payloads, l, &ber, &mc))
        .collect();
    for (i, payload) in payloads.iter().enumerate() {
        outln!(
            "{},{:.1},{:.1},{:.1}",
            payload,
            sweeps[0][i].energy_per_bit.nanojoules(),
            sweeps[1][i].energy_per_bit.nanojoules(),
            sweeps[2][i].energy_per_bit.nanojoules()
        );
    }

    for (load, sweep) in loads.iter().zip(&sweeps) {
        let best = PacketSizing::optimal_payload(sweep);
        outln!("optimal payload at λ={load:.2}: {best} bytes  (paper: 123, the maximum)");
    }
}
