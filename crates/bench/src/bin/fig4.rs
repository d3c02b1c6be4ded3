//! Experiment FIG4 — reproduces paper Figure 4: bit error probability
//! versus received power, and the exponential regression of eq. (1).
//!
//! The paper measured a CC2420 pair through calibrated attenuators; we
//! substitute a chip-level O-QPSK/DSSS Monte-Carlo baseband over AWGN whose
//! effective noise figure is calibrated to the paper's curve at −90 dBm,
//! then regress the simulated points exactly as the paper regressed its
//! measurements.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig4 [bits_per_point]`

use wsn_bench::outln;
use wsn_phy::baseband::{ber_sweep, BasebandConfig};
use wsn_phy::ber::{calibrate_noise_figure, BerModel, EmpiricalCc2420Ber, HardDecisionDsssBer};
use wsn_phy::regression::ExponentialFit;
use wsn_sim::Xoshiro256StarStar;
use wsn_units::DBm;

fn main() {
    let min_bits: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);

    let paper = EmpiricalCc2420Ber::paper();
    let anchor = DBm::new(-90.0);
    let target = paper.bit_error_probability(anchor).value();
    let nf = calibrate_noise_figure(anchor, target);
    outln!("# Figure 4 — BER vs received power");
    outln!("calibrated effective noise figure: {nf} (anchor −90 dBm @ {target:.3e})");

    let powers: Vec<f64> = (-94..=-85).map(|p| p as f64).collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF164);
    let points = ber_sweep(BasebandConfig::new(nf), &powers, min_bits, 400, &mut rng);

    outln!("\np_rx_dbm,ber_simulated,ber_paper_eq1,ber_analytic_union_bound");
    let analytic = HardDecisionDsssBer::new(nf);
    for &(dbm, ber) in &points {
        outln!(
            "{:.0},{:.4e},{:.4e},{:.4e}",
            dbm,
            ber,
            paper.bit_error_probability(DBm::new(dbm)).value(),
            analytic.bit_error_probability(DBm::new(dbm)).value()
        );
    }

    let positive: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.1 > 0.0).collect();
    match ExponentialFit::fit(&positive) {
        Ok(fit) => {
            outln!("\nregression over simulated points: {fit}");
            outln!("paper eq. (1):                    y = 2.350e-30 · exp(-0.6590·x)");
            outln!(
                "slope ratio (sim/paper): {:.3}",
                -fit.slope() / paper.slope_per_dbm()
            );
        }
        Err(e) => outln!("regression failed: {e}"),
    }
}
