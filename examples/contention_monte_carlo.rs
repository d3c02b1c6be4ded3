//! Characterize the slotted CSMA/CA contention procedure by Monte-Carlo
//! simulation (the paper's Figure 6 methodology) for one packet size.
//!
//! Run with: `cargo run --release --example contention_monte_carlo`

use ieee802154_energy::sim::{simulate_contention, ChannelSimConfig};
use wsn_bench::outln;

fn main() {
    outln!("100 nodes/channel, 50-byte payloads, standard CSMA/CA\n");
    outln!(
        "{:>5} {:>12} {:>8} {:>8} {:>8}",
        "load",
        "T_cont",
        "N_CCA",
        "Pr_col",
        "Pr_cf"
    );
    for i in 1..=9 {
        let load = i as f64 * 0.1;
        let mut cfg = ChannelSimConfig::figure6(50, load, 0xC0FFEE);
        cfg.superframes = 30;
        let stats = simulate_contention(&cfg);
        outln!(
            "{:>5.2} {:>12} {:>8.2} {:>8.4} {:>8.4}",
            load,
            stats.mean_contention.to_string(),
            stats.mean_ccas,
            stats.pr_collision.value(),
            stats.pr_access_failure.value()
        );
    }
    outln!(
        "\nAll four statistics degrade with load — the contention overhead \
         the paper's energy model charges per transmission attempt."
    );
}
