//! Experiment FIG3 — reproduces paper Figure 3: steady-state and transient
//! power/energy characterization of the CC2420-class radio.
//!
//! The published measurements are embedded as the `RadioModel::cc2420()`
//! preset; this binary prints the full characterization table and verifies
//! the worst-case transition-energy rule `E ≅ T × I(target) × VDD`.
//!
//! Usage: `cargo run -p wsn-bench --bin fig3`

use wsn_bench::outln;
use wsn_radio::{RadioModel, RadioState, TxPowerLevel};

fn main() {
    let radio = RadioModel::cc2420();

    outln!(
        "# Figure 3 — CC2420 characterization at VDD = {}",
        radio.vdd()
    );
    outln!("\n## steady states");
    outln!("{:<14} {:>12} {:>14}", "state", "current", "power");
    for (name, state) in [
        ("shutdown", RadioState::Shutdown),
        ("idle", RadioState::Idle),
        ("rx", RadioState::Rx),
    ] {
        let p = radio.state_power(state);
        let i = p.watts() / radio.vdd().volts();
        outln!("{:<14} {:>9.3} mA {:>14}", name, i * 1e3, p.to_string());
    }
    for level in TxPowerLevel::ALL {
        let p = radio.state_power(RadioState::Tx(level));
        outln!(
            "{:<14} {:>9.3} mA {:>14}",
            format!("tx {}", level),
            level.supply_current().milliamps(),
            p.to_string()
        );
    }

    outln!("\n## transitions (worst case: E = T × P(target))");
    outln!("{:<22} {:>12} {:>14}", "transition", "time", "energy");
    for (name, from, to) in [
        ("shutdown → idle", RadioState::Shutdown, RadioState::Idle),
        ("idle → rx", RadioState::Idle, RadioState::Rx),
        (
            "idle → tx(0 dBm)",
            RadioState::Idle,
            RadioState::Tx(TxPowerLevel::Zero),
        ),
        (
            "rx → tx(0 dBm)",
            RadioState::Rx,
            RadioState::Tx(TxPowerLevel::Zero),
        ),
        (
            "tx(0 dBm) → rx",
            RadioState::Tx(TxPowerLevel::Zero),
            RadioState::Rx,
        ),
    ] {
        let t = radio.transition(from, to).expect("legal transition");
        outln!(
            "{:<22} {:>9.0} µs {:>14}",
            name,
            t.time.micros(),
            t.energy.to_string()
        );
    }

    outln!("\n## paper cross-checks");
    let idle = radio.state_power(RadioState::Idle);
    outln!(
        "idle power vs 100 µW scavenging budget : {:.1}× over",
        idle.microwatts() / 100.0
    );
    let si = radio
        .transition(RadioState::Shutdown, RadioState::Idle)
        .expect("legal");
    outln!(
        "shutdown→idle energy (paper text prints '691 pJ'; the paper's own \
         worst-case rule gives {:.0} nJ)",
        si.energy.nanojoules()
    );
}
