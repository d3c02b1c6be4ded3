//! Experiment FIG5 — renders the paper's Figure 5 (the uplink transaction
//! timeline with its MAC overheads) as a quantified timeline, using the
//! model's expected values at the case-study operating point.
//!
//! Figure 5 is a protocol diagram rather than a data plot; reproducing it
//! means walking one expected transaction and printing each phase with its
//! duration, radio state and energy.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig5 [superframes] [--threads N]`

use wsn_bench::{outln, RunArgs};
use wsn_core::contention::{ContentionModel, MonteCarloContention};
use wsn_mac::timing::{ack_wait_min, LIFS_SYMBOLS};
use wsn_phy::consts::symbols;
use wsn_phy::frame::{ack_duration, beacon_duration, PacketLayout};
use wsn_radio::{RadioModel, RadioState, TxPowerLevel};
use wsn_units::Seconds;

fn main() {
    let args = RunArgs::parse(40, &[]);

    let radio = RadioModel::cc2420();
    let packet = PacketLayout::with_payload(120).expect("within range");
    let mc = MonteCarloContention::figure6().with_superframes(args.superframes);
    mc.prewarm(&args.runner(), &[(0.433, packet)]);
    let stats = mc.stats(0.433, packet);
    let level = TxPowerLevel::Neg5;

    let rows: Vec<(&str, Seconds, RadioState)> = vec![
        (
            "chip wake-up (T_si)",
            Seconds::from_millis(1.0),
            RadioState::Idle,
        ),
        ("radio wake-up (T_ia)", radio.turn_on_time(), RadioState::Rx),
        ("beacon reception", beacon_duration(), RadioState::Rx),
        ("contention (mean)", stats.mean_contention, RadioState::Idle),
        (
            "CCA turn-ons (mean N_CCA × T_ia)",
            radio.turn_on_time() * stats.mean_ccas,
            RadioState::Rx,
        ),
        (
            "uplink packet (133 B)",
            packet.duration(),
            RadioState::Tx(level),
        ),
        ("t_ack⁻ gap", ack_wait_min(), RadioState::Idle),
        ("acknowledgement", ack_duration(), RadioState::Rx),
        (
            "interframe spacing",
            symbols(LIFS_SYMBOLS),
            RadioState::Idle,
        ),
    ];

    outln!("# Figure 5 — expected uplink transaction timeline (λ = 0.43, −5 dBm)");
    outln!(
        "{:<34} {:>12} {:>10} {:>12}",
        "phase",
        "duration",
        "state",
        "energy"
    );
    let mut t_total = Seconds::ZERO;
    let mut e_total = 0.0;
    for (name, duration, state) in rows {
        let energy = radio.state_power(state) * duration;
        e_total += energy.microjoules();
        t_total += duration;
        outln!(
            "{:<34} {:>9.0} µs {:>10} {:>9.2} µJ",
            name,
            duration.micros(),
            state.to_string(),
            energy.microjoules()
        );
    }
    outln!(
        "{:<34} {:>9.0} µs {:>10} {:>9.2} µJ",
        "TOTAL (active)",
        t_total.micros(),
        "-",
        e_total
    );
    outln!(
        "\nactive fraction of the 983 ms superframe: {:.2} % — the radio sleeps the rest",
        t_total.secs() / 0.98304 * 100.0
    );
}
