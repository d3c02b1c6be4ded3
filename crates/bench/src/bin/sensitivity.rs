//! Experiment SENS — sensitivity of the case-study result to parameters the
//! paper fixes: beacon order, retry budget, beacon length and the wake-up
//! margin.
//!
//! `--reps N` merges N independent contention replications per operating
//! point before the model consumes them.
//!
//! Usage: `cargo run --release -p wsn-bench --bin sensitivity [superframes] [--threads N] [--reps N]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_core::activation::{ActivationModel, ModelInputs};
use wsn_core::contention::{ContentionModel, MonteCarloContention};
use wsn_mac::{BeaconOrder, RetryPolicy};
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_phy::frame::PacketLayout;
use wsn_radio::{RadioModel, TxPowerLevel};
use wsn_units::Db;

fn main() {
    let args = RunArgs::parse(40, &[Flag::Reps]);

    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6()
        .with_superframes(args.superframes)
        .with_replications(args.reps_or(1));
    let packet = PacketLayout::with_payload(120).expect("within range");
    let nodes = 100.0;

    // Every beacon order below implies its own load; prewarm the feasible
    // ones on the parallel runner before the serial print loops.
    let points: Vec<(f64, PacketLayout)> = (4..=9u8)
        .filter_map(|bo| {
            let beacon_order = BeaconOrder::new(bo).expect("valid");
            let load = nodes * packet.duration().secs() / beacon_order.beacon_interval().secs();
            (load > 0.0 && load < 1.0).then_some((load, packet))
        })
        .collect();
    mc.prewarm(&args.runner(), &points);

    // Representative mid-population operating point.
    let loss = Db::new(75.0);
    let level = TxPowerLevel::Neg5;

    outln!("# Sensitivity — beacon order (packet cadence follows T_ib)");
    outln!("BO,T_ib_ms,load,power_uW,delay_s,fail_pct");
    for bo in 4..=9u8 {
        let beacon_order = BeaconOrder::new(bo).expect("valid");
        let t_ib = beacon_order.beacon_interval();
        let load = nodes * packet.duration().secs() / t_ib.secs();
        if load >= 1.0 {
            outln!("{bo},{:.2},saturated,-,-,-", t_ib.millis());
            continue;
        }
        let stats = mc.stats(load, packet);
        let out = ActivationModel::paper_defaults(RadioModel::cc2420()).evaluate(
            &ModelInputs {
                packet,
                beacon_order,
                tx_level: level,
                path_loss: loss,
                contention: stats,
            },
            &ber,
        );
        outln!(
            "{bo},{:.2},{:.3},{:.1},{:.2},{:.1}",
            t_ib.millis(),
            load,
            out.average_power.microwatts(),
            out.delay.secs(),
            out.pr_fail.value() * 100.0
        );
    }

    outln!("\n# Sensitivity — retry budget N_max (85 dB path, −1 dBm)");
    outln!("n_max,power_uW,fail_pct,attempts");
    let bo6 = BeaconOrder::new(6).expect("valid");
    let load = nodes * packet.duration().secs() / bo6.beacon_interval().secs();
    let stats = mc.stats(load, packet);
    for n_max in 1..=8u32 {
        let model = ActivationModel::paper_defaults(RadioModel::cc2420())
            .with_retries(RetryPolicy::new(n_max));
        let out = model.evaluate(
            &ModelInputs {
                packet,
                beacon_order: bo6,
                tx_level: TxPowerLevel::Neg1,
                path_loss: Db::new(85.0),
                contention: stats,
            },
            &ber,
        );
        outln!(
            "{n_max},{:.1},{:.2},{:.2}",
            out.average_power.microwatts(),
            out.pr_fail.value() * 100.0,
            out.expected_attempts
        );
    }

    outln!("\n# Sensitivity — beacon airtime (payload-dependent beacons)");
    outln!("beacon_bytes,power_uW");
    for beacon_bytes in [15usize, 19, 26, 40, 60] {
        let model = ActivationModel::paper_defaults(RadioModel::cc2420())
            .with_beacon_duration(wsn_phy::consts::bytes(beacon_bytes));
        let out = model.evaluate(
            &ModelInputs {
                packet,
                beacon_order: bo6,
                tx_level: level,
                path_loss: loss,
                contention: stats,
            },
            &ber,
        );
        outln!("{beacon_bytes},{:.1}", out.average_power.microwatts());
    }
}
