//! Experiment FIG9 — reproduces paper Figure 9: (a) the energy breakdown
//! per protocol phase and (b) the time breakdown per radio state, for the
//! §5 case study.
//!
//! Two independent reproductions are printed and cross-checked:
//! the analytical model (averaged over the path-loss population) and the
//! discrete-event scenario (all 16 channels × `--reps` replications in
//! parallel, with replication-based standard errors).
//!
//! Paper reference: energy — beacon ≈20 %, contention ≈25 %, transmit
//! <50 %, ACK(+IFS) ≈15 %; time — shutdown 98.77 %, idle 0.47 %,
//! TX 0.48 %, RX 0.28 %.
//!
//! Usage: `cargo run --release -p wsn-bench --bin fig9 [superframes] [--threads N] [--reps N]`

use wsn_bench::{outln, Flag, RunArgs};
use wsn_core::activation::ActivationModel;
use wsn_core::case_study::CaseStudy;
use wsn_core::contention::MonteCarloContention;
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::{PhaseTag, RadioModel, StateKind};

fn main() {
    let args = RunArgs::parse(40, &[Flag::Reps]);
    let superframes = args.superframes;

    let ber = EmpiricalCc2420Ber::paper();
    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
    let mc = MonteCarloContention::figure6().with_superframes(superframes);
    mc.prewarm(&args.runner(), &[(study.load(), study.packet())]);
    let report = study.run(&ber, &mc);

    outln!("# Figure 9 — breakdowns for the case study");
    outln!("\n## (model) energy per phase  [paper: beacon 20 %, contention 25 %, transmit <50 %, ack 15 %]");
    for phase in [
        PhaseTag::Beacon,
        PhaseTag::Contention,
        PhaseTag::Transmit,
        PhaseTag::AckWait,
        PhaseTag::Ifs,
    ] {
        outln!(
            "  {:<11}: {:5.1} %",
            phase.to_string(),
            report.phase_fraction(phase) * 100.0
        );
    }
    outln!(
        "\n## (model) time per state  [paper: shutdown 98.77 %, idle 0.47 %, tx 0.48 %, rx 0.28 %]"
    );
    for state in StateKind::ALL {
        outln!(
            "  {:<11}: {:7.3} %",
            state.to_string(),
            report.state_fraction(state) * 100.0
        );
    }

    // Discrete-event cross-check through the scenario layer: the full 16
    // channels with link-adapted power levels, run as parallel streaming
    // simulations with replication-based standard errors.
    let reps = args.reps_or(2);
    let outcome = study.simulate(&args.runner(), &ber, &mc, superframes.max(10), reps);
    let net = &outcome.overall;

    outln!("\n## (simulator, 16 channels × {reps} replications) energy per phase");
    let fractions = net.ledger.phase_energy_fractions();
    for (phase, f) in fractions {
        if f > 0.0 {
            outln!("  {:<11}: {:5.1} %", phase.to_string(), f * 100.0);
        }
    }
    outln!("\n## (simulator) time per state");
    for (state, f) in net.ledger.state_time_fractions() {
        outln!("  {:<11}: {:7.3} %", state.to_string(), f * 100.0);
    }
    outln!(
        "\nsimulator mean node power : {:.1} ± {:.1} µW  (model: {:.1} µW, paper: 211 µW)",
        net.mean_node_power.microwatts(),
        net.power_standard_error.microwatts(),
        report.average_power.microwatts()
    );
    outln!(
        "simulator failure ratio   : {:.1} ± {:.1} %  (model: {:.1} %, paper: 16 %)",
        net.failure_ratio.value() * 100.0,
        net.failure_standard_error * 100.0,
        report.mean_failure.value() * 100.0
    );
    outln!(
        "simulator mean delay      : {:.2} ± {:.2} s  (model: {:.2} s, paper: 1.45 s)",
        net.mean_delay.secs(),
        net.delay_standard_error.secs(),
        report.mean_delay.secs()
    );
}
