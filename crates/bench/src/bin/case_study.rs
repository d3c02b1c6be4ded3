//! Experiment CASE — the paper's §5 dense-network case study.
//!
//! 1600 nodes / 16 channels (100 per channel), 1 byte per 8 ms per node
//! buffered into 120-byte packets, BO = 6 (T_ib = 983.04 ms), path losses
//! uniform in 55–95 dB, per-node energy-optimal transmit power.
//!
//! Two independent reproductions are printed:
//!
//! 1. the **analytical activation model** averaged over the loss
//!    population (with Monte-Carlo and ideal contention sources);
//! 2. the **discrete-event scenario**: the 16 channels × `--reps`
//!    replications run as independent parallel simulations on the runner
//!    and merge into a network-wide summary with replication-based
//!    standard errors. Output is bit-identical for every `--threads`
//!    value.
//!
//! Paper reference values: average power 211 µW, delivery delay 1.45 s,
//! transmission failure probability 16 %, load 42 %.
//!
//! Usage: `cargo run --release -p wsn-bench --bin case_study [superframes] [--threads N] [--reps N] [--export-scenario PATH] [--metrics PATH|-]`

use wsn_bench::{export_scenario_file, outln, Flag, RunArgs};
use wsn_core::activation::ActivationModel;
use wsn_core::case_study::CaseStudy;
use wsn_core::contention::{ContentionModel, IdealContention, MonteCarloContention};
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::{PhaseTag, RadioModel, StateKind};

fn main() {
    let args = RunArgs::parse(60, &[Flag::Reps, Flag::ExportScenario, Flag::Metrics]);
    wsn_bench::init_metrics(&args);
    let reps = args.reps_or(4);
    let runner = args.runner();

    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));

    // `--export-scenario`: write the study's exact Scenario as saved JSON
    // (the batch-service fixture) instead of running anything. The export
    // is the plain scenario — the link-adapted per-node levels
    // `CaseStudy::simulate` swaps in are a runtime refinement, not
    // scenario state — so `Scenario::run` on the loaded file is the
    // bit-identity reference.
    if let Some(path) = &args.export_scenario {
        let scenario = study
            .scenario()
            .with_superframes(args.superframes)
            .with_replications(reps);
        export_scenario_file(path, &wsn_sim::SavedScenario::open_loop(scenario));
        return;
    }

    let ber = EmpiricalCc2420Ber::paper();
    let mc = MonteCarloContention::figure6().with_superframes(args.superframes);
    mc.prewarm(&runner, &[(study.load(), study.packet())]);

    outln!("# Case study (paper §5)");
    outln!(
        "channel load λ            : {:.3}  (paper: 0.42)",
        study.load()
    );
    let stats = mc.stats(study.load(), study.packet());
    outln!("contention stats at λ     : {stats}");

    for (name, report) in [
        ("monte-carlo contention", study.run(&ber, &mc)),
        (
            "ideal contention (ablation)",
            study.run(&ber, &IdealContention),
        ),
    ] {
        outln!("\n## model: {name}");
        outln!(
            "average power             : {:.1} µW   (paper: 211 µW)",
            report.average_power.microwatts()
        );
        outln!(
            "mean delivery delay       : {:.2} s    (paper: 1.45 s)",
            report.mean_delay.secs()
        );
        outln!(
            "transmission failure      : {:.1} %    (paper: 16 %)",
            report.mean_failure.value() * 100.0
        );
        outln!("energy breakdown (Figure 9a):");
        for phase in [
            PhaseTag::Beacon,
            PhaseTag::Contention,
            PhaseTag::Transmit,
            PhaseTag::AckWait,
        ] {
            outln!(
                "  {:<11}: {:5.1} %",
                phase.to_string(),
                report.phase_fraction(phase) * 100.0
            );
        }
        outln!("time breakdown (Figure 9b):");
        for state in StateKind::ALL {
            outln!(
                "  {:<11}: {:7.3} %",
                state.to_string(),
                report.state_fraction(state) * 100.0
            );
        }
        outln!("tx-level shares:");
        for (level, share) in report.level_shares {
            if share > 0.0 {
                outln!("  {:<11}: {:5.1} %", level.to_string(), share * 100.0);
            }
        }
    }

    // The discrete-event reproduction: 16 channels × reps replications as
    // one parallel job grid, per-node link-adapted transmit power.
    let outcome = study.simulate(&runner, &ber, &mc, args.superframes, reps);
    outln!(
        "\n## simulator: 16 parallel channels × {reps} replications ({} threads)",
        runner.threads()
    );
    outln!(
        "average power             : {:.1} ± {:.1} µW   (paper: 211 µW)",
        outcome.overall.mean_node_power.microwatts(),
        outcome.overall.power_standard_error.microwatts()
    );
    outln!(
        "mean delivery delay       : {:.2} ± {:.2} s    (paper: 1.45 s)",
        outcome.overall.mean_delay.secs(),
        outcome.overall.delay_standard_error.secs()
    );
    outln!(
        "transmission failure      : {:.1} ± {:.1} %    (paper: 16 %)",
        outcome.overall.failure_ratio.value() * 100.0,
        outcome.overall.failure_standard_error * 100.0
    );
    outln!(
        "energy per delivered bit  : {:.0} nJ",
        outcome.overall.energy_per_bit_nj
    );
    outln!("energy breakdown (simulated):");
    for (phase, f) in outcome.overall.ledger.phase_energy_fractions() {
        if f > 0.0005 && phase != PhaseTag::Sleep {
            outln!("  {:<11}: {:5.1} %", phase.to_string(), f * 100.0);
        }
    }
    outln!("per-channel spread:");
    let (lo, hi) = outcome.power_spread_uw();
    outln!("  node power : {lo:.1} – {hi:.1} µW across the 16 channels");
    let (worst, summary) = outcome.worst_channel();
    outln!(
        "  worst failure: channel {worst} at {:.1} ± {:.1} %",
        summary.failure_ratio.value() * 100.0,
        summary.failure_standard_error * 100.0
    );
    outln!("\nchannel,power_uW,power_se_uW,fail_pct,fail_se_pct,delay_s,attempts");
    for (c, s) in outcome.per_channel.iter().enumerate() {
        outln!(
            "{c},{:.2},{:.2},{:.2},{:.2},{:.3},{:.3}",
            s.mean_node_power.microwatts(),
            s.power_standard_error.microwatts(),
            s.failure_ratio.value() * 100.0,
            s.failure_standard_error * 100.0,
            s.mean_delay.secs(),
            s.mean_attempts
        );
    }

    wsn_bench::finish_metrics(&args);
}
