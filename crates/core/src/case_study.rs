//! The §5 case study: 1600 nodes around one base station, 16 channels,
//! 1 byte of sensed data every 8 ms per node, buffered into 120-byte
//! packets sent once per 983 ms superframe (BO = 6).
//!
//! The paper's headline numbers for this scenario are an average node power
//! of **211 µW**, a delivery delay of **1.45 s** and a transmission failure
//! probability of **16 %**, with the Figure 9 breakdowns. This module
//! computes all of them from the activation model, averaging over the
//! uniform 55–95 dB path-loss population with per-node energy-optimal
//! transmit power (link adaptation).

use std::sync::Arc;

use wsn_channel::UniformPathLossPopulation;
use wsn_phy::ber::BerModel;
use wsn_phy::frame::PacketLayout;
use wsn_radio::{PhaseTag, StateKind, TxPowerLevel};
use wsn_sim::network::TxPowerPolicy;
use wsn_sim::scenario::{Scenario, ScenarioOutcome};
use wsn_sim::Runner;
use wsn_units::{Db, Power, Probability, Seconds};

use crate::activation::{ActivationModel, ModelInputs, ModelOutput};
use crate::contention::ContentionModel;
use crate::link_adaptation::LinkAdaptation;

/// The dense-network scenario: the activation model and its population
/// grid over [`Scenario::paper_case_study`], which states the channels,
/// nodes, payload, beacon order and loss band both reproductions read.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    model: ActivationModel,
    grid_points: usize,
    scenario: Scenario,
}

impl CaseStudy {
    /// The paper's configuration: 1600 nodes / 16 channels = 100 nodes per
    /// channel, 120-byte payloads, BO = 6, losses uniform in 55–95 dB.
    pub fn paper(model: ActivationModel) -> Self {
        CaseStudy {
            model,
            grid_points: 81,
            scenario: Scenario::paper_case_study(),
        }
    }

    /// Replaces the activation model (improvement studies).
    pub fn with_model(mut self, model: ActivationModel) -> Self {
        self.model = model;
        self
    }

    /// Overrides the population integration grid size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_grid_points(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one grid point");
        self.grid_points = n;
        self
    }

    /// The activation model in use.
    pub fn model(&self) -> &ActivationModel {
        &self.model
    }

    /// The packet layout every channel carries.
    pub fn packet(&self) -> PacketLayout {
        self.scenario.channel_packet(0)
    }

    /// Nodes sharing each channel.
    pub fn nodes_per_channel(&self) -> usize {
        self.scenario.nodes_per_channel
    }

    /// Network load λ per channel, [`Scenario::load_for`]: `N·T_packet /
    /// T_ib` (≈ 0.43, the paper's "42 %").
    pub fn load(&self) -> f64 {
        self.scenario.load_for(0, self.scenario.nodes_per_channel)
    }

    /// The case study as a declarative [`Scenario`]:
    /// [`Scenario::paper_case_study`], the discrete-event counterpart of
    /// [`run`](Self::run).
    pub fn scenario(&self) -> Scenario {
        self.scenario.clone()
    }

    /// Simulates the case study end to end on the parallel runner: the
    /// scenario's 16 channels (× `replications`) run as independent
    /// discrete-event simulations with per-node energy-optimal transmit
    /// levels from the analytical link adaptation, and merge into
    /// per-channel and network-wide summaries with replication-based
    /// standard errors. Bit-identical for every thread count.
    pub fn simulate<B: BerModel + Sync, C: ContentionModel>(
        &self,
        runner: &Runner,
        ber: &B,
        contention: &C,
        superframes: u32,
        replications: u32,
    ) -> ScenarioOutcome {
        let scenario = self
            .scenario()
            .with_superframes(superframes)
            .with_replications(replications);
        let adaptation =
            LinkAdaptation::new(self.model.clone(), self.packet(), scenario.beacon_order);
        let mut configs = scenario.compile();
        // The paper scenario compiles identical loss populations and loads
        // for every channel, so the (expensive) per-node adaptation is
        // computed once per distinct (losses, load) pair and reused.
        type Adapted = (Arc<[Db]>, f64, Arc<[TxPowerLevel]>);
        let mut adapted: Vec<Adapted> = Vec::new();
        for cfg in &mut configs {
            let levels = match adapted
                .iter()
                .find(|(losses, load, _)| *losses == cfg.path_losses && *load == cfg.channel.load)
            {
                Some((_, _, levels)) => levels.clone(),
                None => {
                    let levels: Arc<[TxPowerLevel]> = cfg
                        .path_losses
                        .iter()
                        .map(|&a| {
                            adaptation
                                .best_level(a, cfg.channel.load, ber, contention)
                                .level
                        })
                        .collect();
                    adapted.push((cfg.path_losses.clone(), cfg.channel.load, levels.clone()));
                    levels
                }
            };
            cfg.tx_policy = TxPowerPolicy::PerNode(levels);
        }
        scenario.run_with(runner, &configs, ber)
    }

    /// Runs the study.
    pub fn run<B: BerModel, C: ContentionModel>(&self, ber: &B, contention: &C) -> CaseStudyReport {
        let load = self.load();
        let packet = self.packet();
        let beacon_order = self.scenario.beacon_order;
        let adaptation = LinkAdaptation::new(self.model.clone(), packet, beacon_order);
        let stats = contention.stats(load, packet);

        let mut points = Vec::with_capacity(self.grid_points);
        let mut power_sum = 0.0;
        let mut delay_sum = 0.0;
        let mut fail_sum = 0.0;
        let mut phase_sums = [0.0f64; 6];
        let mut state_sums = [0.0f64; 4];
        let mut level_counts = [0usize; 8];

        // The loss band `Scenario::paper_case_study` takes, integrated on
        // the model's own grid.
        for loss in UniformPathLossPopulation::paper_case_study().grid(self.grid_points) {
            let best = adaptation.best_level(loss, load, ber, contention);
            let out = self.model.evaluate(
                &ModelInputs {
                    packet,
                    beacon_order,
                    tx_level: best.level,
                    path_loss: loss,
                    contention: stats,
                },
                ber,
            );
            power_sum += out.average_power.watts();
            delay_sum += out.delay.secs();
            fail_sum += out.pr_fail.value();
            for (i, (_, e)) in out.phase_energy.iter().enumerate() {
                phase_sums[i] += e.joules();
            }
            for (i, (_, f)) in out.state_time_fractions().iter().enumerate() {
                state_sums[i] += f;
            }
            level_counts[best.level as usize] += 1;
            points.push(CaseStudyPoint {
                path_loss: loss,
                level: best.level,
                output: out,
            });
        }

        let n = self.grid_points as f64;
        let total_phase: f64 = phase_sums.iter().sum();
        let phase_fractions = core::array::from_fn(|i| {
            (
                points[0].output.phase_energy[i].0,
                if total_phase > 0.0 {
                    phase_sums[i] / total_phase
                } else {
                    0.0
                },
            )
        });
        let state_fractions = core::array::from_fn(|i| {
            (
                points[0].output.state_time_fractions()[i].0,
                state_sums[i] / n,
            )
        });
        let level_shares =
            core::array::from_fn(|i| (TxPowerLevel::ALL[i], level_counts[i] as f64 / n));

        CaseStudyReport {
            load,
            beacon_interval: beacon_order.beacon_interval(),
            average_power: Power::from_watts(power_sum / n),
            mean_delay: Seconds::from_secs(delay_sum / n),
            mean_failure: Probability::clamped(fail_sum / n),
            phase_fractions,
            state_fractions,
            level_shares,
            points,
        }
    }
}

/// One population grid point's result.
#[derive(Debug, Clone)]
pub struct CaseStudyPoint {
    /// Path loss of this node cohort.
    pub path_loss: Db,
    /// Energy-optimal transmit level.
    pub level: TxPowerLevel,
    /// Full model output.
    pub output: ModelOutput,
}

/// Aggregated case-study results (the paper's §5 scalars and Figure 9).
#[derive(Debug, Clone)]
pub struct CaseStudyReport {
    /// Channel load λ.
    pub load: f64,
    /// Inter-beacon period.
    pub beacon_interval: Seconds,
    /// Population-mean node power (paper: 211 µW).
    pub average_power: Power,
    /// Population-mean delivery delay (paper: 1.45 s).
    pub mean_delay: Seconds,
    /// Population-mean transmission failure probability (paper: 16 %).
    pub mean_failure: Probability,
    /// Population energy split by protocol phase (Figure 9a).
    pub phase_fractions: [(PhaseTag, f64); 6],
    /// Population-mean time split by radio state (Figure 9b).
    pub state_fractions: [(StateKind, f64); 4],
    /// Fraction of nodes assigned to each transmit level.
    pub level_shares: [(TxPowerLevel, f64); 8],
    /// Per-grid-point details.
    pub points: Vec<CaseStudyPoint>,
}

impl CaseStudyReport {
    /// The energy fraction of one phase.
    pub fn phase_fraction(&self, phase: PhaseTag) -> f64 {
        self.phase_fractions
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    }

    /// The time fraction of one radio state.
    pub fn state_fraction(&self, kind: StateKind) -> f64 {
        self.state_fractions
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::IdealContention;
    use wsn_phy::ber::EmpiricalCc2420Ber;
    use wsn_radio::RadioModel;

    fn quick_study() -> CaseStudy {
        CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420())).with_grid_points(21)
    }

    #[test]
    fn load_matches_papers_42_percent() {
        let s = quick_study();
        assert!(
            (s.load() - 0.433).abs() < 0.005,
            "load = {:.4}, expected ≈ 0.433",
            s.load()
        );
    }

    #[test]
    fn ideal_contention_report_is_in_the_paper_band() {
        // With ideal contention (no collisions/failures) the scalars land
        // near but below the full result.
        let report = quick_study().run(&EmpiricalCc2420Ber::paper(), &IdealContention);
        let uw = report.average_power.microwatts();
        assert!((120.0..320.0).contains(&uw), "power {uw} µW");
        // Failures come only from the lossy population tail here.
        let f = report.mean_failure.value();
        assert!((0.01..0.35).contains(&f), "failure {f}");
        assert!(report.mean_delay.secs() > report.beacon_interval.secs());
    }

    #[test]
    fn transmit_dominates_but_below_half_ish() {
        let report = quick_study().run(&EmpiricalCc2420Ber::paper(), &IdealContention);
        let tx = report.phase_fraction(PhaseTag::Transmit);
        let beacon = report.phase_fraction(PhaseTag::Beacon);
        let cont = report.phase_fraction(PhaseTag::Contention);
        let ack = report.phase_fraction(PhaseTag::AckWait);
        // Figure 9a ordering: transmit largest, then contention/beacon,
        // then ACK.
        assert!(tx > cont && tx > beacon && tx > ack, "tx {tx} not dominant");
        let total = tx + beacon + cont + ack;
        assert!((total - 1.0).abs() < 1e-9, "fractions sum {total}");
    }

    #[test]
    fn nodes_sleep_vast_majority_of_time() {
        let report = quick_study().run(&EmpiricalCc2420Ber::paper(), &IdealContention);
        let shutdown = report.state_fraction(StateKind::Shutdown);
        assert!(shutdown > 0.97, "shutdown fraction {shutdown}");
        let sum: f64 = report.state_fractions.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_adaptation_spreads_levels() {
        let report = quick_study().run(&EmpiricalCc2420Ber::paper(), &IdealContention);
        let used: usize = report
            .level_shares
            .iter()
            .filter(|(_, share)| *share > 0.0)
            .count();
        assert!(used >= 4, "population should span ≥4 levels, used {used}");
        // Weakest level serves the near cohort.
        assert!(report.level_shares[0].1 > 0.0, "nobody uses −25 dBm");
    }

    #[test]
    fn scenario_compiles_to_16_channels_of_100_nodes_at_the_paper_load() {
        let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
        assert_eq!(study.scenario(), Scenario::paper_case_study());
        let configs = study.scenario().compile();
        assert_eq!(configs.len(), 16, "paper uses 16 channels");
        for (c, cfg) in configs.iter().enumerate() {
            assert_eq!(cfg.channel.nodes, 100, "channel {c}");
            assert_eq!(cfg.path_losses.len(), 100, "channel {c}");
            // The compiled load is the analytical study's: both are
            // `Scenario::load_for`.
            assert_eq!(
                cfg.channel.load.to_bits(),
                study.load().to_bits(),
                "channel {c}: compiled load {} vs model load {}",
                cfg.channel.load,
                study.load()
            );
            // Population span matches the 55–95 dB case study.
            let min = cfg
                .path_losses
                .iter()
                .map(|l| l.db())
                .fold(f64::MAX, f64::min);
            let max = cfg
                .path_losses
                .iter()
                .map(|l| l.db())
                .fold(f64::MIN, f64::max);
            assert!(min > 55.0 && max < 95.0);
        }
    }

    #[test]
    fn simulate_runs_in_parallel_with_replication_errors() {
        let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()));
        let ber = EmpiricalCc2420Ber::paper();
        let serial = study.simulate(&Runner::serial(), &ber, &IdealContention, 4, 2);
        let parallel = study.simulate(&Runner::with_threads(4), &ber, &IdealContention, 4, 2);
        assert_eq!(serial.per_channel.len(), 16);
        assert_eq!(serial.overall.replications, 2);
        assert_eq!(
            serial.overall.mean_node_power,
            parallel.overall.mean_node_power
        );
        assert_eq!(serial.overall.failure_ratio, parallel.overall.failure_ratio);
        assert_eq!(
            serial.overall.power_standard_error,
            parallel.overall.power_standard_error
        );
        // 16 channels × 100 nodes × 2 replications pooled.
        assert_eq!(serial.overall.node_powers.len(), 3200);
    }

    #[test]
    fn points_cover_population() {
        let report = quick_study().run(&EmpiricalCc2420Ber::paper(), &IdealContention);
        assert_eq!(report.points.len(), 21);
        assert!(report.points.first().unwrap().path_loss.db() > 55.0);
        assert!(report.points.last().unwrap().path_loss.db() < 95.0);
        // Failure grows along the population tail.
        let first = report.points.first().unwrap().output.pr_fail.value();
        let last = report.points.last().unwrap().output.pr_fail.value();
        assert!(last > first);
    }
}
