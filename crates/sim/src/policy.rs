//! Closed-loop adaptive channel assignment: the policy layer.
//!
//! The scenario pipeline (scenario → config → runner → accumulator) is
//! open-loop: an experiment is described once, executed once, reduced
//! once. This module closes the loop. A [`PolicyEngine`] runs a
//! [`Scenario`] in **rounds**: each round
//!
//! 1. compiles the current node→channel assignment into per-channel
//!    configs ([`Scenario::compile_assignment`], with per-round contention
//!    seeds and any per-channel BER/loss asymmetry),
//! 2. executes the full channels × replications grid on the deterministic
//!    parallel [`Runner`] and reduces it into a [`ScenarioOutcome`],
//! 3. feeds the per-channel [`NetworkSummary`]s (failure rate, mean node
//!    power, delay, transaction counts) to a pluggable
//!    [`AllocationPolicy`], which emits the assignment for the next round.
//!
//! The loop records every round in a [`PolicyTrace`] — assignment, moved
//! nodes, the full outcome, wall-clock — so convergence (rounds to
//! stabilize, per-round worst-channel failure, the total-energy
//! trajectory) is a first-class result.
//!
//! ## Determinism
//!
//! Every policy decision is a pure function of the round's summaries, and
//! every summary is bit-identical for every thread count (the runner's
//! guarantee), so the whole closed loop — assignments, moved counts,
//! summaries, convergence round — is **bit-identical for 1, 2 and 4+
//! worker threads**. `runner_determinism` pins this.
//!
//! ## Shipped policies
//!
//! * [`StaticAllocation`] — the open-loop baseline: never moves a node.
//! * [`GreedyRebalance`] — moves nodes off the worst-failure channel onto
//!   the best one, a bounded number per round. On the ring-stratified
//!   scenarios (where outer channels saturate first, exactly as the
//!   paper's dense-network analysis predicts) this strictly lowers the
//!   worst channel's failure rate by relieving its contention load.
//! * [`ProportionalFair`] — re-targets every channel's node count
//!   proportionally to the inverse of its observed failure rate, subject
//!   to each channel's load capacity.
//!
//! Policies reassign whole nodes between channels; they never see node
//! identities beyond indices (link-level adaptation stays the transmit
//! power policy's job), which keeps them implementable on a real
//! coordinator from per-channel statistics alone.

use std::time::Instant;

use crate::network::NetworkSummary;
use crate::runner::Runner;
use crate::scenario::{Scenario, ScenarioOutcome};

/// What a policy sees at the end of a round.
#[derive(Debug)]
pub struct RoundObservation<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// Number of channels.
    pub channels: usize,
    /// The node→channel assignment this round ran with.
    pub assignment: &'a [usize],
    /// Per-channel capacity: the most nodes each channel can hold while
    /// keeping its load under the engine's cap, floored at the initial
    /// allocation (a channel that *started* over the cap is not the
    /// policy's fault, but policies may not grow it further). Policies
    /// must respect it.
    pub capacity: &'a [usize],
    /// Per-channel summaries of this round, in channel order.
    pub per_channel: &'a [NetworkSummary],
}

impl RoundObservation<'_> {
    /// Nodes currently assigned to each channel.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.channels];
        for &c in self.assignment {
            counts[c] += 1;
        }
        counts
    }

    /// Observed failure ratio of channel `c`.
    pub fn failure(&self, c: usize) -> f64 {
        self.per_channel[c].failure_ratio.value()
    }

    /// Channel with the highest failure ratio (lowest index on ties).
    pub fn worst_channel(&self) -> usize {
        (0..self.channels)
            .max_by(|&a, &b| self.failure(a).total_cmp(&self.failure(b)).then(b.cmp(&a)))
            .expect("at least one channel")
    }

    /// Channel with the lowest failure ratio (lowest index on ties).
    pub fn best_channel(&self) -> usize {
        (0..self.channels)
            .min_by(|&a, &b| self.failure(a).total_cmp(&self.failure(b)).then(a.cmp(&b)))
            .expect("at least one channel")
    }
}

/// A channel-assignment feedback policy: observes one round, emits the
/// next round's node→channel assignment.
///
/// Implementations must be deterministic functions of the observation (and
/// their own state): the engine's bit-identical-across-threads guarantee
/// is only as good as the policy's determinism.
pub trait AllocationPolicy {
    /// Short policy name, for traces and experiment logs.
    fn name(&self) -> &str;

    /// The assignment for the next round. Return the current assignment
    /// (e.g. `obs.assignment.to_vec()`) to signal stability.
    fn next_assignment(&mut self, obs: &RoundObservation<'_>) -> Vec<usize>;
}

/// The open-loop baseline: the initial allocation, forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticAllocation;

impl AllocationPolicy for StaticAllocation {
    fn name(&self) -> &str {
        "static"
    }

    fn next_assignment(&mut self, obs: &RoundObservation<'_>) -> Vec<usize> {
        obs.assignment.to_vec()
    }
}

/// Moves up to `max_moves` nodes per round from the worst-failure channel
/// to the best-failure channel, while the failure gap exceeds
/// `tolerance`. Node choice is by index (highest first) — deterministic,
/// and all a coordinator could do from channel-level statistics.
#[derive(Debug, Clone, Copy)]
pub struct GreedyRebalance {
    /// Most nodes moved per round.
    pub max_moves: usize,
    /// Minimum worst-to-best failure gap that still triggers a move;
    /// below it the policy declares itself stable.
    pub tolerance: f64,
    /// Hysteresis cost per executed move: every round the policy moves
    /// nodes, the acting tolerance grows by `move_cost`, so late, noisy
    /// worst↔best churn needs an ever-larger failure gap to keep going —
    /// the ε-damping that makes greedy settle near convergence instead
    /// of trading nodes between the two best channels forever. Zero (the
    /// default) reproduces the undamped policy exactly.
    pub move_cost: f64,
    /// Accumulated hysteresis (`move_cost` × executed move rounds).
    damping: f64,
}

impl GreedyRebalance {
    /// A rebalancer moving up to `max_moves` nodes per round at the
    /// default 2 % failure-gap tolerance.
    pub fn new(max_moves: usize) -> Self {
        GreedyRebalance {
            max_moves,
            tolerance: 0.02,
            move_cost: 0.0,
            damping: 0.0,
        }
    }

    /// Overrides the failure-gap tolerance below which the policy
    /// declares itself stable.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Adds a per-move hysteresis cost: after `k` rounds that moved
    /// nodes, a further move must beat `tolerance + k·move_cost`. Early
    /// rounds (large failure gaps) rebalance freely; the growing margin
    /// then damps the residual worst↔best oscillation driven by
    /// round-to-round contention noise, so the loop actually stabilizes
    /// (the `tolerance` seam, ε-damped).
    pub fn with_move_cost(mut self, move_cost: f64) -> Self {
        self.move_cost = move_cost;
        self
    }
}

impl AllocationPolicy for GreedyRebalance {
    fn name(&self) -> &str {
        "greedy-rebalance"
    }

    fn next_assignment(&mut self, obs: &RoundObservation<'_>) -> Vec<usize> {
        let mut next = obs.assignment.to_vec();
        let worst = obs.worst_channel();
        let best = obs.best_channel();
        // Every executed move raised the bar: near convergence the
        // worst/best gap is contention noise, and without the growing
        // margin greedy trades the same nodes back and forth forever.
        let threshold = self.tolerance + self.damping;
        if worst == best || obs.failure(worst) - obs.failure(best) <= threshold {
            return next;
        }
        let counts = obs.counts();
        // Keep the donor populated and the recipient under capacity.
        let moves = self
            .max_moves
            .min(counts[worst].saturating_sub(1))
            .min(obs.capacity[best].saturating_sub(counts[best]));
        let mut remaining = moves;
        for c in next.iter_mut().rev() {
            if remaining == 0 {
                break;
            }
            if *c == worst {
                *c = best;
                remaining -= 1;
            }
        }
        if moves > 0 {
            self.damping += self.move_cost;
        }
        next
    }
}

/// Re-targets each channel's node count proportionally to the inverse of
/// its observed failure ratio (`w_c = 1 / (Pr_fail,c + ε)`), clamped to
/// `[1, capacity_c]` — channels that fail less absorb more nodes. Surplus
/// channels release their highest-index nodes; deficit channels absorb
/// them in channel order.
#[derive(Debug, Clone, Copy)]
pub struct ProportionalFair {
    /// Failure-ratio smoothing ε: bounds the weight of a zero-failure
    /// channel and damps reactions to noisy observations.
    pub epsilon: f64,
}

impl Default for ProportionalFair {
    fn default() -> Self {
        ProportionalFair { epsilon: 0.05 }
    }
}

impl ProportionalFair {
    /// Per-channel target node counts: Hamilton-rounded proportional
    /// shares, then deterministically repaired to respect `[1, capacity]`
    /// while summing to the total node count.
    fn targets(&self, obs: &RoundObservation<'_>) -> Vec<usize> {
        let total = obs.assignment.len();
        let weights: Vec<f64> = (0..obs.channels)
            .map(|c| 1.0 / (obs.failure(c) + self.epsilon))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let ideals: Vec<f64> = weights
            .iter()
            .map(|w| total as f64 * w / weight_sum)
            .collect();

        // Hamilton (largest remainder) rounding.
        let mut targets: Vec<usize> = ideals.iter().map(|x| x.floor() as usize).collect();
        let assigned: usize = targets.iter().sum();
        let mut order: Vec<usize> = (0..obs.channels).collect();
        order.sort_by(|&a, &b| {
            let ra = ideals[a] - ideals[a].floor();
            let rb = ideals[b] - ideals[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        for &c in order.iter().take(total - assigned) {
            targets[c] += 1;
        }

        // Clamp, then repair the sum deterministically.
        for (c, target) in targets.iter_mut().enumerate().take(obs.channels) {
            *target = (*target).clamp(1, obs.capacity[c].max(1));
        }
        loop {
            let sum: usize = targets.iter().sum();
            if sum == total {
                break;
            }
            if sum > total {
                // Shrink the most-populated shrinkable channel.
                let c = (0..obs.channels)
                    .filter(|&c| targets[c] > 1)
                    .max_by(|&a, &b| targets[a].cmp(&targets[b]).then(b.cmp(&a)))
                    .expect("some channel can shrink");
                targets[c] -= 1;
            } else {
                // Grow the best-weighted channel with headroom.
                let c = (0..obs.channels)
                    .filter(|&c| targets[c] < obs.capacity[c])
                    .max_by(|&a, &b| weights[a].total_cmp(&weights[b]).then(b.cmp(&a)))
                    .expect("total node count exceeds the channels' joint capacity");
                targets[c] += 1;
            }
        }
        targets
    }
}

impl AllocationPolicy for ProportionalFair {
    fn name(&self) -> &str {
        "proportional-fair"
    }

    fn next_assignment(&mut self, obs: &RoundObservation<'_>) -> Vec<usize> {
        let targets = self.targets(obs);
        let mut counts = obs.counts();
        let mut next = obs.assignment.to_vec();

        // Surplus channels release their highest-index nodes into a pool…
        let mut pool: Vec<usize> = Vec::new();
        for (node, &c) in next.iter().enumerate().rev() {
            if counts[c] > targets[c] {
                counts[c] -= 1;
                pool.push(node);
            }
        }
        // …which deficit channels absorb in node-index order.
        pool.reverse();
        let mut pool = pool.into_iter();
        for c in 0..obs.channels {
            while counts[c] < targets[c] {
                let node = pool.next().expect("pool balances the deficits");
                next[node] = c;
                counts[c] += 1;
            }
        }
        next
    }
}

/// One recorded round of the policy loop.
#[derive(Debug, Clone)]
pub struct PolicyRound {
    /// Round index (0-based).
    pub round: usize,
    /// The assignment this round ran with.
    pub assignment: Vec<usize>,
    /// Nodes the policy moved going *into the next* round (0 = stable).
    pub moved: usize,
    /// The round's full reduced outcome.
    pub outcome: ScenarioOutcome,
    /// Total wall-clock of the round's grid in milliseconds.
    pub wall_ms: f64,
}

impl PolicyRound {
    /// The round's worst-channel failure ratio.
    pub fn worst_failure(&self) -> f64 {
        self.outcome.worst_channel().1.failure_ratio.value()
    }
}

/// The complete record of one closed-loop run.
#[derive(Debug, Clone)]
pub struct PolicyTrace {
    /// The policy's name.
    pub policy: String,
    /// Every executed round, in order.
    pub rounds: Vec<PolicyRound>,
    /// The first round whose emitted assignment equaled its input — the
    /// loop is stable from here on. `None` if it never stabilized.
    pub converged_at: Option<usize>,
}

impl PolicyTrace {
    /// The last executed round.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn final_round(&self) -> &PolicyRound {
        self.rounds.last().expect("at least one round")
    }
}

/// Load cap per channel: policies may not push any channel's load beyond
/// this (capacity = the node count reaching it).
const MAX_LOAD: f64 = 0.95;

/// The closed-loop driver: runs a scenario in rounds, feeding each round's
/// per-channel summaries to an [`AllocationPolicy`].
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    /// The scenario being controlled. Its [`ChannelAllocation`]
    /// (via [`Scenario::initial_assignment`]) seeds the loop; its
    /// replication count applies per round.
    ///
    /// [`ChannelAllocation`]: crate::scenario::ChannelAllocation
    pub scenario: Scenario,
    /// Maximum rounds to execute.
    pub rounds: usize,
    /// Stop as soon as the policy emits an unchanged assignment.
    pub stop_when_stable: bool,
}

impl PolicyEngine {
    /// An engine over `scenario` with 8 rounds, a 0.95 load cap and
    /// early-stop on stability.
    pub fn new(scenario: Scenario) -> Self {
        PolicyEngine {
            scenario,
            rounds: 8,
            stop_when_stable: true,
        }
    }

    /// Overrides the round budget.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Keeps running the full round budget even after stabilizing (useful
    /// when round positions must align across policies for comparison).
    pub fn run_all_rounds(mut self) -> Self {
        self.stop_when_stable = false;
        self
    }

    /// Per-channel node capacities under the engine's load cap.
    pub fn capacities(&self) -> Vec<usize> {
        (0..self.scenario.channels)
            .map(|c| self.scenario.channel_capacity(c, MAX_LOAD))
            .collect()
    }

    /// Runs the closed loop. Bit-identical for every thread count of
    /// `runner` (timing fields aside, which never feed back).
    ///
    /// When the scenario carries a [`FaultPlan`](crate::faults::FaultPlan)
    /// with round-level dynamics, each round is perturbed before
    /// compilation: the loss drift (a deterministic triangle wave over the
    /// drift period) shifts every node's path loss, and burst rounds raise
    /// every channel's downlink rate (clamped to 1). Round 0 is always
    /// unperturbed, and an inert plan leaves every round byte-identical to
    /// the fault-free loop.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the policy emits a structurally
    /// invalid assignment (wrong length, channel out of range, an emptied
    /// or over-capacity channel).
    pub fn run<P: AllocationPolicy + ?Sized>(
        &self,
        runner: &Runner,
        policy: &mut P,
    ) -> PolicyTrace {
        assert!(self.rounds > 0, "at least one round required");
        let scenario = &self.scenario;
        // The physical population and the per-channel BER models are fixed
        // across rounds; pay for the deployment geometry and the model
        // resolution once, not once per round.
        let (losses, mut assignment) = scenario.population();
        let bers = scenario.channel_bers();
        // Floor each capacity at the initial allocation: a scenario whose
        // static split already exceeds the load cap must still run (the
        // engine produced that assignment itself) — policies just may not
        // grow such a channel further.
        let mut capacities = self.capacities();
        let mut initial_counts = vec![0usize; scenario.channels];
        for &c in &assignment {
            initial_counts[c] += 1;
        }
        for (cap, &count) in capacities.iter_mut().zip(&initial_counts) {
            *cap = (*cap).max(count);
        }
        let mut rounds: Vec<PolicyRound> = Vec::with_capacity(self.rounds);
        let mut converged_at = None;

        let fplan = scenario.faults;
        let mut drifted: Vec<wsn_units::Db> = Vec::new();
        for round in 0..self.rounds {
            // Round-level fault dynamics: drift the whole population's
            // path losses, then storm the downlink on burst rounds. Both
            // are pure functions of the round index — no RNG — so the
            // loop stays bit-deterministic, and both are exact no-ops on
            // an inert plan (round 0 always drifts by zero).
            let drift_db = fplan.loss_drift_db(round as u32);
            let round_losses: &[wsn_units::Db] = if drift_db != 0.0 {
                drifted.clear();
                drifted.extend(losses.iter().map(|&l| l + wsn_units::Db::new(drift_db)));
                &drifted
            } else {
                &losses
            };
            let mut configs =
                scenario.compile_assignment_with_losses(round_losses, &assignment, round as u64);
            let boost = fplan.downlink_boost(round as u32);
            if boost > 0.0 {
                for cfg in &mut configs {
                    cfg.channel.cfp.downlink_rate =
                        (cfg.channel.cfp.downlink_rate + boost).min(1.0);
                }
            }
            let t = Instant::now();
            let outcome = scenario.run_resolved(runner, &configs, &bers);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            // The last budgeted round has no successor to run a new
            // assignment in — don't consult the policy, and record no
            // (phantom) moves.
            let next = if round + 1 < self.rounds {
                policy.next_assignment(&RoundObservation {
                    round,
                    channels: scenario.channels,
                    assignment: &assignment,
                    capacity: &capacities,
                    per_channel: &outcome.per_channel,
                })
            } else {
                assignment.clone()
            };
            Self::validate(&next, &assignment, &capacities, scenario.channels);
            let moved = next.iter().zip(&assignment).filter(|(a, b)| a != b).count();
            rounds.push(PolicyRound {
                round,
                assignment: assignment.clone(),
                moved,
                outcome,
                wall_ms,
            });
            if crate::telemetry::enabled() {
                // Convergence signal: |Δ worst-channel failure| between
                // consecutive rounds, in permille. Derived from already-
                // deterministic outcomes, so it stays in the deterministic
                // section; only the round wall is timing data.
                let n = rounds.len();
                let delta_permille = (n >= 2).then(|| {
                    let delta =
                        (rounds[n - 1].worst_failure() - rounds[n - 2].worst_failure()).abs();
                    (delta * 1000.0).round() as u64
                });
                crate::telemetry::note_policy_round(
                    moved as u64,
                    delta_permille,
                    rounds[n - 1].wall_ms,
                );
            }
            if round + 1 >= self.rounds {
                break;
            }
            if moved == 0 {
                if converged_at.is_none() {
                    converged_at = Some(round);
                }
                if self.stop_when_stable {
                    break;
                }
            } else {
                converged_at = None;
                assignment = next;
            }
        }

        PolicyTrace {
            policy: policy.name().to_string(),
            rounds,
            converged_at,
        }
    }

    fn validate(next: &[usize], current: &[usize], capacities: &[usize], channels: usize) {
        assert_eq!(next.len(), current.len(), "policy changed the node count");
        let mut counts = vec![0usize; channels];
        for (node, &c) in next.iter().enumerate() {
            assert!(c < channels, "policy sent node {node} to channel {c}");
            counts[c] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            assert!(count > 0, "policy emptied channel {c}");
            assert!(
                count <= capacities[c],
                "policy overloaded channel {c}: {count} nodes > capacity {}",
                capacities[c]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DeploymentSpec;
    use wsn_units::{Power, Probability, Seconds};

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::new(
            "policy probe",
            3,
            8,
            DeploymentSpec::UniformLossGrid {
                min_db: 60.0,
                max_db: 85.0,
            },
        );
        s.superframes = 4;
        s
    }

    fn summary_with_failure(failure: f64, transactions: u64) -> NetworkSummary {
        NetworkSummary {
            mean_node_power: Power::from_microwatts(200.0),
            node_powers: Vec::new(),
            ledger: Default::default(),
            failure_ratio: Probability::clamped(failure),
            transactions,
            mean_delay: Seconds::from_secs(1.0),
            mean_attempts: 1.0,
            energy_per_bit_nj: 100.0,
            replications: 1,
            power_standard_error: Power::from_microwatts(0.0),
            failure_standard_error: 0.0,
            delay_standard_error: Seconds::ZERO,
            cap_power: Power::from_microwatts(180.0),
            cfp_power: Power::from_microwatts(0.0),
            cap_power_standard_error: Power::from_microwatts(0.0),
            cfp_power_standard_error: Power::from_microwatts(0.0),
            gts_transactions: 0,
            gts_failure_ratio: Probability::ZERO,
            gts_denied: 0,
            downlink_polls: 0,
            downlink_failure_ratio: Probability::ZERO,
            downlink_deferred: 0,
            deaths: 0,
            orphan_scans: 0,
            join_attempts: 0,
            join_failure_ratio: Probability::ZERO,
            mean_reassociation_delay: Seconds::ZERO,
            dormant_nodes: 0,
            energy_per_delivered_packet_uj: 50.0,
        }
    }

    fn observation<'a>(
        assignment: &'a [usize],
        capacity: &'a [usize],
        per_channel: &'a [NetworkSummary],
    ) -> RoundObservation<'a> {
        RoundObservation {
            round: 0,
            channels: per_channel.len(),
            assignment,
            capacity,
            per_channel,
        }
    }

    #[test]
    fn static_policy_never_moves() {
        let assignment = [0, 1, 2, 0, 1, 2];
        let capacity = [10, 10, 10];
        let summaries: Vec<NetworkSummary> =
            [0.9, 0.1, 0.5].map(|f| summary_with_failure(f, 100)).into();
        let next =
            StaticAllocation.next_assignment(&observation(&assignment, &capacity, &summaries));
        assert_eq!(next, assignment);
    }

    #[test]
    fn greedy_moves_highest_index_nodes_worst_to_best() {
        let assignment = [0, 0, 0, 0, 1, 1, 2, 2];
        let capacity = [10, 10, 10];
        let summaries: Vec<NetworkSummary> = [0.8, 0.05, 0.3]
            .map(|f| summary_with_failure(f, 100))
            .into();
        let mut policy = GreedyRebalance::new(2);
        let next = policy.next_assignment(&observation(&assignment, &capacity, &summaries));
        // The two highest-index channel-0 nodes (3, 2) moved to channel 1.
        assert_eq!(next, [0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn greedy_respects_capacity_and_keeps_donor_populated() {
        let assignment = [0, 0, 1, 1];
        let capacity = [10, 3, 10];
        let summaries: Vec<NetworkSummary> =
            [0.9, 0.0, 0.5].map(|f| summary_with_failure(f, 100)).into();
        let mut policy = GreedyRebalance::new(8);
        let next = policy.next_assignment(&observation(&assignment, &capacity, &summaries));
        // Channel 1 holds 2 and caps at 3 → one move only; donor keeps one.
        assert_eq!(next, [0, 1, 1, 1]);
    }

    #[test]
    fn greedy_stabilizes_inside_tolerance() {
        let assignment = [0, 0, 1, 1, 2, 2];
        let capacity = [10, 10, 10];
        let summaries: Vec<NetworkSummary> = [0.21, 0.20, 0.21]
            .map(|f| summary_with_failure(f, 100))
            .into();
        let mut policy = GreedyRebalance::new(4);
        let next = policy.next_assignment(&observation(&assignment, &capacity, &summaries));
        assert_eq!(next, assignment, "a 1 % gap is inside the 2 % tolerance");
    }

    #[test]
    fn move_cost_damps_oscillation_near_convergence() {
        let capacity = [10, 10];
        // Round 1: channel 0 fails worse → move one node 0 → 1.
        let a1 = [0, 0, 0, 1, 1];
        let s1: Vec<NetworkSummary> = [0.30, 0.20].map(|f| summary_with_failure(f, 100)).into();
        // Round 2: the move overshot slightly — channel 1 now looks worse
        // by a small (noise-level) gap. Undamped greedy churns back;
        // damped greedy has raised its bar and holds.
        let a2 = [0, 0, 1, 1, 1];
        let s2: Vec<NetworkSummary> = [0.20, 0.24].map(|f| summary_with_failure(f, 100)).into();

        let mut undamped = GreedyRebalance::new(1).with_tolerance(0.0);
        let mut damped = undamped.with_move_cost(0.1);

        let n1 = undamped.next_assignment(&observation(&a1, &capacity, &s1));
        assert_eq!(n1, a2, "round 1 moves the highest-index donor node");
        let n1d = damped.next_assignment(&observation(&a1, &capacity, &s1));
        assert_eq!(n1d, a2, "damping never blocks the first move");

        let n2 = undamped.next_assignment(&observation(&a2, &capacity, &s2));
        assert_eq!(n2, [0, 0, 1, 1, 0], "undamped greedy churns on noise");
        let n2d = damped.next_assignment(&observation(&a2, &capacity, &s2));
        assert_eq!(n2d, a2, "a noise-level gap fails the raised bar");

        // A gap that clears tolerance + accumulated damping still moves.
        let s3: Vec<NetworkSummary> = [0.10, 0.40].map(|f| summary_with_failure(f, 100)).into();
        let n3d = damped.next_assignment(&observation(&a2, &capacity, &s3));
        assert_eq!(n3d, [0, 0, 1, 1, 0], "a real gap overrides the damping");
    }

    #[test]
    fn zero_move_cost_reproduces_the_undamped_policy() {
        let capacity = [10, 10, 10];
        let assignment = [0, 0, 0, 0, 1, 1, 2, 2];
        let summaries: Vec<NetworkSummary> = [0.8, 0.05, 0.3]
            .map(|f| summary_with_failure(f, 100))
            .into();
        let mut plain = GreedyRebalance::new(2);
        let mut zero = GreedyRebalance::new(2).with_move_cost(0.0);
        for _ in 0..3 {
            assert_eq!(
                plain.next_assignment(&observation(&assignment, &capacity, &summaries)),
                zero.next_assignment(&observation(&assignment, &capacity, &summaries))
            );
        }
    }

    #[test]
    fn proportional_fair_targets_follow_inverse_failure() {
        let assignment: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let capacity = [20, 20, 20];
        let summaries: Vec<NetworkSummary> = [0.45, 0.0, 0.45]
            .map(|f| summary_with_failure(f, 100))
            .into();
        let policy = ProportionalFair::default();
        let targets = policy.targets(&observation(&assignment, &capacity, &summaries));
        assert_eq!(targets.iter().sum::<usize>(), 12);
        // The clean channel absorbs the most nodes; the lossy pair tie.
        assert!(targets[1] > targets[0]);
        assert_eq!(targets[0], targets[2]);
    }

    #[test]
    fn proportional_fair_preserves_population_and_caps() {
        let assignment: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let capacity = [12, 12, 12];
        let summaries: Vec<NetworkSummary> = [0.9, 0.01, 0.3]
            .map(|f| summary_with_failure(f, 100))
            .into();
        let mut policy = ProportionalFair::default();
        let next = policy.next_assignment(&observation(&assignment, &capacity, &summaries));
        assert_eq!(next.len(), 30);
        let mut counts = [0usize; 3];
        for &c in &next {
            counts[c] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 30);
        for (c, &count) in counts.iter().enumerate() {
            assert!(count >= 1 && count <= capacity[c], "channel {c}: {count}");
        }
        // Best channel fills to its cap (30 nodes over 36 capacity).
        assert_eq!(counts[1], 12);
    }

    #[test]
    fn engine_static_converges_in_round_zero() {
        let engine = PolicyEngine::new(tiny_scenario()).with_rounds(4);
        let trace = engine.run(&Runner::serial(), &mut StaticAllocation);
        assert_eq!(trace.converged_at, Some(0));
        assert_eq!(trace.rounds.len(), 1, "early stop on stability");
        assert_eq!(trace.final_round().moved, 0);
    }

    #[test]
    fn engine_runs_all_rounds_when_asked() {
        let engine = PolicyEngine::new(tiny_scenario())
            .with_rounds(3)
            .run_all_rounds();
        let trace = engine.run(&Runner::serial(), &mut StaticAllocation);
        assert_eq!(trace.rounds.len(), 3);
        assert_eq!(trace.converged_at, Some(0));
        // Distinct per-round seeds → rounds are independent observations.
        assert_ne!(
            trace.rounds[0].outcome.overall.mean_node_power,
            trace.rounds[1].outcome.overall.mean_node_power
        );
    }

    #[test]
    fn engine_rounds_record_assignments_and_outcomes() {
        let engine = PolicyEngine::new(tiny_scenario()).with_rounds(4);
        let mut policy = GreedyRebalance::new(2);
        let trace = engine.run(&Runner::serial(), &mut policy);
        assert!(!trace.rounds.is_empty());
        for round in &trace.rounds {
            assert_eq!(round.assignment.len(), 24);
            assert_eq!(round.outcome.per_channel.len(), 3);
            assert!((0.0..=1.0).contains(&round.worst_failure()));
            assert!(round.outcome.overall.ledger.total_energy().joules() > 0.0);
        }
    }

    #[test]
    fn engine_accepts_scenarios_already_over_the_load_cap() {
        // 28 nodes at BO 3 → load ≈ 0.97: legal for the simulator but past
        // the engine's 0.95 policy cap. The engine floors capacities at
        // its own initial allocation, so the loop must run rather than
        // blame the policy for the starting point.
        let mut s = Scenario::new(
            "over-cap probe",
            2,
            28,
            DeploymentSpec::UniformLossGrid {
                min_db: 60.0,
                max_db: 80.0,
            },
        );
        s.beacon_order = wsn_mac::BeaconOrder::new(3).expect("BO 3 valid");
        s.superframes = 3;
        let engine = PolicyEngine::new(s).with_rounds(2).run_all_rounds();
        let static_trace = engine.run(&Runner::serial(), &mut StaticAllocation);
        assert_eq!(static_trace.rounds.len(), 2);
        let pf_trace = engine.run(&Runner::serial(), &mut ProportionalFair::default());
        assert_eq!(pf_trace.rounds.len(), 2);
    }

    #[test]
    fn final_round_records_no_phantom_moves() {
        // An aggressive rebalancer at a tight round budget: the last round
        // has no successor, so the policy is not consulted and its row
        // records zero moves.
        let engine = PolicyEngine::new(tiny_scenario())
            .with_rounds(2)
            .run_all_rounds();
        let trace = engine.run(&Runner::serial(), &mut GreedyRebalance::new(8));
        assert_eq!(trace.rounds.len(), 2);
        assert_eq!(trace.final_round().moved, 0);
    }
}
