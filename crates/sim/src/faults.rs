//! Declarative, seed-deterministic fault injection: node churn,
//! coordinator outages, and time-varying load/quality.
//!
//! Every scenario simulated so far was stationary and failure-free. A
//! [`FaultPlan`] opens the time axis: it describes *what can go wrong* —
//! node deaths and rejoins, missed-beacon (coordinator outage) windows,
//! per-round channel-quality drift and downlink burst storms — as pure
//! data attached to a [`Scenario`](crate::scenario::Scenario) and carried
//! into every [`ChannelSimConfig`](crate::contention::ChannelSimConfig).
//! The engine then *draws* the faults from a dedicated RNG stream, so a
//! faulted run is exactly as reproducible as a clean one.
//!
//! ## Determinism contract for fault event ordering
//!
//! Fault injection is part of the engine's bit-determinism contract, not
//! an exception to it:
//!
//! * **Dedicated stream.** All fault draws (deaths, outage starts) come
//!   from one RNG split off the replication's root seed
//!   (`root.split(u64::MAX - 2)`), disjoint from the per-node CSMA
//!   streams, the arrival-offset stream (`u64::MAX`) and the downlink
//!   stream (`u64::MAX - 1`). Fault draws therefore never perturb any
//!   pre-existing stream.
//! * **Fixed draw schedule.** Draws happen at one place only — the beacon
//!   event, in a fixed order: one outage draw per superframe (consumed
//!   even while an outage is already running), then one death draw per
//!   node in node-index order (consumed even for nodes already dead or
//!   dormant). The stream *shape* is thus a pure function of
//!   `(nodes, superframes)`, independent of what the faults did — which
//!   is what keeps a faulted run bit-identical across 1/2/4 runner
//!   threads: each replication's fault history depends only on its own
//!   seed, never on scheduling.
//! * **Deferred deaths.** A node drawn dead mid-procedure (its CSMA
//!   machine or transmission is in flight) finishes the procedure and
//!   dies at its natural end — no event is ever cancelled or reordered in
//!   the calendar queue, so fault injection cannot disturb the queue's
//!   `(time, priority, insertion order)` pop contract.
//! * **Inertness.** [`FaultPlan::inert`] (the `Default`) is a hard no-op:
//!   every fault branch in the engine is gated on the plan being
//!   non-inert, the fault stream is never advanced, and no fault record
//!   reaches the sink — an inert-plan run is bit-identical to one on a
//!   build without the fault subsystem. The golden-diffed figure
//!   binaries pin this across versions.
//!
//! ## What the faults do
//!
//! * **Node churn** (`death_rate`): at each beacon every node draws a
//!   Bernoulli death. A dead node's radio is off: it misses beacons,
//!   schedules no arrivals, and (if it held a GTS) releases its
//!   descriptor through the live [`GtsRegistry`](wsn_mac::gts::GtsRegistry)
//!   so the freed slots re-resolve into the CFP at the next superframe
//!   boundary. After `rejoin_delay` missed superframes the node runs the
//!   re-association exchange (success gated on the channel corruption
//!   oracle), with a bounded budget of `max_join_retries` attempts; an
//!   exhausted node goes dormant instead of spinning. Orphan-scan
//!   listening and the association exchange are charged to the ledger's
//!   `Association` phase.
//! * **Coordinator outages** (`outage_rate` × `outage_superframes`): a
//!   missed-beacon window. No beacon airs, no arrivals/GTS/polls are
//!   scheduled; every alive node wakes, listens the beacon window in
//!   vain (orphan-scan cost) and goes back to sleep.
//! * **Time-varying quality/load** (`drift_amplitude_db`,
//!   `burst_downlink_rate`): per-*round* dynamics for the policy loop —
//!   a triangle-wave path-loss drift and periodic downlink burst storms,
//!   both pure functions of the round index (no RNG at all).

/// Declarative fault-injection plan (see the [module docs](self) for the
/// determinism contract).
///
/// The `Default` is [`FaultPlan::inert`]: no churn, no outages, no
/// round dynamics — provably a no-op in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-node, per-superframe death probability, drawn at each beacon.
    pub death_rate: f64,
    /// Superframes a dead node stays down before its first
    /// re-association attempt.
    pub rejoin_delay: u32,
    /// Association attempts before a churned node gives up and goes
    /// dormant. `0` makes every death permanent.
    pub max_join_retries: u32,
    /// Per-superframe probability that a coordinator outage window
    /// starts (drawn at each beacon; ignored while a window is running).
    pub outage_rate: f64,
    /// Length of each outage window in superframes.
    pub outage_superframes: u32,
    /// Peak of the triangle-wave per-round path-loss drift in dB
    /// (policy-loop rounds only; `0` disables).
    pub drift_amplitude_db: f64,
    /// Period of the drift triangle wave in rounds.
    pub drift_period_rounds: u32,
    /// Every `burst_every_rounds`-th round is a burst round (the last
    /// round of each period). `0` disables bursts.
    pub burst_every_rounds: u32,
    /// Additional downlink poll rate applied on burst rounds (added to
    /// the traffic spec's rate, clamped to 1).
    pub burst_downlink_rate: f64,
}

impl FaultPlan {
    /// The no-op plan: provably leaves the engine untouched.
    pub fn inert() -> Self {
        FaultPlan::default()
    }

    /// `true` when the *event engine* has nothing to inject (churn and
    /// outages off). Round-level dynamics may still be active — they
    /// live entirely in the policy loop.
    pub fn is_engine_inert(&self) -> bool {
        self.death_rate == 0.0 && self.outage_rate == 0.0
    }

    /// Adds node churn: `death_rate` deaths per node per superframe,
    /// rejoin after `rejoin_delay` superframes with at most
    /// `max_join_retries` association attempts.
    ///
    /// # Panics
    ///
    /// Panics unless `death_rate` is a probability in `[0, 1)`.
    pub fn with_churn(mut self, death_rate: f64, rejoin_delay: u32, max_join_retries: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&death_rate),
            "death_rate must be in [0,1), got {death_rate}"
        );
        self.death_rate = death_rate;
        self.rejoin_delay = rejoin_delay;
        self.max_join_retries = max_join_retries;
        self
    }

    /// Adds coordinator outages: windows of `superframes` missed beacons
    /// starting with probability `rate` per superframe.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1)`, or if `rate > 0` with a
    /// zero-length window.
    pub fn with_outages(mut self, rate: f64, superframes: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "outage_rate must be in [0,1), got {rate}"
        );
        assert!(
            rate == 0.0 || superframes > 0,
            "an outage window must span at least one superframe"
        );
        self.outage_rate = rate;
        self.outage_superframes = superframes;
        self
    }

    /// Adds a triangle-wave per-round path-loss drift peaking at
    /// `amplitude_db` over `period_rounds` rounds.
    pub fn with_drift(mut self, amplitude_db: f64, period_rounds: u32) -> Self {
        self.drift_amplitude_db = amplitude_db;
        self.drift_period_rounds = period_rounds;
        self
    }

    /// Path-loss drift for a policy round in dB: a triangle wave
    /// `0 → amplitude → 0` over [`drift_period_rounds`](Self::drift_period_rounds)
    /// rounds. Round 0 is always drift-free, so a one-round run matches
    /// the static scenario exactly. Pure function of the round index.
    pub fn loss_drift_db(&self, round: u32) -> f64 {
        if self.drift_amplitude_db == 0.0 || self.drift_period_rounds == 0 {
            return 0.0;
        }
        let phase = (round % self.drift_period_rounds) as f64 / self.drift_period_rounds as f64;
        let tri = 1.0 - (2.0 * phase - 1.0).abs();
        self.drift_amplitude_db * tri
    }

    /// Extra downlink poll rate for a policy round: the burst storm on
    /// the last round of each
    /// [`burst_every_rounds`](Self::burst_every_rounds) period, `0`
    /// otherwise. Pure function of the round index.
    pub fn downlink_boost(&self, round: u32) -> f64 {
        if self.burst_downlink_rate == 0.0 || self.burst_every_rounds == 0 {
            return 0.0;
        }
        if round % self.burst_every_rounds == self.burst_every_rounds - 1 {
            self.burst_downlink_rate
        } else {
            0.0
        }
    }
}

/// What kind of fault event a [`FaultRecord`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node's battery died (its radio is now off).
    Death,
    /// The node missed a beacon: `listened` is `true` when it was awake
    /// and spent the beacon window listening in vain (an orphan-scan
    /// cost), `false` when its radio was off (dead or dormant — no
    /// energy, but the beacon-tracking cost must not be charged either).
    MissedBeacon {
        /// Whether the node listened for the missed beacon.
        listened: bool,
    },
    /// A re-association exchange concluded.
    JoinAttempt {
        /// Whether the coordinator's response got through.
        success: bool,
    },
    /// The node re-associated after being down.
    Reassociated {
        /// Superframes from death to successful re-association.
        latency_superframes: u32,
    },
    /// The node exhausted its retry budget and went dormant.
    Dormant,
}

/// One fault event, streamed through
/// [`TraceSink::on_fault`](crate::sink::TraceSink::on_fault) in
/// deterministic engine order (like every other record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Node index.
    pub node: u32,
    /// What happened.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(p.is_engine_inert());
        assert_eq!(p, FaultPlan::inert());
        assert_eq!(p.loss_drift_db(17), 0.0);
        assert_eq!(p.downlink_boost(17), 0.0);
    }

    #[test]
    fn builders_flip_the_right_inertness_axis() {
        let churn = FaultPlan::inert().with_churn(0.05, 2, 3);
        assert!(!churn.is_engine_inert());
        assert_eq!(churn.loss_drift_db(4), 0.0);

        let outage = FaultPlan::inert().with_outages(0.1, 4);
        assert!(!outage.is_engine_inert());

        let drift = FaultPlan::inert().with_drift(6.0, 8);
        assert!(drift.is_engine_inert());
        assert_ne!(drift.loss_drift_db(4), 0.0);
    }

    #[test]
    fn drift_is_a_triangle_wave_starting_at_zero() {
        let p = FaultPlan::inert().with_drift(8.0, 8);
        assert_eq!(p.loss_drift_db(0), 0.0, "round 0 must match the static run");
        assert!(
            (p.loss_drift_db(4) - 8.0).abs() < 1e-12,
            "peak at mid-period"
        );
        assert!((p.loss_drift_db(2) - 4.0).abs() < 1e-12);
        assert!((p.loss_drift_db(6) - 4.0).abs() < 1e-12, "falling edge");
        assert_eq!(p.loss_drift_db(8), 0.0, "periodic");
        // Pure function: same round, same drift.
        assert_eq!(p.loss_drift_db(5), p.loss_drift_db(5));
    }

    #[test]
    fn bursts_fire_on_the_last_round_of_each_period() {
        let p = FaultPlan {
            burst_every_rounds: 4,
            burst_downlink_rate: 0.6,
            ..FaultPlan::inert()
        };
        let boosts: Vec<f64> = (0..8).map(|r| p.downlink_boost(r)).collect();
        assert_eq!(boosts, vec![0.0, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.6]);
    }

    #[test]
    #[should_panic(expected = "death_rate must be in [0,1)")]
    fn certain_death_rejected() {
        let _ = FaultPlan::inert().with_churn(1.0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one superframe")]
    fn zero_length_outage_rejected() {
        let _ = FaultPlan::inert().with_outages(0.2, 0);
    }
}
