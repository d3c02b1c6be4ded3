//! Sources of contention statistics for the analytical model.
//!
//! The model's equations consume four empirical quantities — `T̄_cont`,
//! `N̄_CCA`, `Pr_col`, `Pr_cf` — as functions of the network load λ and the
//! packet layout. The paper obtains them by Monte-Carlo simulation
//! (Figure 6); this module offers that source plus two alternatives:
//!
//! * [`MonteCarloContention`] — runs `wsn-sim`'s contention simulator on
//!   demand and caches the result per `(λ, payload)`;
//! * [`AnalyticContention`] — a closed-form fixed-point approximation
//!   (extension beyond the paper: no simulation required, useful for
//!   design-space exploration; cruder on collision clustering);
//! * [`IdealContention`] — a contention-free channel (ablation baseline).

use std::collections::HashMap;
use std::sync::Mutex;

use wsn_mac::csma::CsmaParams;
use wsn_mac::RetryPolicy;
use wsn_phy::frame::PacketLayout;
use wsn_sim::contention::run_channel_sim_into;
use wsn_sim::{
    replication_seed, simulate_contention, ChannelSimConfig, ContentionStats, Runner, StatsSink,
};
use wsn_units::{Probability, Seconds};

/// Supplies contention statistics for a given load and packet layout.
pub trait ContentionModel {
    /// Returns the statistics at network load `load` for `packet`.
    fn stats(&self, load: f64, packet: PacketLayout) -> ContentionStats;
}

impl<T: ContentionModel + ?Sized> ContentionModel for &T {
    fn stats(&self, load: f64, packet: PacketLayout) -> ContentionStats {
        (**self).stats(load, packet)
    }
}

/// A collision-free, always-clear channel: the minimum contention cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealContention;

impl ContentionModel for IdealContention {
    fn stats(&self, _load: f64, _packet: PacketLayout) -> ContentionStats {
        ContentionStats::ideal()
    }
}

/// Monte-Carlo backed statistics with memoization.
///
/// # Examples
///
/// ```
/// use wsn_core::contention::{ContentionModel, MonteCarloContention};
/// use wsn_phy::frame::PacketLayout;
///
/// let mc = MonteCarloContention::figure6().with_superframes(10);
/// let packet = PacketLayout::with_payload(50)?;
/// let a = mc.stats(0.3, packet);
/// let b = mc.stats(0.3, packet); // served from cache
/// assert_eq!(a.procedures, b.procedures);
/// # Ok::<(), wsn_phy::frame::FrameError>(())
/// ```
#[derive(Debug)]
pub struct MonteCarloContention {
    nodes: usize,
    csma: CsmaParams,
    retries: RetryPolicy,
    superframes: u32,
    replications: u32,
    seed: u64,
    cache: Mutex<HashMap<(u64, usize), ContentionStats>>,
}

impl MonteCarloContention {
    /// The paper's Figure 6 setting: 100 nodes, standard CSMA parameters,
    /// `N_max = 5`, one replication per point.
    pub fn figure6() -> Self {
        MonteCarloContention {
            nodes: 100,
            csma: CsmaParams::standard_2003(),
            retries: RetryPolicy::paper(),
            superframes: 40,
            replications: 1,
            seed: 0x0F16_6AA0,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the number of nodes sharing the channel.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the CSMA/CA parameters.
    pub fn with_csma(mut self, csma: CsmaParams) -> Self {
        self.csma = csma;
        self
    }

    /// Overrides the number of simulated superframes per point.
    pub fn with_superframes(mut self, superframes: u32) -> Self {
        self.superframes = superframes;
        self
    }

    /// Overrides the number of independent replications merged per point
    /// (clamped to at least 1). With `r > 1` every `(load, payload)`
    /// point is the exact replication-order merge of `r` simulations with
    /// [`replication_seed`]-derived seeds — tighter statistics, and
    /// [`prewarm`](Self::prewarm) parallelizes over the full
    /// `points × replications` grid.
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn key(load: f64, packet: PacketLayout) -> (u64, usize) {
        ((load * 1e9).round() as u64, packet.payload_bytes())
    }

    /// The base configuration of one `(load, packet)` point.
    fn config_for(&self, load: f64, packet: PacketLayout) -> ChannelSimConfig {
        assert!(
            load > 0.0 && load < 1.0,
            "load must be in (0,1), got {load}"
        );
        let key = Self::key(load, packet);
        ChannelSimConfig {
            nodes: self.nodes,
            packet,
            load,
            csma: self.csma,
            retries: self.retries,
            superframes: self.superframes,
            seed: self.seed ^ key.0 ^ (key.1 as u64) << 40,
            synchronized_arrivals: false,
            cfp: wsn_sim::CfpPlan::inert(),
            faults: wsn_sim::FaultPlan::inert(),
        }
    }

    /// One replication's statistics sink for a point. Replication 0
    /// always keeps the point's base seed (so a single-replication source
    /// reproduces pre-replication outputs exactly, and `fig6 --reps N`
    /// follows the same convention); further replications derive their
    /// seeds with [`replication_seed`].
    fn replication_sink(&self, base: &ChannelSimConfig, i: u64) -> StatsSink {
        let mut cfg = base.clone();
        if i > 0 {
            cfg.seed = replication_seed(base.seed, i);
        }
        let timings = cfg.timings();
        let mut sink = StatsSink::new();
        run_channel_sim_into(&cfg, &timings, |_| false, &mut sink);
        sink
    }

    /// The uncached Monte-Carlo evaluation of one `(load, packet)` point:
    /// the fixed-order merge over this source's replications.
    fn compute(&self, load: f64, packet: PacketLayout) -> ContentionStats {
        let base = self.config_for(load, packet);
        if self.replications == 1 {
            return simulate_contention(&base);
        }
        let mut merged = StatsSink::new();
        for i in 0..self.replications as u64 {
            merged.merge(&self.replication_sink(&base, i));
        }
        merged.contention_stats()
    }

    /// Evaluates the given `(load, packet)` points on the parallel runner
    /// and fills the memoization cache, so the model's subsequent
    /// [`ContentionModel::stats`] calls are cache hits.
    ///
    /// The full `points × replications` grid is one flat job list, and
    /// each point's replications merge in replication order afterwards —
    /// so the cached values are bit-identical to what serial on-demand
    /// evaluation would have produced, regardless of the runner's thread
    /// count.
    pub fn prewarm(&self, runner: &Runner, points: &[(f64, PacketLayout)]) {
        // Skip cached points and duplicates, preserving first-seen order.
        let mut fresh: Vec<(f64, PacketLayout)> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache poisoned");
            for &(load, packet) in points {
                let key = Self::key(load, packet);
                if !cache.contains_key(&key)
                    && !fresh.iter().any(|&(l, p)| Self::key(l, p) == key)
                {
                    fresh.push((load, packet));
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let sinks = runner.map_replicated(&fresh, self.replications, |_, &(load, packet), r| {
            self.replication_sink(&self.config_for(load, packet), r)
        });
        let mut cache = self.cache.lock().expect("cache poisoned");
        for (&(load, packet), point_sinks) in fresh.iter().zip(&sinks) {
            let mut merged = StatsSink::new();
            for sink in point_sinks {
                merged.merge(sink);
            }
            cache.insert(Self::key(load, packet), merged.contention_stats());
        }
    }
}

impl ContentionModel for MonteCarloContention {
    fn stats(&self, load: f64, packet: PacketLayout) -> ContentionStats {
        let key = Self::key(load, packet);
        if let Some(hit) = self.cache.lock().expect("cache poisoned").get(&key) {
            return *hit;
        }
        let stats = self.compute(load, packet);
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key, stats);
        stats
    }
}

/// A closed-form approximation of the slotted CSMA/CA statistics —
/// an *extension* beyond the paper, for instant design-space exploration.
///
/// The model iterates a fixed point on the channel utilization `u`:
///
/// * a CCA at a random backoff boundary finds the channel busy with
///   probability `b ≈ u`;
/// * the second CCA of a contention window fails only if a transmission
///   *starts* in that very slot (`c ≈ u/D`, `D` = packet length in slots);
/// * a backoff round fails with `f = b + (1−b)·c`, so channel access fails
///   with `f^(m+1)` after `m = macMaxCSMABackoffs` extra rounds;
/// * collisions require another node to finish its contention in the same
///   slot; with start rate `g ≈ u/D` per slot this is `1 − e^(−κg)`, where
///   the clustering factor `κ` captures the pile-up of deferred nodes at
///   the end of busy periods (κ ≈ 3 matches the Monte-Carlo within a
///   factor ~2 across the Figure 6 range);
/// * utilization feeds back through the expected number of transmissions.
///
/// Accuracy: within tens of percent of the Monte-Carlo for `Pr_cf`,
/// `N̄_CCA` and `T̄_cont` at moderate loads; collision probability is the
/// crudest output. Prefer [`MonteCarloContention`] for reproduction runs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticContention {
    csma: CsmaParams,
    retries: RetryPolicy,
    /// Collision clustering factor κ.
    clustering: f64,
}

impl AnalyticContention {
    /// Creates the approximation with the standard CSMA parameters and
    /// κ = 3.
    pub fn new() -> Self {
        AnalyticContention {
            csma: CsmaParams::standard_2003(),
            retries: RetryPolicy::paper(),
            clustering: 3.0,
        }
    }

    /// Overrides the CSMA parameters.
    pub fn with_csma(mut self, csma: CsmaParams) -> Self {
        self.csma = csma;
        self
    }

    /// Overrides the clustering factor κ.
    ///
    /// # Panics
    ///
    /// Panics unless `kappa` is positive and finite.
    pub fn with_clustering(mut self, kappa: f64) -> Self {
        assert!(kappa.is_finite() && kappa > 0.0, "κ must be positive");
        self.clustering = kappa;
        self
    }
}

impl Default for AnalyticContention {
    fn default() -> Self {
        AnalyticContention::new()
    }
}

impl ContentionModel for AnalyticContention {
    fn stats(&self, load: f64, packet: PacketLayout) -> ContentionStats {
        assert!(
            load > 0.0 && load < 1.0,
            "load must be in (0,1), got {load}"
        );
        let slot_us = 320.0;
        // Packet + ACK hold, in backoff slots.
        let d = (packet.duration().micros() + 544.0) / slot_us;
        let rounds = self.csma.max_backoffs as f64 + 1.0;

        // Fixed point on utilization: retransmissions inflate the offered
        // airtime beyond λ.
        let mut u = load;
        let mut f = 0.0;
        let mut pr_col = 0.0;
        for _ in 0..64 {
            let b = u.min(0.999);
            let c = (u / d).min(0.999);
            f = b + (1.0 - b) * c;
            let g = u / d;
            pr_col = 1.0 - (-self.clustering * g).exp();
            // Expected transmissions per transaction (collision-driven
            // retries, truncated at N_max).
            let q = pr_col.min(0.999);
            let n = self.retries.n_max() as f64;
            let e_tx = (1.0 - q.powf(n)) / (1.0 - q);
            let next = (load * e_tx).min(0.98);
            if (next - u).abs() < 1e-12 {
                u = next;
                break;
            }
            u = next;
        }

        let b = u.min(0.999);
        let pr_cf = f.powf(rounds);
        // CCAs per procedure: rounds reached follow a geometric in f.
        let reach = (1.0 - f.powf(rounds)) / (1.0 - f).max(1e-12);
        let mean_ccas = (2.0 - b) * reach;

        // Contention duration: escalating mean backoff windows plus the
        // CCA slots of each round reached.
        let mut t_slots = 0.0;
        let mut p_reach = 1.0;
        for k in 0..self.csma.max_backoffs as u32 + 1 {
            let be = (self.csma.min_be as u32 + k).min(self.csma.max_be as u32);
            let window = ((1u64 << be) - 1) as f64 / 2.0;
            t_slots += p_reach * (window + 2.0 - b);
            p_reach *= f;
        }

        ContentionStats {
            mean_contention: Seconds::from_micros(t_slots * slot_us),
            mean_ccas,
            pr_collision: Probability::clamped(pr_col),
            pr_access_failure: Probability::clamped(pr_cf),
            procedures: 0,
            transmissions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(bytes: usize) -> PacketLayout {
        PacketLayout::with_payload(bytes).unwrap()
    }

    #[test]
    fn ideal_is_contention_free() {
        let s = IdealContention.stats(0.9, packet(120));
        assert_eq!(s.pr_access_failure, Probability::ZERO);
        assert_eq!(s.pr_collision, Probability::ZERO);
    }

    #[test]
    fn monte_carlo_caches() {
        let mc = MonteCarloContention::figure6().with_superframes(6);
        let p = packet(50);
        let t0 = std::time::Instant::now();
        let a = mc.stats(0.4, p);
        let cold = t0.elapsed();
        let t1 = std::time::Instant::now();
        let b = mc.stats(0.4, p);
        let warm = t1.elapsed();
        assert_eq!(a, b);
        assert!(
            warm < cold / 10,
            "cache hit ({warm:?}) should be far faster than miss ({cold:?})"
        );
    }

    #[test]
    fn prewarm_fills_cache_with_identical_values() {
        let p50 = packet(50);
        let p100 = packet(100);
        let points = [(0.2, p50), (0.4, p100), (0.2, p50)]; // duplicate on purpose

        let warmed = MonteCarloContention::figure6().with_superframes(6);
        warmed.prewarm(&Runner::with_threads(4), &points);

        let cold = MonteCarloContention::figure6().with_superframes(6);
        for &(load, pkt) in &points {
            assert_eq!(warmed.stats(load, pkt), cold.stats(load, pkt));
        }
    }

    #[test]
    #[should_panic(expected = "load must be in (0,1)")]
    fn monte_carlo_rejects_bad_load() {
        let mc = MonteCarloContention::figure6();
        let _ = mc.stats(0.0, packet(50));
    }

    #[test]
    fn replicated_prewarm_matches_serial_stats() {
        let p = packet(80);
        let points = [(0.3, p), (0.5, p)];
        let warmed = MonteCarloContention::figure6()
            .with_superframes(5)
            .with_replications(3);
        warmed.prewarm(&Runner::with_threads(4), &points);
        let cold = MonteCarloContention::figure6()
            .with_superframes(5)
            .with_replications(3);
        for &(load, pkt) in &points {
            assert_eq!(warmed.stats(load, pkt), cold.stats(load, pkt));
        }
        // Three replications observe three single-replication sample sets.
        let single = MonteCarloContention::figure6().with_superframes(5);
        let one = single.stats(0.3, p);
        let three = cold.stats(0.3, p);
        assert!(three.procedures > one.procedures);
    }

    #[test]
    fn analytic_stats_degrade_with_load() {
        let a = AnalyticContention::new();
        let p = packet(100);
        let lo = a.stats(0.1, p);
        let hi = a.stats(0.7, p);
        assert!(hi.mean_contention > lo.mean_contention);
        assert!(hi.mean_ccas > lo.mean_ccas);
        assert!(hi.pr_collision.value() > lo.pr_collision.value());
        assert!(hi.pr_access_failure.value() > lo.pr_access_failure.value());
    }

    #[test]
    fn analytic_tracks_monte_carlo_order_of_magnitude() {
        let analytic = AnalyticContention::new();
        let mc = MonteCarloContention::figure6().with_superframes(20);
        let p = packet(100);
        for load in [0.2, 0.42, 0.6] {
            let a = analytic.stats(load, p);
            let m = mc.stats(load, p);
            // N_CCA within ±40 %.
            let cca_ratio = a.mean_ccas / m.mean_ccas;
            assert!(
                (0.6..1.7).contains(&cca_ratio),
                "λ={load}: N_CCA analytic {:.2} vs MC {:.2}",
                a.mean_ccas,
                m.mean_ccas
            );
            // Contention duration within a factor 2.5.
            let t_ratio = a.mean_contention.secs() / m.mean_contention.secs();
            assert!(
                (0.4..2.5).contains(&t_ratio),
                "λ={load}: T_cont analytic {} vs MC {}",
                a.mean_contention,
                m.mean_contention
            );
            // Access failure within a factor ~3 once it is non-negligible.
            if m.pr_access_failure.value() > 0.02 {
                let cf_ratio = a.pr_access_failure.value() / m.pr_access_failure.value();
                assert!(
                    (0.3..3.5).contains(&cf_ratio),
                    "λ={load}: Pr_cf analytic {:.3} vs MC {:.3}",
                    a.pr_access_failure.value(),
                    m.pr_access_failure.value()
                );
            }
        }
    }

    #[test]
    fn analytic_ideal_limit() {
        // Vanishing load approaches the ideal contention cost.
        let a = AnalyticContention::new().stats(0.001, packet(100));
        let ideal = ContentionStats::ideal();
        assert!((a.mean_ccas - 2.0).abs() < 0.05, "N_CCA {}", a.mean_ccas);
        assert!(a.pr_access_failure.value() < 1e-4);
        let ratio = a.mean_contention.secs() / ideal.mean_contention.secs();
        assert!((0.9..1.1).contains(&ratio), "T_cont ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "κ must be positive")]
    fn analytic_rejects_bad_kappa() {
        let _ = AnalyticContention::new().with_clustering(0.0);
    }
}
