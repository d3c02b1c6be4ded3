//! Statistics accumulators and the contention-statistics exchange type.

use core::fmt;

use wsn_mac::timing::unit_backoff_period;
use wsn_units::{Probability, Seconds};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use wsn_sim::stats::Accumulator;
///
/// let mut acc = Accumulator::default();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator into this one using Chan et al.'s
    /// pairwise mean/variance combination.
    ///
    /// The result is exact (up to floating-point rounding) and independent
    /// of how the samples were split between the two halves, which is what
    /// lets sharded replications be reduced on worker threads and combined
    /// afterwards. Merging in a fixed order is bit-deterministic.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsn_sim::stats::Accumulator;
    ///
    /// let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    /// let mut whole = Accumulator::default();
    /// let (mut left, mut right) = (Accumulator::default(), Accumulator::default());
    /// for (i, &x) in xs.iter().enumerate() {
    ///     whole.push(x);
    ///     if i < 3 { left.push(x) } else { right.push(x) }
    /// }
    /// left.merge(&right);
    /// assert_eq!(left.count(), whole.count());
    /// assert!((left.mean() - whole.mean()).abs() < 1e-12);
    /// assert!((left.population_variance() - whole.population_variance()).abs() < 1e-12);
    /// ```
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_a = self.n as f64;
        let n_b = other.n as f64;
        let n = n_a + n_b;
        let delta = other.mean - self.mean;
        self.mean += delta * (n_b / n);
        self.m2 += other.m2 + delta * delta * (n_a * n_b / n);
        self.n += other.n;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two samples).
    pub fn population_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n as f64 - 1.0) / self.n as f64).sqrt()
        }
    }

    /// The accumulator of every sample multiplied by `factor`: the count is
    /// unchanged, the mean scales by `factor` and the sum of squared
    /// deviations by `factor²`. Exact (up to floating-point rounding), so
    /// unit conversions can be applied *after* accumulation — e.g. delivery
    /// delays recorded in superframes rescaled to seconds by the
    /// inter-beacon period — without replaying the samples.
    pub fn scaled(&self, factor: f64) -> Accumulator {
        Accumulator {
            n: self.n,
            mean: self.mean * factor,
            m2: self.m2 * factor * factor,
        }
    }
}

/// Ratio counter for event probabilities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    hits: u64,
    trials: u64,
}

impl Counter {
    /// Registers a trial, counting it as a hit when `hit` is true.
    pub fn observe(&mut self, hit: bool) {
        self.trials += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Merges another counter into this one (exact: counts simply add).
    pub fn merge(&mut self, other: &Counter) {
        self.hits += other.hits;
        self.trials += other.trials;
    }

    /// Hit ratio (0 when no trials were observed).
    pub fn ratio(&self) -> Probability {
        if self.trials == 0 {
            Probability::ZERO
        } else {
            Probability::clamped(self.hits as f64 / self.trials as f64)
        }
    }

    /// Binomial standard error of the hit ratio, `√(p̂(1−p̂)/n)` (0 with
    /// fewer than two trials).
    pub fn standard_error(&self) -> f64 {
        if self.trials < 2 {
            0.0
        } else {
            let p = self.hits as f64 / self.trials as f64;
            (p * (1.0 - p) / self.trials as f64).sqrt()
        }
    }
}

/// Online reducer for contention statistics: the exact sufficient
/// statistics behind [`ContentionStats`], kept in mergeable form.
///
/// [`crate::sink::StatsSink`] feeds one of these directly from the
/// event stream, so a replication never materializes its trace; the
/// parallel runner merges per-shard accumulators in a fixed order
/// ([`Accumulator::merge`] / [`Counter::merge`]), which makes the parallel
/// reduction bit-identical to the serial one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContentionAccumulator {
    /// Contention duration samples in microseconds.
    pub contention_us: Accumulator,
    /// CCAs-per-procedure samples.
    pub ccas: Accumulator,
    /// Collision counter over transmissions.
    pub collisions: Counter,
    /// Access-failure counter over procedures.
    pub access_failures: Counter,
}

impl ContentionAccumulator {
    /// Merges another reducer into this one (exact; see
    /// [`Accumulator::merge`]).
    pub fn merge(&mut self, other: &ContentionAccumulator) {
        self.contention_us.merge(&other.contention_us);
        self.ccas.merge(&other.ccas);
        self.collisions.merge(&other.collisions);
        self.access_failures.merge(&other.access_failures);
    }

    /// Finalizes into the model's exchange type.
    pub fn finish(&self) -> ContentionStats {
        ContentionStats {
            mean_contention: Seconds::from_micros(self.contention_us.mean()),
            mean_ccas: self.ccas.mean(),
            pr_collision: self.collisions.ratio(),
            pr_access_failure: self.access_failures.ratio(),
            procedures: self.contention_us.count(),
            transmissions: self.collisions.trials(),
        }
    }
}

/// The four contention quantities the analytical model consumes (paper
/// Figure 6), plus sample counts for error estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionStats {
    /// Mean contention duration `T̄_cont` (contention start → transmission
    /// start, or → failure report).
    pub mean_contention: Seconds,
    /// Mean number of clear channel assessments per procedure `N̄_CCA`.
    pub mean_ccas: f64,
    /// Residual collision probability per transmission `Pr_col`.
    pub pr_collision: Probability,
    /// Channel access failure probability per procedure `Pr_cf`.
    pub pr_access_failure: Probability,
    /// Number of contention procedures observed.
    pub procedures: u64,
    /// Number of transmissions observed.
    pub transmissions: u64,
}

impl ContentionStats {
    /// An idealized, collision-free environment: the minimum the procedure
    /// can cost (mean initial backoff of 3.5 slots for BE = 3, two CCAs,
    /// nothing ever busy). Useful as an ablation baseline.
    pub fn ideal() -> Self {
        let slot_us = unit_backoff_period().micros();
        ContentionStats {
            // Mean backoff (2^3−1)/2 = 3.5 periods + 2 CCA slots.
            mean_contention: Seconds::from_micros(3.5 * slot_us + 2.0 * slot_us),
            mean_ccas: 2.0,
            pr_collision: Probability::ZERO,
            pr_access_failure: Probability::ZERO,
            procedures: 0,
            transmissions: 0,
        }
    }
}

impl fmt::Display for ContentionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T_cont={} N_CCA={:.2} Pr_col={:.4} Pr_cf={:.4} (n={})",
            self.mean_contention,
            self.mean_ccas,
            self.pr_collision.value(),
            self.pr_access_failure.value(),
            self.procedures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_welford_reference() {
        let mut acc = Accumulator::default();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            acc.push(x);
        }
        assert_eq!(acc.count(), 5);
        assert!((acc.mean() - 3.0).abs() < 1e-12);
        assert!((acc.population_variance() - 2.0).abs() < 1e-12);
        assert!(acc.standard_error() > 0.0);
    }

    #[test]
    fn accumulator_is_shift_stable() {
        // Welford should not lose precision with a large offset.
        let mut acc = Accumulator::default();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            acc.push(x);
        }
        assert!((acc.mean() - (1e9 + 10.0)).abs() < 1e-3);
        assert!((acc.population_variance() - 22.5).abs() < 1e-3);
    }

    #[test]
    fn accumulator_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 100.0 + 1e6).collect();
        let mut whole = Accumulator::default();
        for &x in &xs {
            whole.push(x);
        }
        for split in [0, 1, 28, 56, 57] {
            let (mut a, mut b) = (Accumulator::default(), Accumulator::default());
            for &x in &xs[..split] {
                a.push(x);
            }
            for &x in &xs[split..] {
                b.push(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-6, "split {split}");
            assert!(
                (a.population_variance() - whole.population_variance()).abs() < 1e-6,
                "split {split}"
            );
        }
    }

    #[test]
    fn accumulator_merge_with_empty_is_identity() {
        let mut acc = Accumulator::default();
        acc.push(3.0);
        acc.push(5.0);
        let snapshot = acc;
        acc.merge(&Accumulator::default());
        assert_eq!(acc, snapshot);
        let mut empty = Accumulator::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn accumulator_scaled_matches_scaling_the_samples() {
        let xs = [2.0, 4.0, 4.0, 5.0, 7.0, 9.0];
        let factor = 0.98304;
        let mut raw = Accumulator::default();
        let mut reference = Accumulator::default();
        for &x in &xs {
            raw.push(x);
            reference.push(x * factor);
        }
        let scaled = raw.scaled(factor);
        assert_eq!(scaled.count(), reference.count());
        assert!((scaled.mean() - reference.mean()).abs() < 1e-12);
        assert!((scaled.population_variance() - reference.population_variance()).abs() < 1e-12);
        assert!((scaled.standard_error() - reference.standard_error()).abs() < 1e-12);
    }

    #[test]
    fn counter_standard_error_is_binomial() {
        let mut c = Counter::default();
        assert_eq!(c.standard_error(), 0.0);
        for i in 0..100 {
            c.observe(i < 16);
        }
        let want = (0.16 * 0.84 / 100.0_f64).sqrt();
        assert!((c.standard_error() - want).abs() < 1e-12);
    }

    #[test]
    fn counter_merge_adds_counts() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        for i in 0..7 {
            a.observe(i % 2 == 0);
        }
        for i in 0..5 {
            b.observe(i == 0);
        }
        a.merge(&b);
        assert_eq!(a.trials(), 12);
        assert_eq!(a.hits(), 5);
    }

    #[test]
    fn contention_accumulator_merge_is_exact() {
        let mut whole = ContentionAccumulator::default();
        let (mut left, mut right) = (
            ContentionAccumulator::default(),
            ContentionAccumulator::default(),
        );
        for i in 0..40u32 {
            let part = if i < 17 { &mut left } else { &mut right };
            for acc in [&mut whole, part] {
                acc.contention_us.push(320.0 * (i % 9) as f64);
                acc.ccas.push(2.0 + (i % 3) as f64);
                acc.access_failures.observe(i % 10 == 0);
                if i % 10 != 0 {
                    acc.collisions.observe(i % 7 == 0);
                }
            }
        }
        left.merge(&right);
        let merged = left.finish();
        let direct = whole.finish();
        assert_eq!(merged.procedures, direct.procedures);
        assert_eq!(merged.transmissions, direct.transmissions);
        assert_eq!(merged.pr_collision, direct.pr_collision);
        assert_eq!(merged.pr_access_failure, direct.pr_access_failure);
        assert!((merged.mean_ccas - direct.mean_ccas).abs() < 1e-12);
    }

    #[test]
    fn counter_ratio() {
        let mut c = Counter::default();
        assert_eq!(c.ratio(), Probability::ZERO);
        for i in 0..10 {
            c.observe(i % 4 == 0);
        }
        assert_eq!(c.hits(), 3);
        assert_eq!(c.trials(), 10);
        assert!((c.ratio().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn ideal_stats_are_contention_free() {
        let s = ContentionStats::ideal();
        assert_eq!(s.pr_collision, Probability::ZERO);
        assert_eq!(s.pr_access_failure, Probability::ZERO);
        assert_eq!(s.mean_ccas, 2.0);
        assert!((s.mean_contention.micros() - 1760.0).abs() < 1e-9);
    }

    #[test]
    fn stats_display() {
        let s = ContentionStats::ideal();
        let txt = s.to_string();
        assert!(txt.contains("N_CCA=2.00"), "{txt}");
    }
}
