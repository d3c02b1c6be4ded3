//! Deterministic parallel replication/sweep runner.
//!
//! Every figure binary runs the Monte-Carlo contention simulator over tens
//! of independent parameter points (and, for tighter confidence intervals,
//! over independent replications of the same point). Those runs share no
//! state, so they parallelize perfectly — *if* the result is guaranteed to
//! be exactly what the serial loop would have produced. This module
//! provides that guarantee:
//!
//! ## Seed-derivation scheme
//!
//! Replication `i` of a configuration with master seed `m` runs with seed
//! [`replication_seed`]`(m, i)` — the `i`-th output of the SplitMix64
//! stream seeded with `m` (computed in O(1) because SplitMix64's state
//! advances by a fixed constant, so the `i`-th state is
//! `m + (i+1)·0x9E37_79B9_7F4A_7C15` and one finalizer application yields
//! the output). Each replication's seed therefore depends only on
//! `(master, i)`, never on which thread ran it or in what order.
//!
//! ## Determinism guarantee
//!
//! [`Runner::map`] assigns jobs to a work-stealing index counter but
//! returns results ordered by job index, and the statistic merges
//! ([`StatsSink::merge`], built on Chan et al.'s pairwise mean/variance
//! combination) are performed serially in job-index order after all
//! workers finish. Consequently **the output is bit-identical for every
//! thread count**, including `--threads 1`: parallelism changes wall-clock
//! time, never results. `runner_determinism` integration tests pin this.
//!
//! ## Thread-count selection
//!
//! [`Runner::from_env`] uses all available cores, overridden by the
//! `WSN_SIM_THREADS` environment variable (CI pins single-threaded runs
//! with `WSN_SIM_THREADS=1`); the figure binaries additionally accept
//! `--threads N`, which takes precedence.
//!
//! ## Per-worker simulation workspaces
//!
//! The contention engine draws its scratch (calendar-queue ring, node
//! array, offsets, corruption buffer) from a thread-local
//! [`SimWorkspace`](crate::contention::SimWorkspace). Each worker spawned
//! by [`Runner::map`] therefore allocates that scratch once — on the first
//! job it steals — and reuses it for every further job, so a channels ×
//! replications grid pays O(workers) allocations instead of O(jobs).
//! Workers are scoped threads, so their workspaces live for one `map`
//! call; only the serial path (and the single-threaded fast path, which
//! runs jobs inline) carries its workspace across calls. The workspace is
//! pure scratch (fully reinitialized per run), so this reuse cannot
//! perturb the determinism guarantee; the `workspace_reuse` suite pins
//! that.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::contention::{run_channel_sim_into, ChannelSimConfig};
use crate::sink::StatsSink;
use crate::stats::ContentionStats;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "WSN_SIM_THREADS";

/// SplitMix64 finalizer (Steele, Lea & Flood's `mix64` variant 13).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th output of the SplitMix64 stream seeded with `master`:
/// the per-replication seed used by [`Runner::replicate_contention`].
///
/// # Examples
///
/// ```
/// use wsn_sim::runner::replication_seed;
///
/// // Pure function of (master, index) — thread-schedule independent.
/// assert_eq!(replication_seed(42, 3), replication_seed(42, 3));
/// assert_ne!(replication_seed(42, 3), replication_seed(42, 4));
/// assert_ne!(replication_seed(42, 3), replication_seed(43, 3));
/// ```
pub fn replication_seed(master: u64, index: u64) -> u64 {
    splitmix64_mix(master.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A job that panicked under [`Runner::map_catching`], reduced to its
/// panic message.
///
/// The runner's plain [`Runner::map`] propagates job panics to the caller
/// — correct for in-code experiments, fatal for a batch farm where one
/// poisoned saved scenario must not take down 10 000 healthy ones.
/// [`Runner::map_catching`] confines each panic to its own job slot and
/// hands the caller this typed residue instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, downcast to text where possible.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-size pool of scoped worker threads executing embarrassingly
/// parallel jobs with deterministic, index-ordered results.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A single-threaded runner (the serial reference path).
    pub fn serial() -> Self {
        Runner { threads: 1 }
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A runner sized from the environment: `WSN_SIM_THREADS` if set to a
    /// positive integer, otherwise the number of available cores.
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_var.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Runner::with_threads(threads)
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `jobs` on the worker pool, returning results in job
    /// order. `f` receives `(job_index, &job)`.
    ///
    /// Job-to-thread assignment is dynamic (an atomic index counter), but
    /// because every job is a pure function of its index and results are
    /// reassembled by index, the output is identical for any thread count.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(jobs.len());
        // Telemetry: the map/job counts are properties of the work list
        // (deterministic section); per-job walls accumulate in a
        // worker-local shard and fold in once per worker, so an enabled
        // run costs one registry lock per worker, not one per job.
        let telem = crate::telemetry::enabled() && !jobs.is_empty();
        if telem {
            crate::telemetry::note_map(jobs.len() as u64, workers.max(1) as u64);
        }
        if workers <= 1 {
            if !telem {
                return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
            }
            let map_span = crate::telemetry::Span::enter(crate::telemetry::Phase::Map);
            let mut job_walls = crate::telemetry::TimingStat::NEW;
            let out = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let t0 = Instant::now();
                    let r = f(i, job);
                    job_walls.record(t0.elapsed().as_secs_f64() * 1e3);
                    r
                })
                .collect();
            crate::telemetry::merge_job_timing(&job_walls);
            drop(map_span);
            return out;
        }

        let map_span = telem.then(|| crate::telemetry::Span::enter(crate::telemetry::Phase::Map));
        let next = AtomicUsize::new(0);
        let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut job_walls = telem.then_some(crate::telemetry::TimingStat::NEW);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        match job_walls.as_mut() {
                            None => local.push((i, f(i, &jobs[i]))),
                            Some(walls) => {
                                let t0 = Instant::now();
                                let r = f(i, &jobs[i]);
                                walls.record(t0.elapsed().as_secs_f64() * 1e3);
                                local.push((i, r));
                            }
                        }
                    }
                    if let Some(walls) = job_walls {
                        crate::telemetry::merge_job_timing(&walls);
                    }
                    gathered
                        .lock()
                        .expect("a sibling worker panicked")
                        .extend(local);
                });
            }
        });
        drop(map_span);

        let mut pairs = gathered
            .into_inner()
            .expect("a worker panicked while holding the result lock");
        debug_assert_eq!(pairs.len(), jobs.len(), "every job produces one result");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`map`](Self::map), but a panicking job yields
    /// `Err(`[`JobPanic`]`)` in its slot instead of taking down the whole
    /// map call (and, under parallelism, the sibling workers' results).
    ///
    /// Each job runs under `catch_unwind`; the `AssertUnwindSafe` wrapper
    /// is sound here because jobs are pure functions of their index — a
    /// panicked job's only observable effect is its discarded result
    /// slot, so no shared state can be seen half-mutated. Results keep
    /// the deterministic job-index order; which jobs panic is as
    /// reproducible as any other job output.
    ///
    /// The caught panic still flows through the global panic hook first
    /// (so the default "thread panicked" line appears on stderr once per
    /// poisoned job); the process, and every other job, keeps running.
    pub fn map_catching<T, R, F>(&self, jobs: &[T], f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map(jobs, |i, job| {
            std::panic::catch_unwind(AssertUnwindSafe(|| f(i, job)))
                .map_err(|payload| JobPanic {
                    message: panic_message(payload),
                })
        })
    }

    /// Simulates every configuration of a parameter sweep in parallel,
    /// reducing each point online ([`StatsSink`] — no trace allocation).
    /// Results are in `configs` order and bit-identical to running
    /// [`crate::simulate_contention`] over the slice serially.
    pub fn sweep_contention(&self, configs: &[ChannelSimConfig]) -> Vec<ContentionStats> {
        self.map(configs, |_, cfg| {
            let timings = cfg.timings();
            let mut sink = StatsSink::new();
            run_channel_sim_into(cfg, &timings, |_| false, &mut sink);
            sink.contention_stats()
        })
    }

    /// Maps `f` over the flat `items × replications` grid, returning one
    /// `Vec` of per-replication results per item (item order preserved,
    /// replication order within each item). `f` receives
    /// `(item_index, &item, replication_index)`.
    ///
    /// This is the shared fan-out discipline behind every replicated
    /// contention sweep — contention prewarming and figure timing sweeps:
    /// all jobs go to the pool as one list (maximum parallelism),
    /// and callers merge each item's replications in replication order,
    /// which keeps the reduction bit-identical for every thread count.
    pub fn map_replicated<T, R, F>(&self, items: &[T], replications: u32, f: F) -> Vec<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, u64) -> R + Sync,
    {
        let reps = replications.max(1) as usize;
        let jobs: Vec<(usize, u64)> = (0..items.len())
            .flat_map(|i| (0..reps as u64).map(move |r| (i, r)))
            .collect();
        let mut flat = self.map(&jobs, |_, &(i, r)| f(i, &items[i], r)).into_iter();
        (0..items.len())
            .map(|_| flat.by_ref().take(reps).collect())
            .collect()
    }

    /// Runs `replications` independent copies of `base` (seeds derived via
    /// [`replication_seed`]) and merges their full statistics sinks in
    /// replication order.
    ///
    /// The merged [`StatsSink`] exposes the sufficient statistics behind
    /// [`ContentionStats`] — in particular the
    /// [`Accumulator::standard_error`](crate::stats::Accumulator::standard_error)
    /// of the mean contention duration and CCA count, and the binomial
    /// errors of the probability counters — which the figure binaries
    /// print as `value ± stderr` columns.
    ///
    /// The per-configuration [`crate::contention::SlotTimings`] are
    /// computed once and shared by every replication.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero.
    pub fn replicate_contention_sink(
        &self,
        base: &ChannelSimConfig,
        replications: u32,
    ) -> StatsSink {
        assert!(replications > 0, "at least one replication required");
        let timings = base.timings();
        let indices: Vec<u64> = (0..replications as u64).collect();
        let shards = self.map(&indices, |_, &i| {
            let mut cfg = base.clone();
            cfg.seed = replication_seed(base.seed, i);
            let mut sink = StatsSink::new();
            run_channel_sim_into(&cfg, &timings, |_| false, &mut sink);
            sink
        });
        let mut merged = StatsSink::new();
        for shard in &shards {
            merged.merge(shard);
        }
        merged
    }

    /// Runs `replications` independent copies of `base` and merges their
    /// statistics in replication order; the finalized form of
    /// [`replicate_contention_sink`](Self::replicate_contention_sink).
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero.
    pub fn replicate_contention(
        &self,
        base: &ChannelSimConfig,
        replications: u32,
    ) -> ContentionStats {
        self.replicate_contention_sink(base, replications)
            .contention_stats()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_job_order() {
        let jobs: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 5, 16] {
            let runner = Runner::with_threads(threads);
            let out = runner.map(&jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = jobs.iter().map(|&x| x * x).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let runner = Runner::with_threads(8);
        let empty: Vec<u32> = Vec::new();
        assert!(runner.map(&empty, |_, &x| x).is_empty());
        assert_eq!(runner.map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_clamped_positive() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
        assert_eq!(Runner::serial().threads(), 1);
    }

    #[test]
    fn replication_seeds_differ_from_master_and_each_other() {
        let seeds: Vec<u64> = (0..32).map(|i| replication_seed(0xABCD, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision");
        assert!(!seeds.contains(&0xABCD));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let configs: Vec<ChannelSimConfig> = [0.2, 0.4, 0.6]
            .iter()
            .map(|&load| {
                let mut c = ChannelSimConfig::figure6(50, load, 0x5EED);
                c.superframes = 6;
                c
            })
            .collect();
        let serial = Runner::serial().sweep_contention(&configs);
        let parallel = Runner::with_threads(3).sweep_contention(&configs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn replicate_contention_sink_matches_stats() {
        let mut base = ChannelSimConfig::figure6(50, 0.4, 0xC0DE);
        base.superframes = 5;
        base.nodes = 30;
        let runner = Runner::with_threads(2);
        let sink = runner.replicate_contention_sink(&base, 4);
        assert_eq!(
            sink.contention_stats(),
            runner.replicate_contention(&base, 4)
        );
        // Four replications of samples → meaningful standard errors.
        assert!(sink.contention.contention_us.standard_error() > 0.0);
        assert!(sink.contention.ccas.standard_error() > 0.0);
    }

    #[test]
    fn map_catching_confines_panics_to_their_job_slot() {
        let jobs: Vec<u64> = (0..23).collect();
        for threads in [1, 4] {
            let runner = Runner::with_threads(threads);
            let out = runner.map_catching(&jobs, |_, &x| {
                if x % 7 == 3 {
                    panic!("poisoned job {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), jobs.len(), "threads={threads}");
            for (i, result) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.message, format!("poisoned job {i}"));
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i as u64 * 2);
                }
            }
        }
    }

    #[test]
    fn map_catching_is_deterministic_across_thread_counts() {
        let jobs: Vec<u64> = (0..31).collect();
        let run = |threads| {
            Runner::with_threads(threads).map_catching(&jobs, |_, &x| {
                if x == 11 {
                    panic!("always fails");
                }
                x
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn parallel_replications_are_bit_identical_to_serial() {
        let mut base = ChannelSimConfig::figure6(50, 0.4, 0xFEED);
        base.superframes = 5;
        base.nodes = 30;
        let serial = Runner::serial().replicate_contention(&base, 8);
        for threads in [2, 3, 8] {
            let parallel = Runner::with_threads(threads).replicate_contention(&base, 8);
            assert_eq!(serial, parallel, "threads={threads}");
        }
        // More replications accumulate more procedures.
        let fewer = Runner::serial().replicate_contention(&base, 2);
        assert!(serial.procedures > fewer.procedures);
    }
}
