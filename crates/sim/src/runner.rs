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
//! advances by a fixed constant: a [`SplitMix64`] started at
//! `m + i·0x9E37_79B9_7F4A_7C15` yields it as its first output). Each
//! replication's seed therefore depends only on
//! `(master, i)`, never on which thread ran it or in what order. The one
//! exception is [`Runner::sweep_contention`]: its replication 0 keeps the
//! configuration's own seed, so a one-replication sweep is the plain
//! single run.
//!
//! ## Determinism guarantee
//!
//! Every parallel call is a [`Runner::stream`]: the caller feeds jobs,
//! workers pull them in feed order from one shared queue, and the caller
//! receives each result in feed order, whichever worker finished it
//! first. Statistic merges ([`StatsSink::merge`], built on Chan et al.'s
//! pairwise mean/variance combination) run serially on the caller in that
//! order. Consequently **the output is bit-identical for every thread
//! count**, including `--threads 1`: parallelism changes wall-clock time,
//! never results. `runner_determinism` integration tests pin this.
//! [`Runner::map`] is the collect-everything case (feed every job, then
//! receive every result); the scenario grid executor and the batch farm
//! receive and reduce results while later jobs still run.
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
//! records in arrival order, fault state, corruption buffer) from a
//! thread-local [`SimWorkspace`](crate::contention::SimWorkspace). Each
//! worker of a streaming call therefore allocates that scratch once — on
//! the first job it pulls — and reuses it for every further job, so a
//! channels × replications grid pays O(workers) allocations instead of
//! O(jobs). Workers are scoped threads that live for one streaming call: one
//! `map`, one scenario grid, or one farm stream (every open-loop entry
//! between two policy entries). A single-threaded runner runs jobs
//! inline on the caller, so that path carries its workspace across
//! calls. The workspace is pure scratch (fully reinitialized per run),
//! so this reuse cannot perturb the determinism guarantee; the
//! `workspace_reuse` suite pins that.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::thread;

use wsn_phy::noise::SplitMix64;

use crate::contention::{run_channel_sim_into_ws, with_workspace, ChannelSimConfig};
use crate::sink::StatsSink;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "WSN_SIM_THREADS";

/// The `index`-th output of the SplitMix64 stream seeded with `master`:
/// the seed of replication `index` (see the seed-derivation scheme above).
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
    SplitMix64::new(master.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

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

/// A finished job on its way to the caller: its result or panic payload
/// and, with telemetry on, its held telemetry shard.
struct Done<R> {
    result: thread::Result<R>,
    shard: Option<Box<crate::telemetry::JobShard>>,
}

/// Runs one job under panic isolation (and, with telemetry on, with its
/// engine metrics and wall clock held for the caller).
fn run_job<J, R>(f: &(dyn Fn(J) -> R + Sync), job: J, telem: bool) -> Done<R> {
    let run = || std::panic::catch_unwind(AssertUnwindSafe(|| f(job)));
    let (result, shard) = if telem {
        let (result, shard) = crate::telemetry::hold(run);
        (result, Some(shard))
    } else {
        (run(), None)
    };
    Done { result, shard }
}

/// The jobs fed but not yet started, tagged with their feed sequence
/// number; workers wait on `wake` while it is empty and open.
struct JobQueue<J> {
    state: Mutex<QueueState<J>>,
    wake: Condvar,
}

struct QueueState<J> {
    jobs: VecDeque<(usize, J)>,
    closed: bool,
}

impl<J> JobQueue<J> {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn push(&self, seq: usize, job: J) {
        self.lock().jobs.push_back((seq, job));
        self.wake.notify_one();
    }

    /// The oldest unstarted job; blocks while the queue is empty and
    /// open, `None` once it is closed.
    fn pop(&self) -> Option<(usize, J)> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drops every unstarted job and lets idle workers exit.
    fn close(&self) {
        let mut state = self.lock();
        state.jobs.clear();
        state.closed = true;
        drop(state);
        self.wake.notify_all();
    }

    /// Recovering a poisoned guard is sound: every update (push, pop,
    /// clear, close) leaves the queue valid, and `close` runs in
    /// [`Stream`]'s `Drop`, which must not panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<J>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker loop: pull the oldest unstarted job, run it, send the
/// result back tagged with its sequence number; exit when the stream
/// closes.
fn work<J, R>(
    queue: &JobQueue<J>,
    f: &(dyn Fn(J) -> R + Sync),
    done: mpsc::Sender<(usize, Done<R>)>,
    telem: bool,
) {
    while let Some((seq, job)) = queue.pop() {
        if done.send((seq, run_job(f, job, telem))).is_err() {
            return;
        }
    }
}

/// How a [`Stream`] executes its jobs.
enum Exec<'s, J, R> {
    /// One worker: jobs wait here and run on the caller when received.
    Inline(&'s (dyn Fn(J) -> R + Sync), VecDeque<J>),
    /// Scoped workers pull jobs from `queue`; results arrive on `done`
    /// in completion order and wait in `ready` (slot 0 = the next one
    /// to receive) until their turn.
    Pool {
        queue: &'s JobQueue<J>,
        done: mpsc::Receiver<(usize, Done<R>)>,
        ready: VecDeque<Option<Done<R>>>,
    },
}

/// The caller's end of a [`Runner::stream`]: feed jobs, receive results
/// in feed order.
pub struct Stream<'s, J, R> {
    exec: Exec<'s, J, R>,
    fed: usize,
    received: usize,
    window: usize,
    telem: bool,
}

impl<'s, J, R> Stream<'s, J, R> {
    fn new(exec: Exec<'s, J, R>, window: usize, telem: bool) -> Self {
        Stream {
            exec,
            fed: 0,
            received: 0,
            window,
            telem,
        }
    }

    /// Queues `job` behind every job fed before it.
    ///
    /// # Panics
    ///
    /// Panics if the stream's window is already full.
    pub fn feed(&mut self, job: J) {
        assert!(
            self.fed - self.received < self.window,
            "stream window of {} jobs is full",
            self.window
        );
        match &mut self.exec {
            Exec::Inline(_, pending) => pending.push_back(job),
            Exec::Pool { queue, .. } => queue.push(self.fed, job),
        }
        self.fed += 1;
    }

    /// The result of the oldest job not yet received — its output, or
    /// its panic payload — blocking until it is ready; `None` when every
    /// fed job has been received.
    pub fn recv(&mut self) -> Option<thread::Result<R>> {
        if self.received == self.fed {
            return None;
        }
        let done = match &mut self.exec {
            Exec::Inline(f, pending) => {
                let job = pending.pop_front().expect("a fed job is pending");
                run_job(*f, job, self.telem)
            }
            Exec::Pool { done, ready, .. } => loop {
                if ready.front().is_some_and(Option::is_some) {
                    break ready.pop_front().flatten().expect("checked above");
                }
                let (seq, result) = done.recv().expect("workers outlive their stream");
                let slot = seq - self.received;
                if ready.len() <= slot {
                    ready.resize_with(slot + 1, || None);
                }
                ready[slot] = Some(result);
            },
        };
        self.received += 1;
        if let Some(shard) = &done.shard {
            crate::telemetry::release(shard);
        }
        Some(done.result)
    }
}

impl<J, R> Drop for Stream<'_, J, R> {
    /// Ends the stream: unstarted jobs are dropped and the workers exit
    /// after their current job, whose result is discarded.
    fn drop(&mut self) {
        if let Exec::Pool { queue, .. } = &self.exec {
            queue.close();
        }
    }
}

/// A fixed-size pool of scoped worker threads executing embarrassingly
/// parallel jobs with deterministic, feed-ordered results.
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
    /// The collect-everything case of [`stream`](Self::stream): every job
    /// is fed, then every result received. Because every job is a pure
    /// function of its index and results come back in feed order, the
    /// output is identical for any thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic in job order, after every job ran.
    pub fn map<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let results: Vec<thread::Result<R>> = self.stream(
            jobs.len(),
            |(i, job): (usize, &T)| f(i, job),
            |s| {
                jobs.iter().enumerate().for_each(|job| s.feed(job));
                std::iter::from_fn(|| s.recv()).collect()
            },
        );
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }

    /// Runs `body` with an ordered job stream on this runner's workers:
    /// `body` feeds jobs lazily through [`Stream::feed`] and receives each
    /// `f(job)` through [`Stream::recv`], in feed order, on the calling
    /// thread — so it can compile or emit between results while the
    /// workers simulate jobs fed earlier.
    ///
    /// `window` is the most jobs `body` keeps in flight (fed, not yet
    /// received) at once; `usize::MAX` when the caller bounds its window
    /// another way. The call spawns `min(threads, window)` scoped workers
    /// that live until `body` returns. With one worker — a
    /// single-threaded runner, or a window of one — no thread is spawned:
    /// each job runs inline on the caller when its result is received.
    ///
    /// Every job runs under `catch_unwind`, so a panic stays in its own
    /// result slot as the panic payload. The `AssertUnwindSafe` wrapper
    /// is sound because jobs are pure functions of their input: a
    /// panicked job's only observable effect is its discarded result.
    /// When `body` returns (or unwinds) with jobs still in flight, the
    /// jobs no worker has started are dropped, and the results of the
    /// rest are discarded, telemetry included: only received jobs count.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsn_sim::Runner;
    ///
    /// let squares = Runner::with_threads(2).stream(4, |x: u64| x * x, |s| {
    ///     let mut out = Vec::new();
    ///     for x in 0..10 {
    ///         // Keep at most four jobs in flight.
    ///         if x >= 4 {
    ///             out.push(s.recv().unwrap().unwrap());
    ///         }
    ///         s.feed(x);
    ///     }
    ///     while let Some(r) = s.recv() {
    ///         out.push(r.unwrap());
    ///     }
    ///     out
    /// });
    /// assert_eq!(squares, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
    /// ```
    pub fn stream<J, R, F, S>(
        &self,
        window: usize,
        f: F,
        body: impl FnOnce(&mut Stream<'_, J, R>) -> S,
    ) -> S
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
    {
        let workers = self.threads.min(window.max(1));
        let telem = crate::telemetry::enabled();
        if telem {
            crate::telemetry::note_map(workers as u64);
        }
        let _span = crate::telemetry::Span::enter(crate::telemetry::Phase::Map);
        if workers == 1 {
            let mut stream = Stream::new(Exec::Inline(&f, VecDeque::new()), window, telem);
            return body(&mut stream);
        }
        let queue = JobQueue::new();
        let (done_tx, done_rx) = mpsc::channel();
        thread::scope(|scope| {
            for _ in 0..workers {
                let (queue, f, done) = (&queue, &f, done_tx.clone());
                scope.spawn(move || work(queue, f, done, telem));
            }
            drop(done_tx);
            let exec = Exec::Pool {
                queue: &queue,
                done: done_rx,
                ready: VecDeque::new(),
            };
            let mut stream = Stream::new(exec, window, telem);
            body(&mut stream)
        })
    }

    /// Simulates every configuration of a contention sweep `replications`
    /// times (at least once) and returns one [`StatsSink`] per
    /// configuration, in `configs` order — the one replicated Monte-Carlo
    /// sweep behind Figure 6 and the model's contention statistics.
    ///
    /// Replication 0 runs on the configuration's own seed, so a
    /// one-replication sweep is [`crate::simulate_contention`] point by
    /// point; replication `r > 0` runs on [`replication_seed`]`(seed, r)`.
    /// The `configs × replications` grid is one flat [`map`](Self::map)
    /// job list (maximum parallelism), and each configuration's sinks
    /// merge in replication order on the caller, so the result is
    /// bit-identical for every thread count.
    pub fn sweep_contention(
        &self,
        configs: &[ChannelSimConfig],
        replications: u32,
    ) -> Vec<StatsSink> {
        let reps = replications.max(1) as usize;
        let jobs: Vec<(usize, u64)> = (0..configs.len())
            .flat_map(|c| (0..reps as u64).map(move |r| (c, r)))
            .collect();
        let sinks = self.map(&jobs, |_, &(c, r)| {
            let mut cfg = configs[c].clone();
            if r > 0 {
                cfg.seed = replication_seed(cfg.seed, r);
            }
            let mut sink = StatsSink::new();
            let timings = cfg.timings();
            with_workspace(|ws| run_channel_sim_into_ws(&cfg, &timings, |_| false, &mut sink, ws));
            sink
        });
        sinks
            .chunks(reps)
            .map(|point| {
                let mut merged = StatsSink::new();
                point.iter().for_each(|sink| merged.merge(sink));
                merged
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn stream_receives_in_feed_order_within_a_window() {
        for threads in [1, 2, 4] {
            let out = Runner::with_threads(threads).stream(
                3,
                |x: u64| x * 10,
                |s| {
                    let mut out = Vec::new();
                    for x in 0..20 {
                        if x >= 3 {
                            out.push(s.recv().unwrap().unwrap());
                        }
                        s.feed(x);
                    }
                    out.extend(std::iter::from_fn(|| s.recv()).map(Result::unwrap));
                    out
                },
            );
            let want: Vec<u64> = (0..20).map(|x| x * 10).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn results_finishing_out_of_order_are_received_in_feed_order() {
        // Stand in for the workers: finish the three fed jobs in the
        // order 2, 0, 1.
        let queue = JobQueue::new();
        let (done, results) = mpsc::channel();
        let exec = Exec::Pool {
            queue: &queue,
            done: results,
            ready: VecDeque::new(),
        };
        let mut stream: Stream<'_, u32, u32> = Stream::new(exec, usize::MAX, false);
        (0..3).for_each(|x| stream.feed(x));
        for seq in [2, 0, 1] {
            let result = Ok(10 * seq as u32);
            done.send((
                seq,
                Done {
                    result,
                    shard: None,
                },
            ))
            .unwrap();
        }
        let got: Vec<u32> = std::iter::from_fn(|| stream.recv())
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, [0, 10, 20]);
    }

    #[test]
    fn a_one_worker_stream_runs_jobs_on_the_caller_only_when_received() {
        let ran = AtomicUsize::new(0);
        let caller = thread::current().id();
        // A single-threaded runner, and a window of one job on a pool.
        for (runner, window) in [(Runner::serial(), 8), (Runner::with_threads(4), 1)] {
            ran.store(0, Ordering::SeqCst);
            runner.stream(
                window,
                |_: ()| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    thread::current().id()
                },
                |s| {
                    s.feed(());
                    assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing runs ahead");
                    assert_eq!(s.recv().unwrap().unwrap(), caller);
                    if window > 1 {
                        // Fed but never received: dropped with the stream.
                        s.feed(());
                        s.feed(());
                    }
                },
            );
            assert_eq!(ran.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    #[should_panic(expected = "window of 2 jobs is full")]
    fn feeding_past_the_window_panics() {
        Runner::with_threads(2).stream(2, |x: u8| x, |s| (0..3).for_each(|x| s.feed(x)));
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn map_reraises_the_first_job_panic() {
        let jobs: Vec<u32> = (0..12).collect();
        Runner::with_threads(3).map(&jobs, |_, &x| {
            if x == 5 || x == 9 {
                panic!("job {x} failed");
            }
            x
        });
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
        let serial = Runner::serial().sweep_contention(&configs, 2);
        let parallel = Runner::with_threads(3).sweep_contention(&configs, 2);
        assert_eq!(serial, parallel);
    }
}
