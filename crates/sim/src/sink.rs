//! Streaming consumers for the contention engine's event stream.
//!
//! The simulators historically materialized every [`AttemptRecord`] and
//! [`TransactionRecord`] into [`SimTrace`] `Vec`s and reduced them
//! afterwards. For large replication sweeps that allocation is pure
//! overhead: every figure only needs a handful of online statistics. A
//! [`TraceSink`] receives each record the moment its outcome is final, so
//! a reducer can fold it immediately:
//!
//! * [`TraceCollector`] — the original behaviour: collect everything into
//!   a [`SimTrace`] (kept for trace-level analyses and tests);
//! * [`StatsSink`] — the Figure 6 fold: the contention statistics of
//!   every attempt, without allocating. Its output is bit-identical to
//!   collecting a trace and reducing it afterwards, because records
//!   arrive in exactly the order they would have been pushed.
//!
//! The other reducer is the network run's energy accountant
//! ([`NetworkSimulator::run_accumulate_counted`](crate::NetworkSimulator::run_accumulate_counted)),
//! which bills every record to its node's ledger and folds its statistics
//! into the run's [`NetworkAccumulator`](crate::NetworkAccumulator).

use std::io::{self, Write};

use wsn_units::Seconds;

use crate::cfp::{DownlinkRecord, GtsRecord};
use crate::contention::{AttemptOutcome, AttemptRecord, SimTrace, TransactionRecord, SLOT_US};
use crate::faults::FaultRecord;
use crate::stats::{Accumulator, ContentionStats, Counter};

/// Receives contention records as the engine finalizes them.
///
/// Records are delivered in deterministic engine order (the order the
/// trace `Vec`s would have been filled), so any fold over a sink is as
/// reproducible as the trace itself.
pub trait TraceSink {
    /// One contention procedure finished (transmission started, collided,
    /// was corrupted, or access failed).
    fn on_attempt(&mut self, record: &AttemptRecord);
    /// One application-level transaction concluded.
    fn on_transaction(&mut self, _record: &TransactionRecord) {}
    /// An arrival was skipped because the node was still busy.
    fn on_overrun(&mut self) {}
    /// One GTS (contention-free) transmission concluded.
    fn on_gts(&mut self, _record: &GtsRecord) {}
    /// One downlink poll concluded.
    fn on_downlink(&mut self, _record: &DownlinkRecord) {}
    /// One fault event (death, missed beacon, join attempt, …) occurred.
    fn on_fault(&mut self, _record: &FaultRecord) {}
}

/// Collects every record into a [`SimTrace`] — the pre-streaming
/// behaviour, still used by trace-level analyses.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    trace: SimTrace,
}

impl TraceCollector {
    /// Creates a collector; `superframe_slots` is carried into the trace.
    pub fn new(superframe_slots: u64) -> Self {
        TraceCollector {
            trace: SimTrace {
                attempts: Vec::new(),
                transactions: Vec::new(),
                gts: Vec::new(),
                downlinks: Vec::new(),
                faults: Vec::new(),
                overruns: 0,
                superframe_slots,
            },
        }
    }

    /// Consumes the collector, yielding the trace.
    pub fn into_trace(self) -> SimTrace {
        self.trace
    }
}

impl TraceSink for TraceCollector {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.trace.attempts.push(*record);
    }
    fn on_transaction(&mut self, record: &TransactionRecord) {
        self.trace.transactions.push(*record);
    }
    fn on_overrun(&mut self) {
        self.trace.overruns += 1;
    }
    fn on_gts(&mut self, record: &GtsRecord) {
        self.trace.gts.push(*record);
    }
    fn on_downlink(&mut self, record: &DownlinkRecord) {
        self.trace.downlinks.push(*record);
    }
    fn on_fault(&mut self, record: &FaultRecord) {
        self.trace.faults.push(*record);
    }
}

/// The Figure 6 fold: the exact sufficient statistics behind
/// [`ContentionStats`], folded from each contention procedure as the
/// engine finalizes it, without allocating.
///
/// Only attempts feed it; the network run's energy accountant is the
/// reducer for every other record. Every field merges exactly
/// ([`Accumulator::merge`] / [`Counter::merge`]), so replications reduced
/// on worker threads and merged in a fixed order are bit-identical to a
/// serial fold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSink {
    /// Contention duration samples in microseconds.
    pub contention_us: Accumulator,
    /// CCAs-per-procedure samples.
    pub ccas: Accumulator,
    /// Collision counter over transmissions.
    pub collisions: Counter,
    /// Access-failure counter over procedures.
    pub access_failures: Counter,
}

impl StatsSink {
    /// Creates an empty reducer.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Merges another reducer (exact; fixed merge order stays
    /// bit-deterministic).
    pub fn merge(&mut self, other: &StatsSink) {
        self.contention_us.merge(&other.contention_us);
        self.ccas.merge(&other.ccas);
        self.collisions.merge(&other.collisions);
        self.access_failures.merge(&other.access_failures);
    }

    /// Finalizes into the model's exchange type.
    pub fn contention_stats(&self) -> ContentionStats {
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

impl TraceSink for StatsSink {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.contention_us
            .push(record.contention_slots as f64 * SLOT_US as f64);
        self.ccas.push(record.ccas as f64);
        self.access_failures
            .observe(record.outcome == AttemptOutcome::AccessFailure);
        if record.outcome != AttemptOutcome::AccessFailure {
            self.collisions
                .observe(record.outcome == AttemptOutcome::Collided);
        }
    }
}

// ---------------------------------------------------------------------------
// Result sinks: where the batch farm's JSONL records go
// ---------------------------------------------------------------------------

/// Delivery counters a [`ResultSink`] may report.
///
/// Every sink in this crate writes to a plain writer and reports all
/// zeros; the type stays for implementors outside the crate that forward
/// [`ResultSink::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Connection attempts that failed (before backoff + retry).
    pub connect_retries: u64,
    /// Successful connections after the first one.
    pub reconnects: u64,
    /// Lines diverted to an on-disk overflow queue while the peer was down.
    pub spilled_lines: u64,
    /// Overflow-queue lines later delivered to the peer.
    pub drained_lines: u64,
}

/// Consumes the batch farm's JSONL record stream, one line per call.
///
/// [`WriteSink`] is the adapter for files, stdout and in-memory buffers;
/// pipe stdout onward if the records must reach a socket.
///
/// `line` never contains a newline; the sink supplies framing. An `Err`
/// from [`emit`](Self::emit) means the line could not be written — the
/// batch aborts with [`BatchError::Sink`](crate::batch::BatchError::Sink).
pub trait ResultSink {
    /// Writes one JSONL record.
    fn emit(&mut self, line: &str) -> io::Result<()>;

    /// Flushes buffered output after the last record. Called once by the
    /// batch service.
    fn done(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Delivery counters accumulated so far. Always zero for the sinks in
    /// this crate; kept for implementors that wrap another sink and
    /// forward its counters.
    fn counters(&self) -> SinkCounters {
        SinkCounters::default()
    }
}

/// The plain adapter: newline-frames every record into any [`Write`]
/// (file, stdout lock, `Vec<u8>` in tests).
#[derive(Debug)]
pub struct WriteSink<W: Write> {
    inner: W,
}

impl<W: Write> WriteSink<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        WriteSink { inner }
    }

    /// Consumes the sink, yielding the writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> ResultSink for WriteSink<W> {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")
    }

    fn done(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{
        run_channel_sim, run_channel_sim_into_ws, with_workspace, ChannelSimConfig,
    };

    fn cfg() -> ChannelSimConfig {
        let mut c = ChannelSimConfig::figure6(50, 0.4, 77);
        c.superframes = 8;
        c
    }

    #[test]
    fn streaming_matches_trace_reduction() {
        let cfg = cfg();
        let mut streamed = StatsSink::new();
        with_workspace(|ws| {
            run_channel_sim_into_ws(&cfg, &cfg.timings(), |_| false, &mut streamed, ws)
        });
        let trace = run_channel_sim(&cfg, |_| false);
        let mut reduced = StatsSink::new();
        trace.replay(&mut reduced);
        assert_eq!(streamed, reduced);
    }
}
