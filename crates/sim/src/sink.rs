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
//! * [`StatsSink`] — the online reducer: feeds a
//!   [`ContentionAccumulator`] plus the transaction-level tallies without
//!   allocating. Its output is bit-identical to collecting a trace and
//!   reducing it afterwards, because records arrive in exactly the order
//!   they would have been pushed.

use std::io::{self, Write};

use crate::cfp::{DownlinkOutcome, DownlinkRecord, GtsRecord};
use crate::contention::{AttemptOutcome, AttemptRecord, SimTrace, TransactionRecord, SLOT_US};
use crate::faults::{FaultKind, FaultRecord};
use crate::stats::{Accumulator, ContentionAccumulator, ContentionStats, Counter};

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
    fn on_transaction(&mut self, record: &TransactionRecord);
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

/// Online reducer: folds the event stream straight into the statistics the
/// figures consume, allocating nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSink {
    /// Per-procedure contention statistics (Figure 6 material).
    pub contention: ContentionAccumulator,
    /// Failed-transaction counter (`Pr_fail` numerator/denominator).
    pub failures: Counter,
    /// Attempts per transaction.
    pub attempts: Accumulator,
    /// Delivery delay in superframes, over delivered transactions.
    pub delivery_superframes: Accumulator,
    /// Arrivals skipped because the node was still busy.
    pub overruns: u64,
    /// Failed GTS transmissions over GTS transmissions (CFP traffic; GTS
    /// deliveries also fold into [`failures`](Self::failures),
    /// [`attempts`](Self::attempts) and
    /// [`delivery_superframes`](Self::delivery_superframes) so CAP-only
    /// and GTS scenarios compare on the same transaction statistics).
    pub gts_failures: Counter,
    /// Undelivered downlink polls over non-deferred polls.
    pub downlink_failures: Counter,
    /// Downlink polls deferred because the node was busy.
    pub downlink_deferred: u64,
    /// Node deaths injected by the fault plan.
    pub deaths: u64,
    /// Missed beacons spent listening (orphan-scan windows of alive
    /// nodes during coordinator outages).
    pub orphan_scans: u64,
    /// Re-association exchanges (hit = the coordinator's response got
    /// through).
    pub join_attempts: Counter,
    /// Death → successful re-association latency in superframes.
    pub reassoc_superframes: Accumulator,
    /// Nodes that exhausted their join-retry budget and went dormant.
    pub dormant_nodes: u64,
}

impl StatsSink {
    /// Creates an empty reducer.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Merges another reducer (exact; fixed merge order stays
    /// bit-deterministic).
    pub fn merge(&mut self, other: &StatsSink) {
        self.contention.merge(&other.contention);
        self.failures.merge(&other.failures);
        self.attempts.merge(&other.attempts);
        self.delivery_superframes.merge(&other.delivery_superframes);
        self.overruns += other.overruns;
        self.gts_failures.merge(&other.gts_failures);
        self.downlink_failures.merge(&other.downlink_failures);
        self.downlink_deferred += other.downlink_deferred;
        self.deaths += other.deaths;
        self.orphan_scans += other.orphan_scans;
        self.join_attempts.merge(&other.join_attempts);
        self.reassoc_superframes.merge(&other.reassoc_superframes);
        self.dormant_nodes += other.dormant_nodes;
    }

    /// The contention statistics.
    pub fn contention_stats(&self) -> ContentionStats {
        self.contention.finish()
    }
}

impl TraceSink for StatsSink {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.contention
            .contention_us
            .push(record.contention_slots as f64 * SLOT_US as f64);
        self.contention.ccas.push(record.ccas as f64);
        self.contention
            .access_failures
            .observe(record.outcome == AttemptOutcome::AccessFailure);
        if record.outcome != AttemptOutcome::AccessFailure {
            self.contention
                .collisions
                .observe(record.outcome == AttemptOutcome::Collided);
        }
    }

    fn on_transaction(&mut self, record: &TransactionRecord) {
        self.failures.observe(!record.delivered);
        self.attempts.push(record.attempts as f64);
        if record.delivered {
            self.delivery_superframes
                .push(record.superframes_waited as f64 + 1.0);
        }
    }

    fn on_overrun(&mut self) {
        self.overruns += 1;
    }

    fn on_gts(&mut self, record: &GtsRecord) {
        self.gts_failures.observe(!record.delivered);
        // A GTS transmission is a one-attempt transaction: fold it into
        // the shared transaction statistics too.
        self.failures.observe(!record.delivered);
        self.attempts.push(1.0);
        if record.delivered {
            self.delivery_superframes
                .push(record.superframes_waited as f64 + 1.0);
        }
    }

    fn on_downlink(&mut self, record: &DownlinkRecord) {
        if record.outcome == DownlinkOutcome::Deferred {
            self.downlink_deferred += 1;
        } else {
            self.downlink_failures
                .observe(record.outcome != DownlinkOutcome::Delivered);
        }
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        match record.kind {
            FaultKind::Death => self.deaths += 1,
            FaultKind::MissedBeacon { listened } => {
                if listened {
                    self.orphan_scans += 1;
                }
            }
            FaultKind::JoinAttempt { success } => self.join_attempts.observe(success),
            FaultKind::Reassociated {
                latency_superframes,
            } => self.reassoc_superframes.push(latency_superframes as f64),
            FaultKind::Dormant => self.dormant_nodes += 1,
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
        assert_eq!(streamed.overruns, trace.overruns);
    }
}
