//! Probes the traced run makes from the benchmark's own files: output
//! digests, a timing result sink, the BER precompute, the contention
//! engine alone and the journal append path. Each times calls into
//! public simulator functions; nothing here changes what they compute.

use std::fmt;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use wsn_channel::received_power;
use wsn_phy::ber::BerModel;
use wsn_sim::sink::{ResultSink, SinkCounters, StatsSink};
use wsn_sim::{
    replication_seed, run_channel_sim_into_ws, JournalRecord, JournalWriter, NetworkConfig,
    SimWorkspace, Xoshiro256StarStar,
};

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over a value's `Debug` text. `Debug` prints every `f64` in its
/// shortest round-trip form, so two digests agree exactly when every
/// float agrees bit for bit (NaN payloads aside).
pub fn digest(value: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    fmt::write(&mut h, format_args!("{value:?}")).expect("hashing never fails");
    h.0
}

/// A [`ResultSink`] that times and counts what it forwards.
pub struct TimingSink<S> {
    inner: S,
    /// Milliseconds spent in `emit` and `done`.
    pub ms: f64,
    /// Bytes forwarded, newline framing included.
    pub bytes: u64,
}

impl<S> TimingSink<S> {
    pub fn new(inner: S) -> Self {
        TimingSink {
            inner,
            ms: 0.0,
            bytes: 0,
        }
    }
}

impl<S: ResultSink> ResultSink for TimingSink<S> {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.emit(line);
        self.ms += ms_since(t);
        self.bytes += line.len() as u64 + 1;
        r
    }

    fn done(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.done();
        self.ms += ms_since(t);
        r
    }

    fn counters(&self) -> SinkCounters {
        self.inner.counters()
    }
}

/// Per-node packet-or-ACK corruption probabilities of one channel through
/// the public `BerModel` calls, in the same arithmetic the simulator uses
/// for its per-job precompute.
pub fn corruption_probs<B: BerModel + ?Sized>(cfg: &NetworkConfig, ber: &B) -> Vec<f64> {
    // The ACK's preamble and SFD precede the correlator lock: 11 - 4 = 7
    // exposed octets.
    let ack_exposed_bits = 8.0 * (11.0 - 4.0);
    let levels = cfg.tx_policy.resolve(&cfg.path_losses);
    cfg.path_losses
        .iter()
        .zip(&levels)
        .map(|(&loss, &level)| {
            let p_rx = received_power(level.output_power(), loss);
            let pr_packet = ber
                .packet_error_probability(p_rx, cfg.channel.packet)
                .value();
            let p_rx_ack = received_power(cfg.coordinator_tx, loss);
            let pr_bit_ack = ber.bit_error_probability(p_rx_ack).value();
            let pr_ack = 1.0 - (1.0 - pr_bit_ack).powf(ack_exposed_bits);
            1.0 - (1.0 - pr_packet) * (1.0 - pr_ack)
        })
        .collect()
}

/// Nanoseconds per node of the BER precompute over `channels`, repeated
/// until at least 20 ms were measured.
pub fn ber_ns_per_node<B: BerModel + ?Sized>(channels: &[(&NetworkConfig, &B)]) -> f64 {
    let nodes: usize = channels.iter().map(|(c, _)| c.channel.nodes).sum();
    let t = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || ms_since(t) < 20.0 {
        for (cfg, ber) in channels {
            black_box(corruption_probs(cfg, *ber));
        }
        passes += 1;
    }
    ms_since(t) * 1e6 / (nodes as f64 * f64::from(passes))
}

/// The contention engine alone over every job: `run_channel_sim_into_ws`
/// into a [`StatsSink`], with the corruption oracle the network simulator
/// would attach. A job's replication index, when it has one, derives its
/// seed as the runner does. Returns (events, engine nanoseconds); the
/// oracle's BER math runs before each timed call.
pub fn engine_pass<B: BerModel + ?Sized>(
    jobs: &[(&NetworkConfig, &B, Option<u64>)],
    ws: &mut SimWorkspace,
) -> (u64, f64) {
    let mut events = 0u64;
    let mut ns = 0.0;
    for &(cfg, ber, replication) in jobs {
        let mut channel = cfg.channel.clone();
        if let Some(r) = replication {
            channel.seed = replication_seed(channel.seed, r);
        }
        let probs = match &cfg.corrupt_probs {
            Some(cached) => cached.to_vec(),
            None => corruption_probs(cfg, ber),
        };
        let timings = channel.timings();
        let mut noise = Xoshiro256StarStar::seed_from_u64(channel.seed ^ 0x5EED_CAFE_F00D_u64);
        let mut sink = StatsSink::new();
        let t = Instant::now();
        events += run_channel_sim_into_ws(
            &channel,
            &timings,
            |node| noise.bernoulli(probs[node as usize]),
            &mut sink,
            ws,
        );
        ns += t.elapsed().as_secs_f64() * 1e9;
        black_box(sink.contention_stats());
    }
    (events, ns)
}

/// Mean milliseconds of one fsync'd `JournalWriter::append`, over
/// `records` appends to a fresh journal at `path`.
pub fn journal_append_ms(path: &Path, records: &[JournalRecord]) -> f64 {
    let mut journal = JournalWriter::create(path).expect("probe journal opens in scratch");
    let t = Instant::now();
    for record in records {
        journal.append(record).expect("probe journal appends");
    }
    ms_since(t) / records.len().max(1) as f64
}
