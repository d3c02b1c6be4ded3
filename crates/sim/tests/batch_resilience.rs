//! The batch farm's fault-tolerance contract, end to end, over the
//! committed fixture set:
//!
//! * **kill and resume** — a run killed mid-farm (torn journal tail, torn
//!   output tail) resumes from its journal, and the concatenated record
//!   stream is bit-identical (modulo per-record wall-clock) to an
//!   uninterrupted run;
//! * **failing sink** — a sink that stops accepting records aborts the
//!   farm with `BatchError::Sink`, the journal holds exactly the records
//!   that were written, and a resume writes the rest — no record is lost.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use wsn_sim::{
    load_journal, repair_jsonl_tail, BatchError, BatchSet, ResultSink, RunConfig, Runner, WriteSink,
};

/// The committed fixture directory at the repository root.
fn fixture_batch() -> BatchSet {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    BatchSet::load_dir(&dir).expect("the committed fixture directory loads")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wsn_resilience_{tag}_{}", std::process::id()))
}

/// Drops the per-record wall-clock field — the only nondeterministic
/// bytes in a scenario record.
fn strip_job_ms(line: &str) -> String {
    let start = line.find("\"job_ms\":").expect("record carries job_ms");
    let end = start + line[start..].find(',').expect("job_ms is not last") + 1;
    format!("{}{}", &line[..start], &line[end..])
}

/// Scenario record lines of a captured sink (everything but the final
/// aggregate line), wall-clock stripped.
fn record_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.contains("\"aggregate\":true"))
        .map(strip_job_ms)
        .collect()
}

/// The committed-fixture kill-and-resume contract: tear both the journal
/// and the output file mid-record (what a `kill -9` under a buffered
/// writer leaves behind), repair, resume — and the deduplicated
/// concatenation of surviving + resumed records is bit-identical to an
/// uninterrupted run.
#[test]
fn killed_and_resumed_fixture_batch_matches_an_uninterrupted_run() {
    let set = fixture_batch();
    assert_eq!(set.entries().len(), 6, "the committed fixture set");
    let runner = Runner::with_threads(2);
    let journal_path = temp_path("resume_journal");
    let output_path = temp_path("resume_output");
    let _ = std::fs::remove_file(&journal_path);

    // Reference: the uninterrupted run.
    let mut reference_sink = WriteSink::new(Vec::new());
    let clean = set
        .run_with(&runner, &mut reference_sink, &RunConfig::default())
        .unwrap();
    assert!(clean.all_ok());
    let reference: BTreeSet<String> =
        record_lines(std::str::from_utf8(&reference_sink.into_inner()).unwrap())
            .into_iter()
            .collect();
    assert_eq!(reference.len(), 6);

    // First leg: run with a journal, then simulate the kill. The journal
    // is written per record, so it tears mid-write of record 4; the
    // output rides a buffered writer, so an arbitrary byte prefix is on
    // disk — here 4 full lines plus half of line 5.
    let mut first_sink = WriteSink::new(Vec::new());
    let config = RunConfig {
        journal: Some(journal_path.clone()),
        ..RunConfig::default()
    };
    set.run_with(&runner, &mut first_sink, &config).unwrap();
    let first_text = String::from_utf8(first_sink.into_inner()).unwrap();
    let first_lines: Vec<&str> = first_text.lines().collect();
    let torn_output = format!(
        "{}\n{}",
        first_lines[..4].join("\n"),
        &first_lines[4][..first_lines[4].len() / 2]
    );
    std::fs::write(&output_path, torn_output).unwrap();

    let journal_text = std::fs::read_to_string(&journal_path).unwrap();
    let journal_lines: Vec<&str> = journal_text.lines().collect();
    assert_eq!(journal_lines.len(), 6);
    let torn_journal = format!(
        "{}\n{}",
        journal_lines[..3].join("\n"),
        &journal_lines[3][..journal_lines[3].len() / 2]
    );
    std::fs::write(&journal_path, torn_journal).unwrap();

    // Second leg: repair the torn output tail (what `batch_run --resume
    // --out` does) and resume from the journal. Three scenarios are
    // journaled `ok` and skip; the torn fourth and the never-run tail
    // re-run.
    let dropped = repair_jsonl_tail(&output_path).unwrap();
    assert!(dropped > 0, "the torn output line is dropped");
    let mut resume_sink = WriteSink::new(Vec::new());
    let resume_config = RunConfig {
        resume: true,
        ..config
    };
    let resumed = set
        .run_with(&runner, &mut resume_sink, &resume_config)
        .unwrap();
    assert_eq!(resumed.skipped, 3);
    assert_eq!(resumed.records.len(), 3);
    assert!(resumed.all_ok());

    // The concatenated stream: 4 surviving lines + 3 resumed records = 7,
    // with scenario 4 duplicated (it was emitted before its journal
    // append tore — emit-then-journal duplicates, never loses). The
    // deduplicated set is bit-identical to the uninterrupted run.
    let mut combined: Vec<String> = record_lines(&std::fs::read_to_string(&output_path).unwrap());
    combined.extend(record_lines(
        std::str::from_utf8(resume_sink.into_inner().as_slice()).unwrap(),
    ));
    assert_eq!(combined.len(), 7, "one duplicate from the torn append");
    let combined: BTreeSet<String> = combined.into_iter().collect();
    assert_eq!(combined, reference);

    // The repaired-and-appended journal now carries an `ok` latest record
    // for every fixture.
    let journal = load_journal(&journal_path).unwrap();
    for entry in set.entries() {
        let latest = journal
            .latest(&entry.name)
            .expect("every fixture journaled");
        assert_eq!(latest.status, "ok");
    }

    std::fs::remove_file(&journal_path).unwrap();
    std::fs::remove_file(&output_path).unwrap();
}

/// A sink that accepts `capacity` records, then fails every `emit`.
struct FailingSink {
    accepted: Vec<String>,
    capacity: usize,
}

impl ResultSink for FailingSink {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        if self.accepted.len() == self.capacity {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "consumer went away",
            ));
        }
        self.accepted.push(line.to_string());
        Ok(())
    }
}

/// The journal plus resume is the farm's delivery guarantee: a sink that
/// fails on its third record stops the farm with exactly the two written
/// records journaled, and resuming into a working sink writes the other
/// four, so the union is the uninterrupted run.
#[test]
fn a_failing_sink_stops_the_farm_and_resume_writes_the_rest() {
    let set = fixture_batch();
    assert_eq!(set.entries().len(), 6, "the committed fixture set");
    let runner = Runner::with_threads(2);
    let journal_path = temp_path("failing_sink_journal");
    let _ = std::fs::remove_file(&journal_path);

    let mut reference_sink = WriteSink::new(Vec::new());
    set.run_with(&runner, &mut reference_sink, &RunConfig::default())
        .unwrap();
    let reference: BTreeSet<String> =
        record_lines(std::str::from_utf8(&reference_sink.into_inner()).unwrap())
            .into_iter()
            .collect();
    assert_eq!(reference.len(), 6);

    let config = RunConfig {
        journal: Some(journal_path.clone()),
        ..RunConfig::default()
    };
    let mut failing = FailingSink {
        accepted: Vec::new(),
        capacity: 2,
    };
    let err = set.run_with(&runner, &mut failing, &config).unwrap_err();
    assert!(matches!(err, BatchError::Sink { .. }), "{err}");
    assert_eq!(failing.accepted.len(), 2);

    let journal = load_journal(&journal_path).unwrap();
    let journaled: Vec<&str> = journal
        .records
        .iter()
        .map(|r| r.scenario.as_str())
        .collect();
    let written: Vec<&str> = set.entries()[..2].iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        journaled, written,
        "exactly the written records are journaled"
    );

    let mut resume_sink = WriteSink::new(Vec::new());
    let resumed = set
        .run_with(
            &runner,
            &mut resume_sink,
            &RunConfig {
                resume: true,
                ..config
            },
        )
        .unwrap();
    assert_eq!(resumed.skipped, 2);
    assert_eq!(resumed.records.len(), 4);

    let mut combined: Vec<String> = failing.accepted.iter().map(|l| strip_job_ms(l)).collect();
    combined.extend(record_lines(
        std::str::from_utf8(&resume_sink.into_inner()).unwrap(),
    ));
    assert_eq!(combined.len(), 6, "no record written twice");
    let combined: BTreeSet<String> = combined.into_iter().collect();
    assert_eq!(combined, reference);

    std::fs::remove_file(&journal_path).unwrap();
}
