//! Durable progress journal for restartable batch runs.
//!
//! A long farm run should survive `kill -9`. The batch service therefore
//! appends one fsync'd JSONL record to a journal file after *emitting* each
//! scenario's result (emit-then-journal: a crash between the two can only
//! duplicate a record on resume, never lose one — and duplicates are
//! trivially identified by the `fingerprint`). On `--resume`, the journal is
//! reloaded and scenarios whose [config fingerprint]
//! [`crate::persist::fingerprint_scenario`] matches an `ok` journal entry
//! are skipped; scenarios whose file changed (different fingerprint), or
//! that previously failed or timed out, re-run.
//!
//! One journal line looks like:
//!
//! ```json
//! {"journal":1,"scenario":"case_study_s5","fingerprint":"91b4e5602cf31a77","status":"ok","attempts":1,"elapsed_ms":4.25}
//! ```
//!
//! The loader tolerates a **torn final line** (a crash mid-append leaves a
//! partial last record; it is dropped and that scenario simply re-runs).
//! Corruption anywhere *else* is an error — it means something other than a
//! tear happened to the file, and silently skipping interior records would
//! turn resume into silent data loss.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::persist::{self, Node, ObjReader, ParseError};

/// The journal line format version.
pub const JOURNAL_VERSION: u64 = 1;

/// One journaled scenario completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The scenario's name (unique within a batch).
    pub scenario: String,
    /// [`crate::persist::fingerprint_scenario`] of the saved scenario as
    /// it was when this record ran.
    pub fingerprint: String,
    /// `"ok"`, `"failed"` or `"timeout"` — only `"ok"` entries are
    /// skippable on resume.
    pub status: String,
    /// Attempts consumed (1 on a first-try success; retried panics
    /// count up).
    pub attempts: u64,
    /// Wall-clock the scenario cost in this run, milliseconds.
    pub elapsed_ms: f64,
}

impl JournalRecord {
    /// True when a resume run may skip a scenario carrying `fingerprint`.
    pub fn skippable(&self, fingerprint: &str) -> bool {
        self.status == "ok" && self.fingerprint == fingerprint
    }

    fn to_json(&self) -> Node {
        persist::json::obj(vec![
            ("journal", persist::json::uint(JOURNAL_VERSION)),
            ("scenario", persist::json::string(&self.scenario)),
            ("fingerprint", persist::json::string(&self.fingerprint)),
            ("status", persist::json::string(&self.status)),
            ("attempts", persist::json::uint(self.attempts)),
            ("elapsed_ms", persist::json::num(self.elapsed_ms)),
        ])
    }

    fn from_json(root: &Node) -> Result<Self, ParseError> {
        let mut o = ObjReader::new(root, "a journal record")?;
        let version = o.get("journal")?;
        if persist::as_u64(version)? != JOURNAL_VERSION {
            return Err(ParseError::node(
                version,
                format!("journal version {JOURNAL_VERSION}"),
            ));
        }
        let status_node = o.get("status")?;
        let status = persist::as_str(status_node)?;
        if !matches!(status, "ok" | "failed" | "timeout") {
            return Err(ParseError::node(
                status_node,
                "status `ok`, `failed` or `timeout`",
            ));
        }
        let record = JournalRecord {
            scenario: persist::as_str(o.get("scenario")?)?.to_string(),
            fingerprint: persist::as_str(o.get("fingerprint")?)?.to_string(),
            status: status.to_string(),
            attempts: persist::as_u64(o.get("attempts")?)?,
            elapsed_ms: persist::as_f64(o.get("elapsed_ms")?)?,
        };
        o.finish()?;
        Ok(record)
    }
}

/// Why a journal could not be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The file could not be read or written.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The OS error text.
        error: String,
    },
    /// A record *before* the final line failed to parse — the file has
    /// been damaged by something other than a torn final append.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// 1-based line number of the bad record.
        line: usize,
        /// The parse diagnostic.
        error: ParseError,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            JournalError::Corrupt { path, line, error } => write!(
                f,
                "{}: corrupt journal record on line {line}: {error}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// What [`load_journal`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLoad {
    /// Every parsed record, in append order (a re-run scenario appears
    /// more than once; the last record wins).
    pub records: Vec<JournalRecord>,
    /// True when a torn final line was dropped.
    pub torn_tail: bool,
}

impl JournalLoad {
    /// The last record journaled for `scenario`, if any.
    pub fn latest(&self, scenario: &str) -> Option<&JournalRecord> {
        self.records.iter().rev().find(|r| r.scenario == scenario)
    }
}

/// Loads a journal, tolerating a torn final line. A missing file is an
/// empty journal (first run with `--resume` is fine).
///
/// # Errors
///
/// [`JournalError::Io`] on read failure; [`JournalError::Corrupt`] when a
/// *non-final* line fails to parse.
pub fn load_journal(path: &Path) -> Result<JournalLoad, JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(JournalLoad {
                records: Vec::new(),
                torn_tail: false,
            })
        }
        Err(e) => {
            return Err(JournalError::Io {
                path: path.to_path_buf(),
                error: e.to_string(),
            })
        }
    };
    // The journal is machine-written ASCII; lossy decoding only matters
    // for a tear through a (never-emitted) multi-byte sequence.
    let text = String::from_utf8_lossy(&bytes);
    let complete_tail = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut records = Vec::with_capacity(lines.len());
    let mut torn_tail = false;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let final_line = i + 1 == lines.len();
        let parsed = persist::parse_document(line).and_then(|n| JournalRecord::from_json(&n));
        match parsed {
            Ok(record) => records.push(record),
            Err(_) if final_line && !complete_tail => {
                // A crash mid-append: drop the partial record; its
                // scenario re-runs.
                torn_tail = true;
            }
            Err(error) => {
                return Err(JournalError::Corrupt {
                    path: path.to_path_buf(),
                    line: i + 1,
                    error,
                })
            }
        }
    }
    Ok(JournalLoad { records, torn_tail })
}

/// Appends fsync'd journal records.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: File,
}

impl JournalWriter {
    /// Opens a fresh journal, truncating any prior one (non-resume runs
    /// must not inherit stale completions).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on open failure.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        Self::open(path, false)
    }

    /// Opens a journal for appending (resume runs extend the history).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on open failure.
    pub fn resume(path: &Path) -> Result<Self, JournalError> {
        Self::open(path, true)
    }

    fn open(path: &Path, append: bool) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)
            .map_err(|e| JournalError::Io {
                path: path.to_path_buf(),
                error: e.to_string(),
            })?;
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk before returning — after
    /// this call the completion survives `kill -9`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write or sync failure.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let io_err = |e: io::Error| JournalError::Io {
            path: self.path.clone(),
            error: e.to_string(),
        };
        let mut line = persist::render_compact(&record.to_json());
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)
    }
}

/// Truncates a torn final line (no trailing newline) off a JSONL file,
/// returning how many bytes were dropped. Used on `--resume` to repair the
/// *output* stream a killed run left behind, so appended records
/// concatenate cleanly. A missing file is a no-op.
///
/// # Errors
///
/// Propagates read/write failures.
pub fn repair_jsonl_tail(path: &Path) -> io::Result<u64> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(0);
    }
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let dropped = (bytes.len() - keep) as u64;
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    file.sync_data()?;
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, status: &str) -> JournalRecord {
        JournalRecord {
            scenario: name.to_string(),
            fingerprint: format!("fp-{name}"),
            status: status.to_string(),
            attempts: 1,
            elapsed_ms: 2.5,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wsn_journal_test_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record("a", "ok")).unwrap();
        w.append(&record("b", "failed")).unwrap();
        let load = load_journal(&path).unwrap();
        assert!(!load.torn_tail);
        assert_eq!(load.records, vec![record("a", "ok"), record("b", "failed")]);
        assert!(load.latest("a").unwrap().skippable("fp-a"));
        assert!(!load.latest("a").unwrap().skippable("fp-other"));
        assert!(!load.latest("b").unwrap().skippable("fp-b"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let load = load_journal(Path::new("/nonexistent/journal.jsonl")).unwrap();
        assert!(load.records.is_empty());
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record("a", "ok")).unwrap();
        w.append(&record("b", "ok")).unwrap();
        drop(w);
        // Tear the final record mid-write: chop the trailing bytes.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
        let load = load_journal(&path).unwrap();
        assert!(load.torn_tail);
        assert_eq!(load.records, vec![record("a", "ok")]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = temp_path("corrupt");
        fs::write(&path, "{\"garbage\n{\"journal\":1}\n").unwrap();
        let err = load_journal(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 1, .. }), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_truncates_and_resume_appends() {
        let path = temp_path("modes");
        let _ = fs::remove_file(&path);
        JournalWriter::create(&path)
            .unwrap()
            .append(&record("stale", "ok"))
            .unwrap();
        JournalWriter::create(&path)
            .unwrap()
            .append(&record("fresh", "ok"))
            .unwrap();
        let load = load_journal(&path).unwrap();
        assert_eq!(load.records, vec![record("fresh", "ok")]);
        JournalWriter::resume(&path)
            .unwrap()
            .append(&record("more", "ok"))
            .unwrap();
        let load = load_journal(&path).unwrap();
        assert_eq!(load.records.len(), 2);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repair_drops_only_a_torn_tail() {
        let path = temp_path("repair");
        fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"tor").unwrap();
        let dropped = repair_jsonl_tail(&path).unwrap();
        assert_eq!(dropped, 5);
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
        // Idempotent on a clean file.
        assert_eq!(repair_jsonl_tail(&path).unwrap(), 0);
        fs::remove_file(&path).unwrap();
    }
}
