//! Seeded mutation fuzzing of every reader of files from outside the
//! program: the saved scenarios in `scenarios/`, the batch manifest, the
//! progress journal and the JSONL tail repair. The mutations are byte
//! flips, truncation, duplicated keys, deep nesting, huge numbers and
//! torn tails. For every mutant:
//!
//! * nothing panics;
//! * every rejection is a [`ParseError`] with line and column ≥ 1, or a
//!   typed [`BatchError`] or [`JournalError`];
//! * whatever loads saves, reloads and saves again byte-identically.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use wsn_sim::{
    fingerprint_scenario, load_journal, load_scenario, repair_jsonl_tail, save_scenario,
    BatchError, BatchSet, JournalError, JournalRecord, JournalWriter, ParseError, SavedScenario,
    Xoshiro256StarStar,
};

/// Every committed scenario fixture (`manifest.json` is not a scenario).
const FIXTURES: [&str; 6] = [
    "case_study_s5.json",
    "churn_outage.json",
    "clustered_heterogeneous_traffic.json",
    "indoor_disc_ring_stratified.json",
    "uniform_55_95_db_population.json",
    "uniform_with_gts_and_downlink.json",
];

/// Mutants per input file.
const MUTANTS: usize = 300;

/// What a huge-number mutation writes over a number token: integer and
/// float range edges, overflow in both, and values no format-1 field
/// accepts.
const HUGE: [&str; 12] = [
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "256",
    "1e308",
    "1e309",
    "-1e309",
    "1.7976931348623157e308",
    "-0",
    "123456789012345678901234567890",
    "5e-324",
    "1e-400",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// A fresh directory private to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn_hostile_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// Start offsets of every key token (`"name":`).
fn key_starts(text: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    for (i, &b) in text.iter().enumerate() {
        if b != b'"' {
            continue;
        }
        let Some(len) = text[i + 1..].iter().position(|&c| c == b'"') else {
            break;
        };
        if text.get(i + 2 + len) == Some(&b':') {
            starts.push(i);
        }
    }
    starts
}

/// Byte ranges of every number token.
fn number_spans(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let starts = text[i] == b'-' || text[i].is_ascii_digit();
        let inside_word = i > 0 && (text[i - 1].is_ascii_alphanumeric() || text[i - 1] == b'_');
        if starts && !inside_word {
            let end = text[i..]
                .iter()
                .position(|&c| !(c.is_ascii_digit() || b"-+.eE".contains(&c)))
                .map_or(text.len(), |n| i + n);
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// One mutant of `text`, and whether it must be rejected.
fn mutate(rng: &mut Xoshiro256StarStar, text: &[u8]) -> (Vec<u8>, bool) {
    let mut out = text.to_vec();
    let numbers = number_spans(text);
    match rng.index(6) {
        // Byte flips: one to three bit flips or JSON punctuation.
        0 => {
            for _ in 0..1 + rng.index(3) {
                let at = rng.index(out.len());
                if rng.bernoulli(0.5) {
                    out[at] ^= 1 << rng.index(8);
                } else {
                    let punct = b"{}[]\":,0123456789-+.eE \n\\tfnu";
                    out[at] = punct[rng.index(punct.len())];
                }
            }
        }
        // Truncation anywhere.
        1 => out.truncate(rng.index(out.len())),
        // A duplicated key: the same name inserted ahead of a key.
        2 => {
            let keys = key_starts(text);
            let at = keys[rng.index(keys.len())];
            let len = text[at + 1..].iter().position(|&c| c == b'"').unwrap() + 2;
            let mut dup = text[at..at + len].to_vec();
            dup.extend_from_slice(b": null, ");
            out.splice(at..at, dup);
            return (out, true);
        }
        // Deep nesting around a number, at and past the parser's cap.
        3 if !numbers.is_empty() => {
            let (start, end) = numbers[rng.index(numbers.len())];
            let depth = [1, 63, 64, 65, 1000, 100_000][rng.index(6)];
            let (open, close): (&[u8], &[u8]) = if rng.bernoulli(0.5) {
                (b"[", b"]")
            } else {
                (b"{\"a\":", b"}")
            };
            let mut nested = open.repeat(depth);
            nested.extend_from_slice(&text[start..end]);
            nested.extend_from_slice(&close.repeat(depth));
            out.splice(start..end, nested);
        }
        // A huge number over a number token.
        4 if !numbers.is_empty() => {
            let (start, end) = numbers[rng.index(numbers.len())];
            out.splice(start..end, HUGE[rng.index(HUGE.len())].bytes());
        }
        // A torn tail: the text cut in its last line, or a partial copy
        // of itself appended.
        _ => {
            let last_line = text[..text.len() - 1]
                .iter()
                .rposition(|&c| c == b'\n')
                .map_or(0, |p| p + 1);
            if rng.bernoulli(0.5) {
                out.truncate(last_line + rng.index(text.len() - last_line));
            } else {
                out.extend_from_slice(&text[..rng.index(text.len())]);
            }
        }
    }
    (out, false)
}

/// Runs `f`, failing with `what` if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what}: loader panicked"))
}

fn assert_positioned(error: &ParseError, what: &str) {
    assert!(
        error.line >= 1 && error.col >= 1,
        "{what}: unpositioned {error:?}"
    );
}

fn assert_typed_batch_error(error: &BatchError, what: &str) {
    match error {
        BatchError::Parse { error, .. } => assert_positioned(error, what),
        BatchError::Journal { error } => assert_typed_journal_error(error, what),
        _ => {}
    }
}

fn assert_typed_journal_error(error: &JournalError, what: &str) {
    if let JournalError::Corrupt { line, error, .. } = error {
        assert!(*line >= 1, "{what}: corrupt line 0");
        assert_positioned(error, what);
    }
}

/// save → load → save is byte-identical.
fn assert_round_trips(saved: &SavedScenario, what: &str) {
    let first = save_scenario(saved).unwrap_or_else(|e| panic!("{what}: loads, cannot save: {e}"));
    let reloaded = load_scenario(&first)
        .unwrap_or_else(|e| panic!("{what}: saved text does not reload: {e}\n{first}"));
    let second = save_scenario(&reloaded).expect("a reloaded scenario saves");
    assert_eq!(first, second, "{what}: second save differs");
}

#[test]
fn mutated_scenarios_load_or_fail_with_a_position() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5CE0);
    let mut loaded = 0;
    for file in FIXTURES {
        let text = fs::read(fixture_dir().join(file)).expect("fixture is readable");
        for case in 0..MUTANTS {
            let what = format!("{file} case {case}");
            let (mutant, must_fail) = mutate(&mut rng, &text);
            let mutant = String::from_utf8_lossy(&mutant);
            match no_panic(&what, || load_scenario(&mutant)) {
                Ok(saved) => {
                    assert!(!must_fail, "{what}: duplicate key accepted");
                    assert_round_trips(&saved, &what);
                    loaded += 1;
                }
                Err(error) => assert_positioned(&error, &what),
            }
        }
    }
    // Enough mutants load for the round trip to be exercised.
    assert!(
        loaded > FIXTURES.len() * MUTANTS / 20,
        "only {loaded} mutants loaded"
    );
}

#[test]
fn mutated_manifests_and_fixtures_load_as_a_batch_or_fail_typed() {
    let dir = scratch("batch");
    let manifest_path = dir.join("manifest.json");
    let manifest = fs::read(fixture_dir().join("manifest.json")).expect("manifest is readable");
    fs::write(&manifest_path, &manifest).expect("temp dir is writable");
    for file in FIXTURES {
        fs::copy(fixture_dir().join(file), dir.join(file)).expect("temp dir is writable");
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xBA7C);
    let mut loaded = 0;
    // Mutate the manifest, then each fixture under the intact manifest.
    let targets = std::iter::once("manifest.json").chain(FIXTURES);
    for target in targets {
        let original = fs::read(dir.join(target)).expect("target is readable");
        for case in 0..MUTANTS / 2 {
            let what = format!("{target} case {case}");
            let (mutant, must_fail) = mutate(&mut rng, &original);
            fs::write(dir.join(target), &mutant).expect("temp dir is writable");
            match no_panic(&what, || BatchSet::load_manifest(&manifest_path)) {
                Ok(set) => {
                    assert!(!must_fail, "{what}: duplicate key accepted");
                    for entry in set.entries() {
                        assert_round_trips(&entry.saved, &what);
                    }
                    loaded += 1;
                }
                Err(error) => assert_typed_batch_error(&error, &what),
            }
        }
        fs::write(dir.join(target), &original).expect("temp dir is writable");
    }
    assert_eq!(fs::read(&manifest_path).unwrap(), manifest);
    assert!(loaded > 0, "no mutant loaded");
    fs::remove_dir_all(&dir).unwrap();
}

/// A journal the farm could have written for the fixtures.
fn fixture_journal(path: &Path) -> Vec<u8> {
    let mut writer = JournalWriter::create(path).expect("temp dir is writable");
    for (i, file) in FIXTURES.iter().enumerate() {
        let text = fs::read_to_string(fixture_dir().join(file)).expect("fixture is readable");
        let saved = load_scenario(&text).expect("fixture loads");
        let record = JournalRecord {
            scenario: saved.scenario.name.clone(),
            fingerprint: fingerprint_scenario(&saved),
            status: ["ok", "failed", "timeout"][i % 3].to_string(),
            attempts: 1 + i as u64 % 3,
            elapsed_ms: [4.25, 0.1, 1e-3, 12345.678, 0.0, 7.0][i],
        };
        writer.append(&record).expect("temp dir is writable");
    }
    fs::read(path).expect("journal is readable")
}

/// Writes `records` as a fresh journal and returns its bytes.
fn rewrite_journal(path: &Path, records: &[JournalRecord]) -> Vec<u8> {
    let mut writer = JournalWriter::create(path).expect("temp dir is writable");
    for record in records {
        writer.append(record).expect("temp dir is writable");
    }
    fs::read(path).expect("journal is readable")
}

#[test]
fn mutated_journals_load_or_fail_typed() {
    let dir = scratch("journal");
    let path = dir.join("journal.jsonl");
    let copy = dir.join("copy.jsonl");
    let journal = fixture_journal(&path);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x10C5);
    let mut loaded = 0;
    for case in 0..MUTANTS * 2 {
        let what = format!("journal case {case}");
        let (mutant, must_fail) = mutate(&mut rng, &journal);
        fs::write(&path, &mutant).expect("temp dir is writable");
        match no_panic(&what, || load_journal(&path)) {
            Ok(load) => {
                assert!(!must_fail, "{what}: duplicate key accepted");
                let first = rewrite_journal(&copy, &load.records);
                let reloaded = load_journal(&copy)
                    .unwrap_or_else(|e| panic!("{what}: saved journal does not reload: {e}"));
                assert!(!reloaded.torn_tail, "{what}");
                let second = rewrite_journal(&copy, &reloaded.records);
                assert_eq!(first, second, "{what}: second save differs");
                loaded += 1;
            }
            Err(error) => assert_typed_journal_error(&error, &what),
        }
    }
    assert!(loaded > MUTANTS / 10, "only {loaded} mutants loaded");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tail_repair_drops_exactly_the_torn_line() {
    let dir = scratch("repair");
    let path = dir.join("records.jsonl");
    let journal = fixture_journal(&path);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7A11);
    for case in 0..MUTANTS * 2 {
        let what = format!("repair case {case}");
        let (mutant, _) = mutate(&mut rng, &journal);
        fs::write(&path, &mutant).expect("temp dir is writable");
        let dropped =
            no_panic(&what, || repair_jsonl_tail(&path)).unwrap_or_else(|e| panic!("{what}: {e}"));
        let repaired = fs::read(&path).expect("file is readable");
        assert_eq!(
            repaired.len() as u64 + dropped,
            mutant.len() as u64,
            "{what}"
        );
        assert_eq!(
            repaired[..],
            mutant[..repaired.len()],
            "{what}: not a prefix"
        );
        assert!(repaired.is_empty() || repaired.ends_with(b"\n"), "{what}");
        let torn = mutant[repaired.len()..].contains(&b'\n');
        assert!(!torn, "{what}: dropped a complete line");
        assert_eq!(
            repair_jsonl_tail(&path).unwrap(),
            0,
            "{what}: not idempotent"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}
