//! The sweep journal: crash-safe checkpoint/resume for `tmcc-bench`.
//!
//! Every completed simulation run (a plain run, multi-tenant scenario or
//! capacity point inside an experiment's config grid, all journaled by
//! `SweepCtx::journaled`) appends one self-checking record to
//! `<out>/.journal/sweep.journal`. A sweep killed mid-flight — OOM, CI
//! timeout, SIGKILL — is resumed with `tmcc-bench run-all --resume`: runs
//! whose records survive are *replayed* from the journal (decoded records
//! are bit-exact, so the regenerated `results/*.json` are byte-identical
//! to an uninterrupted sweep), and only the remainder is simulated.
//!
//! # Format
//!
//! Line-oriented UTF-8, one header line then zero or more records:
//!
//! ```text
//! tmcc-journal v2 build=<git-describe>
//! p <crc32-hex8> <key-hex16> <compact-json>
//! ```
//!
//! A record is keyed by its run alone: the key fingerprints the tuned
//! config's `Debug` text plus the access count, which already pins the
//! scale's tuning and every scenario parameter. So a record serves any
//! experiment that asks for the same run, and two experiments that
//! journal one run write identical bytes (resume keeps one). The header
//! pins the one input a key cannot see, the build: `Debug` output may
//! drift between builds. [`SweepJournal::open_resume`] discards the whole
//! journal when the format version or the build differs — a stale
//! journal downgrades to a cold start, never to a silent mix of old and
//! new results.
//!
//! Each record carries a CRC32 over everything after the checksum field.
//! Appends flush before returning, so a crash can lose at most the record
//! being written. Recovery tolerates exactly that: a torn *final* line is
//! dropped; a corrupt record anywhere *before* the tail means something
//! other than a crash mangled the file, and resume refuses it with a
//! typed [`JournalError`] rather than replaying doubtful bytes.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tmcc_types::FxHashMap;

/// Journal format version; bumped on any layout change.
const VERSION: &str = "v2";

/// File name under `<out>/.journal/`.
const FILE_NAME: &str = "sweep.journal";

/// Test hook: `TMCC_BENCH_EXIT_AFTER_POINTS=N` kills the process (exit
/// code [`EXIT_AFTER_POINTS_CODE`]) right after the Nth journal append —
/// the resume-determinism test uses it as a deterministic "crash".
pub const EXIT_AFTER_POINTS_ENV: &str = "TMCC_BENCH_EXIT_AFTER_POINTS";

/// Exit code used by the [`EXIT_AFTER_POINTS_ENV`] crash hook.
pub const EXIT_AFTER_POINTS_CODE: i32 = 86;

/// Typed journal failures (satellite: corrupted/truncated journals are
/// rejected loudly, not replayed).
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error, with the operation that failed.
    Io { op: &'static str, detail: String },
    /// The header line is missing or unparsable.
    BadHeader { detail: String },
    /// The header parsed but pins a different format version or build.
    HeaderMismatch { field: &'static str, expected: String, found: String },
    /// A record line failed its checksum or shape checks.
    CorruptRecord { line: usize, detail: String },
    /// A record line before the tail is torn (crash damage is only
    /// tolerated on the final line).
    TruncatedRecord { line: usize },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, detail } => write!(f, "journal {op} failed: {detail}"),
            JournalError::BadHeader { detail } => write!(f, "journal header invalid: {detail}"),
            JournalError::HeaderMismatch { field, expected, found } => write!(
                f,
                "journal {field} mismatch: journal was written by {found}, this sweep is {expected}"
            ),
            JournalError::CorruptRecord { line, detail } => {
                write!(f, "journal record at line {line} corrupt: {detail}")
            }
            JournalError::TruncatedRecord { line } => {
                write!(f, "journal record at line {line} truncated before the tail")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Everything the header pins. Two sweeps with equal metadata produce
/// byte-identical records for the same key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Build fingerprint (`git describe --always --dirty`, or a stable
    /// fallback outside a work tree).
    pub build: String,
}

impl JournalMeta {
    /// Metadata for a sweep run by the current binary.
    pub fn current() -> Self {
        Self { build: build_id() }
    }

    fn header_line(&self) -> String {
        format!("tmcc-journal {VERSION} build={}", self.build)
    }
}

/// `git describe --always --dirty`, else a compile-time fallback that at
/// least changes with the crate version.
pub fn build_id() -> String {
    let described = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    described.unwrap_or_else(|| format!("pkg-{}", env!("CARGO_PKG_VERSION")))
}

/// FxHash64 of a string — the journal's key fingerprint.
pub fn fingerprint(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = tmcc_types::FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// CRC32 (IEEE, reflected) — per-record corruption check. The shared
/// workspace implementation, re-exported so existing call sites (and the
/// reference-vector test below) keep working.
pub use tmcc_types::crc32::crc32;

/// One parsed record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Fingerprint of the tuned config + access count (see
    /// `SweepCtx::journaled`).
    pub key: u64,
    /// The run's record as compact JSON (decoded lazily on replay).
    pub json: String,
}

impl JournalRecord {
    fn line(&self) -> String {
        let payload = format!("{:016x} {}", self.key, self.json);
        format!("p {:08x} {payload}\n", crc32(payload.as_bytes()))
    }

    /// Parses one record line (without trailing newline). `Ok(None)`
    /// means the line is damaged in a way consistent with a torn append
    /// (checksum/shape failure) — the caller decides whether its position
    /// makes that tolerable.
    fn parse(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("p ")?;
        let (crc_hex, payload) = rest.split_at_checked(8)?;
        let payload = payload.strip_prefix(' ')?;
        let stored = u32::from_str_radix(crc_hex, 16).ok()?;
        if crc32(payload.as_bytes()) != stored {
            return None;
        }
        let (key_hex, json) = payload.split_at_checked(16)?;
        let json = json.strip_prefix(' ')?;
        let key = u64::from_str_radix(key_hex, 16).ok()?;
        Some(Self { key, json: json.to_string() })
    }
}

/// What [`SweepJournal::open_resume`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeState {
    /// No journal existed; the sweep starts cold.
    Fresh,
    /// A journal matched the metadata; `records` runs were loaded.
    Resumed {
        /// Distinct completed runs available for replay.
        records: usize,
        /// Torn final line dropped during recovery (at most one).
        dropped_tail: bool,
    },
    /// A journal existed but pinned different metadata and was discarded.
    Invalidated {
        /// Which header field differed.
        field: &'static str,
    },
}

/// The append-only sweep journal. Shared by every experiment context of a
/// sweep (`Arc`); appends are serialized by an internal lock and flushed
/// before returning.
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<File>,
    /// Records loaded at open, one per key. Lookups consult only this
    /// snapshot — live appends are never replayed within the same
    /// process, so a sweep's behavior doesn't depend on experiment
    /// scheduling order.
    loaded: FxHashMap<u64, String>,
    appended: AtomicU64,
    exit_after: Option<u64>,
}

impl SweepJournal {
    fn journal_path(out_dir: &Path) -> PathBuf {
        out_dir.join(".journal").join(FILE_NAME)
    }

    /// Starts a fresh journal under `<out_dir>/.journal/`, truncating any
    /// previous one.
    pub fn open_fresh(out_dir: &Path, meta: &JournalMeta) -> Result<Self, JournalError> {
        let path = Self::journal_path(out_dir);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)
                .map_err(|e| JournalError::Io { op: "create dir", detail: e.to_string() })?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| JournalError::Io { op: "create", detail: e.to_string() })?;
        file.write_all(meta.header_line().as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io { op: "write header", detail: e.to_string() })?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            loaded: FxHashMap::default(),
            appended: AtomicU64::new(0),
            exit_after: exit_after_points(),
        })
    }

    /// Resumes from an existing journal if its header matches `meta`;
    /// otherwise (missing, or metadata mismatch) starts fresh. Returns
    /// the journal and what happened. Corruption before the tail is an
    /// error, not an invalidation — it never happens from a crash, so it
    /// is surfaced instead of silently discarded.
    pub fn open_resume(
        out_dir: &Path,
        meta: &JournalMeta,
    ) -> Result<(Self, ResumeState), JournalError> {
        let path = Self::journal_path(out_dir);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Self::open_fresh(out_dir, meta)?, ResumeState::Fresh));
            }
            Err(e) => return Err(JournalError::Io { op: "read", detail: e.to_string() }),
        };
        match parse_journal(&text, meta) {
            Ok((records, dropped_tail)) => {
                let loaded: FxHashMap<u64, String> =
                    records.into_iter().map(|r| (r.key, r.json)).collect();
                let count = loaded.len();
                // Re-open for append; recovery rewrites the file without
                // the torn tail or repeated keys, so the journal stays
                // clean on disk.
                let mut file = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&path)
                    .map_err(|e| JournalError::Io { op: "reopen", detail: e.to_string() })?;
                let mut contents = meta.header_line();
                contents.push('\n');
                let mut entries: Vec<(&u64, &String)> = loaded.iter().collect();
                entries.sort_unstable_by_key(|&(key, _)| *key);
                for (&key, json) in entries {
                    contents.push_str(&JournalRecord { key, json: json.clone() }.line());
                }
                file.write_all(contents.as_bytes())
                    .and_then(|()| file.flush())
                    .map_err(|e| JournalError::Io { op: "rewrite", detail: e.to_string() })?;
                let journal = Self {
                    path,
                    file: Mutex::new(file),
                    loaded,
                    appended: AtomicU64::new(0),
                    exit_after: exit_after_points(),
                };
                Ok((journal, ResumeState::Resumed { records: count, dropped_tail }))
            }
            Err(JournalError::HeaderMismatch { field, .. }) => {
                let journal = Self::open_fresh(out_dir, meta)?;
                Ok((journal, ResumeState::Invalidated { field }))
            }
            Err(e) => Err(e),
        }
    }

    /// The journal file path (for messages).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Distinct completed runs loaded at open.
    pub fn loaded_points(&self) -> usize {
        self.loaded.len()
    }

    /// The stored compact-JSON record for the run `key`, if the journal
    /// loaded one at open — whichever experiment wrote it.
    pub fn lookup(&self, key: u64) -> Option<&str> {
        self.loaded.get(&key).map(String::as_str)
    }

    /// Appends one completed run, flushing before returning (a crash
    /// after `append` never loses the record). Honors the
    /// [`EXIT_AFTER_POINTS_ENV`] crash hook.
    pub fn append(&self, key: u64, json: &str) {
        let record = JournalRecord { key, json: json.to_string() };
        {
            let mut file = self.file.lock().expect("journal file lock");
            if file.write_all(record.line().as_bytes()).and_then(|()| file.flush()).is_err() {
                // A journal write failure must not kill the sweep — the
                // journal is a recovery aid, the results are the product.
                eprintln!("warning: journal append failed; resume coverage reduced");
                return;
            }
        }
        let n = self.appended.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = self.exit_after {
            if n >= limit {
                eprintln!("[journal] {EXIT_AFTER_POINTS_ENV}={limit} reached; simulating crash");
                std::process::exit(EXIT_AFTER_POINTS_CODE);
            }
        }
    }
}

fn exit_after_points() -> Option<u64> {
    std::env::var(EXIT_AFTER_POINTS_ENV).ok().and_then(|v| v.parse().ok())
}

/// Strictly parses a journal's full text against `meta`. Returns the
/// records and whether a torn tail line was dropped.
fn parse_journal(
    text: &str,
    meta: &JournalMeta,
) -> Result<(Vec<JournalRecord>, bool), JournalError> {
    let mut lines = text.split_inclusive('\n');
    let header = lines.next().ok_or(JournalError::BadHeader { detail: "empty file".into() })?;
    check_header(header.trim_end_matches('\n'), meta)?;

    let rest: Vec<&str> = lines.collect();
    let mut records = Vec::new();
    let mut dropped_tail = false;
    for (i, raw) in rest.iter().enumerate() {
        let line_no = i + 2; // 1-based, after the header
        let is_last = i + 1 == rest.len();
        let torn = !raw.ends_with('\n');
        let line = raw.trim_end_matches('\n');
        if line.is_empty() && is_last {
            break;
        }
        match JournalRecord::parse(line) {
            Some(rec) if !torn => records.push(rec),
            Some(_) | None => {
                if is_last {
                    // Crash damage: the append was cut mid-line.
                    dropped_tail = true;
                } else if torn {
                    return Err(JournalError::TruncatedRecord { line: line_no });
                } else {
                    return Err(JournalError::CorruptRecord {
                        line: line_no,
                        detail: "checksum or shape mismatch".into(),
                    });
                }
            }
        }
    }
    Ok((records, dropped_tail))
}

fn check_header(line: &str, meta: &JournalMeta) -> Result<(), JournalError> {
    let mut parts = line.split(' ');
    let magic = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if magic != "tmcc-journal" {
        return Err(JournalError::BadHeader { detail: format!("bad magic {magic:?}") });
    }
    if version != VERSION {
        return Err(JournalError::HeaderMismatch {
            field: "version",
            expected: VERSION.to_string(),
            found: version.to_string(),
        });
    }
    let build = match (parts.next(), parts.next()) {
        (Some(field), None) => field.strip_prefix("build="),
        _ => None,
    };
    let found_build = build.ok_or_else(|| JournalError::BadHeader {
        detail: format!("expected one build= field in {line:?}"),
    })?;
    if found_build != meta.build {
        return Err(JournalError::HeaderMismatch {
            field: "build",
            expected: meta.build.clone(),
            found: found_build.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> JournalMeta {
        JournalMeta { build: "test-build".into() }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmcc-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_appends_through_resume() {
        let dir = tmp_dir("roundtrip");
        let m = meta();
        let j = SweepJournal::open_fresh(&dir, &m).expect("fresh");
        j.append(0x1111, "{\"a\":1}");
        j.append(0x2222, "{\"a\":2}");
        // A second experiment journaling the same run writes the same
        // bytes; resume keeps one record.
        j.append(0x1111, "{\"a\":1}");
        let path = j.path().to_path_buf();
        drop(j);

        let (j, state) = SweepJournal::open_resume(&dir, &m).expect("resume");
        assert_eq!(state, ResumeState::Resumed { records: 2, dropped_tail: false });
        assert_eq!(j.lookup(0x1111), Some("{\"a\":1}"));
        assert_eq!(j.lookup(0x2222), Some("{\"a\":2}"));
        assert_eq!(j.lookup(0x3333), None);
        let text = fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 3, "header plus one line per key:\n{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_cleaned() {
        let dir = tmp_dir("torn");
        let m = meta();
        let j = SweepJournal::open_fresh(&dir, &m).expect("fresh");
        j.append(1, "{}");
        j.append(2, "{}");
        let path = j.path().to_path_buf();
        drop(j);
        // Cut the final record mid-line, as a crash would.
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, &text[..text.len() - 4]).expect("tear");

        let (j, state) = SweepJournal::open_resume(&dir, &m).expect("resume");
        assert_eq!(state, ResumeState::Resumed { records: 1, dropped_tail: true });
        assert!(j.lookup(1).is_some());
        assert!(j.lookup(2).is_none());
        drop(j);
        // Recovery rewrote the file: a second resume sees a clean tail.
        let (_, state) = SweepJournal::open_resume(&dir, &m).expect("resume again");
        assert_eq!(state, ResumeState::Resumed { records: 1, dropped_tail: false });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_tail_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let m = meta();
        let j = SweepJournal::open_fresh(&dir, &m).expect("fresh");
        j.append(1, "{\"x\":1}");
        j.append(2, "{\"x\":2}");
        let path = j.path().to_path_buf();
        drop(j);
        // Flip one byte inside the FIRST record's JSON.
        let mut bytes = fs::read(&path).expect("read");
        let pos = bytes.windows(5).position(|w| w == b"\"x\":1").expect("first record json");
        bytes[pos + 4] = b'9';
        fs::write(&path, &bytes).expect("corrupt");

        match SweepJournal::open_resume(&dir, &m) {
            Err(JournalError::CorruptRecord { line, .. }) => assert_eq!(line, 2),
            Err(other) => panic!("expected CorruptRecord, got {other:?}"),
            Ok(_) => panic!("expected CorruptRecord, resume succeeded"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metadata_mismatch_invalidates() {
        let dir = tmp_dir("mismatch");
        let m = meta();
        let j = SweepJournal::open_fresh(&dir, &m).expect("fresh");
        j.append(1, "{}");
        drop(j);

        let other = JournalMeta { build: "other-build".into() };
        let (j, state) = SweepJournal::open_resume(&dir, &other).expect("resume");
        assert_eq!(state, ResumeState::Invalidated { field: "build" });
        assert_eq!(j.loaded_points(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_journal_is_invalidated_on_version() {
        let dir = tmp_dir("v1");
        let path = dir.join(".journal").join(FILE_NAME);
        fs::create_dir_all(path.parent().expect("journal dir")).expect("journal dir");
        // The v1 layout: scale and config hash in the header, an
        // experiment column in every record.
        let payload = "0000000000000001 fig01 {}";
        let v1 = format!(
            "tmcc-journal v1 build=test-build scale=test config=000000000000abcd\n\
             p {:08x} {payload}\n",
            crc32(payload.as_bytes())
        );
        fs::write(&path, v1).expect("write v1 journal");

        let (j, state) = SweepJournal::open_resume(&dir, &meta()).expect("resume");
        assert_eq!(state, ResumeState::Invalidated { field: "version" });
        assert_eq!(j.loaded_points(), 0);
        drop(j);
        let header = fs::read_to_string(&path).expect("read").lines().next().map(str::to_string);
        assert_eq!(header.as_deref(), Some("tmcc-journal v2 build=test-build"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_lines_parse_exactly() {
        let rec = JournalRecord {
            key: 0xdead_beef_1234_5678,
            json: "{\"workload\":\"canneal\",\"x\":1.5}".into(),
        };
        let line = rec.line();
        assert!(line.ends_with('\n'));
        let parsed = JournalRecord::parse(line.trim_end()).expect("parse");
        assert_eq!(parsed, rec);
        // Any single-byte flip in the payload breaks the checksum.
        let mut mangled = line.trim_end().to_string().into_bytes();
        let last = mangled.len() - 1;
        mangled[last] ^= 0x01;
        assert!(JournalRecord::parse(std::str::from_utf8(&mangled).unwrap()).is_none());
    }
}
