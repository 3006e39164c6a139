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
//! tmcc-journal v1 build=<git-describe> scale=<scale> config=<hex64>
//! p <crc32-hex8> <key-hex16> <experiment> <compact-json>
//! ```
//!
//! The header pins everything that could silently change replayed bytes:
//! the build (journal keys fingerprint `SystemConfig` through its `Debug`
//! output, which may drift between builds), the run [`Scale`], and a hash
//! of the scale's tuning knobs. [`SweepJournal::open_resume`] discards the
//! whole journal when any of the three differ — a stale journal downgrades
//! to a cold start, never to a silent mix of old and new results.
//!
//! Each record carries a CRC32 over everything after the checksum field.
//! Appends flush before returning, so a crash can lose at most the record
//! being written. Recovery tolerates exactly that: a torn *final* line is
//! dropped; a corrupt record anywhere *before* the tail means something
//! other than a crash mangled the file, and resume refuses it with a
//! typed [`JournalError`] rather than replaying doubtful bytes.

use crate::sweep::Scale;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tmcc_types::FxHashMap;

/// Journal format version; bumped on any layout change.
const VERSION: &str = "v1";

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
    /// The header parsed but pins a different build/scale/config.
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
/// byte-identical records for the same (experiment, key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Build fingerprint (`git describe --always --dirty`, or a stable
    /// fallback outside a work tree).
    pub build: String,
    /// The sweep [`Scale`].
    pub scale: Scale,
    /// Hash over the scale's tuning knobs (accesses, warmup, footprint
    /// cap, codec samples) — the invalidation rule documented in the
    /// README: resuming under different tuning starts cold.
    pub config_hash: u64,
}

impl JournalMeta {
    /// Metadata for a sweep at `scale` built from the current binary.
    pub fn current(scale: Scale) -> Self {
        Self { build: build_id(), scale, config_hash: scale_config_hash(scale) }
    }

    fn header_line(&self) -> String {
        format!(
            "tmcc-journal {VERSION} build={} scale={} config={:016x}",
            self.build,
            self.scale.name(),
            self.config_hash
        )
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

/// Hash over everything a [`Scale`] pins about the sweep's configuration:
/// the single-system tuning knobs *and* the multi-tenant scenario grids
/// (rosters, churn plans, quanta all vary by scale) — so a journal written
/// under different MT parameters invalidates on `--resume` instead of
/// replaying stale records.
pub fn scale_config_hash(scale: Scale) -> u64 {
    fingerprint(&format!(
        "accesses={} warmup={:?} pages_cap={:?} size_samples={} mt={:016x} cap={:016x} \
         int={:016x}",
        scale.accesses(),
        scale.warmup(),
        scale.pages_cap(),
        scale.size_samples(),
        fingerprint(&crate::experiments::mt::grid_signature(scale)),
        fingerprint(&crate::experiments::capacity_cliff::grid_signature(scale)),
        fingerprint(&crate::experiments::integrity::grid_signature(scale))
    ))
}

/// FxHash64 of a string — the journal's key and config fingerprints.
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
    /// Registry name of the experiment that ran the point.
    pub experiment: String,
    /// Fingerprint of the tuned config + access count (see
    /// `SweepCtx::journaled`).
    pub key: u64,
    /// The run's record as compact JSON (decoded lazily on replay).
    pub json: String,
}

impl JournalRecord {
    fn line(&self) -> String {
        let payload = format!("{:016x} {} {}", self.key, self.experiment, self.json);
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
        let (key_hex, rest) = payload.split_at_checked(16)?;
        let rest = rest.strip_prefix(' ')?;
        let key = u64::from_str_radix(key_hex, 16).ok()?;
        let (experiment, json) = rest.split_once(' ')?;
        Some(Self { experiment: experiment.to_string(), key, json: json.to_string() })
    }
}

/// What [`SweepJournal::open_resume`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeState {
    /// No journal existed; the sweep starts cold.
    Fresh,
    /// A journal matched the metadata; `records` points were loaded.
    Resumed {
        /// Completed points available for replay.
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
    /// Records loaded at open. Lookups consult only this snapshot — live
    /// appends are never replayed within the same process, so a sweep's
    /// behavior doesn't depend on experiment scheduling order.
    loaded: FxHashMap<(String, u64), String>,
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
                let loaded: FxHashMap<(String, u64), String> =
                    records.into_iter().map(|r| ((r.experiment, r.key), r.json)).collect();
                let count = loaded.len();
                // Re-open for append; recovery rewrites the file without
                // the torn tail so the journal stays clean on disk.
                let mut file = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&path)
                    .map_err(|e| JournalError::Io { op: "reopen", detail: e.to_string() })?;
                let mut contents = meta.header_line();
                contents.push('\n');
                let mut entries: Vec<(&(String, u64), &String)> = loaded.iter().collect();
                entries.sort_by(|a, b| a.0.cmp(b.0));
                for (&(ref experiment, key), json) in entries {
                    let rec =
                        JournalRecord { experiment: experiment.clone(), key, json: json.clone() };
                    contents.push_str(&rec.line());
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

    /// Completed points loaded at open.
    pub fn loaded_points(&self) -> usize {
        self.loaded.len()
    }

    /// The stored compact-JSON report for `(experiment, key)`, if the
    /// journal loaded one at open.
    pub fn lookup(&self, experiment: &str, key: u64) -> Option<&str> {
        // FxHashMap<(String, u64), _> can't be probed with (&str, u64)
        // without allocating; experiments are few and short, so this
        // allocation is noise next to the simulation it skips.
        self.loaded.get(&(experiment.to_string(), key)).map(String::as_str)
    }

    /// Appends one completed point, flushing before returning (a crash
    /// after `append` never loses the record). Honors the
    /// [`EXIT_AFTER_POINTS_ENV`] crash hook.
    pub fn append(&self, experiment: &str, key: u64, json: &str) {
        let record =
            JournalRecord { experiment: experiment.to_string(), key, json: json.to_string() };
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

    /// Points appended by this process (excludes replayed ones).
    pub fn appended_points(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
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
    let mut build = None;
    let mut scale = None;
    let mut config = None;
    for part in parts {
        if let Some(v) = part.strip_prefix("build=") {
            build = Some(v);
        } else if let Some(v) = part.strip_prefix("scale=") {
            scale = Some(v);
        } else if let Some(v) = part.strip_prefix("config=") {
            config = Some(v);
        } else {
            return Err(JournalError::BadHeader { detail: format!("unknown field {part:?}") });
        }
    }
    let found_build = build.ok_or(JournalError::BadHeader { detail: "missing build=".into() })?;
    let found_scale = scale.ok_or(JournalError::BadHeader { detail: "missing scale=".into() })?;
    let found_config =
        config.ok_or(JournalError::BadHeader { detail: "missing config=".into() })?;
    if found_build != meta.build {
        return Err(JournalError::HeaderMismatch {
            field: "build",
            expected: meta.build.clone(),
            found: found_build.to_string(),
        });
    }
    if found_scale != meta.scale.name() {
        return Err(JournalError::HeaderMismatch {
            field: "scale",
            expected: meta.scale.name().to_string(),
            found: found_scale.to_string(),
        });
    }
    let expected_config = format!("{:016x}", meta.config_hash);
    if found_config != expected_config {
        return Err(JournalError::HeaderMismatch {
            field: "config",
            expected: expected_config,
            found: found_config.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> JournalMeta {
        JournalMeta { build: "test-build".into(), scale: Scale::Test, config_hash: 0xabcd }
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
        j.append("fig01", 0x1111, "{\"a\":1}");
        j.append("fig01", 0x2222, "{\"a\":2}");
        j.append("fig02", 0x1111, "{\"b\":3}");
        drop(j);

        let (j, state) = SweepJournal::open_resume(&dir, &m).expect("resume");
        assert_eq!(state, ResumeState::Resumed { records: 3, dropped_tail: false });
        assert_eq!(j.lookup("fig01", 0x1111), Some("{\"a\":1}"));
        assert_eq!(j.lookup("fig01", 0x2222), Some("{\"a\":2}"));
        assert_eq!(j.lookup("fig02", 0x1111), Some("{\"b\":3}"));
        assert_eq!(j.lookup("fig02", 0x2222), None);
        assert_eq!(j.lookup("fig03", 0x1111), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_cleaned() {
        let dir = tmp_dir("torn");
        let m = meta();
        let j = SweepJournal::open_fresh(&dir, &m).expect("fresh");
        j.append("fig01", 1, "{}");
        j.append("fig01", 2, "{}");
        let path = j.path().to_path_buf();
        drop(j);
        // Cut the final record mid-line, as a crash would.
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, &text[..text.len() - 4]).expect("tear");

        let (j, state) = SweepJournal::open_resume(&dir, &m).expect("resume");
        assert_eq!(state, ResumeState::Resumed { records: 1, dropped_tail: true });
        assert!(j.lookup("fig01", 1).is_some());
        assert!(j.lookup("fig01", 2).is_none());
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
        j.append("fig01", 1, "{\"x\":1}");
        j.append("fig01", 2, "{\"x\":2}");
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
        j.append("fig01", 1, "{}");
        drop(j);

        let other = JournalMeta { build: "other-build".into(), ..meta() };
        let (j, state) = SweepJournal::open_resume(&dir, &other).expect("resume");
        assert_eq!(state, ResumeState::Invalidated { field: "build" });
        assert_eq!(j.loaded_points(), 0);

        let quick = JournalMeta::current(Scale::Quick);
        let test = JournalMeta::current(Scale::Test);
        assert_ne!(quick.config_hash, test.config_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_lines_parse_exactly() {
        let rec = JournalRecord {
            experiment: "fig17_perf_vs_compresso".into(),
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
