//! Property tests for the sweep journal: any set of records survives an
//! append → resume round trip, any mid-file corruption is rejected with a
//! typed error, and any crash-style truncation recovers exactly the
//! records whose appends completed.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tmcc_bench::journal::{JournalError, JournalMeta, ResumeState, SweepJournal};

fn meta() -> JournalMeta {
    JournalMeta { build: "prop-build".into() }
}

fn fresh_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tmcc-journal-prop-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// (key, payload) pairs with distinct keys. Payloads mimic compact JSON:
/// printable, no raw newlines (the emitter escapes control characters,
/// so journaled payloads never contain them).
fn arb_records() -> impl Strategy<Value = Vec<(u64, String)>> {
    let payload = prop::collection::vec(0u32..36, 1..12).prop_map(|digits| {
        let s: String =
            digits.iter().map(|&d| char::from_digit(d, 36).expect("base-36 digit")).collect();
        format!("{{\"v\":\"{s}\"}}")
    });
    prop::collection::vec((any::<u64>(), payload), 0..12).prop_map(|mut v| {
        v.sort();
        v.dedup_by_key(|(k, _)| *k);
        v
    })
}

/// Writes `records` into a fresh journal and returns its on-disk path.
fn write_journal(dir: &Path, records: &[(u64, String)]) -> PathBuf {
    let j = SweepJournal::open_fresh(dir, &meta()).expect("fresh");
    for (key, payload) in records {
        j.append(*key, payload);
    }
    j.path().to_path_buf()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn appends_round_trip_through_resume(records in arb_records(), case in any::<u64>()) {
        let dir = fresh_dir("roundtrip", case);
        write_journal(&dir, &records);

        let (j, state) = SweepJournal::open_resume(&dir, &meta()).expect("resume");
        prop_assert_eq!(
            state,
            ResumeState::Resumed { records: records.len(), dropped_tail: false }
        );
        for (key, payload) in &records {
            prop_assert_eq!(j.lookup(*key), Some(payload.as_str()));
        }
        let never_ran = (0u64..).find(|k| records.iter().all(|(key, _)| key != k));
        prop_assert_eq!(j.lookup(never_ran.expect("a key no record uses")), None);
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_rejected_with_typed_error(
        records in arb_records(),
        victim_sel in any::<u64>(),
        // XOR keeps the byte ASCII (journal lines are ASCII), so the flip
        // exercises record validation rather than UTF-8 decoding (a >=0x80
        // byte is rejected earlier, as an Io error, by read_to_string).
        flip in 1u8..=127,
        case in any::<u64>(),
    ) {
        if records.len() < 2 {
            continue; // need a record line that is not the (tolerated) tail
        }
        let dir = fresh_dir("corrupt", case);
        let path = write_journal(&dir, &records);

        // Pick a byte inside the CRC-covered payload of a record line that
        // is NOT the last line, and flip it. The first 10 bytes of each
        // line ("p " + 8 CRC hex chars) are excluded: the checksum field
        // is not itself checksummed, so a pure case flip there (hex 'a' →
        // 'A') parses to the same u32 and is semantically invisible.
        let bytes = std::fs::read(&path).expect("read journal");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("records exist") + 1;
        let mut candidates = Vec::new();
        let mut line_start = header_end;
        for (i, &b) in bytes.iter().enumerate().take(last_line_start).skip(header_end) {
            if b == b'\n' {
                candidates.extend(line_start + 10..i);
                line_start = i + 1;
            }
        }
        let pos = candidates[victim_sel as usize % candidates.len()];
        let mut mangled = bytes;
        mangled[pos] ^= flip;
        // The flip may produce '\n' (splitting a line) or another byte
        // (breaking the CRC); both must surface as typed errors.
        std::fs::write(&path, &mangled).expect("write corrupted");

        match SweepJournal::open_resume(&dir, &meta()) {
            Err(JournalError::CorruptRecord { .. })
            | Err(JournalError::TruncatedRecord { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error variant: {other:?}"),
            Ok((_, state)) => prop_assert!(false, "corruption accepted: {state:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_truncation_recovers_the_completed_prefix(
        records in arb_records(),
        cut_sel in any::<u64>(),
        case in any::<u64>(),
    ) {
        let dir = fresh_dir("truncate", case);
        let path = write_journal(&dir, &records);

        // Truncate anywhere after the header, as a crash mid-append would.
        let bytes = std::fs::read(&path).expect("read journal");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        let cut = header_end + (cut_sel as usize % (bytes.len() - header_end + 1));
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let (j, state) = SweepJournal::open_resume(&dir, &meta()).expect("crash recovery");
        // Exactly the records whose trailing newline survived are kept.
        let complete = bytes[header_end..cut].iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(j.loaded_points(), complete);
        let expect_tail = cut != header_end && bytes[cut - 1] != b'\n';
        prop_assert_eq!(
            state,
            ResumeState::Resumed { records: complete, dropped_tail: expect_tail }
        );
        let mut found = 0;
        for (key, payload) in &records {
            if let Some(stored) = j.lookup(*key) {
                prop_assert_eq!(stored, payload.as_str());
                found += 1;
            }
        }
        prop_assert_eq!(found, complete);
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
