//! Differential tests against streams recorded with the pre-LUT codec
//! (`tests/fixtures/old_codec_streams.txt`, written by
//! `examples/record_streams.rs`).
//!
//! Two guarantees are pinned per fixture line:
//!
//! 1. **Decoder compatibility** — the table-driven decoders consume
//!    historically produced streams and recover the original pages.
//! 2. **Encoder stability** — re-compressing the same page with the
//!    current codec reproduces the recorded stream byte-for-byte, so
//!    golden ratio results can never drift from a "pure speedup".

use tmcc_compression::BitReader;
use tmcc_deflate::{
    CodecError, CompressedPage, FullHuffman, MemDeflate, PageMode, ReducedHuffman, SoftwareDeflate,
};

/// Deterministic page generator shared verbatim with
/// `examples/record_streams.rs`: xorshift64 bytes shaped into the regimes
/// real dumps contain.
fn fixture_page(seed: u64, kind: u8) -> Vec<u8> {
    let mut page = vec![0u8; 4096];
    let mut x = seed | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    match kind {
        0 => {} // all-zero page
        1 => {
            // Repeating text-like motif: the LzHuffman common case.
            let motif = b"key=value; ptr=0x7fffaa00; flags=rw-; n=0001732; ";
            for (i, b) in page.iter_mut().enumerate() {
                *b = motif[i % motif.len()];
            }
            for _ in 0..6 {
                let i = (rng() % 4096) as usize;
                page[i] = rng() as u8;
            }
        }
        2 => {
            // Near-uniform bytes with internal repetition: LZ wins but
            // Huffman expands -> dynamic skip (LzOnly).
            for (i, b) in page.iter_mut().enumerate().take(2048) {
                *b = ((i * 37) % 251) as u8;
            }
            let (lo, hi) = page.split_at_mut(2048);
            hi.copy_from_slice(lo);
        }
        3 => {
            // Random page: stored Raw.
            for b in page.iter_mut() {
                *b = rng() as u8;
            }
        }
        _ => {
            // Pointer-array-like page.
            let base = rng() & 0x0000_7fff_ffff_f000;
            for i in 0..512usize {
                let v = base + (rng() % 0x1000);
                page[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    page
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex")).collect()
}

struct Fixture {
    codec: String,
    seed: u64,
    kind: u8,
    extra: String,
    stream: Vec<u8>,
}

fn load_fixtures() -> Vec<Fixture> {
    let text = include_str!("fixtures/old_codec_streams.txt");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut f = l.split_whitespace();
            let codec = f.next().expect("codec").to_string();
            let seed = f.next().expect("seed").parse().expect("seed");
            let kind = f.next().expect("kind").parse().expect("kind");
            let extra = f.next().expect("extra").to_string();
            // Empty payloads (zero pages) serialize as a missing field.
            let stream = unhex(f.next().unwrap_or(""));
            Fixture { codec, seed, kind, extra, stream }
        })
        .collect()
}

fn page_mode(tag: u8) -> PageMode {
    match tag {
        0 => PageMode::Zero,
        1 => PageMode::LzHuffman,
        2 => PageMode::LzOnly,
        3 => PageMode::Raw,
        other => panic!("unknown mode tag {other}"),
    }
}

#[test]
fn fixtures_cover_every_recorded_codec() {
    let fixtures = load_fixtures();
    for codec in ["reduced", "full", "mem", "software"] {
        assert!(fixtures.iter().any(|f| f.codec == codec), "no {codec} fixtures");
    }
    // The mem fixtures must exercise zero, LzHuffman and Raw pages.
    for mode in [0u8, 1, 3] {
        assert!(
            fixtures
                .iter()
                .filter(|f| f.codec == "mem")
                .any(|f| f.extra.split(':').next() == Some(&mode.to_string())),
            "no mem fixture with mode {mode}"
        );
    }
}

#[test]
fn reduced_huffman_decodes_old_streams() {
    for f in load_fixtures().iter().filter(|f| f.codec == "reduced") {
        let page = fixture_page(f.seed, f.kind);
        let n: usize = f.extra.parse().expect("page len");
        assert_eq!(n, page.len());
        let (tree, rest) = ReducedHuffman::try_read_tree(&f.stream).expect("clean tree");
        let mut decoded = Vec::new();
        tree.try_decode_from_into(&mut BitReader::new(rest), n, &mut decoded)
            .expect("clean decode");
        assert_eq!(decoded, page, "seed {} kind {}", f.seed, f.kind);
        // Encoder stability: same tree, same bits.
        assert_eq!(tree.encode(&page), f.stream, "seed {} kind {}", f.seed, f.kind);
        let fresh = ReducedHuffman::build(&page, 15);
        assert_eq!(fresh.encode(&page), f.stream, "rebuilt tree, seed {}", f.seed);
    }
}

#[test]
fn full_huffman_decodes_old_streams() {
    for f in load_fixtures().iter().filter(|f| f.codec == "full") {
        let page = fixture_page(f.seed, f.kind);
        let n: usize = f.extra.parse().expect("page len");
        assert_eq!(FullHuffman::try_decode(&f.stream, n), Ok(page.clone()), "seed {}", f.seed);
        assert_eq!(FullHuffman::build(&page).encode(&page), f.stream, "seed {}", f.seed);
    }
}

#[test]
fn mem_deflate_decodes_old_pages() {
    let mem = MemDeflate::default();
    let mut decoded = Vec::new();
    for f in load_fixtures().iter().filter(|f| f.codec == "mem") {
        let page = fixture_page(f.seed, f.kind);
        let (mode_tag, lz_len) = f.extra.split_once(':').expect("mode:lz_len");
        let mode = page_mode(mode_tag.parse().expect("mode"));
        let lz_len: usize = lz_len.parse().expect("lz_len");
        let stored = CompressedPage::from_parts(mode, page.len(), lz_len, f.stream.clone());
        mem.try_decompress_page_into(&stored, &mut decoded).expect("clean page decodes");
        assert_eq!(decoded, page, "seed {} kind {}", f.seed, f.kind);
        // Encoder stability end to end: mode, lz_len and payload bytes.
        let fresh = mem.compress_page(&page);
        assert_eq!(fresh.mode(), mode, "seed {}", f.seed);
        assert_eq!(fresh.lz_len(), lz_len, "seed {}", f.seed);
        assert_eq!(fresh.payload(), &f.stream[..], "seed {} kind {}", f.seed, f.kind);
    }
}

/// Corrupting the recorded streams must produce *typed* decode errors —
/// never panics — from the same decoders that accept the clean streams.
/// (These assertions used to be impossible: the old decoders aborted.)
#[test]
fn corrupted_old_streams_yield_typed_errors() {
    let mem = MemDeflate::default();
    let mut out = Vec::new();
    for f in load_fixtures() {
        match f.codec.as_str() {
            "reduced" => {
                // A truncated tree header is UnexpectedEnd, typed.
                assert_eq!(
                    ReducedHuffman::try_read_tree(&f.stream[..10]).unwrap_err(),
                    CodecError::UnexpectedEnd { context: "reduced tree header" },
                    "seed {}",
                    f.seed
                );
                // Clean stream still decodes through the fallible path.
                let n: usize = f.extra.parse().expect("page len");
                let (tree, rest) = ReducedHuffman::try_read_tree(&f.stream).expect("clean tree");
                out.clear();
                tree.try_decode_from_into(&mut BitReader::new(rest), n, &mut out)
                    .expect("clean decode");
                assert_eq!(out, fixture_page(f.seed, f.kind));
            }
            "full" => {
                assert_eq!(
                    FullHuffman::try_decode(&f.stream[..64], 16).unwrap_err(),
                    CodecError::UnexpectedEnd { context: "full tree header" },
                    "seed {}",
                    f.seed
                );
            }
            "mem" => {
                let (mode_tag, lz_len) = f.extra.split_once(':').expect("mode:lz_len");
                let mode = page_mode(mode_tag.parse().expect("mode"));
                let lz_len: usize = lz_len.parse().expect("lz_len");
                if mode == PageMode::Zero {
                    continue;
                }
                // Truncate the payload hard: every mode detects it.
                let cut = f.stream.len() / 2;
                let bad = CompressedPage::from_parts(mode, 4096, lz_len, f.stream[..cut].to_vec());
                let err = mem
                    .try_decompress_page_into(&bad, &mut out)
                    .expect_err("truncated page must not decode");
                assert!(
                    matches!(
                        err,
                        CodecError::UnexpectedEnd { .. }
                            | CodecError::InvalidCode { .. }
                            | CodecError::LengthMismatch { .. }
                            | CodecError::BadBackref { .. }
                            | CodecError::OutputOverflow { .. }
                    ),
                    "seed {}: {err}",
                    f.seed
                );
            }
            "software" => {
                let sw = SoftwareDeflate::new();
                assert!(sw.try_decompress(&f.stream[..f.stream.len() / 2]).is_err());
            }
            other => panic!("unknown codec {other}"),
        }
    }
}

#[test]
fn software_deflate_decodes_old_dumps() {
    let sw = SoftwareDeflate::new();
    for f in load_fixtures().iter().filter(|f| f.codec == "software") {
        let mut dump = Vec::new();
        for (seed, kind) in [(21u64, 1u8), (22, 4), (23, 2), (24, 1)] {
            dump.extend_from_slice(&fixture_page(seed, kind));
        }
        let n: usize = f.extra.parse().expect("dump len");
        assert_eq!(n, dump.len());
        assert_eq!(sw.try_decompress(&f.stream).as_ref(), Ok(&dump));
        assert_eq!(sw.compress(&dump), f.stream, "software stream drifted");
    }
}
