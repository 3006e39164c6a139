//! Corruption robustness: decoding a bit-flipped or byte-mutated stream
//! must return a typed error or a wrong-but-bounded output — never panic,
//! over-read, or allocate unboundedly.
//!
//! Two layers:
//!
//! * proptest properties drawing random pages, random corruptions;
//! * a deterministic fixed-seed fuzz loop (`fuzz_smoke`) sized by the
//!   `TMCC_FUZZ_CASES` environment variable so CI can run a bounded ~10k
//!   iteration smoke in release mode (see `scripts/ci.sh`).
//!
//! Both mutate *valid* streams produced by the real compressors, which
//! keeps the corrupted inputs structurally close to what a flipped DRAM
//! bit produces — far more penetrating than pure random bytes, which die
//! in the first header field.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_compression::{BestOfCodec, BlockCodec, CodecError, BLOCK_SIZE};
use tmcc_deflate::{
    CompressedPage, MemDeflate, PageMode, ReducedHuffman, SoftwareDeflate, PAGE_SIZE,
};

/// Deterministic page in one of the regimes real dumps contain.
fn gen_page(rng: &mut SmallRng) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    match rng.gen_range(0u8..5) {
        0 => {} // zero page
        1 => {
            let motif: Vec<u8> =
                (0..rng.gen_range(8usize..48)).map(|_| rng.gen_range(b'0'..b'z')).collect();
            for (i, b) in page.iter_mut().enumerate() {
                *b = motif[i % motif.len()];
            }
        }
        2 => {
            for _ in 0..rng.gen_range(20usize..400) {
                let i = rng.gen_range(0..PAGE_SIZE);
                page[i] = rng.gen();
            }
        }
        3 => {
            let base: u64 = rng.gen::<u64>() & 0x0000_7fff_ffff_f000;
            for i in 0..PAGE_SIZE / 8 {
                let v = base + rng.gen_range(0u64..0x1000);
                page[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            for b in page.iter_mut() {
                *b = rng.gen();
            }
        }
    }
    page
}

/// Applies one corruption to `bytes`: a bit flip, a byte splat, a
/// truncation, or an extension. Returns false when the stream is too
/// short to corrupt that way.
fn corrupt(bytes: &mut Vec<u8>, rng: &mut SmallRng) -> bool {
    match rng.gen_range(0u8..4) {
        0 => {
            if bytes.is_empty() {
                return false;
            }
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        1 => {
            if bytes.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen();
        }
        2 => {
            if bytes.is_empty() {
                return false;
            }
            let cut = rng.gen_range(0..bytes.len());
            bytes.truncate(cut);
        }
        _ => {
            let extra = rng.gen_range(1usize..16);
            for _ in 0..extra {
                bytes.push(rng.gen());
            }
        }
    }
    true
}

/// One fuzz case over the page pipeline: compress a real page, corrupt
/// the payload, decode fallibly. The decode must return `Ok` with exactly
/// `original_len` bytes or a typed `Err`; the output stays bounded
/// either way. Panics propagate out and fail the test.
fn page_case(rng: &mut SmallRng, codec: &MemDeflate) {
    let page = gen_page(rng);
    let clean = codec.compress_page(&page);
    let mut payload = clean.payload().to_vec();
    if !corrupt(&mut payload, rng) {
        return;
    }
    // Occasionally corrupt the declared lengths too — metadata corruption.
    let original_len = if rng.gen_range(0u8..8) == 0 {
        rng.gen_range(1..=PAGE_SIZE)
    } else {
        clean.original_len()
    };
    let lz_len =
        if rng.gen_range(0u8..8) == 0 { rng.gen_range(0..=PAGE_SIZE) } else { clean.lz_len() };
    let bad = CompressedPage::from_parts(clean.mode(), original_len, lz_len, payload);
    let mut out = Vec::new();
    match codec.try_decompress_page_into(&bad, &mut out) {
        Ok(()) => assert_eq!(out.len(), original_len),
        Err(_) => assert!(out.len() <= original_len),
    }
}

/// One fuzz case over the block codecs (BDI/BPC/CPack/Zero composite).
fn block_case(rng: &mut SmallRng, codec: &BestOfCodec) {
    let mut block = [0u8; BLOCK_SIZE];
    match rng.gen_range(0u8..3) {
        0 => {}
        1 => {
            let v: u32 = rng.gen_range(0..4096);
            for (i, c) in block.chunks_exact_mut(4).enumerate() {
                c.copy_from_slice(&(v + i as u32).to_le_bytes());
            }
        }
        _ => {
            for b in block.iter_mut() {
                *b = rng.gen();
            }
        }
    }
    let Some(mut stream) = codec.compress(&block) else { return };
    if !corrupt(&mut stream, rng) {
        return;
    }
    // Ok-or-typed-Err; the output array is fixed-size so bounds are free.
    let _ = codec.try_decompress(&stream);
}

/// The CI fuzz smoke: a fixed seed, `TMCC_FUZZ_CASES` iterations
/// (default 2 000 for the plain `cargo test` run; `scripts/ci.sh` runs
/// 10 000+ in release). Zero panics over the whole loop is the pass
/// criterion; a seed in the failure message reproduces any case alone.
#[test]
fn fuzz_smoke() {
    let cases: u64 =
        std::env::var("TMCC_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000);
    let codec = MemDeflate::default();
    let blocks = BestOfCodec::new();
    for case in 0..cases {
        let seed = 0x7A6C_5F00_u64 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(seed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            page_case(&mut rng, &codec);
            let mut rng2 = SmallRng::seed_from_u64(seed ^ 1);
            block_case(&mut rng2, &blocks);
        }));
        assert!(r.is_ok(), "fuzz case {case} (seed {seed:#x}) panicked");
    }
}

/// Sealed pages: every payload corruption is *detected* (CRC), so the
/// undetected-wrong-output case cannot exist once seals are on. This is
/// the integrity guarantee the recovery ladder builds on.
#[test]
fn seal_detects_every_payload_corruption() {
    let codec = MemDeflate::default();
    let mut out = Vec::new();
    let mut detected = 0u32;
    for case in 0..500u64 {
        let mut rng = SmallRng::seed_from_u64(0xC4C_1000 + case);
        let page = gen_page(&mut rng);
        let clean = codec.compress_page(&page);
        if clean.payload().is_empty() {
            continue; // zero pages have no payload to corrupt
        }
        let seal = clean.seal(0);
        let mut bad = clean.clone();
        let bit = rng.gen_range(0..bad.payload().len() * 8);
        bad.payload_mut()[bit / 8] ^= 1 << (bit % 8);
        let err = codec
            .try_decompress_sealed(&bad, &seal, 0, &mut out)
            .expect_err("a flipped payload bit must fail the seal");
        assert!(matches!(err, CodecError::ChecksumMismatch { .. }), "case {case}: {err}");
        detected += 1;
    }
    assert!(detected > 300, "corpus must exercise sealed pages, got {detected}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary corruption of a valid page stream: fallible decode never
    /// panics and output length is always bounded.
    #[test]
    fn corrupted_pages_never_panic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        page_case(&mut rng, &MemDeflate::default());
    }

    /// Arbitrary corruption of valid block-codec streams.
    #[test]
    fn corrupted_blocks_never_panic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        block_case(&mut rng, &BestOfCodec::new());
    }

    /// Pure-garbage inputs (not derived from any valid stream) against
    /// every decoder entry point reachable from attacker bytes.
    #[test]
    fn garbage_streams_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let codec = MemDeflate::default();
        let mut out = Vec::new();
        for mode in [PageMode::LzHuffman, PageMode::LzOnly, PageMode::Raw] {
            let page = CompressedPage::from_parts(mode, PAGE_SIZE, bytes.len(), bytes.clone());
            let _ = codec.try_decompress_page_into(&page, &mut out);
            prop_assert!(out.len() <= PAGE_SIZE);
        }
        let _ = SoftwareDeflate::new().try_decompress(&bytes);
        let _ = ReducedHuffman::try_read_tree(&bytes);
        let _ = BestOfCodec::new().try_decompress(&bytes);
    }
}
