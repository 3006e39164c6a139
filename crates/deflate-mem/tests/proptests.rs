//! Property tests: the Deflate stack must restore any page bit-exactly —
//! the reproduction of the paper's RTL functional verification ("we verify
//! that each non-zero 4 KB page in the memory dumps are same as original
//! after compression and decompression").

use proptest::prelude::*;
use tmcc_compression::BitReader;
use tmcc_deflate::{
    CompressedPage, DeflateParams, LzCodec, LzScratch, MemDeflate, PageMode, ReducedHuffman,
    SoftwareDeflate,
};

/// Decodes a page the codec produced; the error, if any, is the result.
fn decode(codec: &MemDeflate, c: &CompressedPage) -> Result<Vec<u8>, tmcc_deflate::CodecError> {
    let mut out = Vec::new();
    codec.try_decompress_page_into(c, &mut out)?;
    Ok(out)
}

/// Runs `f` first thing on a freshly spawned thread, whose codec scratch
/// has never been used.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join()).expect("fresh thread")
}

/// Pages drawn from a mixture of regimes: runs, strided records, random
/// tails — the kinds of content real memory dumps contain.
fn arb_page() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), 0u8..4, prop::collection::vec(any::<u8>(), 8..64)).prop_map(
        |(seed, kind, motif)| {
            let mut page = vec![0u8; 4096];
            let mut x = seed | 1;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            match kind {
                0 => {
                    // Repeating motif with occasional corruption.
                    for (i, b) in page.iter_mut().enumerate() {
                        *b = motif[i % motif.len()];
                    }
                    for _ in 0..8 {
                        let i = (rng() % 4096) as usize;
                        page[i] = rng() as u8;
                    }
                }
                1 => {
                    // Sparse page: mostly zero with scattered values.
                    for _ in 0..200 {
                        let i = (rng() % 4096) as usize;
                        page[i] = rng() as u8;
                    }
                }
                2 => {
                    // Pointer-array-like: 8-byte values sharing high bytes.
                    let base = rng() & 0x0000_7fff_ffff_f000;
                    for i in 0..512usize {
                        let v = base + (rng() % 0x1000);
                        page[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
                _ => {
                    // Random page.
                    for b in page.iter_mut() {
                        *b = rng() as u8;
                    }
                }
            }
            page
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lz_round_trips(page in arb_page()) {
        let lz = LzCodec::memory_specialized();
        let mut stream = Vec::new();
        lz.compress_with(&page, &mut LzScratch::new(), &mut stream);
        let mut out = Vec::new();
        prop_assert_eq!(lz.try_decompress_into(&stream, &mut out, page.len()), Ok(()));
        prop_assert_eq!(out, page);
    }

    #[test]
    fn reduced_huffman_round_trips(page in arb_page()) {
        let tree = ReducedHuffman::build(&page, 15);
        let enc = tree.encode(&page);
        let (tree2, rest) = ReducedHuffman::try_read_tree(&enc).expect("clean header");
        let mut out = Vec::new();
        prop_assert_eq!(
            tree2.try_decode_from_into(&mut BitReader::new(rest), page.len(), &mut out),
            Ok(())
        );
        prop_assert_eq!(out, page);
    }

    #[test]
    fn mem_deflate_round_trips(page in arb_page()) {
        let codec = MemDeflate::default();
        let c = codec.compress_page(&page);
        prop_assert_eq!(decode(&codec, &c).as_ref(), Ok(&page));
        // Stored size never exceeds raw + header.
        prop_assert!(c.stored_len() <= 4096 + 3);
    }

    #[test]
    fn mem_deflate_round_trips_across_design_space(
        page in arb_page(),
        cam_pow in 8u32..13,
        depth in 4u32..16,
        skip in any::<bool>(),
    ) {
        let params = DeflateParams::new()
            .cam_bytes(1 << cam_pow)
            .max_tree_depth(depth)
            .dynamic_skip(skip);
        let codec = MemDeflate::new(params);
        let c = codec.compress_page(&page);
        prop_assert_eq!(decode(&codec, &c).as_ref(), Ok(&page));
    }

    #[test]
    fn software_deflate_round_trips(page in arb_page()) {
        let sw = SoftwareDeflate::new();
        let c = sw.compress(&page);
        prop_assert_eq!(sw.try_decompress(&c), Ok(page));
    }

    /// Every page mode the codec can choose round-trips and keeps its
    /// invariants: exact bit accounting, stored-size bounds, and agreement
    /// between the materialized payload and the analytic size query.
    #[test]
    fn page_modes_keep_their_invariants(page in arb_mode_page(), skip in any::<bool>()) {
        let codec = MemDeflate::new(DeflateParams::new().dynamic_skip(skip));
        let c = codec.compress_page(&page);
        prop_assert_eq!(decode(&codec, &c).as_ref(), Ok(&page));
        prop_assert_eq!(codec.compressed_size(&page), c.stored_len());
        match c.mode() {
            PageMode::Zero => {
                prop_assert_eq!(c.payload_bits(), 0);
                prop_assert_eq!(c.stored_len(), 1);
            }
            PageMode::LzHuffman => {
                // Exact bits: within the final payload byte, never past it.
                prop_assert_eq!(c.payload().len(), c.payload_bits().div_ceil(8));
                prop_assert!(c.payload_bits() <= c.payload().len() * 8);
            }
            PageMode::LzOnly => {
                prop_assert_eq!(c.payload_bits(), c.payload().len() * 8);
                prop_assert_eq!(c.payload().len(), c.lz_len());
                prop_assert!(!skip || c.payload().len() <= c.lz_len());
            }
            PageMode::Raw => {
                prop_assert_eq!(c.payload(), &page[..]);
                prop_assert_eq!(c.payload_bits(), page.len() * 8);
            }
        }
    }

    /// The per-thread scratch never leaks state between calls. On this
    /// thread, page compression, size quotes and decodes (1 KiB window)
    /// interleave with software-Deflate sizing of the whole dump (32 KiB
    /// window) on one scratch, as fig15 runs them; each result equals the
    /// same call made first on a freshly spawned thread.
    #[test]
    fn scratch_reuse_is_invisible(pages in prop::collection::vec(arb_mode_page(), 1..6)) {
        let codec = MemDeflate::default();
        let sw = SoftwareDeflate::new();
        let dump = pages.concat();
        for page in &pages {
            let c = codec.compress_page(page);
            prop_assert_eq!(&c, &on_fresh_thread(|| codec.compress_page(page)));
            let quote = codec.size_quote(page);
            prop_assert_eq!(quote, on_fresh_thread(|| codec.size_quote(page)));
            let decoded = decode(&codec, &c);
            prop_assert_eq!(&decoded, &on_fresh_thread(|| decode(&codec, &c)));
            prop_assert_eq!(decoded.as_ref(), Ok(page));
            let sw_size = sw.compressed_size(&dump);
            prop_assert_eq!(sw_size, on_fresh_thread(|| sw.compressed_size(&dump)));
        }
    }
}

/// [`arb_page`] plus shapes engineered to hit the rarer page modes:
/// all-zero pages ([`PageMode::Zero`]), random pages ([`PageMode::Raw`])
/// and periodic near-uniform pages that LZ compresses but Huffman expands
/// ([`PageMode::LzOnly`] under dynamic skip).
fn arb_mode_page() -> impl Strategy<Value = Vec<u8>> {
    (arb_page(), 0u8..5, 2u64..=255).prop_map(|(page, sel, m)| match sel {
        0 => vec![0u8; 4096],
        1 => (0..4096usize).map(|i| ((i as u64 * 37) % m) as u8).collect(),
        _ => page,
    })
}
