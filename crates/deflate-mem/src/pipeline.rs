//! The complete memory-specialized Deflate codec (paper Fig. 14) and the
//! software-Deflate reference.
//!
//! [`MemDeflate`] composes the LZ front end and the reduced Huffman back
//! end, adds the paper's *dynamic Huffman skipping* (§V-B1: skip Huffman
//! for pages it would expand — worth ~5 % geomean ratio) and the optional
//! *1.1-Pass* approximate frequency counting (§V-B3: IBM's trick, supported
//! as a tunable but disabled by default because it hurts 4 KiB pages), and
//! produces self-describing [`CompressedPage`]s.
//!
//! [`SoftwareDeflate`] is the gzip stand-in used as the compression-ratio
//! yardstick in Fig. 15: a 32 KiB-window LZ plus a full 256-symbol
//! canonical Huffman coder, run over whole memory dumps so the window spans
//! pages.
//!
//! ## Scratch reuse and analytic sizing
//!
//! Each operation has one entry point, and every one of them runs on a
//! per-thread scratch (the LZ hash chains plus the intermediate LZ
//! stream), so no signature takes a buffer for the codec's own use and
//! consecutive pages on one thread allocate nothing but their outputs. A
//! scratch holds no state that crosses calls, so a result never depends
//! on what the thread ran before. Size queries never materialize a bit
//! stream — the plain-format tree header is whole bytes (24 B reduced,
//! 128 B full), so `stored_len` is computable exactly from
//! [`ReducedHuffman::encoded_bits`] alone, which removes all Huffman
//! bit-packing from ratio sweeps.

use std::cell::RefCell;

use crate::huffman::{FullHuffman, ReducedHuffman, DEFAULT_MAX_DEPTH};
use crate::lz::{LzCodec, LzScratch, LzStats};
use crate::timing::{DeflateTiming, TimingReport};
use tmcc_compression::{BitReader, BitWriter, CodecError};
use tmcc_types::crc32;

/// How a page is stored (first byte of the serialized form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// All-zero page: header only.
    Zero = 0,
    /// LZ + reduced Huffman (the common case).
    LzHuffman = 1,
    /// LZ only — Huffman dynamically skipped (§V-B1).
    LzOnly = 2,
    /// Stored raw — the page expanded under LZ too (incompressible).
    Raw = 3,
}

/// Reusable buffers for the codecs: the LZ hash-chain state plus the
/// intermediate LZ byte stream, shared by compression, decompression and
/// analytic sizing. One scratch per thread amortizes every per-page
/// allocation except the payload that escapes into [`CompressedPage`].
#[derive(Debug, Default)]
struct DeflateScratch {
    lz: LzScratch,
    lz_buf: Vec<u8>,
}

thread_local! {
    /// The calling thread's scratch, which every codec entry point runs on.
    static SCRATCH: RefCell<DeflateScratch> = RefCell::default();
}

/// Runs `lz` over `data` on the thread's scratch and hands the token
/// statistics and the LZ stream to `f`.
fn with_lz_stream<R>(lz: &LzCodec, data: &[u8], f: impl FnOnce(LzStats, &[u8]) -> R) -> R {
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let stats = lz.compress_with(data, &mut scratch.lz, &mut scratch.lz_buf);
        f(stats, &scratch.lz_buf)
    })
}

/// A compressed page: mode header, original/LZ lengths and the payload.
///
/// `stored_len` is the size the page occupies in ML2 and what the capacity
/// accounting uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPage {
    mode: PageMode,
    original_len: usize,
    lz_len: usize,
    payload: Vec<u8>,
    /// Exact payload length in bits — [`BitWriter::len_bits`] for Huffman
    /// payloads, which the final byte pads with up to 7 zero bits.
    payload_bits: usize,
    stats: LzStats,
}

impl CompressedPage {
    /// Bytes this page occupies when stored: payload plus a 3-byte header
    /// (mode + 16-bit LZ length).
    pub fn stored_len(&self) -> usize {
        match self.mode {
            PageMode::Zero => 1,
            _ => 3 + self.payload.len(),
        }
    }

    /// The storage mode.
    pub fn mode(&self) -> PageMode {
        self.mode
    }

    /// Length of the original page.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Length of the intermediate LZ stream (0 for zero pages).
    pub fn lz_len(&self) -> usize {
        self.lz_len
    }

    /// LZ token statistics (for the cycle model).
    pub fn lz_stats(&self) -> LzStats {
        self.stats
    }

    /// Compression ratio achieved for this page.
    pub fn ratio(&self) -> f64 {
        self.original_len as f64 / self.stored_len() as f64
    }

    /// Payload bits excluding headers — what the decompressor's input side
    /// must consume. Exact: Huffman payloads end mid-byte and the padding
    /// bits are *not* counted (they used to be, overstating Table II's
    /// decompression latency by up to 7 bit-times per page).
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// The stored payload bytes (tree header + Huffman stream for
    /// [`PageMode::LzHuffman`], the LZ byte stream for
    /// [`PageMode::LzOnly`], the raw page for [`PageMode::Raw`]).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Reassembles a page from stored parts — used by differential tests
    /// that decode historically recorded streams with the current decoder.
    /// The bit length is taken as `payload.len() * 8` (stored streams do
    /// not record their padding).
    pub fn from_parts(
        mode: PageMode,
        original_len: usize,
        lz_len: usize,
        payload: Vec<u8>,
    ) -> Self {
        let payload_bits = payload.len() * 8;
        Self { mode, original_len, lz_len, payload, payload_bits, stats: LzStats::default() }
    }

    /// Returns a mutable view of the payload bytes — the bit-flip fault
    /// injector's way of corrupting a stored page in place.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.payload
    }

    /// The packed metadata tag the seal covers: mode, original/LZ lengths,
    /// exact payload bit count and the owning CTE's rank. 62 bits used.
    fn tag_word(&self, cte_rank: u8) -> u64 {
        (self.mode as u64)
            | (self.original_len as u64) << 2
            | (self.payload_bits as u64) << 18
            | (cte_rank as u64) << 38
            | (self.lz_len as u64) << 46
    }

    /// Seals the page: a CRC32 over the payload plus the metadata tag.
    /// `cte_rank` binds the seal to the translation entry that owns the
    /// page, so a page attached to the wrong CTE fails as metadata
    /// corruption rather than decoding garbage.
    pub fn seal(&self, cte_rank: u8) -> PageSeal {
        PageSeal { tag: self.tag_word(cte_rank), crc: crc32(&self.payload) }
    }

    /// Verifies a seal produced by [`seal`](Self::seal). Metadata (tag)
    /// disagreement is reported separately from payload (CRC) corruption —
    /// the recovery ladder accounts the two differently.
    pub fn verify_seal(&self, seal: &PageSeal, cte_rank: u8) -> Result<(), CodecError> {
        let computed = self.tag_word(cte_rank);
        if seal.tag != computed {
            return Err(CodecError::MetadataMismatch { stored: seal.tag, computed });
        }
        let crc = crc32(&self.payload);
        if seal.crc != crc {
            return Err(CodecError::ChecksumMismatch { stored: seal.crc, computed: crc });
        }
        Ok(())
    }
}

/// Integrity seal for one stored [`CompressedPage`]: a CRC32 over the
/// payload bytes and a packed copy of the metadata the decoder trusts
/// (mode, lengths, CTE rank). Stored alongside the page's translation
/// metadata, so payload corruption and metadata corruption are separately
/// detectable (paper-adjacent: the TMCC metadata cache already holds
/// per-page state; the seal rides in the same structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSeal {
    tag: u64,
    crc: u32,
}

impl PageSeal {
    /// The stored CRC32.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// The stored metadata tag word.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Flips one bit of the stored seal itself — fault injection on the
    /// metadata side.
    pub fn flip_bit(&mut self, bit: u32) {
        match bit % 96 {
            b @ 0..=31 => self.crc ^= 1 << b,
            b => self.tag ^= 1 << ((b - 32) % 64),
        }
    }
}

/// Configuration of the memory-specialized Deflate (the §V-B design space).
///
/// Use the builder-style setters; defaults are the paper's chosen design
/// point (1 KiB CAM, 16-leaf tree, depth 15, dynamic skip on, 1.1-Pass
/// off).
///
/// # Examples
///
/// ```
/// use tmcc_deflate::DeflateParams;
///
/// let params = DeflateParams::new().cam_bytes(512).max_tree_depth(8);
/// assert_eq!(params.cam(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeflateParams {
    cam_bytes: usize,
    max_tree_depth: u32,
    dynamic_skip: bool,
    one_one_pass: bool,
    /// Sample bytes for 1.1-Pass frequency counting.
    sample_bytes: usize,
}

impl DeflateParams {
    /// The paper's design point.
    pub fn new() -> Self {
        Self {
            cam_bytes: 1024,
            max_tree_depth: DEFAULT_MAX_DEPTH,
            dynamic_skip: true,
            one_one_pass: false,
            sample_bytes: 512,
        }
    }

    /// Sets the LZ sliding-window (CAM) size in bytes.
    pub fn cam_bytes(mut self, bytes: usize) -> Self {
        self.cam_bytes = bytes;
        self
    }

    /// Sets the reduced-tree depth threshold.
    pub fn max_tree_depth(mut self, depth: u32) -> Self {
        self.max_tree_depth = depth;
        self
    }

    /// Enables or disables dynamic Huffman skipping.
    pub fn dynamic_skip(mut self, on: bool) -> Self {
        self.dynamic_skip = on;
        self
    }

    /// Enables IBM-style 1.1-Pass approximate frequency counting with the
    /// given sample size (hurts ratio on 4 KiB pages; off by default).
    pub fn one_one_pass(mut self, on: bool, sample_bytes: usize) -> Self {
        self.one_one_pass = on;
        self.sample_bytes = sample_bytes;
        self
    }

    /// The configured CAM size.
    pub fn cam(&self) -> usize {
        self.cam_bytes
    }

    /// The configured depth threshold.
    pub fn depth(&self) -> u32 {
        self.max_tree_depth
    }
}

impl Default for DeflateParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Analytic page-size breakdown from [`MemDeflate::size_quote`]: enough to
/// reproduce the mode decision and `stored_len` under either dynamic-skip
/// setting without materializing a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeQuote {
    original_len: usize,
    lz_len: usize,
    /// Reduced-tree payload size (24-byte header + payload bytes).
    huff_bytes: usize,
    zero: bool,
}

impl SizeQuote {
    /// Stored bytes for this page under the given dynamic-skip setting —
    /// identical to `compress_page(...).stored_len()` for a codec with the
    /// same LZ and tree parameters.
    pub fn stored_len(&self, dynamic_skip: bool) -> usize {
        if self.zero {
            return 1;
        }
        let payload_len = if dynamic_skip && self.huff_bytes >= self.lz_len {
            self.lz_len
        } else {
            self.huff_bytes
        };
        if payload_len + 3 >= self.original_len {
            self.original_len + 3
        } else {
            payload_len + 3
        }
    }

    /// Length of the intermediate LZ stream (0 for zero pages).
    pub fn lz_len(&self) -> usize {
        self.lz_len
    }

    /// Whether the page was all zeros.
    pub fn is_zero(&self) -> bool {
        self.zero
    }
}

/// Whether `page` is entirely zero, compared a word at a time.
#[inline]
fn is_zero_page(page: &[u8]) -> bool {
    let mut chunks = page.chunks_exact(8);
    for c in &mut chunks {
        if u64::from_le_bytes(c.try_into().expect("8 bytes")) != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&b| b == 0)
}

/// The memory-specialized ASIC Deflate codec (functional model).
///
/// # Examples
///
/// ```
/// use tmcc_deflate::MemDeflate;
///
/// let codec = MemDeflate::default();
/// let mut page = vec![0u8; 4096];
/// for (i, b) in page.iter_mut().enumerate() {
///     *b = [0u8, 0, 7, 42][i % 4];
/// }
/// let c = codec.compress_page(&page);
/// assert!(c.ratio() > 3.0);
/// let mut restored = Vec::new();
/// codec.try_decompress_page_into(&c, &mut restored).expect("clean page");
/// assert_eq!(restored, page);
/// ```
#[derive(Debug, Clone)]
pub struct MemDeflate {
    params: DeflateParams,
    lz: LzCodec,
    timing: DeflateTiming,
}

impl MemDeflate {
    /// Builds the codec from parameters.
    pub fn new(params: DeflateParams) -> Self {
        Self { params, lz: LzCodec::new(params.cam_bytes), timing: DeflateTiming::default() }
    }

    /// The configured parameters.
    pub fn params(&self) -> DeflateParams {
        self.params
    }

    /// The cycle model attached to this codec.
    pub fn timing(&self) -> &DeflateTiming {
        &self.timing
    }

    /// Compresses one page (any length up to 64 KiB; normally 4 KiB) on
    /// the thread-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 65 535 bytes (the 16-bit
    /// LZ-length header).
    pub fn compress_page(&self, page: &[u8]) -> CompressedPage {
        assert!(!page.is_empty() && page.len() < 65536, "page length must be in 1..65536");
        if is_zero_page(page) {
            return CompressedPage {
                mode: PageMode::Zero,
                original_len: page.len(),
                lz_len: 0,
                payload: Vec::new(),
                payload_bits: 0,
                stats: LzStats::default(),
            };
        }
        with_lz_stream(&self.lz, page, |stats, lz_stream| {
            let (tree, huff_bits) = self.plan_huffman(lz_stream);
            let huff_bytes = ReducedHuffman::TREE_BYTES + huff_bits.div_ceil(8);

            let (mode, payload, payload_bits) =
                if self.params.dynamic_skip && huff_bytes >= lz_stream.len() {
                    (PageMode::LzOnly, lz_stream.to_vec(), lz_stream.len() * 8)
                } else {
                    let mut w = BitWriter::with_capacity(huff_bytes);
                    tree.write_tree(&mut w);
                    tree.encode_into(&mut w, lz_stream);
                    let bits = w.len_bits();
                    debug_assert_eq!(bits, ReducedHuffman::TREE_BYTES * 8 + huff_bits);
                    (PageMode::LzHuffman, w.into_bytes(), bits)
                };
            if payload.len() + 3 >= page.len() {
                return CompressedPage {
                    mode: PageMode::Raw,
                    original_len: page.len(),
                    lz_len: lz_stream.len(),
                    payload: page.to_vec(),
                    payload_bits: page.len() * 8,
                    stats,
                };
            }
            CompressedPage {
                mode,
                original_len: page.len(),
                lz_len: lz_stream.len(),
                payload,
                payload_bits,
                stats,
            }
        })
    }

    /// Builds the reduced tree for an LZ stream (full or 1.1-Pass sampled
    /// input) and returns it with the exact payload bit count.
    fn plan_huffman(&self, lz_stream: &[u8]) -> (ReducedHuffman, usize) {
        let tree_input = if self.params.one_one_pass {
            &lz_stream[..lz_stream.len().min(self.params.sample_bytes)]
        } else {
            lz_stream
        };
        let tree = ReducedHuffman::build(tree_input, self.params.max_tree_depth);
        let huff_bits = tree.encoded_bits(lz_stream);
        (tree, huff_bits)
    }

    /// Restores the original page into `out` (cleared first), running the
    /// intermediate LZ stream through the thread-local scratch. Pages may
    /// be untrusted (bit-flipped): every malformed-stream condition in the
    /// tree reader, Huffman decoder and LZ back end is an error value;
    /// output is bounded by the page's declared `original_len`; decoded
    /// output whose length disagrees with the declaration is itself an
    /// error. `out` may hold a partial prefix on error.
    pub fn try_decompress_page_into(
        &self,
        page: &CompressedPage,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        out.clear();
        match page.mode {
            PageMode::Zero => out.resize(page.original_len, 0),
            PageMode::Raw => {
                if page.payload.len() != page.original_len {
                    return Err(CodecError::LengthMismatch {
                        context: "raw page payload",
                        expected: page.original_len,
                        got: page.payload.len(),
                    });
                }
                out.extend_from_slice(&page.payload);
            }
            PageMode::LzOnly => {
                self.lz.try_decompress_into(&page.payload, out, page.original_len)?;
            }
            PageMode::LzHuffman => {
                let (tree, rest) = ReducedHuffman::try_read_tree(&page.payload)?;
                SCRATCH.with(|s| {
                    let lz_buf = &mut s.borrow_mut().lz_buf;
                    lz_buf.clear();
                    tree.try_decode_from_into(&mut BitReader::new(rest), page.lz_len, lz_buf)?;
                    self.lz.try_decompress_into(lz_buf, out, page.original_len)
                })?;
            }
        }
        if out.len() != page.original_len {
            return Err(CodecError::LengthMismatch {
                context: "decoded page length",
                expected: page.original_len,
                got: out.len(),
            });
        }
        Ok(())
    }

    /// Sealed decode: verifies the integrity seal (metadata tag first,
    /// then payload CRC) before running the fallible decoder — the
    /// end-to-end entry point of the detect/recover/poison ladder.
    pub fn try_decompress_sealed(
        &self,
        page: &CompressedPage,
        seal: &PageSeal,
        cte_rank: u8,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        page.verify_seal(seal, cte_rank)?;
        self.try_decompress_page_into(page, out)
    }

    /// Compressed size of a page without materializing the payload —
    /// the capacity-accounting fast path. Exact: the Huffman payload is
    /// `24 + ceil(bits / 8)` bytes because the plain-format tree header is
    /// whole bytes, so no bit stream needs to be written to know
    /// `stored_len`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 65 535 bytes.
    pub fn compressed_size(&self, page: &[u8]) -> usize {
        self.size_quote(page).stored_len(self.params.dynamic_skip)
    }

    /// Analytic sizing pass on the thread-local scratch: one LZ + tree
    /// build prices the page under *both* dynamic-skip settings, so
    /// sweeps comparing the two (Fig. 15) pay for compression once.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 65 535 bytes.
    pub fn size_quote(&self, page: &[u8]) -> SizeQuote {
        assert!(!page.is_empty() && page.len() < 65536, "page length must be in 1..65536");
        if is_zero_page(page) {
            return SizeQuote { original_len: page.len(), lz_len: 0, huff_bytes: 0, zero: true };
        }
        let (lz_len, huff_bits) = with_lz_stream(&self.lz, page, |_, lz_stream| {
            (lz_stream.len(), self.plan_huffman(lz_stream).1)
        });
        let huff_bytes = ReducedHuffman::TREE_BYTES + huff_bits.div_ceil(8);
        SizeQuote { original_len: page.len(), lz_len, huff_bytes, zero: false }
    }

    /// Modelled latency to compress this page.
    pub fn compress_latency(&self, page: &CompressedPage) -> TimingReport {
        self.timing.compress_latency(
            page.original_len,
            page.stats,
            page.lz_len,
            page.payload_bits(),
        )
    }

    /// Modelled latency to decompress the full page.
    pub fn decompress_latency(&self, page: &CompressedPage) -> TimingReport {
        self.timing.decompress_latency(page.payload_bits(), page.original_len)
    }

    /// Modelled average latency until a needed block is available.
    pub fn needed_block_latency(&self, page: &CompressedPage) -> TimingReport {
        self.timing.half_page_latency(page.payload_bits(), page.original_len)
    }
}

impl Default for MemDeflate {
    fn default() -> Self {
        Self::new(DeflateParams::new())
    }
}

/// The gzip stand-in: 32 KiB-window LZ + full canonical Huffman, applied to
/// arbitrary-length streams (whole memory dumps).
#[derive(Debug, Clone)]
pub struct SoftwareDeflate {
    lz: LzCodec,
}

impl SoftwareDeflate {
    /// Creates the reference codec.
    pub fn new() -> Self {
        Self { lz: LzCodec::new(32768) }
    }

    /// Compresses a stream on the thread-local scratch; returns the stored
    /// bytes (`[u32 original_len][u32 lz_len][flag][stream]`).
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        with_lz_stream(&self.lz, data, |_, lz_stream| {
            let tree = FullHuffman::build(lz_stream);
            let encoded_len = FullHuffman::TREE_BYTES + tree.encoded_bits(lz_stream).div_ceil(8);
            // Keep whichever of (huffman, raw lz) is smaller, flagged by a
            // byte; only the winning branch is ever bit-packed.
            let huffman_wins = encoded_len < lz_stream.len();
            let body_len = if huffman_wins { encoded_len } else { lz_stream.len() };
            let mut out = Vec::with_capacity(9 + body_len);
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(&(lz_stream.len() as u32).to_le_bytes());
            if huffman_wins {
                out.push(1);
                out.extend_from_slice(&tree.encode(lz_stream));
            } else {
                out.push(0);
                out.extend_from_slice(lz_stream);
            }
            out
        })
    }

    /// Restores the original stream. Streams may be untrusted: short
    /// headers, truncated bodies and length contradictions are error
    /// values, and output is bounded by the header's declared length.
    pub fn try_decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        const HDR: &str = "software deflate header";
        let original_len = u32::from_le_bytes(
            data.get(..4).ok_or(CodecError::UnexpectedEnd { context: HDR })?.try_into().expect("4"),
        ) as usize;
        let lz_len = u32::from_le_bytes(
            data.get(4..8)
                .ok_or(CodecError::UnexpectedEnd { context: HDR })?
                .try_into()
                .expect("4"),
        ) as usize;
        let &flag = data.get(8).ok_or(CodecError::UnexpectedEnd { context: HDR })?;
        let lz_stream = match flag {
            1 => crate::huffman::FullHuffman::try_decode(&data[9..], lz_len)?,
            _ => data
                .get(9..9 + lz_len)
                .ok_or(CodecError::UnexpectedEnd { context: "software deflate LZ body" })?
                .to_vec(),
        };
        let mut out = Vec::new();
        self.lz.try_decompress_into(&lz_stream, &mut out, original_len)?;
        if out.len() != original_len {
            return Err(CodecError::LengthMismatch {
                context: "software deflate output",
                expected: original_len,
                got: out.len(),
            });
        }
        Ok(out)
    }

    /// Compressed size of `data` under the reference codec, computed
    /// analytically — no bit stream is materialized.
    pub fn compressed_size(&self, data: &[u8]) -> usize {
        with_lz_stream(&self.lz, data, |_, lz_stream| {
            let tree = FullHuffman::build(lz_stream);
            let encoded_len = FullHuffman::TREE_BYTES + tree.encoded_bits(lz_stream).div_ceil(8);
            9 + encoded_len.min(lz_stream.len())
        })
    }
}

impl Default for SoftwareDeflate {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    /// Decodes a page the codec produced, which must succeed.
    fn restore(codec: &MemDeflate, c: &CompressedPage) -> Vec<u8> {
        let mut out = Vec::new();
        codec.try_decompress_page_into(c, &mut out).expect("clean page decodes");
        out
    }

    fn textish_page() -> Vec<u8> {
        b"key=value; next=0x7fffaa00; flags=rw-; count=0001732; "
            .iter()
            .copied()
            .cycle()
            .take(PAGE_SIZE)
            .collect()
    }

    #[test]
    fn zero_page_is_one_byte() {
        let codec = MemDeflate::default();
        let page = vec![0u8; PAGE_SIZE];
        let c = codec.compress_page(&page);
        assert_eq!(c.mode(), PageMode::Zero);
        assert_eq!(c.stored_len(), 1);
        assert_eq!(c.payload_bits(), 0);
        assert_eq!(restore(&codec, &c), page);
    }

    #[test]
    fn near_zero_pages_are_not_zero_pages() {
        // Word-at-a-time scan must catch a lone set bit anywhere,
        // including the non-multiple-of-8 tail.
        let codec = MemDeflate::default();
        for (len, hot) in [(PAGE_SIZE, 0), (PAGE_SIZE, 4095), (4093, 4092), (7, 6)] {
            let mut page = vec![0u8; len];
            page[hot] = 1;
            let c = codec.compress_page(&page);
            assert_ne!(c.mode(), PageMode::Zero, "len {len} hot {hot}");
            assert_eq!(restore(&codec, &c), page);
        }
    }

    #[test]
    fn text_page_round_trips_with_good_ratio() {
        let codec = MemDeflate::default();
        let page = textish_page();
        let c = codec.compress_page(&page);
        assert_eq!(c.mode(), PageMode::LzHuffman);
        assert!(c.ratio() > 4.0, "ratio {}", c.ratio());
        assert_eq!(restore(&codec, &c), page);
    }

    #[test]
    fn random_page_stored_raw() {
        let codec = MemDeflate::default();
        let mut page = vec![0u8; PAGE_SIZE];
        let mut x = 0x12345678u64;
        for b in page.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
        let c = codec.compress_page(&page);
        assert_eq!(c.mode(), PageMode::Raw);
        assert_eq!(c.stored_len(), PAGE_SIZE + 3);
        assert_eq!(restore(&codec, &c), page);
    }

    #[test]
    fn dynamic_skip_prefers_lz_only_when_huffman_expands() {
        // LZ output with ~uniform byte distribution makes the reduced tree
        // useless; with skipping on we must not pay for it.
        let mut page = vec![0u8; PAGE_SIZE];
        for (i, b) in page.iter_mut().enumerate() {
            *b = ((i * 37) % 251) as u8;
        }
        // Duplicate the first half into the second so LZ itself wins.
        let half: Vec<u8> = page[..PAGE_SIZE / 2].to_vec();
        page[PAGE_SIZE / 2..].copy_from_slice(&half);
        let with_skip = MemDeflate::new(DeflateParams::new().dynamic_skip(true));
        let without = MemDeflate::new(DeflateParams::new().dynamic_skip(false));
        let a = with_skip.compress_page(&page);
        let b = without.compress_page(&page);
        assert!(a.stored_len() <= b.stored_len());
        assert_eq!(restore(&with_skip, &a), page);
        assert_eq!(restore(&without, &b), page);
    }

    #[test]
    fn one_one_pass_never_breaks_round_trip() {
        let codec = MemDeflate::new(DeflateParams::new().one_one_pass(true, 512));
        let page = textish_page();
        let c = codec.compress_page(&page);
        assert_eq!(restore(&codec, &c), page);
    }

    #[test]
    fn small_cam_round_trips() {
        for cam in [256, 512, 2048, 4096] {
            let codec = MemDeflate::new(DeflateParams::new().cam_bytes(cam));
            let page = textish_page();
            let c = codec.compress_page(&page);
            assert_eq!(restore(&codec, &c), page, "cam {cam}");
        }
    }

    /// Regression for the padded-bit over-count: `payload_bits` must be
    /// the writer's exact bit length, not `payload.len() * 8`.
    #[test]
    fn payload_bits_counts_exact_bits_not_padded_bytes() {
        let codec = MemDeflate::default();
        let page = textish_page();
        let c = codec.compress_page(&page);
        assert_eq!(c.mode(), PageMode::LzHuffman);
        // Recompute the exact count from the stored stream itself.
        let (tree, rest) = ReducedHuffman::try_read_tree(c.payload()).unwrap();
        let mut lz_stream = Vec::new();
        tree.try_decode_from_into(&mut BitReader::new(rest), c.lz_len(), &mut lz_stream).unwrap();
        let exact = ReducedHuffman::TREE_BYTES * 8 + tree.encoded_bits(&lz_stream);
        assert_eq!(c.payload_bits(), exact);
        assert_eq!(c.payload().len(), exact.div_ceil(8));
        // This page genuinely ends mid-byte, so the old accounting
        // (payload.len() * 8) would differ.
        assert_ne!(exact % 8, 0, "need a padding-sensitive page");
        assert!(c.payload_bits() < c.payload().len() * 8);
    }

    #[test]
    fn payload_bits_is_exact_for_every_mode() {
        // LzOnly and Raw payloads are byte streams: bits == len * 8.
        // A page cycling through 251 values LZ-compresses well but leaves
        // a near-uniform LZ stream; with a depth-4 tree every cold byte
        // costs 12 bits, so Huffman must expand and dynamic skip kicks in.
        let codec = MemDeflate::new(DeflateParams::new().max_tree_depth(4));
        let uniform: Vec<u8> = (0..PAGE_SIZE).map(|i| ((i * 37) % 251) as u8).collect();
        let c = codec.compress_page(&uniform);
        assert_eq!(c.mode(), PageMode::LzOnly);
        assert_eq!(c.payload_bits(), c.payload().len() * 8);
        assert_eq!(restore(&codec, &c), uniform);

        let codec = MemDeflate::default();

        let mut x = 9u64;
        let random: Vec<u8> = (0..PAGE_SIZE)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let c = codec.compress_page(&random);
        assert_eq!(c.mode(), PageMode::Raw);
        assert_eq!(c.payload_bits(), PAGE_SIZE * 8);
    }

    #[test]
    fn analytic_sizes_match_materialized_payloads() {
        // compressed_size must agree with compress_page().stored_len() on
        // every mode, including the 1.1-Pass and no-skip configurations.
        let mut pages: Vec<Vec<u8>> = vec![vec![0u8; PAGE_SIZE], textish_page()];
        let mut uniform = vec![0u8; PAGE_SIZE];
        for (i, b) in uniform.iter_mut().enumerate() {
            *b = ((i * 37) % 251) as u8;
        }
        let half: Vec<u8> = uniform[..PAGE_SIZE / 2].to_vec();
        uniform[PAGE_SIZE / 2..].copy_from_slice(&half);
        pages.push(uniform);
        let mut x = 77u64;
        pages.push(
            (0..PAGE_SIZE)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as u8
                })
                .collect(),
        );
        for params in [
            DeflateParams::new(),
            DeflateParams::new().dynamic_skip(false),
            DeflateParams::new().one_one_pass(true, 512),
            DeflateParams::new().cam_bytes(256).max_tree_depth(8),
        ] {
            let codec = MemDeflate::new(params);
            for page in &pages {
                assert_eq!(
                    codec.compressed_size(page),
                    codec.compress_page(page).stored_len(),
                    "params {params:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_state() {
        // The thread-local scratch carries nothing between calls: each
        // page, compressed after the previous ones and after a 32 KiB
        // software pass re-shaped the LZ chains, equals the same page
        // compressed first on a fresh thread.
        let codec = MemDeflate::default();
        let sw = SoftwareDeflate::new();
        let pages = [textish_page(), vec![0u8; PAGE_SIZE], textish_page()];
        for page in &pages {
            let _ = sw.compressed_size(&pages.concat());
            let reused = codec.compress_page(page);
            let fresh = std::thread::scope(|s| s.spawn(|| codec.compress_page(page)).join())
                .expect("fresh thread");
            assert_eq!(reused, fresh);
            assert_eq!(&restore(&codec, &reused), page);
        }
    }

    #[test]
    fn latency_model_attached() {
        let codec = MemDeflate::default();
        let c = codec.compress_page(&textish_page());
        let d = codec.decompress_latency(&c);
        let h = codec.needed_block_latency(&c);
        assert!(d.ns > 100.0 && d.ns < 400.0, "{d:?}");
        assert!(h.ns < d.ns);
    }

    #[test]
    fn software_deflate_round_trips_multi_page() {
        let sw = SoftwareDeflate::new();
        let mut dump = Vec::new();
        for _ in 0..4 {
            dump.extend_from_slice(&textish_page());
        }
        let c = sw.compress(&dump);
        assert!(c.len() < dump.len() / 4);
        assert_eq!(sw.try_decompress(&c), Ok(dump));
    }

    #[test]
    fn software_analytic_size_matches_compress() {
        let sw = SoftwareDeflate::new();
        let mut dump = Vec::new();
        for _ in 0..3 {
            dump.extend_from_slice(&textish_page());
        }
        assert_eq!(sw.compressed_size(&dump), sw.compress(&dump).len());
        // A stream whose LZ output defeats Huffman takes the flag-0 branch.
        let mut x = 3u64;
        let noisy: Vec<u8> = (0..8192)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(sw.compressed_size(&noisy), sw.compress(&noisy).len());
        assert_eq!(sw.try_decompress(&sw.compress(&noisy)), Ok(noisy));
        // Empty input keeps its 9-byte header form.
        assert_eq!(sw.compressed_size(&[]), sw.compress(&[]).len());
        assert_eq!(sw.try_decompress(&sw.compress(&[])), Ok(Vec::new()));
    }

    #[test]
    fn software_beats_or_matches_mem_deflate_on_dumps() {
        // The gzip stand-in (32 KiB window, full tree, cross-page) should
        // compress a multi-page dump at least as well as per-page
        // memory-specialized deflate — the Fig. 15 relationship.
        let sw = SoftwareDeflate::new();
        let mem = MemDeflate::default();
        let mut dump = Vec::new();
        for k in 0..8u8 {
            let mut p = textish_page();
            for b in p.iter_mut().step_by(97) {
                *b = b.wrapping_add(k);
            }
            dump.extend_from_slice(&p);
        }
        let sw_size = sw.compressed_size(&dump);
        let mem_size: usize = dump.chunks_exact(PAGE_SIZE).map(|p| mem.compressed_size(p)).sum();
        assert!(sw_size <= mem_size, "sw {sw_size} vs mem {mem_size}");
    }

    #[test]
    #[should_panic(expected = "page length must be in 1..65536")]
    fn rejects_empty_page() {
        let _ = MemDeflate::default().compress_page(&[]);
    }

    #[test]
    fn seal_round_trips_and_detects_payload_flips() {
        let codec = MemDeflate::default();
        let page = textish_page();
        let mut c = codec.compress_page(&page);
        let seal = c.seal(3);
        c.verify_seal(&seal, 3).expect("clean page verifies");
        // Any single payload bit flip fails the CRC, payload-classified.
        for bit in [0usize, 7, 100, c.payload().len() * 8 - 1] {
            c.payload_mut()[bit / 8] ^= 1 << (bit % 8);
            let err = c.verify_seal(&seal, 3).unwrap_err();
            assert!(matches!(err, CodecError::ChecksumMismatch { .. }), "bit {bit}: {err}");
            assert!(!err.is_metadata());
            c.payload_mut()[bit / 8] ^= 1 << (bit % 8); // restore
        }
        c.verify_seal(&seal, 3).expect("restored page verifies");
        // A wrong CTE rank is metadata corruption, not payload corruption.
        let err = c.verify_seal(&seal, 4).unwrap_err();
        assert!(err.is_metadata(), "{err}");
        // So is a flipped bit of the stored seal itself.
        let mut bad_seal = seal;
        bad_seal.flip_bit(40);
        assert!(c.verify_seal(&bad_seal, 3).unwrap_err().is_metadata());
        let mut bad_crc = seal;
        bad_crc.flip_bit(5);
        assert!(matches!(c.verify_seal(&bad_crc, 3), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn sealed_decode_runs_the_full_ladder() {
        let codec = MemDeflate::default();
        let page = textish_page();
        let c = codec.compress_page(&page);
        let seal = c.seal(0);
        let mut out = Vec::new();
        codec.try_decompress_sealed(&c, &seal, 0, &mut out).unwrap();
        assert_eq!(out, page);
        // A corrupted payload is caught by the seal before the decoder runs.
        let mut bad = c.clone();
        bad.payload_mut()[10] ^= 0x20;
        let err = codec.try_decompress_sealed(&bad, &seal, 0, &mut out).unwrap_err();
        assert!(matches!(err, CodecError::ChecksumMismatch { .. }));
    }

    #[test]
    fn corrupt_pages_decode_to_typed_errors_not_panics() {
        let codec = MemDeflate::default();
        let page = textish_page();
        let c = codec.compress_page(&page);
        assert_eq!(c.mode(), PageMode::LzHuffman);
        let mut out = Vec::new();
        // Flip every bit of the payload in turn: each decode must return
        // Ok (undetected but bounded) or Err — never panic. This is the
        // in-crate smoke version of the dedicated corruption proptests.
        let mut bad = c.clone();
        let bits = bad.payload().len() * 8;
        let mut errors = 0usize;
        for bit in (0..bits).step_by(97) {
            bad.payload_mut()[bit / 8] ^= 1 << (bit % 8);
            match codec.try_decompress_page_into(&bad, &mut out) {
                Ok(()) => assert_eq!(out.len(), c.original_len()),
                Err(_) => errors += 1,
            }
            assert!(out.len() <= c.original_len());
            bad.payload_mut()[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(errors > 0, "some flips must be structurally detectable");
        // Truncated raw page: typed length mismatch.
        let raw = CompressedPage::from_parts(PageMode::Raw, PAGE_SIZE, 0, vec![1u8; 100]);
        assert_eq!(
            codec.try_decompress_page_into(&raw, &mut out),
            Err(CodecError::LengthMismatch {
                context: "raw page payload",
                expected: PAGE_SIZE,
                got: 100
            })
        );
    }

    #[test]
    fn software_deflate_rejects_corrupt_streams() {
        let sw = SoftwareDeflate::new();
        assert_eq!(
            sw.try_decompress(&[1, 2, 3]),
            Err(CodecError::UnexpectedEnd { context: "software deflate header" })
        );
        let good = sw.compress(&textish_page());
        assert_eq!(sw.try_decompress(&good).unwrap(), textish_page());
        // Truncating the body is detected, never a panic.
        assert!(sw.try_decompress(&good[..good.len() - 3]).is_err());
        // Inflating the declared original_len is a typed error.
        let mut bad = good.clone();
        bad[0] ^= 0x80;
        assert!(sw.try_decompress(&bad).is_err());
    }
}
