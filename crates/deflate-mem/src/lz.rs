//! LZ77 with a sliding-window CAM and a 256-symbol output alphabet
//! (paper §V-B2, §V-B4).
//!
//! Hardware performs match search with a content-addressable memory holding
//! the most recent `window` bytes (1 KiB by default after the paper's design
//! space exploration; 32 KiB in IBM's general-purpose design). Match
//! *selection* is greedy, not RFC 1951 "lazy matching" — the paper
//! simplifies this deliberately.
//!
//! ## Output format
//!
//! Because the reduced Huffman stage consumes **bytes**, the LZ output is a
//! byte stream over a space-efficient 256-symbol alphabet (the paper's
//! departure from RFC 1951's 286-symbol alphabet):
//!
//! * any byte other than `0xFF` — a literal;
//! * `0xFF 0x00` — an escaped literal `0xFF`;
//! * `0xFF` + packed match: a big-endian field of `6 + dist_bits` bits,
//!   zero-padded to whole bytes, whose top 6 bits are `len - min_match + 1`
//!   (never zero, which disambiguates from the escaped literal) and whose
//!   low `dist_bits` bits are `distance - 1`.
//!
//! `dist_bits = log2(window)`, so a 1 KiB CAM yields 3-byte matches and the
//! 32 KiB software-deflate window yields 4-byte matches.
//!
//! ## Search state
//!
//! The hash-chain search state lives in a reusable [`LzScratch`]: a
//! 4096-entry head table of absolute positions (`u64`, so arbitrarily long
//! inputs never wrap — the old `i32` chains silently dropped every match
//! past 2 GiB) and a **ring buffer of `window` chain links** storing the
//! `u32` distance to the previous same-hash position. A slot is only ever
//! read for candidates still inside the window, which is exactly the
//! lifetime before the ring reuses it, so the chain array needs `window`
//! entries instead of one per input byte and never needs clearing between
//! pages.

use tmcc_compression::CodecError;

/// Maximum match length representable in the 6-bit length field.
const MAX_LEN_CODE: u32 = 63;
/// Escape marker byte.
const MARKER: u8 = 0xFF;
/// Hash-table size for the chain heads (models the CAM search).
const HASH_BITS: u32 = 12;
/// Head-table sentinel: no position with this hash yet.
const NO_POS: u64 = u64::MAX;
/// Candidates examined per position (the CAM's probe budget).
const MAX_PROBES: u32 = 64;

/// Token-level statistics from one compression pass, consumed by the cycle
/// model (pipeline stalls depend on match structure, §V-B4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LzStats {
    /// Number of literal tokens emitted.
    pub literals: usize,
    /// Number of match tokens emitted.
    pub matches: usize,
    /// Total input bytes covered by matches.
    pub matched_bytes: usize,
}

/// Reusable hash-chain state for [`LzCodec::compress_with`].
///
/// One scratch serves any window size (it re-shapes itself per call) and
/// any number of consecutive compressions; reuse removes the two
/// per-page allocations the searcher needs.
#[derive(Debug, Clone, Default)]
pub struct LzScratch {
    /// Most recent absolute position per hash bucket; [`NO_POS`] = empty.
    heads: Vec<u64>,
    /// Ring of `window` chain links: distance back to the previous
    /// position with the same hash (0 = chain ends).
    chain_dist: Vec<u32>,
}

impl LzScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the buffers for `window` and clears the head table.
    fn prepare(&mut self, window: usize) {
        self.heads.clear();
        self.heads.resize(1 << HASH_BITS, NO_POS);
        // Chain slots never need clearing: a slot is written when its
        // position is inserted and only read while that position is still
        // inside the window (see the module docs).
        if self.chain_dist.len() != window {
            self.chain_dist.clear();
            self.chain_dist.resize(window, 0);
        }
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max`, compared a word at a time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + l..b + l + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// An LZ77 codec with a configurable sliding window.
///
/// # Examples
///
/// ```
/// use tmcc_deflate::{LzCodec, LzScratch};
///
/// let lz = LzCodec::new(1024);
/// let data = b"abcabcabcabcabcabcabcabc".repeat(8);
/// let mut stream = Vec::new();
/// let stats = lz.compress_with(&data, &mut LzScratch::new(), &mut stream);
/// assert!(stream.len() < data.len());
/// assert!(stats.matches > 0);
/// let mut restored = Vec::new();
/// lz.try_decompress_into(&stream, &mut restored, data.len())?;
/// assert_eq!(restored, data);
/// # Ok::<(), tmcc_deflate::CodecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzCodec {
    window: usize,
    dist_bits: u32,
    min_match: usize,
}

impl LzCodec {
    /// Creates a codec with the given sliding-window (CAM) size in bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a power of two in `[256, 65536]`.
    pub fn new(window: usize) -> Self {
        assert!(
            window.is_power_of_two() && (256..=65536).contains(&window),
            "window must be a power of two in [256, 65536]"
        );
        let dist_bits = window.trailing_zeros();
        let match_bytes = 1 + (6 + dist_bits).div_ceil(8) as usize;
        // A match must beat its own encoding by at least one byte.
        let min_match = match_bytes + 1;
        Self { window, dist_bits, min_match }
    }

    /// The paper's memory-specialized configuration: a 1 KiB CAM.
    pub fn memory_specialized() -> Self {
        Self::new(1024)
    }

    /// The sliding-window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Minimum length of an emitted match.
    pub fn min_match(&self) -> usize {
        self.min_match
    }

    /// Longest representable match.
    pub fn max_match(&self) -> usize {
        self.min_match + MAX_LEN_CODE as usize - 1
    }

    /// Compresses `data` into `out` (cleared first) and returns the token
    /// statistics. `scratch` may be reused across calls and window sizes:
    /// the output never depends on what it compressed before.
    pub fn compress_with(
        &self,
        data: &[u8],
        scratch: &mut LzScratch,
        out: &mut Vec<u8>,
    ) -> LzStats {
        self.compress_with_base(data, scratch, out, 0)
    }

    /// [`compress_with`](Self::compress_with) with the absolute position
    /// counter starting at `base` instead of 0. Output is invariant to
    /// `base` (only distances matter); the knob exists so tests can place
    /// the stream across historical overflow boundaries (the old `i32`
    /// chains broke at 2 GiB) without allocating gigabytes.
    #[doc(hidden)]
    pub fn compress_with_base(
        &self,
        data: &[u8],
        scratch: &mut LzScratch,
        out: &mut Vec<u8>,
        base: u64,
    ) -> LzStats {
        out.clear();
        out.reserve(data.len() / 2 + 16);
        let mut stats = LzStats::default();
        scratch.prepare(self.window);
        let heads = &mut scratch.heads[..];
        let chain_dist = &mut scratch.chain_dist[..];
        let window = self.window as u64;
        let ring_mask = self.window - 1;

        let hash = |d: &[u8]| -> usize {
            let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
        };

        let insert = |pos: usize, data: &[u8], heads: &mut [u64], chain_dist: &mut [u32]| {
            if pos + 4 <= data.len() {
                let h = hash(&data[pos..]);
                let abs = base + pos as u64;
                let prev = heads[h];
                // Links to positions already outside the window are dead:
                // store "chain ends" so distances always fit u32.
                let back = abs.wrapping_sub(prev);
                chain_dist[pos & ring_mask] =
                    if prev == NO_POS || back >= window { 0 } else { back as u32 };
                heads[h] = abs;
            }
        };
        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + 4 <= data.len() {
                let h = hash(&data[i..]);
                let abs = base + i as u64;
                let floor = abs.saturating_sub(window);
                let max = (data.len() - i).min(self.max_match());
                let mut cand = heads[h];
                let mut probes = 0;
                while cand != NO_POS && cand >= floor && probes < MAX_PROBES {
                    let c = (cand - base) as usize;
                    let l = match_len(data, c, i, max);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == max {
                            break;
                        }
                    }
                    let back = chain_dist[c & ring_mask];
                    cand = if back == 0 { NO_POS } else { cand - back as u64 };
                    probes += 1;
                }
            }
            if best_len >= self.min_match {
                let len_code = (best_len - self.min_match + 1) as u64;
                debug_assert!(len_code >= 1 && len_code <= MAX_LEN_CODE as u64);
                let field_bits = 6 + self.dist_bits;
                let field_bytes = field_bits.div_ceil(8);
                let packed = (len_code << self.dist_bits) | (best_dist as u64 - 1);
                let shifted = packed << (field_bytes * 8 - field_bits);
                out.push(MARKER);
                for b in (0..field_bytes).rev() {
                    out.push((shifted >> (b * 8)) as u8);
                }
                stats.matches += 1;
                stats.matched_bytes += best_len;
                for p in i..i + best_len {
                    insert(p, data, heads, chain_dist);
                }
                i += best_len;
            } else {
                if data[i] == MARKER {
                    out.push(MARKER);
                    out.push(0x00);
                } else {
                    out.push(data[i]);
                }
                stats.literals += 1;
                insert(i, data, heads, chain_dist);
                i += 1;
            }
        }
        stats
    }

    /// Restores the original bytes from an LZ stream produced by
    /// [`compress_with`](Self::compress_with) into `out` (cleared first).
    /// Streams may be untrusted: truncated escape sequences and match
    /// fields, zero length codes, and back-references past the start of
    /// output are error values, and the output never grows past `cap`
    /// bytes (a corrupt stream must not allocate unboundedly). `out` may
    /// hold a partial prefix on error.
    pub fn try_decompress_into(
        &self,
        stream: &[u8],
        out: &mut Vec<u8>,
        cap: usize,
    ) -> Result<(), CodecError> {
        out.clear();
        out.reserve(stream.len() * 2);
        let field_bits = 6 + self.dist_bits;
        let field_bytes = field_bits.div_ceil(8) as usize;
        let mut i = 0;
        while i < stream.len() {
            let b = stream[i];
            i += 1;
            if b != MARKER {
                if out.len() >= cap {
                    return Err(CodecError::OutputOverflow { context: "LZ literal", cap });
                }
                out.push(b);
                continue;
            }
            let &next =
                stream.get(i).ok_or(CodecError::UnexpectedEnd { context: "LZ escape sequence" })?;
            if next == 0 {
                if out.len() >= cap {
                    return Err(CodecError::OutputOverflow { context: "LZ literal", cap });
                }
                out.push(MARKER);
                i += 1;
                continue;
            }
            if i + field_bytes > stream.len() {
                return Err(CodecError::UnexpectedEnd { context: "LZ match field" });
            }
            let mut packed: u64 = 0;
            for k in 0..field_bytes {
                packed = (packed << 8) | stream[i + k] as u64;
            }
            i += field_bytes;
            packed >>= field_bytes as u32 * 8 - field_bits;
            let len_code = (packed >> self.dist_bits) as usize;
            let dist = (packed & ((1 << self.dist_bits) - 1)) as usize + 1;
            if len_code == 0 {
                return Err(CodecError::InvalidCode { context: "LZ length code", value: 0 });
            }
            let len = len_code + self.min_match - 1;
            if dist > out.len() {
                return Err(CodecError::BadBackref { distance: dist, produced: out.len() });
            }
            if len > cap.saturating_sub(out.len()) {
                return Err(CodecError::OutputOverflow { context: "LZ match", cap });
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copy (RLE-style): byte-serial by definition.
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
        Ok(())
    }
}

impl Default for LzCodec {
    fn default() -> Self {
        Self::memory_specialized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compresses `data` on fresh scratch.
    fn compress(lz: &LzCodec, data: &[u8]) -> (Vec<u8>, LzStats) {
        let mut out = Vec::new();
        let stats = lz.compress_with(data, &mut LzScratch::new(), &mut out);
        (out, stats)
    }

    /// Decodes a stream the codec produced, which must succeed.
    fn decompress(lz: &LzCodec, stream: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        lz.try_decompress_into(stream, &mut out, usize::MAX).expect("clean stream decodes");
        out
    }

    #[test]
    fn empty_round_trip() {
        let lz = LzCodec::memory_specialized();
        let (out, stats) = compress(&lz, &[]);
        assert!(out.is_empty());
        assert_eq!(stats, LzStats::default());
        assert!(decompress(&lz, &out).is_empty());
    }

    #[test]
    fn literal_only_round_trip() {
        let lz = LzCodec::memory_specialized();
        let data: Vec<u8> = (0..200u8).collect();
        let (out, stats) = compress(&lz, &data);
        assert_eq!(stats.matches, 0);
        assert_eq!(decompress(&lz, &out), data);
    }

    #[test]
    fn marker_bytes_escape_correctly() {
        let lz = LzCodec::memory_specialized();
        let data = vec![0xFFu8, 1, 0xFF, 2, 0xFF, 3, 7, 8, 9, 10, 11, 12];
        let (out, _) = compress(&lz, &data);
        assert_eq!(decompress(&lz, &out), data);
    }

    #[test]
    fn repetitive_data_compresses() {
        let lz = LzCodec::memory_specialized();
        let data = b"the quick brown fox ".repeat(50);
        let (out, stats) = compress(&lz, &data);
        assert!(out.len() < data.len() / 3, "len {} of {}", out.len(), data.len());
        assert!(stats.matched_bytes > data.len() / 2);
        assert_eq!(decompress(&lz, &out), data);
    }

    #[test]
    fn overlapping_match_round_trip() {
        // RLE-style data forces dist < len copies.
        let lz = LzCodec::memory_specialized();
        let mut data = vec![7u8; 300];
        data.extend_from_slice(&[1, 2, 3]);
        let (out, _) = compress(&lz, &data);
        assert!(out.len() < 30);
        assert_eq!(decompress(&lz, &out), data);
    }

    #[test]
    fn matches_respect_window() {
        let lz = LzCodec::new(256);
        // Repetition separated by more than the window: no match possible.
        let mut data = b"0123456789abcdef".repeat(2);
        data.extend((0..512usize).map(|i| (i % 251) as u8));
        data.extend_from_slice(&b"0123456789abcdef".repeat(2));
        let (out, _) = compress(&lz, &data);
        assert_eq!(decompress(&lz, &out), data);
    }

    #[test]
    fn window_sizes_produce_valid_streams() {
        for w in [256, 512, 1024, 2048, 4096, 32768] {
            let lz = LzCodec::new(w);
            let data: Vec<u8> = (0..4096u32).map(|i| ((i * i) >> 3) as u8).collect();
            let (out, _) = compress(&lz, &data);
            assert_eq!(decompress(&lz, &out), data, "window {w}");
        }
    }

    #[test]
    #[should_panic(expected = "window must be a power of two")]
    fn rejects_bad_window() {
        let _ = LzCodec::new(1000);
    }

    #[test]
    fn bigger_window_wins_on_long_range_repetition() {
        // Two copies of a 1.5 KiB chunk: only a window larger than the
        // chunk can see the repetition.
        let chunk: Vec<u8> =
            (0..1536u64).map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8).collect();
        let mut data = chunk.clone();
        data.extend_from_slice(&chunk);
        let small = compress(&LzCodec::new(256), &data).0.len();
        let large = compress(&LzCodec::new(4096), &data).0.len();
        assert!(large < small, "large {large} vs small {small}");
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        // One scratch across pages and window sizes must give the same
        // streams as fresh scratch every time.
        let mut scratch = LzScratch::new();
        let pages: Vec<Vec<u8>> = (0..6u64)
            .map(|s| {
                let mut x = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                (0..4096)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 16) as u8 & 0x3F
                    })
                    .collect()
            })
            .collect();
        for w in [1024usize, 32768, 1024] {
            let lz = LzCodec::new(w);
            for page in &pages {
                let mut out = Vec::new();
                let stats = lz.compress_with(page, &mut scratch, &mut out);
                let (fresh, fresh_stats) = compress(&lz, page);
                assert_eq!(out, fresh, "window {w}");
                assert_eq!(stats, fresh_stats);
            }
        }
    }

    /// Regression for the `i32` hash-chain overflow: positions past 2 GiB
    /// became negative and every match was silently dropped (and `chain_at`
    /// was sized per input byte). The base knob artificially lowers the
    /// overflow boundary into reach: the stream must be identical no
    /// matter where in the address space it starts.
    #[test]
    fn chains_survive_positions_beyond_2gib() {
        let lz = LzCodec::memory_specialized();
        let data = b"the quick brown fox jumps over the lazy dog; ".repeat(60);
        let mut scratch = LzScratch::new();
        let mut reference = Vec::new();
        let ref_stats = lz.compress_with(&data, &mut scratch, &mut reference);
        assert!(ref_stats.matches > 0, "corpus must contain matches");
        for base in [
            (1u64 << 31) - (data.len() as u64 / 2), // straddles the old i32 cap
            (1u64 << 32) - (data.len() as u64 / 2), // straddles a u32 cap
            u64::from(u32::MAX) * 16,               // far past any 32-bit cap
        ] {
            let mut out = Vec::new();
            let stats = lz.compress_with_base(&data, &mut scratch, &mut out, base);
            assert_eq!(out, reference, "base {base:#x}");
            assert_eq!(stats, ref_stats, "base {base:#x}");
        }
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let lz = LzCodec::memory_specialized(); // field_bytes = 2
        let mut out = Vec::new();
        // Marker with nothing after it.
        assert_eq!(
            lz.try_decompress_into(&[0xFF], &mut out, 4096),
            Err(CodecError::UnexpectedEnd { context: "LZ escape sequence" })
        );
        // Marker + one byte of a two-byte match field.
        assert_eq!(
            lz.try_decompress_into(&[0xFF, 0x40], &mut out, 4096),
            Err(CodecError::UnexpectedEnd { context: "LZ match field" })
        );
        // Nonzero first field byte whose 6-bit length code is still zero.
        assert_eq!(
            lz.try_decompress_into(&[0xFF, 0x01, 0x00], &mut out, 4096),
            Err(CodecError::InvalidCode { context: "LZ length code", value: 0 })
        );
        // A back-reference with no output produced yet.
        assert_eq!(
            lz.try_decompress_into(&[0xFF, 0x44, 0x02], &mut out, 4096),
            Err(CodecError::BadBackref { distance: 3, produced: 0 })
        );
        // Output cap: a valid RLE stream that would exceed 4 bytes.
        let data = vec![9u8; 300];
        let (stream, _) = compress(&lz, &data);
        assert_eq!(
            lz.try_decompress_into(&stream, &mut out, 4),
            Err(CodecError::OutputOverflow { context: "LZ match", cap: 4 })
        );
        // The same stream under a sufficient cap round-trips.
        lz.try_decompress_into(&stream, &mut out, 4096).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn chain_ring_is_bounded_by_window() {
        // The scratch must hold `window` chain slots, not one per byte:
        // compress inputs much longer than the window and check the ring
        // never grew.
        let lz = LzCodec::new(256);
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let mut scratch = LzScratch::new();
        let mut out = Vec::new();
        lz.compress_with(&data, &mut scratch, &mut out);
        assert_eq!(scratch.chain_dist.len(), 256);
        assert_eq!(decompress(&lz, &out), data);
    }
}
