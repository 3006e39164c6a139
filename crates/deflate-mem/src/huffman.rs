//! Huffman coding: the memory-specialized *reduced* tree and a standard
//! full tree.
//!
//! [`ReducedHuffman`] implements the paper's key Huffman specialization
//! (§V-B1): instead of RFC 1951's two canonical trees plus a third tree
//! compressing those trees, it uses a **single 16-leaf tree** — the 15
//! hottest byte values of the page plus one *escape* leaf. Bytes outside the
//! tree are coded as `escape-code + 8 raw bits`. The tree is written to the
//! output **uncompressed** (16 × 12-bit entries), so the decompressor sets
//! up in 16 cycles instead of the > 500 ns canonical-tree reconstruction of
//! IBM's design.
//!
//! [`FullHuffman`] is a conventional 256-symbol length-limited canonical
//! Huffman coder. It serves as this reproduction's *software Deflate*
//! backend (the gzip stand-in of Fig. 15) and as the DSE reference for "what
//! a bigger tree would buy".
//!
//! Both decoders are **table-driven** (à la `minimum_redundancy` /
//! libdeflate): a `DecodeTable` built once per tree resolves a symbol
//! with a single lookup keyed by the next `root_bits` stream bits, instead
//! of a per-bit scan over the code list. Codes longer than the root table
//! (possible only for symbols rarer than `2^-root_bits`) fall back to a
//! short sorted scan. Streams are bit-identical to the pre-table decoder's.

use tmcc_compression::{BitReader, BitWriter, CodecError};

/// Number of leaves in the reduced tree (15 hot symbols + escape).
pub const REDUCED_LEAVES: usize = 16;
/// Default depth threshold for the reduced tree (paper: tunable; must fit
/// the 4-bit length field, and 15 also bounds a 16-leaf tree).
pub const DEFAULT_MAX_DEPTH: u32 = 15;

/// Builds Huffman code lengths for `freqs` (0-frequency symbols get no
/// code). Returns per-symbol code lengths.
fn huffman_lengths(freqs: &[u64]) -> Vec<u32> {
    #[derive(Clone)]
    struct Node {
        freq: u64,
        syms: Vec<usize>,
    }
    let mut lengths = vec![0u32; freqs.len()];
    let mut nodes: Vec<Node> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| Node { freq: f, syms: vec![i] })
        .collect();
    if nodes.is_empty() {
        return lengths;
    }
    if nodes.len() == 1 {
        lengths[nodes[0].syms[0]] = 1;
        return lengths;
    }
    while nodes.len() > 1 {
        // Pick the two lowest-frequency nodes (stable order for determinism).
        nodes.sort_by_key(|n| std::cmp::Reverse(n.freq));
        let a = nodes.pop().expect("two nodes remain");
        let b = nodes.pop().expect("two nodes remain");
        for &s in a.syms.iter().chain(b.syms.iter()) {
            lengths[s] += 1;
        }
        let mut syms = a.syms;
        syms.extend(b.syms);
        nodes.push(Node { freq: a.freq + b.freq, syms });
    }
    lengths
}

/// Limits code lengths to `max_depth` by repeatedly flattening the
/// frequency distribution and rebuilding — the standard zlib-style trick.
fn limited_lengths(freqs: &[u64], max_depth: u32) -> Vec<u32> {
    let mut f: Vec<u64> = freqs.to_vec();
    loop {
        let lengths = huffman_lengths(&f);
        if lengths.iter().all(|&l| l <= max_depth) {
            return lengths;
        }
        for v in f.iter_mut() {
            if *v > 0 {
                *v = v.div_ceil(2) + 1;
            }
        }
    }
}

/// Assigns canonical codes (shorter codes first; ties broken by symbol
/// index). Returns `(code, length)` per symbol.
fn canonical_codes(lengths: &[u32]) -> Vec<(u32, u32)> {
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    order.sort_by_key(|&i| (lengths[i], i));
    let mut codes = vec![(0u32, 0u32); lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u32;
    for &i in &order {
        let len = lengths[i];
        code <<= len - prev_len;
        codes[i] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Validates the Kraft inequality for *untrusted* code lengths (a tree
/// header read from a possibly bit-flipped stream). An oversubscribed tree
/// has colliding canonical codes whose values overflow their own bit
/// width, which would index past the end of the decode table.
fn validate_kraft(lengths: &[u32]) -> Result<(), CodecError> {
    const ONE: u64 = 1 << 15; // lengths are 4-bit fields, so always <= 15
    let sum: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| ONE >> l).sum();
    if sum > ONE {
        return Err(CodecError::InvalidCode { context: "Huffman tree lengths", value: sum });
    }
    Ok(())
}

/// Root-table size cap in bits: 2^11 × 2 B = 4 KiB, comfortably
/// cache-resident while still resolving every code of length ≤ 11 in one
/// lookup. Canonical codes longer than this belong to symbols with
/// probability < 2^-11, so the fallback scan is cold by construction.
const ROOT_BITS_CAP: u32 = 11;
/// Root-table sentinel: the keyed prefix continues into a code longer than
/// `root_bits`; resolve via the sorted `long` list.
const LONG_CODE: u16 = u16::MAX;

/// Single-lookup decoder for a canonical prefix code.
///
/// `table` is indexed by the next `root_bits` stream bits; each entry packs
/// `(code_len << 12) | symbol` for codes that fit the root table, `0` for
/// bit patterns no code produces, and [`LONG_CODE`] for prefixes of
/// longer-than-root codes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DecodeTable {
    /// Bits keying `table`: `min(max_len, ROOT_BITS_CAP)`, at least 1.
    root_bits: u32,
    /// Longest code length in the tree.
    max_len: u32,
    table: Vec<u16>,
    /// Codes longer than `root_bits`, sorted by (length, code): rare by
    /// construction, resolved by a scan over at most the alphabet size.
    long: Vec<(u32, u32, u16)>,
}

impl DecodeTable {
    /// Builds the table from per-symbol `(code, length)` pairs (length 0 =
    /// symbol absent).
    fn build(codes: &[(u32, u32)]) -> Self {
        let max_len = codes.iter().map(|&(_, l)| l).max().unwrap_or(0);
        let root_bits = max_len.clamp(1, ROOT_BITS_CAP);
        let mut table = vec![0u16; 1usize << root_bits];
        let mut long = Vec::new();
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len == 0 {
                continue;
            }
            if len <= root_bits {
                // Every root key whose top `len` bits equal `code` decodes
                // to this symbol.
                let lo = (code as usize) << (root_bits - len);
                let hi = ((code + 1) as usize) << (root_bits - len);
                let entry = ((len as u16) << 12) | sym as u16;
                for e in &mut table[lo..hi] {
                    *e = entry;
                }
            } else {
                table[(code >> (len - root_bits)) as usize] = LONG_CODE;
                long.push((len, code, sym as u16));
            }
        }
        long.sort_unstable();
        Self { root_bits, max_len, table, long }
    }

    /// Decodes one symbol, consuming exactly its code's bits. The next
    /// bits matching no code, or the stream ending inside a code, is an
    /// error value. `peek` zero-pads past the end, so exhaustion is caught
    /// by the consume step after the (padded) prefix resolves.
    #[inline]
    fn try_decode_sym(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let key = r.peek(self.root_bits);
        let e = self.table[key as usize];
        if e != LONG_CODE {
            if e == 0 {
                return Err(CodecError::InvalidCode { context: "Huffman code", value: key });
            }
            r.try_consume((e >> 12) as u32, "Huffman code")?;
            return Ok(e & 0x0FFF);
        }
        let bits = r.peek(self.max_len) as u32;
        for &(len, code, sym) in &self.long {
            if bits >> (self.max_len - len) == code {
                r.try_consume(len, "Huffman long code")?;
                return Ok(sym);
            }
        }
        Err(CodecError::InvalidCode { context: "Huffman long code", value: bits as u64 })
    }
}

/// The reduced 16-leaf Huffman coder (paper §V-B1).
///
/// A `ReducedHuffman` value is the *tree*: build one per page with
/// [`ReducedHuffman::build`], or recover it from a compressed stream with
/// [`ReducedHuffman::try_read_tree`]. Construction also derives the encode
/// (symbol→slot, per-symbol bit cost) and decode (root LUT) tables once,
/// so the per-byte hot paths are single array lookups.
///
/// # Examples
///
/// ```
/// use tmcc_compression::BitReader;
/// use tmcc_deflate::ReducedHuffman;
///
/// let data = b"aaaaaabbbbccdde".repeat(20);
/// let tree = ReducedHuffman::build(&data, 15);
/// let encoded = tree.encode(&data);
/// let (tree2, rest) = ReducedHuffman::try_read_tree(&encoded).expect("clean header");
/// let mut decoded = Vec::new();
/// tree2.try_decode_from_into(&mut BitReader::new(rest), data.len(), &mut decoded)?;
/// assert_eq!(decoded, data);
/// # Ok::<(), tmcc_deflate::CodecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReducedHuffman {
    /// The 15 in-tree symbols, hottest first. May be shorter if the page
    /// has fewer distinct bytes.
    hot: Vec<u8>,
    /// Code lengths: `lengths[i]` for `hot[i]`, last entry for escape.
    lengths: Vec<u32>,
    /// Canonical codes matching `lengths`.
    codes: Vec<(u32, u32)>,
    /// Byte value → tree slot; [`Self::NO_SLOT`] for escape-coded bytes.
    slot: [u8; 256],
    /// Encoded bits per byte value (code length, or escape length + 8).
    sym_bits: [u8; 256],
    /// The single-lookup decoder over `codes`.
    decode_table: DecodeTable,
}

/// Two trees are equal iff they code identically; the derived tables are a
/// pure function of `(hot, lengths)`.
impl PartialEq for ReducedHuffman {
    fn eq(&self, other: &Self) -> bool {
        self.hot == other.hot && self.lengths == other.lengths
    }
}
impl Eq for ReducedHuffman {}

impl ReducedHuffman {
    /// Serialized tree size in bytes: 16 entries × (8-bit symbol + 4-bit
    /// length) = 24 bytes, written uncompressed (§V-B1: "our compressor
    /// outputs the tree in a plain format").
    pub const TREE_BYTES: usize = 24;

    /// `slot` sentinel for bytes outside the tree (escape-coded).
    const NO_SLOT: u8 = 0xFF;

    /// Finishes construction from the semantic fields, deriving every
    /// cached table. Single point shared by [`build`](Self::build) and
    /// [`try_read_tree`](Self::try_read_tree).
    fn from_parts(hot: Vec<u8>, lengths: Vec<u32>) -> Self {
        let codes = canonical_codes(&lengths);
        let escape = lengths.len() - 1;
        let esc_bits = (codes[escape].1 + 8) as u8;
        let mut slot = [Self::NO_SLOT; 256];
        let mut sym_bits = [esc_bits; 256];
        for (i, &b) in hot.iter().enumerate() {
            slot[b as usize] = i as u8;
            sym_bits[b as usize] = codes[i].1 as u8;
        }
        let decode_table = DecodeTable::build(&codes);
        Self { hot, lengths, codes, slot, sym_bits, decode_table }
    }

    /// Counts byte frequencies and builds the reduced tree: the 15 hottest
    /// characters plus an escape leaf whose frequency is the sum of all
    /// remaining characters. `max_depth` bounds the tree depth (the
    /// `Build Reduced Tree` depth threshold of §V-B4); the escape leaf is
    /// never discarded.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is 0 or exceeds 15 (the 4-bit length field).
    pub fn build(data: &[u8], max_depth: u32) -> Self {
        assert!((1..=15).contains(&max_depth), "depth must be in 1..=15");
        let mut freqs = [0u64; 256];
        for &b in data {
            freqs[b as usize] += 1;
        }
        let mut by_freq: Vec<usize> = (0..256).filter(|&i| freqs[i] > 0).collect();
        by_freq.sort_by_key(|&i| (std::cmp::Reverse(freqs[i]), i));
        let hot: Vec<u8> = by_freq.iter().take(REDUCED_LEAVES - 1).map(|&i| i as u8).collect();
        let escape_freq: u64 = by_freq.iter().skip(REDUCED_LEAVES - 1).map(|&i| freqs[i]).sum();
        let mut tree_freqs: Vec<u64> = hot.iter().map(|&b| freqs[b as usize]).collect();
        // The escape leaf always exists (paper: never discarded), even if
        // the page currently has no cold characters.
        tree_freqs.push(escape_freq.max(1));
        let lengths = limited_lengths(&tree_freqs, max_depth);
        Self::from_parts(hot, lengths)
    }

    /// Index of the escape leaf in the length/code tables.
    fn escape_idx(&self) -> usize {
        self.lengths.len() - 1
    }

    /// Maximum code length in this tree.
    pub fn depth(&self) -> u32 {
        self.lengths.iter().copied().max().unwrap_or(0)
    }

    /// Encodes `data`, prefixing the uncompressed tree (24 bytes).
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.write_tree(&mut w);
        self.encode_into(&mut w, data);
        w.into_bytes()
    }

    /// Encodes `data` into an existing bit stream without the tree header.
    pub fn encode_into(&self, w: &mut BitWriter, data: &[u8]) {
        let (esc_code, esc_len) = self.codes[self.escape_idx()];
        for &b in data {
            let s = self.slot[b as usize];
            if s != Self::NO_SLOT {
                let (code, len) = self.codes[s as usize];
                w.put(code as u64, len);
            } else {
                // Fused escape-code + raw-byte write: one accumulator pass.
                w.put(((esc_code as u64) << 8) | b as u64, esc_len + 8);
            }
        }
    }

    /// Size in bits `data` would occupy under this tree, without header —
    /// used by the dynamic-skip decision (§V-B1).
    pub fn encoded_bits(&self, data: &[u8]) -> usize {
        data.iter().map(|&b| self.sym_bits[b as usize] as usize).sum()
    }

    /// Writes the plain-format tree: 16 × (symbol, 4-bit length). Unused
    /// slots are written as zero-length entries.
    pub fn write_tree(&self, w: &mut BitWriter) {
        for i in 0..REDUCED_LEAVES - 1 {
            if i < self.hot.len() {
                w.put(self.hot[i] as u64, 8);
                w.put(self.lengths[i] as u64, 4);
            } else {
                w.put(0, 12);
            }
        }
        // Escape entry: symbol field unused, length meaningful.
        w.put(0, 8);
        w.put(self.lengths[self.escape_idx()] as u64, 4);
    }

    /// Reads a tree written by [`write_tree`](Self::write_tree) from the
    /// head of `stream`; returns the tree and the remaining payload bytes.
    /// Streams may be untrusted: a short header or an oversubscribed
    /// (Kraft-violating) set of code lengths — which a single flipped
    /// length bit can produce — is an error value.
    pub fn try_read_tree(stream: &[u8]) -> Result<(Self, &[u8]), CodecError> {
        const CTX: &str = "reduced tree header";
        if stream.len() < Self::TREE_BYTES {
            return Err(CodecError::UnexpectedEnd { context: CTX });
        }
        let mut r = BitReader::new(&stream[..Self::TREE_BYTES]);
        let mut hot = Vec::new();
        let mut lengths = Vec::new();
        for _ in 0..REDUCED_LEAVES - 1 {
            let sym = r.try_get(8, CTX)? as u8;
            let len = r.try_get(4, CTX)? as u32;
            if len > 0 {
                hot.push(sym);
                lengths.push(len);
            }
        }
        r.try_get(8, CTX)?;
        lengths.push(r.try_get(4, CTX)? as u32); // escape
        validate_kraft(&lengths)?;
        Ok((Self::from_parts(hot, lengths), &stream[Self::TREE_BYTES..]))
    }

    /// Decodes `n` bytes from an open bit stream (no tree header),
    /// appending to `out`. Invalid codes and exhaustion are error values;
    /// `out` may hold a partial prefix on error, and the length is bounded
    /// by `n` either way.
    pub fn try_decode_from_into(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let escape = self.escape_idx() as u16;
        // `n` may come from corrupted metadata: the reserve is only a hint,
        // so bound it — the loop exhausts the (bounded) stream long before
        // a huge `n` is reached.
        out.reserve(n.min(1 << 20));
        for _ in 0..n {
            let s = self.decode_table.try_decode_sym(r)?;
            if s == escape {
                out.push(r.try_get(8, "Huffman escape byte")? as u8);
            } else {
                out.push(self.hot[s as usize]);
            }
        }
        Ok(())
    }
}

/// A conventional 256-symbol length-limited canonical Huffman coder: the
/// *software Deflate* / gzip stand-in.
///
/// The tree header is 256 × 4-bit code lengths = 128 bytes; large for one
/// page, negligible for the multi-page dumps it is used on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullHuffman {
    lengths: Vec<u32>,
    codes: Vec<(u32, u32)>,
}

impl FullHuffman {
    /// Serialized tree size in bytes.
    pub const TREE_BYTES: usize = 128;

    /// Builds a length-limited (≤ 15) canonical tree over `data`'s bytes.
    pub fn build(data: &[u8]) -> Self {
        let mut freqs = vec![0u64; 256];
        for &b in data {
            freqs[b as usize] += 1;
        }
        let lengths = limited_lengths(&freqs, 15);
        let codes = canonical_codes(&lengths);
        Self { lengths, codes }
    }

    /// Encodes `data`, prefixing the 128-byte length table.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains a byte whose frequency was zero at build
    /// time (always use the tree built from the same data).
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut w =
            BitWriter::with_capacity(Self::TREE_BYTES + self.encoded_bits(data).div_ceil(8));
        for &l in &self.lengths {
            w.put(l as u64, 4);
        }
        for &b in data {
            let (code, len) = self.codes[b as usize];
            assert!(len > 0, "symbol {b} has no code");
            w.put(code as u64, len);
        }
        w.into_bytes()
    }

    /// Reads the tree and decodes `n` bytes. Streams may be untrusted: a
    /// short header, an oversubscribed length table, or a payload that
    /// exhausts or hits an invalid code is an error value.
    pub fn try_decode(stream: &[u8], n: usize) -> Result<Vec<u8>, CodecError> {
        const CTX: &str = "full tree header";
        if stream.len() < Self::TREE_BYTES {
            return Err(CodecError::UnexpectedEnd { context: CTX });
        }
        let mut r = BitReader::new(stream);
        let mut lengths = vec![0u32; 256];
        for l in lengths.iter_mut() {
            *l = r.try_get(4, CTX)? as u32;
        }
        validate_kraft(&lengths)?;
        let table = DecodeTable::build(&canonical_codes(&lengths));
        // `n` may come from a corrupted header; the stream runs dry first.
        let mut out = Vec::with_capacity(n.min(1 << 20));
        while out.len() < n {
            out.push(table.try_decode_sym(&mut r)? as u8);
        }
        Ok(out)
    }

    /// Encoded size in bits, excluding the tree header.
    pub fn encoded_bits(&self, data: &[u8]) -> usize {
        data.iter().map(|&b| self.codes[b as usize].1 as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `n` bytes of a header-less payload.
    fn decode(tree: &ReducedHuffman, payload: &[u8], n: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        tree.try_decode_from_into(&mut BitReader::new(payload), n, &mut out)?;
        Ok(out)
    }

    /// Reads the tree header of `stream` and decodes `n` bytes after it.
    fn read_and_decode(stream: &[u8], n: usize) -> Result<Vec<u8>, CodecError> {
        let (tree, rest) = ReducedHuffman::try_read_tree(stream)?;
        decode(&tree, rest, n)
    }

    #[test]
    fn lengths_satisfy_kraft() {
        let freqs: Vec<u64> = (1..=16u64).collect();
        let lengths = huffman_lengths(&freqs);
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!((kraft - 1.0).abs() < 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn depth_limit_enforced() {
        // Exponential frequencies force deep trees without limiting.
        let freqs: Vec<u64> = (0..16).map(|i| 1u64 << i).collect();
        let unlimited = huffman_lengths(&freqs);
        assert!(unlimited.iter().max().unwrap() > &8);
        let limited = limited_lengths(&freqs, 8);
        assert!(limited.iter().all(|&l| l <= 8));
        let kraft: f64 = limited.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9);
    }

    #[test]
    fn reduced_round_trip_text() {
        let data = b"hello huffman, hello reduced tree! ".repeat(30);
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        let enc = tree.encode(&data);
        assert!(enc.len() < data.len());
        assert_eq!(read_and_decode(&enc, data.len()), Ok(data.to_vec()));
    }

    #[test]
    fn reduced_round_trip_all_bytes() {
        // More than 15 distinct symbols: escape path must work.
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        let enc = tree.encode(&data);
        assert_eq!(read_and_decode(&enc, data.len()), Ok(data));
    }

    #[test]
    fn reduced_tree_has_at_most_16_leaves() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        assert_eq!(tree.hot.len(), 15);
        assert!(tree.depth() <= DEFAULT_MAX_DEPTH);
    }

    #[test]
    fn reduced_respects_custom_depth() {
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend(std::iter::repeat_n(i as u8, 1 << i));
        }
        let tree = ReducedHuffman::build(&data, 6);
        assert!(tree.depth() <= 6);
        let enc = tree.encode(&data);
        assert_eq!(read_and_decode(&enc, data.len()), Ok(data));
    }

    #[test]
    fn encoded_bits_matches_actual_encoding() {
        let data = b"zxcvbnm,asdfghjkl;qwertyuiop".repeat(40);
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        let bits = tree.encoded_bits(&data);
        let mut w = BitWriter::new();
        tree.encode_into(&mut w, &data);
        assert_eq!(w.len_bits(), bits);
    }

    #[test]
    fn skewed_data_beats_eight_bits_per_byte() {
        // 90% of bytes are one of four values.
        let mut data = Vec::new();
        for i in 0..4000usize {
            let b = match i % 10 {
                0 => 0x90u8.wrapping_add((i / 10) as u8),
                k => [0x00, 0x41, 0x42, 0x43][k % 4],
            };
            data.push(b);
        }
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        let size = ReducedHuffman::TREE_BYTES + tree.encoded_bits(&data).div_ceil(8);
        assert!(size < data.len() / 2, "got {size} for {}", data.len());
    }

    #[test]
    fn full_huffman_round_trip() {
        let data = b"The quick brown fox jumps over the lazy dog. 0123456789".repeat(20);
        let tree = FullHuffman::build(&data);
        let enc = tree.encode(&data);
        assert!(enc.len() < data.len());
        assert_eq!(FullHuffman::try_decode(&enc, data.len()), Ok(data.to_vec()));
    }

    #[test]
    fn full_huffman_single_symbol() {
        let data = vec![7u8; 500];
        let tree = FullHuffman::build(&data);
        let enc = tree.encode(&data);
        assert_eq!(FullHuffman::try_decode(&enc, data.len()), Ok(data));
    }

    #[test]
    fn empty_input_round_trips() {
        let tree = ReducedHuffman::build(&[], DEFAULT_MAX_DEPTH);
        let enc = tree.encode(&[]);
        assert_eq!(enc.len(), ReducedHuffman::TREE_BYTES);
        assert_eq!(read_and_decode(&enc, 0), Ok(Vec::new()));
    }

    /// Reference decoder: the pre-LUT per-bit scan over the canonical code
    /// list, kept verbatim as the differential oracle for the table.
    fn decode_by_bit_scan(tree: &ReducedHuffman, payload: &[u8], n: usize) -> Vec<u8> {
        let mut r = BitReader::new(payload);
        let mut out = Vec::with_capacity(n);
        let escape = tree.escape_idx();
        while out.len() < n {
            let mut code = 0u32;
            let mut len = 0u32;
            loop {
                code = (code << 1) | r.try_get_bit("reference code").unwrap() as u32;
                len += 1;
                assert!(len <= 15, "code longer than any in tree");
                if let Some(i) = tree.codes.iter().position(|&(c, l)| l == len && c == code) {
                    if i == escape {
                        out.push(r.try_get(8, "reference escape").unwrap() as u8);
                    } else {
                        out.push(tree.hot[i]);
                    }
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn lut_decoder_matches_bit_scan_reference() {
        let corpora: Vec<Vec<u8>> = vec![
            b"hello huffman, hello reduced tree! ".repeat(40),
            (0..=255u8).cycle().take(3000).collect(),
            vec![7u8; 1000],
            (0..2000u32).map(|i| ((i * i) >> 5) as u8).collect(),
        ];
        for data in corpora {
            for depth in [4, 8, 15] {
                let tree = ReducedHuffman::build(&data, depth);
                let mut w = BitWriter::new();
                tree.encode_into(&mut w, &data);
                let payload = w.into_bytes();
                assert_eq!(
                    decode(&tree, &payload, data.len()),
                    Ok(decode_by_bit_scan(&tree, &payload, data.len())),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn deep_trees_use_the_long_code_fallback() {
        // Exponential frequencies force 15-deep codes past the 11-bit root.
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend(std::iter::repeat_n(i as u8, 1usize << i));
        }
        let tree = ReducedHuffman::build(&data, 15);
        assert!(tree.depth() > ROOT_BITS_CAP, "need a deep tree for this test");
        assert!(!tree.decode_table.long.is_empty());
        let enc = tree.encode(&data);
        assert_eq!(read_and_decode(&enc, data.len()), Ok(data));
    }

    #[test]
    fn malformed_stream_is_a_typed_error() {
        // A single-symbol tree leaves half the root table invalid; a
        // stream of 1-bits hits it immediately.
        let tree = ReducedHuffman::build(&[], DEFAULT_MAX_DEPTH);
        assert_eq!(
            decode(&tree, &[0xFF, 0xFF], 4),
            Err(CodecError::InvalidCode { context: "Huffman code", value: 1 })
        );
        // An exhausted payload is UnexpectedEnd, not a panic.
        let data = b"abcabcabc".repeat(10);
        let tree = ReducedHuffman::build(&data, DEFAULT_MAX_DEPTH);
        let mut w = BitWriter::new();
        tree.encode_into(&mut w, &data);
        let payload = w.into_bytes();
        let err = decode(&tree, &payload, data.len() + 512).unwrap_err();
        assert!(
            matches!(err, CodecError::UnexpectedEnd { .. } | CodecError::InvalidCode { .. }),
            "got {err}"
        );
    }

    #[test]
    fn oversubscribed_tree_header_is_rejected() {
        // Hand-build a tree header claiming three codes of length 1: the
        // canonical third code would be `10` in 1 bit — impossible, and
        // exactly what a flipped length nibble can produce.
        let mut w = BitWriter::new();
        for sym in [b'a', b'b'] {
            w.put(sym as u64, 8);
            w.put(1, 4);
        }
        for _ in 2..REDUCED_LEAVES - 1 {
            w.put(0, 12);
        }
        w.put(0, 8);
        w.put(1, 4); // escape also claims length 1 => Kraft sum 3/2
        let header = w.into_bytes();
        assert_eq!(header.len(), ReducedHuffman::TREE_BYTES);
        let err = ReducedHuffman::try_read_tree(&header).unwrap_err();
        assert_eq!(
            err,
            CodecError::InvalidCode { context: "Huffman tree lengths", value: 3 * (1 << 14) }
        );
        // Short headers are UnexpectedEnd.
        assert!(matches!(
            ReducedHuffman::try_read_tree(&header[..10]),
            Err(CodecError::UnexpectedEnd { context: "reduced tree header" })
        ));
    }

    #[test]
    fn full_huffman_rejects_corrupt_streams() {
        assert_eq!(
            FullHuffman::try_decode(&[0u8; 16], 4),
            Err(CodecError::UnexpectedEnd { context: "full tree header" })
        );
        // All-0x11 header: every symbol claims length 1 => massively
        // oversubscribed.
        let bad = vec![0x11u8; FullHuffman::TREE_BYTES];
        assert!(matches!(
            FullHuffman::try_decode(&bad, 4),
            Err(CodecError::InvalidCode { context: "Huffman tree lengths", .. })
        ));
    }
}
