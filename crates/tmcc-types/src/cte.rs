//! Compression translation entries (CTEs).
//!
//! A CTE is the hardware-managed translation from a *physical* page (what the
//! OS page table produces) to a *DRAM* location (where the bytes actually
//! are). The paper uses two very different CTE shapes:
//!
//! * [`Cte`] — TMCC's 8-byte **page-level** entry (paper Fig. 13): one DRAM
//!   frame pointer for the whole 4 KiB page, an `isIncompressible` bit, the
//!   memory level the page currently lives in, and a 32-bit *pair vector*
//!   recording which adjacent block pairs of the page are stored in the
//!   compressed-PTB encoding. Because it translates a whole page, a 64 B
//!   cacheline of CTEs reaches 8 pages (32 KiB) — the source of TMCC's CTE
//!   cache-reach advantage (§IV).
//! * [`BlockMetadata`] — the Compresso-style 64-byte **block-level** entry
//!   (§III): individualized DRAM placement for each of the 64 blocks of a
//!   page, so one 64 B cacheline reaches only a single 4 KiB page.
//!
//! `BlockMetadata` is stored expanded in host memory for simulator
//! convenience; its **DRAM cost** is modelled by
//! [`BlockMetadata::SIZE_IN_DRAM`].

use serde::Serialize;
use std::fmt;

/// Which exclusive memory level a page currently resides in (paper §IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum MemoryLevel {
    /// Uncompressed (or bandwidth-compressed) fast level; accessed at block
    /// granularity.
    Ml1,
    /// Aggressively Deflate-compressed capacity level; accessed at page
    /// granularity.
    Ml2,
}

/// TMCC's 8-byte page-level compression translation entry (paper Fig. 13).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Cte {
    /// 28-bit DRAM frame number (1 TiB per memory controller / 4 KiB frames).
    frame: u32,
    /// Pair vector: bit *i* set means blocks `2i` and `2i+1` of the page are
    /// stored in the compressed-PTB encoding (paper §V-A4).
    pair_vector: u32,
    level: MemoryLevel,
    incompressible: bool,
}

impl Cte {
    /// Modelled size of one CTE in DRAM, in bytes.
    pub const SIZE_IN_DRAM: usize = 8;
    /// Number of frame bits in a full CTE (1 TiB / 4 KiB = 2^28 frames).
    pub const FRAME_BITS: u32 = 28;

    /// Creates a CTE mapping a page to DRAM frame `frame` in `level`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not fit in [`Cte::FRAME_BITS`] bits.
    pub fn new(frame: u32, level: MemoryLevel) -> Self {
        assert!(frame < (1 << Self::FRAME_BITS), "frame exceeds 28 bits");
        Self { frame, pair_vector: 0, level, incompressible: false }
    }

    /// The DRAM frame this page starts at.
    pub fn frame(self) -> u32 {
        self.frame
    }

    /// Points the CTE at a new DRAM frame (page migration).
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not fit in 28 bits.
    pub fn set_frame(&mut self, frame: u32, level: MemoryLevel) {
        assert!(frame < (1 << Self::FRAME_BITS), "frame exceeds 28 bits");
        self.frame = frame;
        self.level = level;
    }

    /// The memory level the page currently resides in.
    pub fn level(self) -> MemoryLevel {
        self.level
    }

    /// Whether the page was found incompressible on its last eviction
    /// attempt (used to keep it off the recency list, §IV-B).
    pub fn is_incompressible(self) -> bool {
        self.incompressible
    }

    /// Sets or clears the `isIncompressible` bit.
    pub fn set_incompressible(&mut self, v: bool) {
        self.incompressible = v;
    }

    /// Whether block pair `pair` (0..32) uses the compressed-PTB encoding.
    ///
    /// # Panics
    ///
    /// Panics if `pair >= 32`.
    pub fn pair_compressed(self, pair: usize) -> bool {
        assert!(pair < 32, "pair index out of range");
        self.pair_vector & (1 << pair) != 0
    }

    /// Marks block pair `pair` as (not) using the compressed-PTB encoding.
    ///
    /// # Panics
    ///
    /// Panics if `pair >= 32`.
    pub fn set_pair_compressed(&mut self, pair: usize, v: bool) {
        assert!(pair < 32, "pair index out of range");
        if v {
            self.pair_vector |= 1 << pair;
        } else {
            self.pair_vector &= !(1 << pair);
        }
    }

    /// The raw 32-bit pair vector.
    pub fn pair_vector(self) -> u32 {
        self.pair_vector
    }

    /// Truncates this CTE to the embeddable form carried inside a
    /// compressed PTB (paper §V-A5): just enough bits to name a 4 KiB DRAM
    /// frame within one memory controller.
    pub fn truncated(self) -> TruncatedCte {
        TruncatedCte::new(self.frame)
    }
}

impl fmt::Debug for Cte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cte(frame={:#x}, {:?}, incompressible={}, pairs={:#010x})",
            self.frame, self.level, self.incompressible, self.pair_vector
        )
    }
}

/// The truncated CTE embedded in compressed PTBs (paper §V-A5).
///
/// Only the 28-bit DRAM frame number survives truncation: enough to launch a
/// speculative DRAM access, which the memory controller later *verifies*
/// against the full CTE fetched in parallel (paper Fig. 8b).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TruncatedCte {
    frame: u32,
}

impl TruncatedCte {
    /// Number of bits a truncated CTE occupies inside a compressed PTB when
    /// one MC manages up to 1 TiB: `log2(1 TiB / 4 KiB) = 28`.
    pub const BITS: u32 = 28;

    /// Creates a truncated CTE pointing at DRAM frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not fit in 28 bits.
    pub fn new(frame: u32) -> Self {
        assert!(frame < (1 << Self::BITS), "frame exceeds 28 bits");
        Self { frame }
    }

    /// The DRAM frame this entry speculatively names.
    pub fn frame(self) -> u32 {
        self.frame
    }

    /// Whether this embedded entry agrees with the authoritative CTE — the
    /// verification the MC performs after the parallel fetch (Fig. 8b/c).
    pub fn matches(self, full: &Cte) -> bool {
        self.frame == full.frame()
    }
}

impl fmt::Debug for TruncatedCte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruncatedCte(frame={:#x})", self.frame)
    }
}

/// Compresso-style block-level metadata entry (paper §III).
///
/// One entry covers a 4 KiB physical range and records, for each 64 B block,
/// where in DRAM it starts and how many bytes it compressed to. The page's
/// data occupies up to eight 512 B chunks obtained from the hardware free
/// list.
#[derive(Clone, PartialEq, Eq, Serialize)]
pub struct BlockMetadata {
    /// DRAM addresses (in 512 B-chunk units) backing this page, in use order.
    chunks: Vec<u32>,
    /// Per-block compressed size in bytes (0 for an all-zero block).
    block_sizes: Vec<u16>,
    /// Per-block starting byte offset within the concatenated chunk space.
    block_offsets: Vec<u16>,
}

impl BlockMetadata {
    /// Modelled size of one entry in DRAM, in bytes (paper: a 64 B CTE per
    /// 4 KiB page — 8× the cost of a TMCC CTE).
    pub const SIZE_IN_DRAM: usize = 64;
    /// Chunk granularity used by Compresso's free list (paper §II).
    pub const CHUNK_SIZE: usize = 512;
    /// Maximum number of chunks a page can occupy (8 × 512 B = 4 KiB).
    pub const MAX_CHUNKS: usize = 8;

    /// Lays out a page whose blocks compressed to `block_sizes` bytes each,
    /// packing blocks contiguously and returning the entry plus the number
    /// of chunks required. `chunks` supplies the chunk numbers to use.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` supplies fewer chunks than the layout needs, or if
    /// any block size exceeds 64.
    pub fn layout(block_sizes: &[u16; 64], chunks: &[u32]) -> Self {
        let mut offsets = [0u16; 64];
        let mut cursor = 0u16;
        for (i, &sz) in block_sizes.iter().enumerate() {
            assert!(sz <= 64, "block compresses to at most 64 bytes");
            offsets[i] = cursor;
            cursor += sz;
        }
        let needed = Self::chunks_needed(block_sizes);
        assert!(chunks.len() >= needed, "layout needs {needed} chunks, got {}", chunks.len());
        Self {
            chunks: chunks[..needed].to_vec(),
            block_sizes: block_sizes.to_vec(),
            block_offsets: offsets.to_vec(),
        }
    }

    /// Number of 512 B chunks needed to hold blocks of the given sizes.
    pub fn chunks_needed(block_sizes: &[u16; 64]) -> usize {
        let total: usize = block_sizes.iter().map(|&s| s as usize).sum();
        total.div_ceil(Self::CHUNK_SIZE).max(1)
    }

    /// The chunk numbers backing this page.
    pub fn chunks(&self) -> &[u32] {
        &self.chunks
    }

    /// Total compressed bytes of the page.
    pub fn compressed_len(&self) -> usize {
        self.block_sizes.iter().map(|&s| s as usize).sum()
    }

    /// DRAM byte address of block `idx`, given that chunk `c` starts at DRAM
    /// byte `c * 512`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub fn block_dram_byte(&self, idx: usize) -> u64 {
        let off = self.block_offsets[idx] as usize;
        let chunk_slot = off / Self::CHUNK_SIZE;
        let within = off % Self::CHUNK_SIZE;
        self.chunks[chunk_slot] as u64 * Self::CHUNK_SIZE as u64 + within as u64
    }

    /// Compressed size of block `idx` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub fn block_size(&self, idx: usize) -> u16 {
        self.block_sizes[idx]
    }
}

impl fmt::Debug for BlockMetadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BlockMetadata({} chunks, {} compressed bytes)",
            self.chunks.len(),
            self.compressed_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cte_round_trip_fields() {
        let mut cte = Cte::new(0x123_4567, MemoryLevel::Ml1);
        assert_eq!(cte.frame(), 0x123_4567);
        assert_eq!(cte.level(), MemoryLevel::Ml1);
        assert!(!cte.is_incompressible());
        cte.set_incompressible(true);
        assert!(cte.is_incompressible());
        cte.set_frame(7, MemoryLevel::Ml2);
        assert_eq!(cte.frame(), 7);
        assert_eq!(cte.level(), MemoryLevel::Ml2);
    }

    #[test]
    fn cte_pair_vector() {
        let mut cte = Cte::new(0, MemoryLevel::Ml1);
        assert!(!cte.pair_compressed(5));
        cte.set_pair_compressed(5, true);
        cte.set_pair_compressed(31, true);
        assert!(cte.pair_compressed(5));
        assert!(cte.pair_compressed(31));
        assert_eq!(cte.pair_vector(), (1 << 5) | (1 << 31));
        cte.set_pair_compressed(5, false);
        assert!(!cte.pair_compressed(5));
    }

    #[test]
    #[should_panic(expected = "frame exceeds 28 bits")]
    fn cte_rejects_wide_frame() {
        let _ = Cte::new(1 << 28, MemoryLevel::Ml1);
    }

    #[test]
    fn truncated_cte_verification() {
        let cte = Cte::new(99, MemoryLevel::Ml1);
        let t = cte.truncated();
        assert!(t.matches(&cte));
        let moved = Cte::new(100, MemoryLevel::Ml1);
        assert!(!t.matches(&moved), "stale embedded CTE must fail verify");
    }

    #[test]
    fn block_metadata_layout_and_lookup() {
        let mut sizes = [16u16; 64];
        sizes[0] = 0; // zero block
        sizes[1] = 64; // incompressible block
        let chunks: Vec<u32> = (100..108).collect();
        let needed = BlockMetadata::chunks_needed(&sizes);
        let md = BlockMetadata::layout(&sizes, &chunks);
        assert_eq!(md.chunks().len(), needed);
        assert_eq!(md.compressed_len(), 62 * 16 + 64);
        // Block 0 has zero size at offset 0; block 1 right after it.
        assert_eq!(md.block_dram_byte(0), 100 * 512);
        assert_eq!(md.block_dram_byte(1), 100 * 512);
        // Block 2 starts after the 64-byte block 1.
        assert_eq!(md.block_dram_byte(2), 100 * 512 + 64);
        assert_eq!(md.block_size(1), 64);
    }

    #[test]
    fn block_metadata_chunk_count_bounds() {
        let zeros = [0u16; 64];
        assert_eq!(BlockMetadata::chunks_needed(&zeros), 1);
        let full = [64u16; 64];
        assert_eq!(BlockMetadata::chunks_needed(&full), 8);
    }

    #[test]
    #[should_panic(expected = "layout needs")]
    fn block_metadata_rejects_short_chunk_supply() {
        let full = [64u16; 64];
        let _ = BlockMetadata::layout(&full, &[1, 2]);
    }
}
