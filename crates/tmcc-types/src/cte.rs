//! Compression translation entries (CTEs).
//!
//! A CTE is the hardware-managed translation from a *physical* page (what the
//! OS page table produces) to a *DRAM* location (where the bytes actually
//! are). The paper uses two very different CTE shapes:
//!
//! * TMCC's 8-byte **page-level** entry (paper Fig. 13): one DRAM frame
//!   pointer for the whole 4 KiB page. Because it translates a whole page,
//!   a 64 B cacheline of CTEs reaches 8 pages (32 KiB) — the source of
//!   TMCC's CTE cache-reach advantage (§IV). The simulator derives it from
//!   the page's placement rather than storing it; what a compressed PTB
//!   embeds, and what the memory controller verifies, is its frame: the
//!   [`TruncatedCte`].
//! * [`BlockMetadata`] — the Compresso-style 64-byte **block-level** entry
//!   (§III): individualized DRAM placement for each of the 64 blocks of a
//!   page, so one 64 B cacheline reaches only a single 4 KiB page.

use serde::Serialize;
use std::fmt;

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
}

impl fmt::Debug for TruncatedCte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruncatedCte(frame={:#x})", self.frame)
    }
}

/// Compresso-style block-level metadata entry (paper §III): the DRAM
/// location of each 64 B block of a 4 KiB page, whose data occupies up to
/// eight 512 B chunks obtained from the hardware free list. The simulator
/// models only its sizes; Compresso places a page's blocks proportionally
/// across its chunks.
pub struct BlockMetadata;

impl BlockMetadata {
    /// Modelled size of one entry in DRAM, in bytes (paper: a 64 B CTE per
    /// 4 KiB page — 8× the cost of a TMCC CTE).
    pub const SIZE_IN_DRAM: usize = 64;
    /// Chunk granularity used by Compresso's free list (paper §II).
    pub const CHUNK_SIZE: usize = 512;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cte_round_trip_fields() {
        // The frame is the one field a CTE keeps; the level and the
        // incompressible bit live in the scheme's per-page placement word.
        assert_eq!(TruncatedCte::new(0x123_4567).frame(), 0x123_4567);
        assert_eq!(TruncatedCte::new((1 << 28) - 1).frame(), (1 << 28) - 1);
    }

    #[test]
    #[should_panic(expected = "frame exceeds 28 bits")]
    fn cte_rejects_wide_frame() {
        let _ = TruncatedCte::new(1 << 28);
    }

    #[test]
    fn truncated_cte_verification() {
        // The MC's verify compares the embedded frame with the one derived
        // from the page's placement.
        let embedded = TruncatedCte::new(99);
        assert_eq!(embedded, TruncatedCte::new(99));
        assert_ne!(embedded, TruncatedCte::new(100), "stale embedded CTE must fail verify");
    }
}
