//! The hardware-compressed page-table-block encoding (paper Fig. 7c, §V-A).
//!
//! TMCC compresses each 64 B PTB *in place* (no migration, no block-level
//! translation) by exploiting two redundancies measured in Fig. 6:
//!
//! 1. all eight PTEs almost always share identical 24-bit status fields, so
//!    the status bits are stored **once**;
//! 2. the leading PPN bits are identical because installed DRAM is far
//!    smaller than the 2^40-page architectural limit, so each PPN is
//!    truncated to the bits that can actually vary.
//!
//! The space freed holds up to eight **truncated CTEs** (28 bits each for a
//! 1 TiB-per-MC system), one per PTE, letting a page walk prefetch the
//! compression translation for its next access. [`PtbGeometry`] computes how
//! many CTEs fit for a given machine size; the paper's numbers (8 for 1 TiB,
//! 7 for 4 TiB, 6 for 16 TiB per MC, §V-A5) fall out of the bit budget.
//!
//! Decompression is "≈1 cycle; only wiring to concatenate plaintext"
//! (§V-A6) — reflected here as a trivial field rearrangement.

use crate::cte::TruncatedCte;
use crate::pte::{PageTableBlock, Pte, PteFlags, PTES_PER_PTB};
use serde::Serialize;
use std::fmt;

/// Bit budget of one 64-byte PTB.
const PTB_BITS: u32 = 512;
/// Encoding header: 6 bits of PPN-prefix length, a compressed-format marker
/// and a valid bit.
const HEADER_BITS: u32 = 8;
/// Width of the architectural PPN field.
const PPN_FIELD_BITS: u32 = 40;
/// Width of the shared status field.
const STATUS_BITS: u32 = 24;

/// Sizing parameters of the compressed-PTB encoding for a given machine.
///
/// # Examples
///
/// ```
/// use tmcc_types::ptb::PtbGeometry;
///
/// // The paper's default: 1 TiB DRAM per MC, OS sees 4x physical pages.
/// let g = PtbGeometry::from_capacities(1 << 40, 4.0);
/// assert_eq!(g.embeddable_ctes(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct PtbGeometry {
    /// Bits needed to name any OS physical page (PPN bits that can vary).
    ppn_bits: u32,
    /// Bits of one truncated CTE: names a 4 KiB DRAM frame within one MC.
    cte_bits: u32,
}

impl PtbGeometry {
    /// Builds the geometry from the DRAM capacity managed by one memory
    /// controller (bytes) and the OS physical-memory expansion ratio.
    ///
    /// # Panics
    ///
    /// Panics if `dram_bytes_per_mc` is smaller than one page or the
    /// expansion ratio is not at least 1.
    pub fn from_capacities(dram_bytes_per_mc: u64, expansion_ratio: f64) -> Self {
        assert!(dram_bytes_per_mc >= 4096, "at least one DRAM frame required");
        assert!(expansion_ratio >= 1.0, "expansion ratio must be >= 1");
        let dram_frames = dram_bytes_per_mc / 4096;
        let os_pages = (dram_frames as f64 * expansion_ratio).ceil() as u64;
        let cte_bits = 64 - (dram_frames - 1).leading_zeros().max(24);
        let ppn_bits = (64 - (os_pages - 1).leading_zeros()).clamp(cte_bits, PPN_FIELD_BITS);
        Self { ppn_bits, cte_bits }
    }

    /// The paper's default configuration: 1 TiB per MC, 4× expansion.
    pub fn paper_default() -> Self {
        Self::from_capacities(1 << 40, 4.0)
    }

    /// Bits of one truncated PPN stored in the compressed PTB.
    pub fn ppn_bits(self) -> u32 {
        self.ppn_bits
    }

    /// Bits of one embedded truncated CTE.
    pub fn cte_bits(self) -> u32 {
        self.cte_bits
    }

    /// Length of the shared PPN prefix that is stored only once.
    pub fn prefix_bits(self) -> u32 {
        PPN_FIELD_BITS - self.ppn_bits
    }

    /// How many truncated CTEs fit alongside the compressed PTEs
    /// (paper §V-A5: 8 / 7 / 6 for 1 / 4 / 16 TiB per MC).
    pub fn embeddable_ctes(self) -> usize {
        let fixed =
            HEADER_BITS + STATUS_BITS + self.prefix_bits() + PTES_PER_PTB as u32 * self.ppn_bits;
        if fixed >= PTB_BITS {
            return 0;
        }
        (((PTB_BITS - fixed) / self.cte_bits) as usize).min(PTES_PER_PTB)
    }
}

impl Default for PtbGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Why a PTB could not be stored in the compressed encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PtbCompressError {
    /// The eight PTEs do not share identical status bits (paper: TMCC
    /// compresses a PTB *only if* the status bits are identical).
    NonUniformStatus,
    /// Some PPN differs from the others within the prefix that the encoding
    /// truncates away, so truncation would lose information.
    PpnPrefixDiverges {
        /// Leading bits the PTB's PPNs actually share.
        common_bits: u32,
        /// Leading bits the geometry needs them to share.
        required_bits: u32,
    },
}

impl fmt::Display for PtbCompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonUniformStatus => write!(f, "PTB status bits differ across entries"),
            Self::PpnPrefixDiverges { common_bits, required_bits } => {
                write!(f, "PPNs share only {common_bits} leading bits, need {required_bits}")
            }
        }
    }
}

impl std::error::Error for PtbCompressError {}

/// A PTB stored in the compressed encoding of Fig. 7c, able to carry
/// embedded truncated CTEs.
///
/// The struct keeps decoded fields (hardware would keep packed bits); the
/// *capacity* rules are enforced from [`PtbGeometry`], so the simulator can
/// never embed more CTEs than the bit budget allows.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct CompressedPtb {
    geometry: PtbGeometry,
    status: PteFlags,
    ppn_prefix: u64,
    ppn_suffixes: [u64; PTES_PER_PTB],
    /// Entry `i` holds the embedded CTE for the page `ppn_suffixes[i]` points
    /// to, if one has been written and slot `i` is within capacity.
    embedded: [Option<TruncatedCte>; PTES_PER_PTB],
    /// Bit `i` = even parity over `embedded[i]`'s frame bits. Maintained by
    /// every legitimate write; only
    /// [`corrupt_embedded_bit`](Self::corrupt_embedded_bit) changes state
    /// without it, so [`audit_embedded`](Self::audit_embedded) detects any
    /// odd-weight upset of an embedded CTE separately from payload CRCs.
    embedded_parity: u8,
}

impl CompressedPtb {
    /// Attempts to compress a software-visible PTB.
    ///
    /// Mirrors the hardware check: the encoding is only used when all status
    /// bits are identical and every PPN shares the prefix the machine-size
    /// geometry truncates (paper Fig. 7 caption).
    ///
    /// # Errors
    ///
    /// Returns [`PtbCompressError`] when the PTB does not satisfy either
    /// precondition; callers fall back to the uncompressed encoding.
    pub fn compress(ptb: &PageTableBlock, geometry: PtbGeometry) -> Result<Self, PtbCompressError> {
        if !ptb.uniform_status() {
            return Err(PtbCompressError::NonUniformStatus);
        }
        let required = geometry.prefix_bits();
        let common = ptb.common_ppn_prefix_bits();
        if common < required {
            return Err(PtbCompressError::PpnPrefixDiverges {
                common_bits: common,
                required_bits: required,
            });
        }
        let suffix_mask =
            if geometry.ppn_bits() == 64 { u64::MAX } else { (1u64 << geometry.ppn_bits()) - 1 };
        let first = ptb.entry(0).ppn().raw();
        let mut suffixes = [0u64; PTES_PER_PTB];
        for (i, s) in suffixes.iter_mut().enumerate() {
            *s = ptb.entry(i).ppn().raw() & suffix_mask;
        }
        Ok(Self {
            geometry,
            status: ptb.entry(0).flags(),
            ppn_prefix: first >> geometry.ppn_bits(),
            ppn_suffixes: suffixes,
            embedded: [None; PTES_PER_PTB],
            embedded_parity: 0,
        })
    }

    /// Even parity of one embedded slot's frame bits (0 for empty slots).
    fn slot_parity(&self, slot: usize) -> u8 {
        match self.embedded[slot] {
            Some(cte) => (cte.frame().count_ones() & 1) as u8,
            None => 0,
        }
    }

    /// Recomputes slot `slot`'s stored parity bit after a legitimate write.
    fn refresh_parity(&mut self, slot: usize) {
        let p = self.slot_parity(slot);
        self.embedded_parity = (self.embedded_parity & !(1 << slot)) | (p << slot);
    }

    /// Reconstructs the software-visible PTB ("≈1 cycle, only wiring",
    /// §V-A6). Embedded CTEs are invisible to software by construction.
    pub fn decompress(&self) -> PageTableBlock {
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        for (i, e) in entries.iter_mut().enumerate() {
            let ppn = (self.ppn_prefix << self.geometry.ppn_bits()) | self.ppn_suffixes[i];
            *e = Pte::new(crate::addr::Ppn::new(ppn), self.status);
        }
        PageTableBlock::new(entries)
    }

    /// The geometry this PTB was encoded with.
    pub fn geometry(&self) -> PtbGeometry {
        self.geometry
    }

    /// Number of CTE slots this encoding can hold.
    pub fn capacity(&self) -> usize {
        self.geometry.embeddable_ctes()
    }

    /// The embedded CTE for PTE slot `slot`, if present.
    ///
    /// Slots beyond [`Self::capacity`] always return `None` (in larger
    /// machines the last PTEs simply have no room for their CTE, §V-A5).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn embedded_cte(&self, slot: usize) -> Option<TruncatedCte> {
        assert!(slot < PTES_PER_PTB, "slot out of range");
        self.embedded[slot]
    }

    /// Writes (or overwrites) the embedded CTE for PTE slot `slot`.
    ///
    /// Returns `false` without writing when `slot` is beyond the bit-budget
    /// capacity — the hardware simply cannot store that CTE.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn embed_cte(&mut self, slot: usize, cte: TruncatedCte) -> bool {
        assert!(slot < PTES_PER_PTB, "slot out of range");
        if slot >= self.capacity() {
            return false;
        }
        self.embedded[slot] = Some(cte);
        self.refresh_parity(slot);
        true
    }

    /// Clears the embedded CTE for `slot` (e.g., after OS rewrites the PTE).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn clear_cte(&mut self, slot: usize) {
        assert!(slot < PTES_PER_PTB, "slot out of range");
        self.embedded[slot] = None;
        self.refresh_parity(slot);
    }

    /// Fault-injection hook: flips one bit of embedded slot `slot` *without*
    /// updating parity — what a DRAM upset inside the compressed PTB does.
    /// `bit` is taken modulo `TruncatedCte::BITS + 1`; the extra position is
    /// the parity bit itself. Returns `false` (no flip) when the slot holds
    /// no CTE and the target is a frame bit.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn corrupt_embedded_bit(&mut self, slot: usize, bit: u32) -> bool {
        assert!(slot < PTES_PER_PTB, "slot out of range");
        let b = bit % (TruncatedCte::BITS + 1);
        if b == TruncatedCte::BITS {
            self.embedded_parity ^= 1 << slot;
            return true;
        }
        match self.embedded[slot] {
            Some(cte) => {
                self.embedded[slot] = Some(TruncatedCte::new(cte.frame() ^ (1 << b)));
                true
            }
            None => false,
        }
    }

    /// Read-only integrity audit: bitmask of slots whose stored parity bit
    /// disagrees with the parity recomputed over the embedded frame. Zero on
    /// an uncorrupted PTB; any odd-weight upset of a slot shows up here,
    /// even-weight bursts within one slot can escape.
    pub fn audit_embedded(&self) -> u8 {
        (0..PTES_PER_PTB as u32)
            .filter(|&s| self.embedded_parity >> s & 1 != self.slot_parity(s as usize))
            .fold(0, |m, s| m | (1 << s))
    }

    /// Drops every parity-violating embedded CTE (a corrupt embedding must
    /// not launch a speculative DRAM access — the walk falls back to the
    /// authoritative CTE fetch instead). Returns the number dropped.
    pub fn scrub_embedded(&mut self) -> u32 {
        let bad = self.audit_embedded();
        for slot in 0..PTES_PER_PTB {
            if bad >> slot & 1 != 0 {
                self.embedded[slot] = None;
                self.refresh_parity(slot);
            }
        }
        bad.count_ones()
    }

    /// Copies every embedded CTE from `stale` into `self` where the PTE's
    /// PPN is unchanged — the L2-cache action that preserves embeddings when
    /// the OS rewrites a PTB (paper §V-A4: "L2 copies into the incoming
    /// dirty block any embedded CTEs held in the stale L2 copy").
    pub fn preserve_embeddings_from(&mut self, stale: &CompressedPtb) {
        for slot in 0..PTES_PER_PTB.min(self.capacity()) {
            if self.embedded[slot].is_none()
                && self.ppn_suffixes[slot] == stale.ppn_suffixes[slot]
                && self.ppn_prefix == stale.ppn_prefix
            {
                self.embedded[slot] = stale.embedded[slot];
                // Copy the *stored* parity bit verbatim: recomputing here
                // would launder a corrupt stale embedding into a valid one.
                self.embedded_parity = (self.embedded_parity & !(1 << slot))
                    | (stale.embedded_parity >> slot & 1) << slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppn;

    fn uniform_ptb(base: u64) -> PageTableBlock {
        let flags = PteFlags::present_rw();
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = Pte::new(Ppn::new(base + i as u64), flags);
        }
        PageTableBlock::new(entries)
    }

    #[test]
    fn geometry_matches_paper_capacities() {
        // §V-A5: 1 TiB per MC + 4x expansion -> 8 embedded CTEs.
        assert_eq!(PtbGeometry::from_capacities(1 << 40, 4.0).embeddable_ctes(), 8);
        // 4 TiB -> 7, 16 TiB -> 6.
        assert_eq!(PtbGeometry::from_capacities(1 << 42, 4.0).embeddable_ctes(), 7);
        assert_eq!(PtbGeometry::from_capacities(1 << 44, 4.0).embeddable_ctes(), 6);
    }

    #[test]
    fn geometry_truncated_cte_is_28_bits_at_1tib() {
        let g = PtbGeometry::paper_default();
        assert_eq!(g.cte_bits(), TruncatedCte::BITS);
        assert_eq!(g.ppn_bits(), 30); // 4 TiB of OS pages
        assert_eq!(g.prefix_bits(), 10);
    }

    #[test]
    fn compress_decompress_round_trip() {
        let ptb = uniform_ptb(0x12340);
        let c = CompressedPtb::compress(&ptb, PtbGeometry::paper_default()).unwrap();
        assert_eq!(c.decompress(), ptb);
    }

    #[test]
    fn compress_rejects_non_uniform_status() {
        let mut ptb = uniform_ptb(100);
        ptb.set_entry(2, Pte::new(Ppn::new(102), PteFlags::new(PteFlags::PRESENT, 0)));
        assert_eq!(
            CompressedPtb::compress(&ptb, PtbGeometry::paper_default()),
            Err(PtbCompressError::NonUniformStatus)
        );
    }

    #[test]
    fn compress_rejects_divergent_prefix() {
        let flags = PteFlags::present_rw();
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = Pte::new(Ppn::new(i as u64), flags);
        }
        // One PPN with a bit set in the truncated prefix region.
        entries[7] = Pte::new(Ppn::new(1 << 39), flags);
        let ptb = PageTableBlock::new(entries);
        let err = CompressedPtb::compress(&ptb, PtbGeometry::paper_default()).unwrap_err();
        assert!(matches!(err, PtbCompressError::PpnPrefixDiverges { .. }));
    }

    #[test]
    fn embed_respects_capacity() {
        let ptb = uniform_ptb(0);
        // 16 TiB machine: only 6 slots have room.
        let g = PtbGeometry::from_capacities(1 << 44, 4.0);
        let mut c = CompressedPtb::compress(&ptb, g).unwrap();
        assert!(c.embed_cte(0, TruncatedCte::new(1)));
        assert!(c.embed_cte(5, TruncatedCte::new(2)));
        assert!(!c.embed_cte(6, TruncatedCte::new(3)), "slot 6 exceeds budget");
        assert_eq!(c.embedded_cte(0), Some(TruncatedCte::new(1)));
        assert_eq!(c.embedded_cte(6), None);
    }

    #[test]
    fn embeddings_survive_decompress_invisible_to_software() {
        let ptb = uniform_ptb(500);
        let mut c = CompressedPtb::compress(&ptb, PtbGeometry::paper_default()).unwrap();
        c.embed_cte(3, TruncatedCte::new(77));
        // Software sees exactly the original PTB.
        assert_eq!(c.decompress(), ptb);
    }

    #[test]
    fn embedded_parity_detects_single_bit_flips() {
        let ptb = uniform_ptb(0x2000);
        let mut c = CompressedPtb::compress(&ptb, PtbGeometry::paper_default()).unwrap();
        c.embed_cte(2, TruncatedCte::new(0xABCDE));
        c.embed_cte(5, TruncatedCte::new(0x1));
        assert_eq!(c.audit_embedded(), 0);
        for bit in 0..TruncatedCte::BITS + 1 {
            let mut bad = c.clone();
            assert!(bad.corrupt_embedded_bit(2, bit));
            assert_eq!(bad.audit_embedded(), 1 << 2, "flip of bit {bit} must be seen");
            assert_eq!(bad.scrub_embedded(), 1);
            assert_eq!(bad.audit_embedded(), 0);
            assert_eq!(bad.embedded_cte(2), None, "corrupt embedding dropped");
            assert_eq!(bad.embedded_cte(5), Some(TruncatedCte::new(0x1)), "clean slot kept");
        }
        // An empty slot has no frame bits to corrupt.
        assert!(!c.corrupt_embedded_bit(0, 3));
    }

    #[test]
    fn embedded_double_flips_can_escape_parity() {
        let ptb = uniform_ptb(0x3000);
        let mut c = CompressedPtb::compress(&ptb, PtbGeometry::paper_default()).unwrap();
        c.embed_cte(1, TruncatedCte::new(0x100));
        c.corrupt_embedded_bit(1, 0);
        c.corrupt_embedded_bit(1, 4);
        assert_eq!(c.audit_embedded(), 0, "even-weight burst escapes parity");
        assert_eq!(c.embedded_cte(1), Some(TruncatedCte::new(0x111)), "silently wrong");
    }

    #[test]
    fn preserve_embeddings_carries_parity_verbatim() {
        let g = PtbGeometry::paper_default();
        let ptb = uniform_ptb(0x4000);
        let mut old = CompressedPtb::compress(&ptb, g).unwrap();
        old.embed_cte(0, TruncatedCte::new(7));
        old.corrupt_embedded_bit(0, 1); // now detectably corrupt in `old`
        let mut new = CompressedPtb::compress(&ptb, g).unwrap();
        new.preserve_embeddings_from(&old);
        assert_eq!(new.audit_embedded(), 1, "corruption must not launder through a copy");
    }

    #[test]
    fn preserve_embeddings_on_unchanged_slots() {
        let g = PtbGeometry::paper_default();
        let old_ptb = uniform_ptb(1000);
        let mut old = CompressedPtb::compress(&old_ptb, g).unwrap();
        old.embed_cte(0, TruncatedCte::new(11));
        old.embed_cte(1, TruncatedCte::new(22));

        // OS remaps slot 1 to a different PPN; slot 0 unchanged.
        let mut new_ptb = old_ptb;
        new_ptb.set_entry(1, Pte::new(Ppn::new(9999), PteFlags::present_rw()));
        let mut new = CompressedPtb::compress(&new_ptb, g).unwrap();
        new.preserve_embeddings_from(&old);
        assert_eq!(new.embedded_cte(0), Some(TruncatedCte::new(11)));
        assert_eq!(new.embedded_cte(1), None, "remapped slot must drop its CTE");
    }
}
