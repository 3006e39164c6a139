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
//! 7 for 4 TiB, 6 for 16 TiB per MC, §V-A5) fall out of the bit budget, and
//! [`PtbGeometry::check`] says whether a PTB takes the encoding at all. The
//! embedded CTEs themselves are scheme state: the two-level scheme keeps
//! them in a dense store indexed by PTB position.

use crate::pte::{PageTableBlock, PTES_PER_PTB};
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

    /// Whether `ptb` can be stored in the compressed encoding.
    ///
    /// Mirrors the hardware check: the encoding is only used when all status
    /// bits are identical and every PPN shares the prefix this geometry
    /// truncates (paper Fig. 7 caption).
    ///
    /// # Errors
    ///
    /// Returns the [`PtbCompressError`] precondition `ptb` does not meet; the
    /// PTB then keeps the uncompressed encoding and embeds no CTEs.
    pub fn check(self, ptb: &PageTableBlock) -> Result<(), PtbCompressError> {
        if !ptb.uniform_status() {
            return Err(PtbCompressError::NonUniformStatus);
        }
        let required = self.prefix_bits();
        let common = ptb.common_ppn_prefix_bits();
        if common < required {
            return Err(PtbCompressError::PpnPrefixDiverges {
                common_bits: common,
                required_bits: required,
            });
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppn;
    use crate::cte::TruncatedCte;
    use crate::pte::{Pte, PteFlags};

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
    fn compress_accepts_a_uniform_ptb() {
        assert_eq!(PtbGeometry::paper_default().check(&uniform_ptb(0x12340)), Ok(()));
    }

    #[test]
    fn compress_rejects_non_uniform_status() {
        let mut ptb = uniform_ptb(100);
        ptb.set_entry(2, Pte::new(Ppn::new(102), PteFlags::new(PteFlags::PRESENT, 0)));
        assert_eq!(
            PtbGeometry::paper_default().check(&ptb),
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
        let err = PtbGeometry::paper_default().check(&PageTableBlock::new(entries)).unwrap_err();
        assert!(matches!(err, PtbCompressError::PpnPrefixDiverges { .. }));
    }
}
