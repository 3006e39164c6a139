//! x86-64-style page-table entries and page-table blocks.
//!
//! Per the paper (§V-A1, Fig. 7a): each 8-byte PTE consists of **24 status
//! bits** (the low 12 architectural flag bits and the high 12
//! ignored/protection bits, including XD) and a **40-bit physical page
//! number** in bits 12..52. A *page-table block* (PTB) is the 64-byte
//! cacheline fetched by one page-walk step and holds **eight** PTEs.
//!
//! The key empirical observation the TMCC design rests on (Fig. 6): adjacent
//! virtual pages almost always have identical status bits, and the most
//! significant PPN bits are identical because installed DRAM is much smaller
//! than the 2^40-page architectural limit. [`PageTableBlock::uniform_status`]
//! and [`PageTableBlock::common_ppn_prefix_bits`] expose exactly those two
//! properties; the compressed encoding that exploits them lives in
//! [`crate::ptb`].

use crate::addr::Ppn;
use serde::Serialize;
use std::fmt;

/// Number of PTEs in one 64 B page-table block.
pub const PTES_PER_PTB: usize = 8;

/// Mask of the 40 PPN bits within a raw PTE (bits 12..52).
const PPN_MASK: u64 = ((1u64 << 40) - 1) << 12;

/// The 24 status bits of a PTE, split into the low 12 (bits 0..12) and high
/// 12 (bits 52..64) architectural positions.
///
/// Only a handful of individual flags are given names because the simulator
/// needs them; the rest travel as opaque bits, exactly as hardware treats
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct PteFlags {
    low: u16,  // 12 significant bits
    high: u16, // 12 significant bits
}

impl PteFlags {
    /// Present bit (bit 0).
    pub const PRESENT: u16 = 1 << 0;
    /// Writable bit (bit 1).
    pub const WRITABLE: u16 = 1 << 1;
    /// Accessed bit (bit 5).
    pub const ACCESSED: u16 = 1 << 5;
    /// Dirty bit (bit 6).
    pub const DIRTY: u16 = 1 << 6;
    /// Page-size bit (bit 7) — set in a level-2 entry that maps a 2 MiB page.
    pub const HUGE: u16 = 1 << 7;

    /// Builds flags from the low-12 and high-12 bit groups.
    ///
    /// # Panics
    ///
    /// Panics if either group has bits set above bit 11.
    pub fn new(low: u16, high: u16) -> Self {
        assert!(low < (1 << 12), "low status bits exceed 12 bits");
        assert!(high < (1 << 12), "high status bits exceed 12 bits");
        Self { low, high }
    }

    /// Typical flags for a present, writable, accessed kernel data page.
    pub fn present_rw() -> Self {
        Self::new(Self::PRESENT | Self::WRITABLE | Self::ACCESSED, 0)
    }

    /// The low-12 status bits.
    pub fn low(self) -> u16 {
        self.low
    }

    /// The high-12 status bits.
    pub fn high(self) -> u16 {
        self.high
    }

    /// Whether the present bit is set.
    pub fn is_present(self) -> bool {
        self.low & Self::PRESENT != 0
    }

    /// Packs the 24 status bits into their positions in a raw 64-bit PTE.
    pub fn to_raw(self) -> u64 {
        (self.low as u64) | ((self.high as u64) << 52)
    }

    /// Extracts the 24 status bits from a raw 64-bit PTE.
    pub fn from_raw(raw: u64) -> Self {
        Self { low: (raw & 0xfff) as u16, high: ((raw >> 52) & 0xfff) as u16 }
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PteFlags(low={:#05x}, high={:#05x})", self.low, self.high)
    }
}

/// A single 8-byte page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct Pte(u64);

impl Pte {
    /// A non-present (zero) entry.
    pub const NOT_PRESENT: Pte = Pte(0);

    /// Builds a PTE from a PPN and status flags.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` does not fit in 40 bits.
    pub fn new(ppn: Ppn, flags: PteFlags) -> Self {
        assert!(ppn.raw() < (1 << 40), "PPN exceeds 40 bits");
        Self((ppn.raw() << 12) | flags.to_raw())
    }

    /// Reconstructs a PTE from its raw 64-bit representation.
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit representation.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The 40-bit physical page number.
    pub fn ppn(self) -> Ppn {
        Ppn::new((self.0 & PPN_MASK) >> 12)
    }

    /// The 24 status bits.
    pub fn flags(self) -> PteFlags {
        PteFlags::from_raw(self.0)
    }

    /// Whether this entry maps anything.
    pub fn is_present(self) -> bool {
        self.flags().is_present()
    }

    /// Serializes to the 8 little-endian bytes hardware would see in DRAM.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Deserializes from 8 little-endian bytes.
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        Self(u64::from_le_bytes(bytes))
    }
}

impl fmt::Debug for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pte(ppn={:#x}, present={})", self.ppn().raw(), self.is_present())
    }
}

/// The 64-byte block of eight PTEs fetched by one page-walk step
/// (paper Fig. 7b).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct PageTableBlock {
    entries: [Pte; PTES_PER_PTB],
}

impl PageTableBlock {
    /// Builds a PTB from eight entries.
    pub const fn new(entries: [Pte; PTES_PER_PTB]) -> Self {
        Self { entries }
    }

    /// The eight entries.
    pub fn entries(&self) -> &[Pte; PTES_PER_PTB] {
        &self.entries
    }

    /// Returns entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    pub fn entry(&self, idx: usize) -> Pte {
        self.entries[idx]
    }

    /// Replaces entry `idx` (what an OS write to the PTB does).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    pub fn set_entry(&mut self, idx: usize, pte: Pte) {
        self.entries[idx] = pte;
    }

    /// Whether all eight entries carry identical status bits — the property
    /// measured in the paper's Fig. 6 (99.94 % of L1 PTBs, 99.3 % of L2
    /// PTBs) and the precondition for the compressed-PTB encoding.
    pub fn uniform_status(&self) -> bool {
        let first = self.entries[0].flags();
        self.entries.iter().all(|e| e.flags() == first)
    }

    /// The number of *leading* PPN bits (of 40) identical across all eight
    /// entries. With `T` terabytes of installed DRAM the top
    /// `40 - log2(T·2^18)` bits are identical in practice (paper §V-A1).
    pub fn common_ppn_prefix_bits(&self) -> u32 {
        let first = self.entries[0].ppn().raw();
        let mut diff = 0u64;
        for e in &self.entries[1..] {
            diff |= e.ppn().raw() ^ first;
        }
        // Count identical leading bits within the 40-bit field.
        (diff << 24).leading_zeros().min(40)
    }

    /// Serializes to the 64 bytes hardware would see in DRAM.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (i, e) in self.entries.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&e.to_bytes());
        }
        out
    }

    /// Deserializes from 64 bytes.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        for (i, e) in entries.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *e = Pte::from_bytes(b);
        }
        Self { entries }
    }
}

impl fmt::Debug for PageTableBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTableBlock")
            .field("uniform_status", &self.uniform_status())
            .field("entries", &self.entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptb_with_ppns(ppns: [u64; 8]) -> PageTableBlock {
        let flags = PteFlags::present_rw();
        PageTableBlock::new(ppns.map(|p| Pte::new(Ppn::new(p), flags)))
    }

    #[test]
    fn pte_round_trip() {
        let flags = PteFlags::new(0xabc, 0x123);
        let pte = Pte::new(Ppn::new(0xdead_beef), flags);
        assert_eq!(pte.ppn().raw(), 0xdead_beef);
        assert_eq!(pte.flags(), flags);
        assert_eq!(Pte::from_bytes(pte.to_bytes()), pte);
    }

    #[test]
    #[should_panic(expected = "PPN exceeds 40 bits")]
    fn pte_rejects_wide_ppn() {
        let _ = Pte::new(Ppn::new(1 << 40), PteFlags::default());
    }

    #[test]
    #[should_panic(expected = "low status bits exceed 12 bits")]
    fn flags_reject_wide_low() {
        let _ = PteFlags::new(1 << 12, 0);
    }

    #[test]
    fn uniform_status_detection() {
        let mut ptb = ptb_with_ppns([1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(ptb.uniform_status());
        ptb.set_entry(3, Pte::new(Ppn::new(4), PteFlags::new(PteFlags::PRESENT, 0)));
        assert!(!ptb.uniform_status());
    }

    #[test]
    fn common_prefix_bits() {
        // All PPNs below 2^8 differ only in the low 8 bits: >= 32 common bits.
        let ptb = ptb_with_ppns([0, 1, 2, 3, 4, 5, 6, 255]);
        assert_eq!(ptb.common_ppn_prefix_bits(), 32);
        // Identical PPNs share all 40 bits.
        let same = ptb_with_ppns([9; 8]);
        assert_eq!(same.common_ppn_prefix_bits(), 40);
        // A difference in the top PPN bit leaves zero common bits.
        let wide = ptb_with_ppns([0, 1 << 39, 0, 0, 0, 0, 0, 0]);
        assert_eq!(wide.common_ppn_prefix_bits(), 0);
    }

    #[test]
    fn ptb_byte_round_trip() {
        let ptb = ptb_with_ppns([10, 20, 30, 40, 50, 60, 70, 80]);
        assert_eq!(PageTableBlock::from_bytes(&ptb.to_bytes()), ptb);
    }

    #[test]
    fn not_present_is_zero() {
        assert_eq!(Pte::NOT_PRESENT.raw(), 0);
        assert!(!Pte::NOT_PRESENT.is_present());
    }
}
