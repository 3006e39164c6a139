//! The memory controller's CTE cache (paper §II/III, Table III).
//!
//! CTEs live in DRAM as a flat table; the MC caches recently used 64 B CTE
//! blocks. The decisive parameter is *reach per line*:
//!
//! * Compresso's block-level CTEs: one 64 B metadata entry per 4 KiB page →
//!   a 64 B line reaches **4 KiB** (Table III: "Compresso: 128KB, 4KB reach
//!   per 64B CTE block");
//! * TMCC's page-level CTEs: 8 B per page → a 64 B line holds eight CTEs
//!   and reaches **32 KiB** (Table III: "TMCC: 64KB, 32KB reach per 64B CTE
//!   block").
//!
//! This 8× reach difference is most of §IV's 40 % CTE-miss reduction.
//!
//! The directory itself is a [`PackedCteSlots`]: one 64-bit word per
//! line holding its tag, valid bit, per-set recency rank and parity bit,
//! so an 8-way set is 64 B, the size of one host cache line. Every LLC
//! miss and every writeback probes it, and multi-tenant rosters
//! instantiate one CTE cache per tenant at 8 B per line (8 KiB for
//! TMCC's 64 KiB cache).

use crate::cte_slots::PackedCteSlots;
use tmcc_types::addr::Ppn;

/// Geometry of a CTE cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CteCacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Pages translated per 64 B line (1 for block-level CTEs, 8 for
    /// page-level CTEs); a power of two.
    pub pages_per_line: usize,
    /// Associativity.
    pub ways: usize,
}

impl CteCacheConfig {
    /// TMCC's configuration: 64 KiB, page-level (8 pages / 32 KiB reach).
    pub fn tmcc() -> Self {
        Self { size_bytes: 64 * 1024, pages_per_line: 8, ways: 8 }
    }

    /// Compresso's configuration: 128 KiB, block-level (4 KiB reach).
    pub fn compresso() -> Self {
        Self { size_bytes: 128 * 1024, pages_per_line: 1, ways: 8 }
    }

    /// The §III experiment: a 4× (256 KiB) block-level metadata cache.
    pub fn compresso_4x() -> Self {
        Self { size_bytes: 256 * 1024, pages_per_line: 1, ways: 8 }
    }

    /// Number of 64 B lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / 64
    }

    /// Total pages reachable when fully resident.
    pub fn page_reach(&self) -> usize {
        self.lines() * self.pages_per_line
    }
}

/// The CTE cache.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{CteCache, CteCacheConfig};
/// use tmcc_types::addr::Ppn;
///
/// let mut c = CteCache::new(CteCacheConfig::tmcc());
/// assert!(!c.access(Ppn::new(16)));
/// // Page-level lines cover eight adjacent pages.
/// assert!(c.access(Ppn::new(17)));
/// ```
#[derive(Debug, Clone)]
pub struct CteCache {
    slots: PackedCteSlots,
    /// `log2(pages_per_line)`: a page's line key is its PPN shifted down.
    line_shift: u32,
}

impl CteCache {
    /// Builds a CTE cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_line` is not a power of two, or if the
    /// geometry yields zero or a non-power-of-two set count.
    pub fn new(cfg: CteCacheConfig) -> Self {
        assert!(cfg.pages_per_line.is_power_of_two(), "pages per line must be a power of two");
        let sets = cfg.lines() / cfg.ways;
        Self {
            slots: PackedCteSlots::new(sets, cfg.ways),
            line_shift: cfg.pages_per_line.trailing_zeros(),
        }
    }

    fn line_key(&self, ppn: Ppn) -> u64 {
        ppn.raw() >> self.line_shift
    }

    /// Looks up the CTE for `ppn`, filling the line on a miss (the MC
    /// caches every CTE it fetches, §VII). Returns whether it hit.
    pub fn access(&mut self, ppn: Ppn) -> bool {
        self.slots.access(self.line_key(ppn))
    }

    /// Invalidates the line covering `ppn`.
    pub fn invalidate(&mut self, ppn: Ppn) {
        let _ = self.slots.invalidate(self.line_key(ppn));
    }

    /// Drops every resident line (a flush storm).
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// Fault-injection hook: flips one stored bit of directory line
    /// `line % capacity` *without* updating its parity (see
    /// [`PackedCteSlots::corrupt_line_bit`]).
    pub fn corrupt_slot_bit(&mut self, line: usize, bit: u32) {
        let cap = self.slots.capacity();
        self.slots.corrupt_line_bit(line % cap, bit);
    }

    /// Number of directory lines whose parity check currently fails.
    pub fn audit_parity(&self) -> usize {
        self.slots.audit_parity()
    }

    /// Invalidates every parity-violating line (a later walk refills it
    /// from the authoritative CTE table). Returns the lines dropped.
    pub fn scrub(&mut self) -> usize {
        self.slots.scrub()
    }

    /// Heap bytes the slot directory occupies on the host: 8 per line.
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_level_line_reaches_eight_pages() {
        let mut c = CteCache::new(CteCacheConfig::tmcc());
        assert!(!c.access(Ppn::new(0)));
        for p in 1..8u64 {
            assert!(c.access(Ppn::new(p)), "page {p} shares the line");
        }
        assert!(!c.access(Ppn::new(8)), "next line");
    }

    #[test]
    fn block_level_line_reaches_one_page() {
        let mut c = CteCache::new(CteCacheConfig::compresso());
        assert!(!c.access(Ppn::new(0)));
        assert!(!c.access(Ppn::new(1)));
    }

    #[test]
    fn reach_matches_table3() {
        // 64 KiB / 64 B = 1024 lines x 8 pages = 8192 pages = 32 MiB reach.
        assert_eq!(CteCacheConfig::tmcc().page_reach() * 4096, 32 * 1024 * 1024);
        assert_eq!(CteCacheConfig::tmcc().page_reach(), 8192);
        // Compresso: 2048 lines x 1 page = 8 MiB reach.
        assert_eq!(CteCacheConfig::compresso().page_reach(), 2048);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = CteCache::new(CteCacheConfig::tmcc());
        c.access(Ppn::new(0));
        c.invalidate(Ppn::new(3)); // same line
        assert!(!c.access(Ppn::new(0)));
    }

    #[test]
    #[should_panic(expected = "pages per line must be a power of two")]
    fn rejects_non_pow2_pages_per_line() {
        let _ = CteCache::new(CteCacheConfig { pages_per_line: 6, ..CteCacheConfig::tmcc() });
    }
}
