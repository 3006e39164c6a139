//! The translation lookaside buffer.
//!
//! The paper simulates a single-level TLB with 2048 entries (§VI: "we
//! increase the number of entries in L1 TLB to 2048, which is similar to
//! the total number of TLB entries in AMD's Zen 3"), because TMCC optimizes
//! precisely the accesses that follow TLB misses.

use crate::cache::SetAssocCache;
use tmcc_types::addr::{Ppn, Vpn};

/// A set-associative TLB mapping VPN → PPN.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::Tlb;
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut tlb = Tlb::new(2048, 8);
/// assert_eq!(tlb.lookup(Vpn::new(7)), None);
/// tlb.fill(Vpn::new(7), Ppn::new(99));
/// assert_eq!(tlb.lookup(Vpn::new(7)), Some(Ppn::new(99)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cache: SetAssocCache<Ppn>,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` with a power-of-two
    /// set count, or `ways` exceeds 8.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways), "entries must divide evenly into ways");
        Self { cache: SetAssocCache::new(entries / ways, ways) }
    }

    /// The paper's configuration: 2048 entries, 8-way.
    pub fn paper_default() -> Self {
        Self::new(2048, 8)
    }

    /// One past the largest VPN the TLB takes: its tags are the low 32
    /// bits of a VPN, so 2^(32+s) for 2^s sets (2^40 for the paper's 256,
    /// above the 2^36 VPNs of a 48-bit address space). A lookup or fill
    /// of a VPN at or past it panics.
    pub fn vpn_limit(&self) -> u64 {
        self.cache.key_limit()
    }

    /// Looks up a translation; updates recency on hit. One probe of the
    /// set. The caller counts hits and misses (`SimStats`).
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Ppn> {
        self.cache.lookup(vpn.raw())
    }

    /// Installs a translation after a walk. One probe of the set: a
    /// resident entry takes the new PPN and keeps its recency.
    pub fn fill(&mut self, vpn: Vpn, ppn: Ppn) {
        let _ = self.cache.insert(vpn.raw(), ppn);
    }

    /// Does nothing: the TLB keeps no counters. It stays because the
    /// benchmark's traced copy of the step loop (`tmcc-benchmark`) calls
    /// it after warmup.
    pub fn reset_stats(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(16, 4);
        assert_eq!(tlb.lookup(Vpn::new(1)), None);
        tlb.fill(Vpn::new(1), Ppn::new(100));
        assert_eq!(tlb.lookup(Vpn::new(1)), Some(Ppn::new(100)));
    }

    #[test]
    fn refill_updates_mapping() {
        let mut tlb = Tlb::new(16, 4);
        tlb.fill(Vpn::new(1), Ppn::new(100));
        tlb.fill(Vpn::new(1), Ppn::new(200));
        assert_eq!(tlb.lookup(Vpn::new(1)), Some(Ppn::new(200)));
    }

    #[test]
    fn capacity_limits_reach() {
        let mut tlb = Tlb::new(8, 8); // fully associative, 8 entries
        for i in 0..9u64 {
            tlb.fill(Vpn::new(i), Ppn::new(i));
        }
        // One of the first entries must have been evicted.
        let resident = (0..9u64).filter(|&i| tlb.lookup(Vpn::new(i)).is_some()).count();
        assert_eq!(resident, 8);
    }

    #[test]
    fn vpn_limit_covers_a_48_bit_address_space() {
        assert_eq!(Tlb::paper_default().vpn_limit(), 1 << 40);
        assert!(Tlb::paper_default().vpn_limit() >= crate::page_table::VIRTUAL_PAGES);
        assert_eq!(Tlb::new(8, 8).vpn_limit(), 1 << 32, "one set");
    }

    #[test]
    fn paper_default_size() {
        // Far more translations than fit: every set fills, and exactly
        // 2048 stay resident.
        let mut tlb = Tlb::paper_default();
        for i in 0..32_768u64 {
            tlb.fill(Vpn::new(i), Ppn::new(i));
        }
        let resident = (0..32_768u64).filter(|&i| tlb.lookup(Vpn::new(i)).is_some()).count();
        assert_eq!(resident, 2048);
    }
}
