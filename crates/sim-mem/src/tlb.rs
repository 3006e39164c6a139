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
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` with a power-of-two
    /// set count.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways), "entries must divide evenly into ways");
        Self { cache: SetAssocCache::new(entries / ways, ways), hits: 0, misses: 0 }
    }

    /// The paper's configuration: 2048 entries, 8-way.
    pub fn paper_default() -> Self {
        Self::new(2048, 8)
    }

    /// Looks up a translation; updates recency on hit. One probe of the
    /// set.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Ppn> {
        let ppn = self.cache.lookup(vpn.raw());
        if ppn.is_some() {
            self.hits = self.hits.saturating_add(1);
        } else {
            // Counted here, not at fill time: a miss whose walk fails (or
            // is aborted) must still show up in the miss count.
            self.misses = self.misses.saturating_add(1);
        }
        ppn
    }

    /// Installs a translation after a walk. One probe of the set: a
    /// resident entry takes the new PPN and keeps its recency.
    pub fn fill(&mut self, vpn: Vpn, ppn: Ppn) {
        let _ = self.cache.insert(vpn.raw(), ppn);
    }

    /// Removes a translation (OS shootdown).
    pub fn invalidate(&mut self, vpn: Vpn) {
        let _ = self.cache.invalidate(vpn.raw());
    }

    /// `(hits, misses)` counted by [`lookup`](Self::lookup) — a miss is a
    /// lookup that returned `None`, whether or not a `fill` ever follows.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }
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
    fn invalidate_forces_miss() {
        let mut tlb = Tlb::new(16, 4);
        tlb.fill(Vpn::new(3), Ppn::new(30));
        tlb.invalidate(Vpn::new(3));
        assert_eq!(tlb.lookup(Vpn::new(3)), None);
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
    fn paper_default_size() {
        assert_eq!(Tlb::paper_default().capacity(), 2048);
    }

    #[test]
    fn misses_without_fill_are_counted() {
        // Regression: misses used to be inferred from the inner cache's
        // fill path, so a lookup miss with no subsequent fill (failed or
        // aborted walk) vanished from the miss count.
        let mut tlb = Tlb::new(16, 4);
        assert_eq!(tlb.lookup(Vpn::new(1)), None);
        assert_eq!(tlb.lookup(Vpn::new(2)), None);
        assert_eq!(tlb.stats(), (0, 2), "both fill-less misses counted");
        tlb.fill(Vpn::new(1), Ppn::new(10));
        assert_eq!(tlb.stats(), (0, 2), "fill itself is not a lookup");
        assert_eq!(tlb.lookup(Vpn::new(1)), Some(Ppn::new(10)));
        assert_eq!(tlb.stats(), (1, 2));
    }

    #[test]
    fn reset_clears_lookup_counters() {
        let mut tlb = Tlb::new(16, 4);
        let _ = tlb.lookup(Vpn::new(9));
        tlb.reset_stats();
        assert_eq!(tlb.stats(), (0, 0));
    }
}
