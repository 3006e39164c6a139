//! The three-level cache hierarchy (paper Table III).
//!
//! Geometry and latencies follow Table III: 64 KiB L1, 256 KiB inclusive
//! L2, 8 MiB L3; 3 cycles L1, +11 L2, +50 L3 at the 2.8 GHz core clock,
//! with an 18 ns NoC hop between the L3 and the memory controller.
//!
//! The model is tag-accurate (exact hit/miss behaviour under LRU) and
//! latency-additive; it reports dirty evictions so the memory controller
//! model can account for writebacks. The lines carry no payload: the
//! compressed-PTB data bit the paper adds to every L2/L3 line (§V-A4)
//! changes no hit, miss or latency here, and nothing reads it, so it is
//! not stored.

use crate::cache::SetAssocCache;
use tmcc_types::addr::BlockAddr;

/// Core clock of the simulated CPU, Hz (Table III).
pub const CORE_CLOCK_HZ: f64 = 2.8e9;
/// Nanoseconds per core cycle.
pub const NS_PER_CYCLE: f64 = 1e9 / CORE_CLOCK_HZ;
/// NoC latency between the LLC and the memory controller, ns (Table III).
pub const NOC_LATENCY_NS: f64 = 18.0;

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 cache.
    L1,
    /// Served by the L2 cache.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Missed everywhere: the memory controller must be consulted.
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    /// Deepest level consulted.
    pub level: HitLevel,
    /// On-chip latency in ns (excludes DRAM; includes the NoC hop to the
    /// MC when `level == Memory`).
    pub latency_ns: f64,
    /// A dirty block evicted from the LLC, to be written back to memory.
    pub writeback: Option<BlockAddr>,
}

/// Geometry of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 size in bytes (data side; the model treats L1 as unified).
    pub l1_bytes: usize,
    /// L2 size in bytes.
    pub l2_bytes: usize,
    /// L3 size in bytes.
    pub l3_bytes: usize,
    /// Associativity used at each level.
    pub ways: usize,
    /// L1 hit latency in core cycles.
    pub l1_cycles: u64,
    /// Additional cycles for an L2 hit.
    pub l2_extra_cycles: u64,
    /// Additional cycles for an L3 hit.
    pub l3_extra_cycles: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 64 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 8 * 1024 * 1024,
            ways: 8,
            l1_cycles: 3,
            l2_extra_cycles: 11,
            l3_extra_cycles: 50,
        }
    }
}

/// The cache hierarchy.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{CacheHierarchy, HierarchyConfig, HitLevel};
/// use tmcc_types::addr::BlockAddr;
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::default());
/// let first = h.access(BlockAddr::new(42), false, false);
/// assert_eq!(first.level, HitLevel::Memory);
/// let again = h.access(BlockAddr::new(42), false, false);
/// assert_eq!(again.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    l3: SetAssocCache<()>,
}

impl CacheHierarchy {
    /// Builds the hierarchy. Each level allocates only its zeroed set
    /// index here (64 KiB for the default L3); a level's lines are
    /// reserved on its first fill and become resident set by set.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let lines = |bytes: usize| bytes / 64 / cfg.ways;
        Self {
            cfg,
            l1: SetAssocCache::new(lines(cfg.l1_bytes).next_power_of_two(), cfg.ways),
            l2: SetAssocCache::new(lines(cfg.l2_bytes).next_power_of_two(), cfg.ways),
            l3: SetAssocCache::new(lines(cfg.l3_bytes).next_power_of_two(), cfg.ways),
        }
    }

    /// Accesses `block`. `_compressed_ptb` says whether the block is a
    /// hardware-compressed PTB, the new data bit of §V-A4; no outcome
    /// depends on it, so it is accepted and not stored. It stays in the
    /// signature for the callers that pass it (the system model's walk
    /// and the benchmark's traced copy of it).
    pub fn access(&mut self, block: BlockAddr, write: bool, _compressed_ptb: bool) -> MemAccess {
        let key = block.raw();
        let t = &self.cfg;
        let l1_ns = t.l1_cycles as f64 * NS_PER_CYCLE;
        let l2_ns = (t.l1_cycles + t.l2_extra_cycles) as f64 * NS_PER_CYCLE;
        let l3_ns = (t.l1_cycles + t.l2_extra_cycles + t.l3_extra_cycles) as f64 * NS_PER_CYCLE;

        if self.l1.access(key, write, ()).0.is_hit() {
            // L2 is inclusive of L1; keep its copy warm for recency.
            let _ = self.l2.access(key, write, ());
            return MemAccess { level: HitLevel::L1, latency_ns: l1_ns, writeback: None };
        }
        let mut writeback = None;
        if self.l2.access(key, write, ()).0.is_hit() {
            return MemAccess { level: HitLevel::L2, latency_ns: l2_ns, writeback: None };
        }
        let (l3_outcome, l3_victim) = self.l3.access(key, write, ());
        if l3_outcome.is_hit() {
            return MemAccess { level: HitLevel::L3, latency_ns: l3_ns, writeback: None };
        }
        // The miss installed the line; a dirty victim becomes a writeback.
        if let Some((victim, dirty, _)) = l3_victim {
            if dirty && victim != key {
                writeback = Some(BlockAddr::new(victim));
            }
        }
        MemAccess { level: HitLevel::Memory, latency_ns: l3_ns + NOC_LATENCY_NS, writeback }
    }

    /// Drops `block` from every level (used by page-migration flows).
    pub fn invalidate(&mut self, block: BlockAddr) {
        let _ = self.l1.invalidate(block.raw());
        let _ = self.l2.invalidate(block.raw());
        let _ = self.l3.invalidate(block.raw());
    }

    /// Does nothing: the hierarchy keeps no counters (each access returns
    /// its outcome). It stays because the benchmark's traced copy of the
    /// step loop (`tmcc-benchmark`) calls it after warmup.
    pub fn reset_stats(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = h();
        assert_eq!(h.access(BlockAddr::new(1), false, false).level, HitLevel::Memory);
        assert_eq!(h.access(BlockAddr::new(1), false, false).level, HitLevel::L1);
    }

    #[test]
    fn latencies_match_table3() {
        let mut h = h();
        let miss = h.access(BlockAddr::new(7), false, false);
        // 64 cycles @2.8 GHz + 18 ns NoC ≈ 40.9 ns on-chip for a full miss.
        assert!((miss.latency_ns - (64.0 / 2.8 + 18.0)).abs() < 0.1);
        let hit = h.access(BlockAddr::new(7), false, false);
        assert!((hit.latency_ns - 3.0 / 2.8).abs() < 0.01);
    }

    #[test]
    fn capacity_eviction_reaches_memory_again() {
        let cfg = HierarchyConfig {
            l1_bytes: 1024,
            l2_bytes: 2048,
            l3_bytes: 4096,
            ways: 2,
            ..Default::default()
        };
        let mut h = CacheHierarchy::new(cfg);
        for i in 0..512u64 {
            h.access(BlockAddr::new(i), false, false);
        }
        // The tiny L3 cannot hold 512 lines: early blocks must miss again.
        let r = h.access(BlockAddr::new(0), false, false);
        assert_eq!(r.level, HitLevel::Memory);
    }

    #[test]
    fn dirty_eviction_surfaces_writeback() {
        let cfg = HierarchyConfig {
            l1_bytes: 128,
            l2_bytes: 128,
            l3_bytes: 128,
            ways: 1,
            ..Default::default()
        };
        let mut h = CacheHierarchy::new(cfg);
        // Write enough dirty blocks to force dirty evictions from L3.
        let mut saw_writeback = false;
        for i in 0..64u64 {
            let r = h.access(BlockAddr::new(i * 131), true, false);
            saw_writeback |= r.writeback.is_some();
        }
        assert!(saw_writeback, "dirty evictions must surface");
    }

    #[test]
    fn invalidate_clears_all_levels() {
        let mut h = h();
        h.access(BlockAddr::new(5), false, false);
        h.access(BlockAddr::new(5), false, false);
        h.invalidate(BlockAddr::new(5));
        assert_eq!(h.access(BlockAddr::new(5), false, false).level, HitLevel::Memory);
    }
}
