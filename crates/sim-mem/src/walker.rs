//! The hardware page walker with a per-core page-walk cache.
//!
//! On a TLB miss the walker traverses the page table. A small page-walk
//! cache (PWC — 1 KiB per core in the paper's Table III, "similar to
//! \[23\]") holds upper-level translations so most walks skip straight to
//! the lower levels; the PTB fetches that remain are issued to the cache
//! hierarchy by the caller, which is where TMCC's embedded CTEs pay off
//! (Fig. 12a).

use crate::cache::SetAssocCache;
use crate::page_table::{PageTable, WalkStep};
use tmcc_types::addr::{Ppn, Vpn};
use tmcc_types::pte::PageTableBlock;

/// The page walker.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig, PageWalker};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let pt = PageTable::identity(PageTableConfig::default(), 12);
/// let mut walker = PageWalker::paper_default();
/// let mut fetched = Vec::new();
/// let (ppn, pwc_hits) = walker.walk_into(&pt, Vpn::new(10), &mut fetched).expect("mapped");
/// assert_eq!((ppn, pwc_hits), (Ppn::new(10), 0));
/// assert_eq!(fetched.len(), 4);
/// // A second walk nearby skips the upper levels via the PWC.
/// walker.walk_into(&pt, Vpn::new(11), &mut fetched).expect("mapped");
/// assert_eq!(fetched.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageWalker {
    /// PWC keyed by `(level, table-relative prefix)`; payload is unused —
    /// a hit means "the walker already knows the level-N table pointer".
    pwc: SetAssocCache<()>,
}

impl PageWalker {
    /// Creates a walker whose PWC holds `pwc_entries` upper-level entries.
    pub fn new(pwc_entries: usize) -> Self {
        Self { pwc: SetAssocCache::fully_associative(pwc_entries) }
    }

    /// The paper's 1 KiB PWC: 64 entries of 16 B.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// PWC key for the entry *produced* by the step at `level` (i.e. the
    /// pointer to the level-`level - 1` table).
    fn pwc_key(vpn: Vpn, level: u8) -> u64 {
        // Prefix covering this table pointer, tagged with the level.
        (vpn.raw() >> (9 * (level as u64 - 1))) << 3 | level as u64
    }

    /// Walks the table for `vpn`: clears `out` and fills it with the steps
    /// the walker actually fetches, each paired with its PTB, in
    /// root-to-leaf order for the caller to issue to the cache hierarchy.
    /// Upper-level steps whose translations hit in the PWC are skipped;
    /// the leaf is always fetched. Returns the final translation and the
    /// PWC hit count, or `None` (with `out` empty) for unmapped addresses.
    ///
    /// The hot per-TLB-miss path of the system model: with a caller-owned
    /// buffer it performs no heap allocation, and the table builds only
    /// the PTBs the walker fetches.
    pub fn walk_into(
        &mut self,
        table: &PageTable,
        vpn: Vpn,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) -> Option<(Ppn, u32)> {
        // An unmapped address leaves the PWC untouched.
        if !table.maps(vpn) {
            out.clear();
            return None;
        }
        // One probe per upper level, root first: a hit touches the pointer
        // (LRU), a miss installs the one this walk produces. Fetching
        // starts below the unbroken run of hits from the root; the leaf
        // PTB itself is never skipped.
        let mut top = 4;
        for level in (table.leaf_level() + 1..=4).rev() {
            let hit = self.pwc.access(Self::pwc_key(vpn, level), false, ()).0.is_hit();
            if hit && top == level {
                top -= 1;
            }
        }
        let walked = table.walk_from_into(vpn, top, out);
        debug_assert!(walked, "a mapped VPN walks");
        Some((out.last()?.0.next_ppn, u32::from(4 - top)))
    }

    /// Clears the PWC (context switch).
    pub fn flush(&mut self) {
        self.pwc.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PageTableConfig;

    fn table_with(n: u64) -> PageTable {
        PageTable::identity(PageTableConfig::default(), n)
    }

    /// One walk's outcome: the fetched steps, the PWC hits and the PPN.
    fn walk(w: &mut PageWalker, table: &PageTable, vpn: Vpn) -> Option<(Vec<WalkStep>, u32, Ppn)> {
        let mut out = Vec::new();
        let (ppn, pwc_hits) = w.walk_into(table, vpn, &mut out)?;
        Some((out.into_iter().map(|(step, _)| step).collect(), pwc_hits, ppn))
    }

    #[test]
    fn cold_walk_fetches_everything() {
        let pt = table_with(16);
        let mut w = PageWalker::paper_default();
        let (fetched, pwc_hits, _) = walk(&mut w, &pt, Vpn::new(0)).unwrap();
        assert_eq!(fetched.len(), 4);
        assert_eq!(pwc_hits, 0);
    }

    #[test]
    fn warm_walk_fetches_only_leaf() {
        let pt = table_with(64);
        let mut w = PageWalker::paper_default();
        let _ = walk(&mut w, &pt, Vpn::new(0)).unwrap();
        let (fetched, pwc_hits, ppn) = walk(&mut w, &pt, Vpn::new(63)).unwrap();
        assert_eq!(fetched.len(), 1, "only the leaf PTB should be fetched");
        assert_eq!(fetched[0].level, 1);
        assert_eq!(pwc_hits, 3);
        assert_eq!(ppn, Ppn::new(63));
    }

    #[test]
    fn distant_vpn_misses_lower_pwc_levels() {
        // VPN 2^18 lives in a different L2 *table* (each L2 table covers
        // 512 x 512 pages), so only the L4 pointer is shared.
        let pt = table_with((1 << 18) + 9);
        let mut w = PageWalker::paper_default();
        let _ = walk(&mut w, &pt, Vpn::new(0)).unwrap();
        let (fetched, pwc_hits, _) = walk(&mut w, &pt, Vpn::new(1 << 18)).unwrap();
        assert_eq!(fetched.len(), 3, "L3 + L2 + leaf must be fetched");
        assert_eq!(fetched[0].level, 3);
        assert_eq!(pwc_hits, 1);
        // A VPN in the same L1 table (within 512 pages) fetches only the
        // leaf PTB.
        let (fetched, ..) = walk(&mut w, &pt, Vpn::new((1 << 18) + 8)).unwrap();
        assert_eq!(fetched.len(), 1);
    }

    #[test]
    fn unmapped_returns_none() {
        let pt = table_with(1);
        let mut w = PageWalker::paper_default();
        assert!(walk(&mut w, &pt, Vpn::new(1 << 30)).is_none());
    }

    /// The reference walk: the full path from the root, minus the upper
    /// levels whose pointers hit in the PWC; the rest are installed.
    fn reference_walk(
        pwc: &mut SetAssocCache<()>,
        table: &PageTable,
        vpn: Vpn,
    ) -> Option<(Vec<(WalkStep, PageTableBlock)>, u32)> {
        let mut path = Vec::new();
        if !table.walk_path_into(vpn, &mut path) {
            return None;
        }
        let leaf = path.last()?.0.level;
        let mut start = 0;
        for (i, (step, _)) in path.iter().enumerate() {
            if step.level == leaf || !pwc.contains(PageWalker::pwc_key(vpn, step.level)) {
                break;
            }
            let _ = pwc.access(PageWalker::pwc_key(vpn, step.level), false, ());
            start = i + 1;
        }
        for (step, _) in &path[start..] {
            if step.level != leaf {
                let _ = pwc.access(PageWalker::pwc_key(vpn, step.level), false, ());
            }
        }
        Some((path.split_off(start), start as u32))
    }

    #[test]
    fn fetch_only_walks_match_full_path_walks() {
        let huge = PageTable::identity(
            PageTableConfig { huge_pages: true, ..Default::default() },
            1 << 20,
        );
        for table in [table_with(1 << 20), huge] {
            let mut walker = PageWalker::paper_default();
            let mut pwc = SetAssocCache::fully_associative(64);
            let mut buf = Vec::new();
            let mut state = 7u64;
            for _ in 0..20_000 {
                state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                // Random VPNs over the mapped range and a little past it:
                // the PWC both hits and misses, and some walks are unmapped.
                let vpn = Vpn::new((state >> 33) % ((1 << 20) + (1 << 16)));
                let want = reference_walk(&mut pwc, &table, vpn);
                let got = walker.walk_into(&table, vpn, &mut buf);
                match want {
                    Some((path, hits)) => {
                        assert_eq!(got, Some((path.last().unwrap().0.next_ppn, hits)), "{vpn:?}");
                        assert_eq!(buf, path, "{vpn:?}");
                    }
                    None => assert!(got.is_none() && buf.is_empty(), "{vpn:?}"),
                }
            }
        }
    }

    #[test]
    fn flush_forgets_pointers() {
        let pt = table_with(8);
        let mut w = PageWalker::paper_default();
        let _ = walk(&mut w, &pt, Vpn::new(0));
        w.flush();
        let (fetched, ..) = walk(&mut w, &pt, Vpn::new(1)).unwrap();
        assert_eq!(fetched.len(), 4);
    }
}
