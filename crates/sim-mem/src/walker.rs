//! The hardware page walker with a per-core page-walk cache.
//!
//! On a TLB miss the walker traverses the page table. A small page-walk
//! cache (PWC — 1 KiB per core in the paper's Table III, "similar to
//! [23]") holds upper-level translations so most walks skip straight to
//! the lower levels; the PTB fetches that remain are issued to the cache
//! hierarchy by the caller, which is where TMCC's embedded CTEs pay off
//! (Fig. 12a).

use crate::cache::SetAssocCache;
use crate::page_table::{PageTable, WalkStep};
use tmcc_types::addr::{Ppn, Vpn};
use tmcc_types::pte::PageTableBlock;

/// Result of one page walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// The steps whose PTB the walker actually had to fetch from the
    /// memory system (upper levels may be skipped via PWC hits).
    pub fetched: Vec<WalkStep>,
    /// Steps resolved from the PWC without a memory access.
    pub pwc_hits: u32,
    /// The final translation.
    pub ppn: Ppn,
}

/// The page walker.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig, PageWalker};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut pt = PageTable::new(PageTableConfig::default());
/// pt.map(Vpn::new(10), Ppn::new(3));
/// pt.map(Vpn::new(11), Ppn::new(4));
/// let mut walker = PageWalker::paper_default();
/// let first = walker.walk(&pt, Vpn::new(10)).expect("mapped");
/// assert_eq!(first.ppn, Ppn::new(3));
/// assert_eq!(first.fetched.len(), 4);
/// // A second walk nearby skips the upper levels via the PWC.
/// let again = walker.walk(&pt, Vpn::new(11)).expect("mapped");
/// assert_eq!(again.fetched.len(), 1);
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

    /// Walks the table for `vpn`. Returns `None` for unmapped addresses.
    ///
    /// Upper-level steps whose translations hit in the PWC are skipped; the
    /// remaining steps (always at least the leaf) are returned in
    /// root-to-leaf order for the caller to issue to the cache hierarchy.
    pub fn walk(&mut self, table: &PageTable, vpn: Vpn) -> Option<WalkResult> {
        let mut buf = Vec::with_capacity(4);
        let (ppn, pwc_hits) = self.walk_into(table, vpn, &mut buf)?;
        Some(WalkResult { fetched: buf.into_iter().map(|(step, _)| step).collect(), pwc_hits, ppn })
    }

    /// Allocation-free walk: clears `out` and fills it with the steps the
    /// walker actually fetches (PWC-skipped upper levels excluded), each
    /// paired with its PTB. Returns the final translation and the PWC hit
    /// count, or `None` (with `out` empty) for unmapped addresses.
    ///
    /// The hot per-TLB-miss path of the system model: with a caller-owned
    /// scratch buffer it performs no heap allocation, and the table builds
    /// only the PTBs the walker fetches.
    pub fn walk_into(
        &mut self,
        table: &PageTable,
        vpn: Vpn,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) -> Option<(Ppn, u32)> {
        let leaf = table.leaf_level();
        // The deepest level whose *table pointer* the PWC knows: fetching
        // starts below it. The leaf PTB itself is never skipped.
        let mut top = 4;
        while top > leaf && self.pwc.contains(Self::pwc_key(vpn, top)) {
            top -= 1;
        }
        // An unmapped address leaves the PWC untouched.
        if !table.walk_from_into(vpn, top, out) {
            return None;
        }
        // Touch the pointers that hit (LRU) and install the ones the
        // fetched steps produced, root first.
        for level in (leaf + 1..=4).rev() {
            let _ = self.pwc.access(Self::pwc_key(vpn, level), false, ());
        }
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
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..n {
            pt.map(Vpn::new(i), Ppn::new(i + 100));
        }
        pt
    }

    #[test]
    fn cold_walk_fetches_everything() {
        let pt = table_with(16);
        let mut w = PageWalker::paper_default();
        let r = w.walk(&pt, Vpn::new(0)).unwrap();
        assert_eq!(r.fetched.len(), 4);
        assert_eq!(r.pwc_hits, 0);
    }

    #[test]
    fn warm_walk_fetches_only_leaf() {
        let pt = table_with(64);
        let mut w = PageWalker::paper_default();
        let _ = w.walk(&pt, Vpn::new(0)).unwrap();
        let r = w.walk(&pt, Vpn::new(63)).unwrap();
        assert_eq!(r.fetched.len(), 1, "only the leaf PTB should be fetched");
        assert_eq!(r.fetched[0].level, 1);
        assert_eq!(r.pwc_hits, 3);
        assert_eq!(r.ppn, Ppn::new(163));
    }

    #[test]
    fn distant_vpn_misses_lower_pwc_levels() {
        let mut pt = table_with(1);
        // VPN 2^18 lives in a different L2 *table* (each L2 table covers
        // 512 x 512 pages), so only the L4 pointer is shared.
        pt.map(Vpn::new(1 << 18), Ppn::new(999));
        let mut w = PageWalker::paper_default();
        let _ = w.walk(&pt, Vpn::new(0)).unwrap();
        let r = w.walk(&pt, Vpn::new(1 << 18)).unwrap();
        assert_eq!(r.fetched.len(), 3, "L3 + L2 + leaf must be fetched");
        assert_eq!(r.fetched[0].level, 3);
        assert_eq!(r.pwc_hits, 1);
        // A VPN in the same L1 table (within 512 pages) fetches only the
        // leaf PTB.
        pt.map(Vpn::new((1 << 18) + 8), Ppn::new(1000));
        let r2 = w.walk(&pt, Vpn::new((1 << 18) + 8)).unwrap();
        assert_eq!(r2.fetched.len(), 1);
    }

    #[test]
    fn unmapped_returns_none() {
        let pt = table_with(1);
        let mut w = PageWalker::paper_default();
        assert!(w.walk(&pt, Vpn::new(1 << 30)).is_none());
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
        let mut frozen = PageTable::identity(PageTableConfig::default(), 1 << 20);
        frozen.map(Vpn::new(3 << 20), Ppn::new(9));
        let huge = PageTable::identity(
            PageTableConfig { huge_pages: true, ..Default::default() },
            1 << 20,
        );
        for table in [PageTable::identity(PageTableConfig::default(), 1 << 20), frozen, huge] {
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
        let _ = w.walk(&pt, Vpn::new(0));
        w.flush();
        let r = w.walk(&pt, Vpn::new(1)).unwrap();
        assert_eq!(r.fetched.len(), 4);
    }
}
