//! A software-built 4-level x86-64-style page table living in simulated
//! physical memory.
//!
//! The table is materialized the way an OS would: each level is a 4 KiB
//! page of 512 PTEs (64 PTBs), table pages are allocated from a dedicated
//! physical range, and a walk for a VPN touches one PTB per level (paper
//! §II: "each step in a page walk fetches a 64 B block of eight PTEs").
//! The PTB *blocks* this module hands out are exactly what TMCC compresses
//! and embeds CTEs into.

use tmcc_types::addr::{BlockAddr, Ppn, Vpn};
use tmcc_types::fxhash::FxHashMap;
use tmcc_types::pte::{PageTableBlock, Pte, PteFlags, PTES_PER_PTB};

/// Entries per 4 KiB table page.
const ENTRIES_PER_TABLE: u64 = 512;

/// Configuration of the simulated page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableConfig {
    /// First PPN of the region table pages are allocated from (the
    /// simulator keeps page-table pages disjoint from data pages).
    pub table_region_base: u64,
    /// Map 2 MiB huge pages at level 2 instead of 4 KiB pages at level 1
    /// (the paper's §VIII huge-page sensitivity study).
    pub huge_pages: bool,
}

impl Default for PageTableConfig {
    fn default() -> Self {
        Self {
            // Table pages live high in the physical space by default.
            table_region_base: 1 << 26, // PPN 2^26 = 256 GiB mark
            huge_pages: false,
        }
    }
}

impl PageTableConfig {
    /// The layout for `data_pages` identity-mapped data pages (PPNs
    /// `0..data_pages`). Table pages start at the default 2^26 mark, or,
    /// for footprints beyond 256 GiB, at the first 2 MiB boundary above
    /// the data range, so table pages never alias data pages.
    pub fn for_data_pages(data_pages: u64, huge_pages: bool) -> Self {
        let default = Self::default();
        Self {
            table_region_base: default.table_region_base.max(data_pages.next_multiple_of(512)),
            huge_pages,
        }
    }
}

/// One step of a page walk: the PTB the walker fetches and what the chosen
/// PTE points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Walk level: 4 (root) down to 1 (leaf), or down to 2 for huge pages.
    pub level: u8,
    /// Physical block address of the 64 B PTB fetched at this step.
    pub ptb_block: BlockAddr,
    /// Slot (0..8) of the relevant PTE within the PTB.
    pub slot: usize,
    /// PPN the PTE points at: the next level's table page, or the data
    /// page at the leaf.
    pub next_ppn: Ppn,
}

/// The simulated page table.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut pt = PageTable::new(PageTableConfig::default());
/// pt.map(Vpn::new(0x1234), Ppn::new(77));
/// assert_eq!(pt.translate(Vpn::new(0x1234)), Some(Ppn::new(77)));
/// let path = pt.walk_path(Vpn::new(0x1234)).expect("mapped");
/// assert_eq!(path.len(), 4); // four PTB fetches
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    cfg: PageTableConfig,
    root: Ppn,
    /// Table pages by PPN; each holds 512 PTEs. Keyed with the cheap
    /// vendored Fx hasher: the walker's fallback path and every PTB fetch
    /// resolve table pages by key, and nothing iterates the map (so the
    /// hasher change cannot perturb observable ordering).
    tables: FxHashMap<u64, Vec<Pte>>,
    next_table_ppn: u64,
    mapped_pages: u64,
}

impl PageTable {
    /// Creates an empty table (root allocated immediately).
    pub fn new(cfg: PageTableConfig) -> Self {
        let mut pt = Self {
            cfg,
            root: Ppn::new(cfg.table_region_base),
            tables: FxHashMap::default(),
            next_table_ppn: cfg.table_region_base,
            mapped_pages: 0,
        };
        pt.root = pt.alloc_table();
        pt
    }

    fn alloc_table(&mut self) -> Ppn {
        let ppn = self.next_table_ppn;
        self.next_table_ppn += 1;
        self.tables.insert(ppn, vec![Pte::NOT_PRESENT; ENTRIES_PER_TABLE as usize]);
        Ppn::new(ppn)
    }

    /// The leaf level for this configuration (1, or 2 for huge pages).
    pub fn leaf_level(&self) -> u8 {
        if self.cfg.huge_pages {
            2
        } else {
            1
        }
    }

    /// Index of `vpn` within the table at `level`.
    fn index(vpn: Vpn, level: u8) -> usize {
        ((vpn.raw() >> (9 * (level as u64 - 1))) & (ENTRIES_PER_TABLE - 1)) as usize
    }

    /// Maps `vpn` → `ppn` with default (present, writable, accessed) flags.
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn) {
        self.map_with_flags(vpn, ppn, PteFlags::present_rw());
    }

    /// Maps `vpn` → `ppn` with explicit leaf flags. With huge pages, `vpn`
    /// is interpreted as a 4 KiB VPN whose covering 2 MiB region is mapped
    /// (offset bits pass through).
    pub fn map_with_flags(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
        let leaf = self.leaf_level();
        let mut table = self.root;
        for level in (leaf + 1..=4).rev() {
            let idx = Self::index(vpn, level);
            let entry = self.tables.get(&table.raw()).expect("table exists")[idx];
            let next = if entry.is_present() {
                entry.ppn()
            } else {
                let t = self.alloc_table();
                self.tables.get_mut(&table.raw()).expect("table exists")[idx] =
                    Pte::new(t, PteFlags::present_rw());
                t
            };
            table = next;
        }
        let idx = Self::index(vpn, leaf);
        let leaf_flags = if leaf == 2 {
            PteFlags::new(flags.low() | PteFlags::HUGE, flags.high())
        } else {
            flags
        };
        let slot = &mut self.tables.get_mut(&table.raw()).expect("table exists")[idx];
        if !slot.is_present() {
            self.mapped_pages += 1;
        }
        *slot = Pte::new(ppn, leaf_flags);
    }

    /// Translates a VPN, if mapped. For huge pages the returned PPN is the
    /// base of the 2 MiB frame plus the VPN's low 9 bits.
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let path = self.walk_path(vpn)?;
        let last = path.last().expect("non-empty path");
        if self.cfg.huge_pages {
            Some(Ppn::new(last.next_ppn.raw() + (vpn.raw() & 0x1ff)))
        } else {
            Some(last.next_ppn)
        }
    }

    /// The full walk path for `vpn`: one [`WalkStep`] per level from the
    /// root down to the leaf. `None` if `vpn` is unmapped.
    pub fn walk_path(&self, vpn: Vpn) -> Option<Vec<WalkStep>> {
        let mut buf = Vec::with_capacity(4);
        if self.walk_path_into(vpn, &mut buf) {
            Some(buf.into_iter().map(|(step, _)| step).collect())
        } else {
            None
        }
    }

    /// Allocation-free walk path: clears `out` and fills it with one
    /// `(step, ptb)` pair per level, root to leaf. Returns `false` (with
    /// `out` empty) if `vpn` is unmapped.
    ///
    /// Capturing the PTB while the walk already holds the table page saves
    /// the per-step [`ptb_at`](Self::ptb_at) table lookup the system model
    /// would otherwise do for every fetched step — together with the
    /// reused buffer, this takes the page-walk path out of the simulator's
    /// per-access allocation profile entirely.
    pub fn walk_path_into(&self, vpn: Vpn, out: &mut Vec<(WalkStep, PageTableBlock)>) -> bool {
        out.clear();
        let leaf = self.leaf_level();
        let mut table = self.root;
        for level in (leaf..=4).rev() {
            let idx = Self::index(vpn, level);
            let Some(entries) = self.tables.get(&table.raw()) else {
                out.clear();
                return false;
            };
            let entry = entries[idx];
            if !entry.is_present() {
                out.clear();
                return false;
            }
            let base = (idx / PTES_PER_PTB) * PTES_PER_PTB;
            let mut ptes = [Pte::NOT_PRESENT; PTES_PER_PTB];
            ptes.copy_from_slice(&entries[base..base + PTES_PER_PTB]);
            out.push((
                WalkStep {
                    level,
                    ptb_block: Self::ptb_block_of(table, idx),
                    slot: idx % PTES_PER_PTB,
                    next_ppn: entry.ppn(),
                },
                PageTableBlock::new(ptes),
            ));
            table = entry.ppn();
        }
        true
    }

    /// Physical block address of the PTB holding entry `idx` of the table
    /// page at `table_ppn`.
    fn ptb_block_of(table_ppn: Ppn, idx: usize) -> BlockAddr {
        table_ppn.block(idx / PTES_PER_PTB)
    }

    /// The 64 B PTB at a physical block address, if it belongs to a table
    /// page — what the cache hierarchy returns to the walker and what TMCC
    /// compresses.
    pub fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
        let table = self.tables.get(&block.ppn().raw())?;
        let base = block.index_in_page() * PTES_PER_PTB;
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        entries.copy_from_slice(&table[base..base + PTES_PER_PTB]);
        Some(PageTableBlock::new(entries))
    }

    /// Writes a whole PTB back (OS edits through the cache hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not within a table page.
    pub fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
        let table = self.tables.get_mut(&block.ppn().raw()).expect("block belongs to a table page");
        let base = block.index_in_page() * PTES_PER_PTB;
        table[base..base + PTES_PER_PTB].copy_from_slice(ptb.entries());
    }

    /// Iterates over every PTB of every table page at `level` (4 = root) —
    /// the corpus for the paper's Fig. 6 status-bit survey.
    pub fn ptbs_at_level(&self, level: u8) -> Vec<(BlockAddr, PageTableBlock)> {
        let mut out = Vec::new();
        self.collect_ptbs(self.root, 4, level, &mut out);
        out
    }

    fn collect_ptbs(
        &self,
        table: Ppn,
        cur: u8,
        want: u8,
        out: &mut Vec<(BlockAddr, PageTableBlock)>,
    ) {
        let Some(entries) = self.tables.get(&table.raw()) else {
            return;
        };
        if cur == want {
            for ptb_idx in 0..(ENTRIES_PER_TABLE as usize / PTES_PER_PTB) {
                let block = table.block(ptb_idx);
                let ptb = self.ptb_at(block).expect("table page exists");
                if ptb.entries().iter().any(|e| e.is_present()) {
                    out.push((block, ptb));
                }
            }
            return;
        }
        if cur > self.leaf_level() {
            for e in entries.iter().filter(|e| e.is_present()) {
                self.collect_ptbs(e.ppn(), cur - 1, want, out);
            }
        }
    }

    /// Whether a physical page is a page-table page.
    pub fn is_table_page(&self, ppn: Ppn) -> bool {
        self.tables.contains_key(&ppn.raw())
    }

    /// Number of 4 KiB table pages allocated.
    pub fn table_page_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The root table's PPN (CR3).
    pub fn root(&self) -> Ppn {
        self.root
    }

    /// First PPN of the table-page region. Table pages are allocated
    /// sequentially from here, so `[base, base + table_page_count)` is a
    /// dense range — the property the core scheme's page slab indexes by.
    pub fn table_region_base(&self) -> u64 {
        self.cfg.table_region_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_region_sits_above_any_data_range() {
        let base = PageTableConfig::default().table_region_base;
        assert_eq!(PageTableConfig::for_data_pages(1000, false).table_region_base, base);
        assert_eq!(PageTableConfig::for_data_pages(base, true).table_region_base, base);
        let tib = 1u64 << 28;
        let cfg = PageTableConfig::for_data_pages(tib, true);
        assert_eq!((cfg.table_region_base, cfg.huge_pages), (tib, true));
        assert_eq!(PageTableConfig::for_data_pages(base + 1, false).table_region_base, base + 512);
    }

    #[test]
    fn map_translate_round_trip() {
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..100u64 {
            pt.map(Vpn::new(i * 7919), Ppn::new(i + 1));
        }
        for i in 0..100u64 {
            assert_eq!(pt.translate(Vpn::new(i * 7919)), Some(Ppn::new(i + 1)));
        }
        assert_eq!(pt.translate(Vpn::new(999_999_999)), None);
        assert_eq!(pt.mapped_pages(), 100);
    }

    #[test]
    fn walk_path_has_four_levels() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(0xABCDE), Ppn::new(5));
        let path = pt.walk_path(Vpn::new(0xABCDE)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2, 1]);
        assert_eq!(path.last().unwrap().next_ppn, Ppn::new(5));
        // Every step's PTB lives in a table page.
        for s in &path {
            assert!(pt.is_table_page(s.ptb_block.ppn()));
        }
    }

    #[test]
    fn adjacent_pages_share_leaf_ptb() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(64), Ppn::new(1));
        pt.map(Vpn::new(65), Ppn::new(2));
        pt.map(Vpn::new(72), Ppn::new(3)); // next PTB
        let a = pt.walk_path(Vpn::new(64)).unwrap().pop().unwrap();
        let b = pt.walk_path(Vpn::new(65)).unwrap().pop().unwrap();
        let c = pt.walk_path(Vpn::new(72)).unwrap().pop().unwrap();
        assert_eq!(a.ptb_block, b.ptb_block);
        assert_ne!(a.ptb_block, c.ptb_block);
        assert_eq!(a.slot, 0);
        assert_eq!(b.slot, 1);
    }

    #[test]
    fn huge_pages_walk_three_levels() {
        let mut pt = PageTable::new(PageTableConfig { huge_pages: true, ..Default::default() });
        // Map the 2 MiB region containing VPN 0x12345.
        pt.map(Vpn::new(0x12345), Ppn::new(0x4000));
        let path = pt.walk_path(Vpn::new(0x12345)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2]);
        // Translation adds the low 9 VPN bits onto the 2 MiB frame.
        assert_eq!(pt.translate(Vpn::new(0x12345)), Some(Ppn::new(0x4000 + (0x12345 & 0x1ff))));
        // The leaf PTE carries the page-size bit.
        let leaf = path.last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert!(ptb.entry(leaf.slot).flags().is_huge());
    }

    #[test]
    fn ptb_fetch_matches_walk() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(1000), Ppn::new(11));
        let leaf = *pt.walk_path(Vpn::new(1000)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert_eq!(ptb.entry(leaf.slot).ppn(), Ppn::new(11));
    }

    #[test]
    fn write_ptb_round_trips() {
        let mut pt = PageTable::new(PageTableConfig::default());
        pt.map(Vpn::new(8), Ppn::new(1));
        let leaf = *pt.walk_path(Vpn::new(8)).unwrap().last().unwrap();
        let mut ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        ptb.set_entry(3, Pte::new(Ppn::new(42), PteFlags::present_rw()));
        pt.write_ptb(leaf.ptb_block, &ptb);
        assert_eq!(pt.ptb_at(leaf.ptb_block).unwrap(), ptb);
        // VPN 11 (slot 3 of the same PTB) now translates.
        assert_eq!(pt.translate(Vpn::new(11)), Some(Ppn::new(42)));
    }

    #[test]
    fn fig6_corpus_uniform_by_default() {
        let mut pt = PageTable::new(PageTableConfig::default());
        for i in 0..4096u64 {
            pt.map(Vpn::new(i), Ppn::new(i * 3 + 7));
        }
        let l1 = pt.ptbs_at_level(1);
        assert!(!l1.is_empty());
        assert!(l1.iter().all(|(_, ptb)| ptb.uniform_status()));
        let l2 = pt.ptbs_at_level(2);
        assert!(!l2.is_empty());
    }
}
