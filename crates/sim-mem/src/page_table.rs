//! A software-built 4-level x86-64-style page table living in simulated
//! physical memory.
//!
//! Each level is a 4 KiB page of 512 PTEs (64 PTBs), table pages are
//! allocated from a dedicated physical range, and a walk for a VPN touches
//! one PTB per level (paper §II: "each step in a page walk fetches a 64 B
//! block of eight PTEs"). The PTB *blocks* this module hands out are
//! exactly what TMCC compresses and embeds CTEs into.
//!
//! # A computed identity table
//!
//! The simulator identity-maps its data pages, and mapping pages `0, 1,
//! 2, …` in order allocates table pages in a fixed order: depth-first
//! preorder, each table right after the subtrees of its earlier siblings.
//! Every table page of such an identity prefix, and every PTE in it, is
//! therefore a pure function of its position, and each PTB is one
//! arithmetic progression of PPNs. The table stores only the prefix
//! length: building it is O(1) ([`PageTable::identity`], or
//! [`PageTable::map`] of the next identity page), it takes no host memory,
//! and a walk through it reads no map. The simulator never edits its
//! table after construction, so the prefix is the whole table.

use std::ops::Range;
use tmcc_types::addr::{BlockAddr, Ppn, Vpn, BLOCKS_PER_PAGE};
use tmcc_types::pte::{PageTableBlock, Pte, PteFlags, PTES_PER_PTB};

/// Entries per 4 KiB table page.
const ENTRIES_PER_TABLE: u64 = 512;

/// Pages four levels of 512 entries can map (a 48-bit virtual address
/// space). A walk ignores higher VPN bits, so larger VPNs alias lower ones.
pub const VIRTUAL_PAGES: u64 = 1 << 36;

/// Table pages in a full subtree whose root sits `d` levels above the leaf
/// level (`SUBTREE[d] = 1 + 512 + … + 512^d`).
const SUBTREE: [u64; 4] = [1, 513, 262_657, 134_480_385];

/// Position of the PPN within a raw PTE.
const PPN_SHIFT: u32 = 12;

/// Raw status bits of every computed PTE: [`PteFlags::present_rw`], plus
/// the page-size bit in a 2 MiB leaf.
const COMPUTED_FLAGS: u64 = (PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::ACCESSED) as u64;
const COMPUTED_HUGE_FLAGS: u64 = COMPUTED_FLAGS | PteFlags::HUGE as u64;

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

/// The identity prefix as a pure function of its length: VPNs
/// `0..covered` map to the same PPNs, and table `index` at `level` (the
/// one covering VPNs from `index << 9·level`) sits at PPN
/// `base + position(level, index)`.
#[derive(Debug, Clone, Copy)]
struct Identity {
    base: u64,
    leaf: u8,
    /// VPNs mapped: the data pages, or 512 per 2 MiB region.
    covered: u64,
}

impl Identity {
    /// How many tables exist at `level` (the leaf level or above), or how
    /// many pages (2 MiB regions) are mapped when `level` is one below the
    /// leaf.
    fn count(self, level: u8) -> u64 {
        if level == 4 {
            1
        } else {
            let shift = 9 * u32::from(level);
            (self.covered + (1 << shift) - 1) >> shift
        }
    }

    fn table_count(self) -> u64 {
        (self.leaf..=4).map(|level| self.count(level)).sum()
    }

    fn subtree(self, level: u8) -> u64 {
        SUBTREE[usize::from(level - self.leaf)]
    }

    /// Table-region offset of table `index` at `level`, its preorder
    /// position: the full subtrees of the earlier tables at its level, plus
    /// each level above's tables up to and including its ancestor.
    fn position(self, level: u8, index: u64) -> u64 {
        let mut pos = index * self.subtree(level) + u64::from(4 - level);
        for above in 1..=u32::from(4 - level) {
            pos += index >> (9 * above);
        }
        pos
    }

    /// The `(level, index)` of the table at table-region offset `offset`,
    /// the inverse of [`Self::position`]: a descent through the preorder.
    fn table_at(self, offset: u64) -> Option<(u8, u64)> {
        if offset >= self.table_count() {
            return None;
        }
        let (mut level, mut index, mut rest) = (4, 0, offset);
        while rest > 0 {
            level -= 1;
            let size = self.subtree(level);
            index = index * ENTRIES_PER_TABLE + (rest - 1) / size;
            rest = (rest - 1) % size;
        }
        Some((level, index))
    }

    /// The raw PTE for child `first` of a table at `level` (PPN in bits
    /// 12..52, status bits around it), and the raw step to the next
    /// child's PTE within the same table. The children are tables, or at
    /// the leaf level identity-mapped pages (2 MiB regions).
    fn children(self, level: u8, first: u64) -> (u64, u64) {
        let (ppn, stride, flags) = if level == self.leaf {
            let shift = 9 * u32::from(level - 1);
            let flags = if level == 2 { COMPUTED_HUGE_FLAGS } else { COMPUTED_FLAGS };
            (first << shift, 1 << shift, flags)
        } else {
            (self.base + self.position(level - 1, first), self.subtree(level - 1), COMPUTED_FLAGS)
        };
        (ppn << PPN_SHIFT | flags, stride << PPN_SHIFT)
    }

    /// Pushes the steps of `vpn`'s walk from level `top` down to the leaf
    /// onto `out`; `false` if the prefix does not map it. Each level
    /// builds only the PTB it fetches.
    fn walk(self, vpn: Vpn, top: u8, out: &mut Vec<(WalkStep, PageTableBlock)>) -> bool {
        // Ignore VPN bits above the four levels.
        let vpn = vpn.raw() & (VIRTUAL_PAGES - 1);
        if vpn >= self.covered {
            return false;
        }
        let table = self.base + self.position(top, vpn >> (9 * u32::from(top)));
        match self.leaf {
            1 => self.descend::<1>(vpn, top, table, out),
            _ => self.descend::<2>(vpn, top, table, out),
        }
        true
    }

    /// The steps from `top` (its table at `table`) down to the leaf,
    /// unrolled by level with the leaf level a constant, so the layout
    /// arithmetic of every step folds to constant shifts and strides.
    #[inline(always)]
    fn descend<const LEAF: u8>(
        self,
        vpn: u64,
        top: u8,
        mut table: u64,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) {
        let id = Identity { leaf: LEAF, ..self };
        if top == 4 {
            table = id.step::<4>(vpn, table, out);
        }
        if top >= 3 {
            table = id.step::<3>(vpn, table, out);
        }
        if top >= 2 {
            table = id.step::<2>(vpn, table, out);
        }
        if LEAF == 1 {
            id.step::<1>(vpn, table, out);
        }
    }

    /// The level-`L` step of a walk for a mapped `vpn` through `table`:
    /// pushes it and returns the PPN its entry points at.
    #[inline(always)]
    fn step<const L: u8>(
        self,
        vpn: u64,
        table: u64,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) -> u64 {
        let idx = (vpn >> (9 * (L - 1))) as usize % ENTRIES_PER_TABLE as usize;
        let ptb = self.ptb(L, vpn >> (9 * L), idx / PTES_PER_PTB);
        // Computed PTEs carry no high status bits above the PPN.
        let next = ptb.entries()[idx % PTES_PER_PTB].raw() >> PPN_SHIFT;
        let step = WalkStep {
            level: L,
            ptb_block: Ppn::new(table).block(idx / PTES_PER_PTB),
            slot: idx % PTES_PER_PTB,
            next_ppn: Ppn::new(next),
        };
        out.push((step, ptb));
        next
    }

    /// PTB `ptb` of table `index` at `level`: one arithmetic progression
    /// of PTEs, cut off where the children end.
    #[inline(always)]
    fn ptb(self, level: u8, index: u64, ptb: usize) -> PageTableBlock {
        let first = index * ENTRIES_PER_TABLE + (ptb * PTES_PER_PTB) as u64;
        let present = self.count(level - 1).saturating_sub(first).min(PTES_PER_PTB as u64);
        let mut entries = [Pte::NOT_PRESENT; PTES_PER_PTB];
        if present > 0 {
            let (mut raw, step) = self.children(level, first);
            let last = raw + step * (present - 1);
            assert!(last >> PPN_SHIFT < 1 << 40, "PPN exceeds 40 bits");
            for e in &mut entries[..present as usize] {
                *e = Pte::from_raw(raw);
                raw += step;
            }
        }
        PageTableBlock::new(entries)
    }

    /// The PTBs of table `index` at `level` that hold a present entry,
    /// with their block addresses.
    fn table_ptbs(
        self,
        level: u8,
        index: u64,
    ) -> impl Iterator<Item = (BlockAddr, PageTableBlock)> {
        let table = Ppn::new(self.base + self.position(level, index));
        (0..BLOCKS_PER_PAGE).filter_map(move |p| {
            let ptb = self.ptb(level, index, p);
            ptb.entries().iter().any(|e| e.is_present()).then(|| (table.block(p), ptb))
        })
    }
}

/// The simulated page table: the identity map of VPNs `0..n`.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{PageTable, PageTableConfig};
/// use tmcc_types::addr::{Ppn, Vpn};
///
/// let mut pt = PageTable::new(PageTableConfig::default());
/// for i in 0..0x1235 {
///     pt.map(Vpn::new(i), Ppn::new(i));
/// }
/// assert_eq!(pt.translate(Vpn::new(0x1234)), Some(Ppn::new(0x1234)));
/// assert_eq!(pt.translate(Vpn::new(0x1235)), None);
/// let path = pt.walk_path(Vpn::new(0x1234)).expect("mapped");
/// assert_eq!(path.len(), 4); // four PTB fetches
///
/// // An identity-mapped footprint costs O(1) to build, at any size.
/// let big = PageTable::identity(PageTableConfig::for_data_pages(1 << 30, false), 1 << 30);
/// assert_eq!(big.translate(Vpn::new(123_456_789)), Some(Ppn::new(123_456_789)));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    identity: Identity,
}

impl PageTable {
    /// Creates an empty table (root allocated immediately).
    pub fn new(cfg: PageTableConfig) -> Self {
        Self::identity(cfg, 0)
    }

    /// The table `map(i, i)` for every `i in 0..pages` builds — with huge
    /// pages, `map(512·r, 512·r)` for each of the `⌈pages / 512⌉` 2 MiB
    /// regions covering them — in O(1) time and memory.
    ///
    /// # Panics
    ///
    /// Panics if `pages` exceeds [`VIRTUAL_PAGES`].
    pub fn identity(cfg: PageTableConfig, pages: u64) -> Self {
        let covered = if cfg.huge_pages { pages.next_multiple_of(512) } else { pages };
        assert!(covered <= VIRTUAL_PAGES, "{pages} pages exceed the 48-bit virtual address space");
        let leaf = if cfg.huge_pages { 2 } else { 1 };
        Self { identity: Identity { base: cfg.table_region_base, leaf, covered } }
    }

    /// The leaf level for this configuration (1, or 2 for huge pages).
    pub fn leaf_level(&self) -> u8 {
        self.identity.leaf
    }

    /// Maps `vpn` → `ppn` with default (present, writable, accessed)
    /// flags. The pair must be the next identity page — with huge pages,
    /// any VPN of the next 2 MiB region, mapped to the region's first
    /// page — which extends the table in O(1).
    ///
    /// # Panics
    ///
    /// Panics on any other pair: the table is an identity map.
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn) {
        let unit = 1 << (9 * u32::from(self.leaf_level() - 1));
        let next = self.identity.covered;
        assert!(
            next < VIRTUAL_PAGES && vpn.raw() / unit == next / unit && ppn.raw() == next,
            "{vpn:?} -> {ppn:?} does not extend the identity map of VPNs 0..{next}"
        );
        self.identity.covered = next + unit;
    }

    /// Translates a VPN, if mapped. For huge pages the returned PPN is the
    /// base of the 2 MiB frame plus the VPN's low 9 bits.
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let path = self.walk_path(vpn)?;
        let last = path.last().expect("non-empty path");
        if self.leaf_level() == 2 {
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
    /// Each step builds only the one PTB it fetches: a few shifts and adds
    /// per level, with no table lookup.
    pub fn walk_path_into(&self, vpn: Vpn, out: &mut Vec<(WalkStep, PageTableBlock)>) -> bool {
        self.walk_from_into(vpn, 4, out)
    }

    /// [`walk_path_into`](Self::walk_path_into), keeping only the steps
    /// at level `top` and below: what the walker fetches once the
    /// page-walk cache has supplied the table pointers above.
    pub(crate) fn walk_from_into(
        &self,
        vpn: Vpn,
        top: u8,
        out: &mut Vec<(WalkStep, PageTableBlock)>,
    ) -> bool {
        out.clear();
        self.identity.walk(vpn, top, out)
    }

    /// The 64 B PTB at a physical block address, if it belongs to a table
    /// page — what the cache hierarchy returns to the walker and what TMCC
    /// compresses.
    pub fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
        let offset = block.ppn().raw().checked_sub(self.identity.base)?;
        let (level, index) = self.identity.table_at(offset)?;
        Some(self.identity.ptb(level, index, block.index_in_page()))
    }

    /// Every PTB that holds a present entry in the table pages at `level`
    /// (4 = root), table by table in index order — the corpus for the
    /// paper's Fig. 6 status-bit survey.
    pub fn ptbs_at_level(&self, level: u8) -> Vec<(BlockAddr, PageTableBlock)> {
        if !(self.leaf_level()..=4).contains(&level) {
            return Vec::new();
        }
        let id = self.identity;
        (0..id.count(level)).flat_map(|index| id.table_ptbs(level, index)).collect()
    }

    /// Every PTB that holds a present entry, table page by table page in
    /// PPN order, generated as the iterator advances — what a scheme warms
    /// per-PTB state from without collecting the table.
    pub fn ptbs(&self) -> impl Iterator<Item = (BlockAddr, PageTableBlock)> + '_ {
        let id = self.identity;
        (0..id.table_count()).flat_map(move |offset| {
            let (level, index) = id.table_at(offset).expect("offset inside the table range");
            id.table_ptbs(level, index)
        })
    }

    /// The leaf PTE that maps data page `ppn`: its PTB's block address and
    /// its slot in that PTB, where the walk of `ppn`'s identity VPN ends —
    /// pure arithmetic, no PTB built. `None` when no leaf PTE names `ppn`:
    /// past the mapped pages, or inside a 2 MiB page.
    pub fn leaf_pte(&self, ppn: Ppn) -> Option<(BlockAddr, usize)> {
        let id = self.identity;
        let unit_bits = 9 * u32::from(id.leaf - 1);
        let raw = ppn.raw();
        if raw >= id.covered || raw & ((1 << unit_bits) - 1) != 0 {
            return None;
        }
        let entry = raw >> unit_bits;
        let table = Ppn::new(id.base + id.position(id.leaf, entry >> 9));
        let idx = (entry % ENTRIES_PER_TABLE) as usize;
        Some((table.block(idx / PTES_PER_PTB), idx % PTES_PER_PTB))
    }

    /// Number of 4 KiB table pages allocated.
    pub fn table_page_count(&self) -> usize {
        self.identity.table_count() as usize
    }

    /// The PPNs of every table page: table pages are allocated
    /// sequentially from [`table_region_base`](Self::table_region_base),
    /// so they form one dense range.
    pub fn table_ppns(&self) -> Range<u64> {
        self.identity.base..self.identity.base + self.identity.table_count()
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.identity.count(self.leaf_level() - 1)
    }

    /// The root table's PPN (CR3).
    pub fn root(&self) -> Ppn {
        Ppn::new(self.identity.base)
    }

    /// First PPN of the table-page region. Table pages are allocated
    /// sequentially from here, so `[base, base + table_page_count)` is a
    /// dense range — the property the core scheme's per-page store indexes
    /// by.
    pub fn table_region_base(&self) -> u64 {
        self.identity.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use tmcc_types::fxhash::FxHashMap;

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
            pt.map(Vpn::new(i), Ppn::new(i));
        }
        for i in 0..100u64 {
            assert_eq!(pt.translate(Vpn::new(i)), Some(Ppn::new(i)));
        }
        assert_eq!(pt.translate(Vpn::new(100)), None);
        assert_eq!(pt.translate(Vpn::new(999_999_999)), None);
        assert_eq!(pt.mapped_pages(), 100);
    }

    #[test]
    #[should_panic(expected = "does not extend the identity map")]
    fn non_identity_map_panics() {
        let mut pt = PageTable::identity(PageTableConfig::default(), 600);
        pt.map(Vpn::new(600), Ppn::new(99_999));
    }

    #[test]
    fn walk_path_has_four_levels() {
        let pt = PageTable::identity(PageTableConfig::default(), 0xABCDF);
        let path = pt.walk_path(Vpn::new(0xABCDE)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2, 1]);
        assert_eq!(path.last().unwrap().next_ppn, Ppn::new(0xABCDE));
        // Every step's PTB lives in a table page.
        for s in &path {
            assert!(pt.table_ppns().contains(&s.ptb_block.ppn().raw()));
        }
    }

    #[test]
    fn adjacent_pages_share_leaf_ptb() {
        let pt = PageTable::identity(PageTableConfig::default(), 73);
        let a = pt.walk_path(Vpn::new(64)).unwrap().pop().unwrap();
        let b = pt.walk_path(Vpn::new(65)).unwrap().pop().unwrap();
        let c = pt.walk_path(Vpn::new(72)).unwrap().pop().unwrap(); // next PTB
        assert_eq!(a.ptb_block, b.ptb_block);
        assert_ne!(a.ptb_block, c.ptb_block);
        assert_eq!(a.slot, 0);
        assert_eq!(b.slot, 1);
    }

    #[test]
    fn huge_pages_walk_three_levels() {
        let cfg = PageTableConfig { huge_pages: true, ..Default::default() };
        // Map the 2 MiB regions up to the one containing VPN 0x12345.
        let pt = PageTable::identity(cfg, 0x12346);
        let path = pt.walk_path(Vpn::new(0x12345)).unwrap();
        assert_eq!(path.iter().map(|s| s.level).collect::<Vec<_>>(), [4, 3, 2]);
        // The leaf names the 2 MiB frame; translation adds the low 9 VPN
        // bits onto it.
        assert_eq!(path.last().unwrap().next_ppn, Ppn::new(0x12345 & !0x1ff));
        assert_eq!(pt.translate(Vpn::new(0x12345)), Some(Ppn::new(0x12345)));
        // The leaf PTE carries the page-size bit.
        let leaf = path.last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert_ne!(ptb.entry(leaf.slot).flags().low() & PteFlags::HUGE, 0);
    }

    #[test]
    fn ptb_fetch_matches_walk() {
        let pt = PageTable::identity(PageTableConfig::default(), 1001);
        let leaf = *pt.walk_path(Vpn::new(1000)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(leaf.ptb_block).unwrap();
        assert_eq!(ptb.entry(leaf.slot).ppn(), Ppn::new(1000));
    }

    #[test]
    fn leaf_pte_is_where_the_walk_ends() {
        for huge_pages in [false, true] {
            let cfg = PageTableConfig { huge_pages, ..Default::default() };
            for pages in [1u64, 7, 8, 511, 512, 513, 4096, (1 << 18) + 1, (1 << 27) + 3] {
                let pt = PageTable::identity(cfg, pages);
                let covered = if huge_pages { pages.next_multiple_of(512) } else { pages };
                let probes = [0, 1, 7, 8, 511, 512, 513, pages / 2, covered - 1, covered];
                for ppn in probes.into_iter().chain(pages.saturating_sub(9)..pages + 9) {
                    let got = pt.leaf_pte(Ppn::new(ppn));
                    let leaf_target = !huge_pages || ppn % 512 == 0;
                    let want = match pt.walk_path(Vpn::new(ppn)) {
                        Some(path) if leaf_target && ppn < VIRTUAL_PAGES => {
                            let leaf = *path.last().unwrap();
                            assert_eq!(leaf.next_ppn, Ppn::new(ppn));
                            Some((leaf.ptb_block, leaf.slot))
                        }
                        _ => None,
                    };
                    assert_eq!(got, want, "huge {huge_pages}, {pages} pages, ppn {ppn}");
                }
            }
        }
    }

    #[test]
    fn fig6_corpus_uniform_by_default() {
        let pt = PageTable::identity(PageTableConfig::default(), 4096);
        let l1 = pt.ptbs_at_level(1);
        assert!(!l1.is_empty());
        assert!(l1.iter().all(|(_, ptb)| ptb.uniform_status()));
        let l2 = pt.ptbs_at_level(2);
        assert!(!l2.is_empty());
    }

    /// A page-by-page table builder over a hash map of table pages — the
    /// oracle the computed table is checked against. A table page stores
    /// its entries only up to the last one written, so a replay that
    /// touches one page per leaf table stays small.
    struct Reference {
        cfg: PageTableConfig,
        tables: FxHashMap<u64, Vec<Pte>>,
        next: u64,
        mapped: u64,
    }

    /// Index of `vpn` within the table at `level`.
    fn index(vpn: Vpn, level: u8) -> usize {
        ((vpn.raw() >> (9 * (level as u64 - 1))) & (ENTRIES_PER_TABLE - 1)) as usize
    }

    impl Reference {
        fn new(cfg: PageTableConfig) -> Self {
            let mut r =
                Self { cfg, tables: FxHashMap::default(), next: cfg.table_region_base, mapped: 0 };
            r.alloc();
            r
        }

        fn alloc(&mut self) -> u64 {
            self.next += 1;
            self.tables.insert(self.next - 1, Vec::new());
            self.next - 1
        }

        fn leaf(&self) -> u8 {
            if self.cfg.huge_pages {
                2
            } else {
                1
            }
        }

        fn entry(&self, table: u64, idx: usize) -> Option<Pte> {
            let entries = self.tables.get(&table)?;
            Some(entries.get(idx).copied().unwrap_or(Pte::NOT_PRESENT))
        }

        fn set(&mut self, table: u64, idx: usize, pte: Pte) {
            let entries = self.tables.get_mut(&table).expect("table exists");
            if entries.len() <= idx {
                entries.resize(idx + 1, Pte::NOT_PRESENT);
            }
            entries[idx] = pte;
        }

        fn map(&mut self, vpn: Vpn, ppn: Ppn) {
            let leaf = self.leaf();
            let mut table = self.cfg.table_region_base;
            for level in (leaf + 1..=4).rev() {
                let idx = index(vpn, level);
                let entry = self.entry(table, idx).expect("table exists");
                table = if entry.is_present() {
                    entry.ppn().raw()
                } else {
                    let t = self.alloc();
                    self.set(table, idx, Pte::new(Ppn::new(t), PteFlags::present_rw()));
                    t
                };
            }
            let idx = index(vpn, leaf);
            if !self.entry(table, idx).expect("table exists").is_present() {
                self.mapped += 1;
            }
            let flags = PteFlags::present_rw();
            let flags = if leaf == 2 {
                PteFlags::new(flags.low() | PteFlags::HUGE, flags.high())
            } else {
                flags
            };
            self.set(table, idx, Pte::new(ppn, flags));
        }

        fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
            let entries = self.tables.get(&block.ppn().raw())?;
            let base = block.index_in_page() * PTES_PER_PTB;
            let mut ptes = [Pte::NOT_PRESENT; PTES_PER_PTB];
            for (i, e) in ptes.iter_mut().enumerate() {
                *e = entries.get(base + i).copied().unwrap_or(Pte::NOT_PRESENT);
            }
            Some(PageTableBlock::new(ptes))
        }

        fn walk(&self, vpn: Vpn) -> Option<Vec<(WalkStep, PageTableBlock)>> {
            let mut table = self.cfg.table_region_base;
            let mut out = Vec::new();
            for level in (self.leaf()..=4).rev() {
                let idx = index(vpn, level);
                let block = Ppn::new(table).block(idx / PTES_PER_PTB);
                let ptb = self.ptb_at(block)?;
                let next_ppn = ptb.entry(idx % PTES_PER_PTB);
                if !next_ppn.is_present() {
                    return None;
                }
                let slot = idx % PTES_PER_PTB;
                out.push((
                    WalkStep { level, ptb_block: block, slot, next_ppn: next_ppn.ppn() },
                    ptb,
                ));
                table = next_ppn.ppn().raw();
            }
            Some(out)
        }

        fn ptbs_at_level(&self, want: u8) -> Vec<(BlockAddr, PageTableBlock)> {
            let mut out = Vec::new();
            let mut stack = vec![(self.cfg.table_region_base, 4u8)];
            while let Some((table, cur)) = stack.pop() {
                if !self.tables.contains_key(&table) {
                    continue;
                }
                if cur == want {
                    for p in 0..BLOCKS_PER_PAGE {
                        let block = Ppn::new(table).block(p);
                        let ptb = self.ptb_at(block).expect("table page");
                        if ptb.entries().iter().any(|e| e.is_present()) {
                            out.push((block, ptb));
                        }
                    }
                } else if cur > self.leaf() {
                    // Push children in reverse so they pop in entry order.
                    for idx in (0..ENTRIES_PER_TABLE as usize).rev() {
                        let e = self.entry(table, idx).expect("table page");
                        if e.is_present() {
                            stack.push((e.ppn().raw(), cur - 1));
                        }
                    }
                }
            }
            out
        }
    }

    /// Checks every observable of `pt` against the oracle: counts, the
    /// table range, every table block, the Fig. 6 corpus, the PTB stream,
    /// and the walk and translation of each VPN in `vpns`.
    fn assert_matches(pt: &PageTable, r: &Reference, vpns: impl IntoIterator<Item = u64>) {
        let ctx = format!("covered {} huge {}", pt.identity.covered, r.cfg.huge_pages);
        assert_eq!(pt.root().raw(), r.cfg.table_region_base, "{ctx}");
        assert_eq!(pt.table_page_count() as u64, r.next - r.cfg.table_region_base, "{ctx}");
        assert_eq!(pt.mapped_pages(), r.mapped, "{ctx}");
        let (base, end) = (r.cfg.table_region_base, r.next);
        for (ppn, is_table) in [(base - 1, false), (base, true), (end - 1, true), (end, false)] {
            assert_eq!(pt.table_ppns().contains(&ppn), is_table, "{ctx}: ppn {ppn:#x}");
        }
        let mut stream = Vec::new();
        for table in base..end {
            for p in 0..BLOCKS_PER_PAGE {
                let block = Ppn::new(table).block(p);
                let ptb = r.ptb_at(block).expect("table page");
                assert_eq!(pt.ptb_at(block), Some(ptb), "{ctx}: {block:?}");
                if ptb.entries().iter().any(|e| e.is_present()) {
                    stream.push((block, ptb));
                }
            }
        }
        assert_eq!(pt.ptb_at(Ppn::new(end).block(0)), None, "{ctx}");
        assert_eq!(pt.ptbs().collect::<Vec<_>>(), stream, "{ctx}");
        for level in 1..=4 {
            assert_eq!(pt.ptbs_at_level(level), r.ptbs_at_level(level), "{ctx}: level {level}");
        }
        let mut buf = Vec::new();
        for vpn in vpns.into_iter().map(Vpn::new) {
            let want = r.walk(vpn);
            assert_eq!(pt.walk_path_into(vpn, &mut buf), want.is_some(), "{ctx}: {vpn:?}");
            assert_eq!(buf, want.clone().unwrap_or_default(), "{ctx}: {vpn:?}");
            let translated = want.map(|path| {
                let leaf = path.last().expect("non-empty").0.next_ppn.raw();
                Ppn::new(if r.cfg.huge_pages { leaf + (vpn.raw() & 0x1ff) } else { leaf })
            });
            assert_eq!(pt.translate(vpn), translated, "{ctx}: {vpn:?}");
        }
    }

    /// Page counts straddling every PTB, table and L2-table boundary below
    /// the L3 boundary.
    const COUNTS: [u64; 11] =
        [0, 1, 7, 8, 511, 512, 513, 4096, (1 << 18) - 1, 1 << 18, (1 << 18) + 1];

    #[test]
    fn computed_identity_matches_page_by_page_map() {
        let cfg = PageTableConfig { table_region_base: 1 << 20, huge_pages: false };
        let mut r = Reference::new(cfg);
        let mut grown = PageTable::new(cfg);
        let mut mapped = 0;
        for pages in COUNTS {
            for i in mapped..pages {
                r.map(Vpn::new(i), Ppn::new(i));
                grown.map(Vpn::new(i), Ppn::new(i));
            }
            mapped = pages;
            // Every VPN up to one L1 table past the end; the grown table
            // (O(1) `map` extensions) is checked on every 61st VPN.
            let vpns = 0..pages + 600;
            assert_matches(&PageTable::identity(cfg, pages), &r, vpns.clone());
            assert_matches(&grown, &r, vpns.step_by(61));
        }
    }

    #[test]
    fn computed_huge_identity_matches_region_by_region_map() {
        let cfg = PageTableConfig { table_region_base: 1 << 30, huge_pages: true };
        let mut r = Reference::new(cfg);
        let mut grown = PageTable::new(cfg);
        let mut mapped = 0;
        // The same counts in 2 MiB regions; 2^18 regions is the huge-page
        // layout's L3 boundary.
        for regions in COUNTS {
            for region in mapped..regions {
                r.map(Vpn::new(region * 512), Ppn::new(region * 512));
                // Any VPN inside the next region extends the prefix.
                grown.map(Vpn::new(region * 512 + region % 512), Ppn::new(region * 512));
            }
            mapped = regions;
            // One VPN per region, at a varying offset, up to two past the end.
            let vpns = (0..regions + 2).map(|region| region * 512 + (region * 37) % 512);
            assert_matches(&PageTable::identity(cfg, regions * 512), &r, vpns.clone());
            assert_matches(&grown, &r, vpns.step_by(61));
        }
        // A partial last region is mapped whole.
        let pt = PageTable::identity(cfg, 3 * 512 + 1);
        assert_eq!(pt.mapped_pages(), 4);
        assert_eq!(pt.translate(Vpn::new(4 * 512 - 1)), Some(Ppn::new(4 * 512 - 1)));
    }

    #[test]
    fn l3_boundary_matches_a_table_at_a_time_replay() {
        // 2^27 pages fill L3 table 0; one more page opens L3 table 1. A
        // page-by-page oracle is too large here, but mapping only the first
        // page of each L1 table allocates the same tables in the same order.
        let cfg = PageTableConfig::for_data_pages((1 << 27) + 1, false);
        let l1_tables = (1u64 << 18) + 1;
        let mut r = Reference::new(cfg);
        for j in 0..l1_tables {
            r.map(Vpn::new(j * 512), Ppn::new(j * 512));
        }
        let pt = PageTable::identity(cfg, (1 << 27) + 1);
        assert_eq!(pt.table_page_count() as u64, r.next - cfg.table_region_base);
        assert_eq!(pt.table_page_count() as u64, 1 + 2 + 513 + l1_tables);
        // Without the last page, L3 table 1, L2 table 512 and L1 table 2^18
        // do not exist yet.
        let full = PageTable::identity(cfg, 1 << 27);
        assert_eq!(full.table_page_count(), pt.table_page_count() - 3);
        assert_eq!(full.translate(Vpn::new(1 << 27)), None);
        let mut buf = Vec::new();
        for j in 0..l1_tables {
            let vpn = Vpn::new(j * 512);
            let want = r.walk(vpn).expect("replayed page");
            assert!(pt.walk_path_into(vpn, &mut buf));
            assert_eq!(buf.len(), want.len());
            for ((step, ptb), (want_step, want_ptb)) in buf.iter().zip(&want) {
                assert_eq!(step, want_step, "vpn {j} * 512");
                if step.level > 1 {
                    assert_eq!(ptb, want_ptb, "vpn {j} * 512");
                } else {
                    // The replay mapped only slot 0 of each leaf table.
                    assert_eq!(ptb.entry(0), want_ptb.entry(0), "vpn {j} * 512");
                }
            }
        }
        // Every upper-level PTB matches; the new tables close the range.
        for level in 2..=4 {
            assert_eq!(pt.ptbs_at_level(level), r.ptbs_at_level(level), "level {level}");
        }
        let end = cfg.table_region_base + pt.table_page_count() as u64;
        let path: Vec<u64> = pt
            .walk_path(Vpn::new(1 << 27))
            .unwrap()
            .iter()
            .map(|s| s.ptb_block.ppn().raw())
            .collect();
        assert_eq!(path, [cfg.table_region_base, end - 3, end - 2, end - 1]);
        assert_eq!(pt.table_ppns().end, end);
    }

    #[test]
    fn identity_of_two_billion_pages_builds_and_walks_at_once() {
        let start = Instant::now();
        let pages = 1u64 << 31;
        let pt = PageTable::identity(PageTableConfig::for_data_pages(pages, false), pages);
        // Root, one L3 table per 2^27 pages, one L2 per 2^18, one L1 per 512.
        assert_eq!(pt.table_page_count() as u64, 1 + 16 + (1 << 13) + (1 << 22));
        assert_eq!(pt.mapped_pages(), pages);
        let mut walker_buf = Vec::new();
        for k in 0..4096u64 {
            let vpn = (k * 0x9E37_79B9) % pages;
            assert_eq!(pt.translate(Vpn::new(vpn)), Some(Ppn::new(vpn)));
            assert!(pt.walk_path_into(Vpn::new(vpn), &mut walker_buf));
            let table = pt.table_ppns();
            assert!(walker_buf.iter().all(|(s, _)| table.contains(&s.ptb_block.ppn().raw())));
        }
        assert_eq!(pt.translate(Vpn::new(pages - 1)), Some(Ppn::new(pages - 1)));
        assert_eq!(pt.translate(Vpn::new(pages)), None);
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
    }
}
