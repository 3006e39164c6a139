//! A software-built 4-level x86-64-style page table living in simulated
//! physical memory.
//!
//! Each level is a 4 KiB page of 512 PTEs (64 PTBs), table pages are
//! allocated from a dedicated physical range, and a walk for a VPN touches
//! one PTB per level (paper §II: "each step in a page walk fetches a 64 B
//! block of eight PTEs"). The PTB *blocks* this module hands out are
//! exactly what TMCC compresses and embeds CTEs into.
//!
//! # A computed identity prefix plus an overlay
//!
//! The simulator identity-maps its data pages, and mapping pages `0, 1,
//! 2, …` in order allocates table pages in a fixed order: depth-first
//! preorder, each table right after the subtrees of its earlier siblings.
//! Every table page of such an identity prefix, and every PTE in it, is
//! therefore a pure function of its position, and each PTB is one
//! arithmetic progression of PPNs. The table stores only the prefix
//! length: building it is O(1) ([`PageTable::identity`], or
//! [`PageTable::map`] of the next identity page), it takes no host memory,
//! and a walk through it reads no hash map.
//!
//! Any other edit — a `map` of another pair, [`PageTable::map_with_flags`],
//! [`PageTable::write_ptb`] — freezes the prefix for good. The edit copies
//! the table pages it writes into an overlay of materialized pages, which
//! also holds every table page allocated after the freeze, and reads
//! prefer the overlay. It is the contract of the workload crate's
//! `PageStore` (generate on read, store only what diverged) applied to
//! translation state.

use std::collections::hash_map::Entry;
use std::ops::Range;
use tmcc_types::addr::{BlockAddr, Ppn, Vpn, BLOCKS_PER_PAGE};
use tmcc_types::fxhash::FxHashMap;
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

/// Leaf PTE flags: `flags`, plus the page-size bit for a 2 MiB leaf.
fn leaf_flags(leaf: u8, flags: PteFlags) -> PteFlags {
    if leaf == 2 {
        PteFlags::new(flags.low() | PteFlags::HUGE, flags.high())
    } else {
        flags
    }
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

    /// Entry `slot` of table `index` at `level`.
    fn entry(self, level: u8, index: u64, slot: usize) -> Pte {
        self.ptb(level, index, slot / PTES_PER_PTB).entry(slot % PTES_PER_PTB)
    }

    /// Pushes the steps of `vpn`'s walk from level `top` down to the leaf
    /// onto `out`; `false` if the prefix does not map it. Each level
    /// builds only the PTB it fetches.
    fn walk(self, vpn: Vpn, top: u8, out: &mut Vec<(WalkStep, PageTableBlock)>) -> bool {
        // Like the stored walk, ignore VPN bits above the four levels.
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
}

/// Where a table page's entries come from.
#[derive(Clone, Copy)]
enum TablePage<'a> {
    /// Materialized in the overlay.
    Stored(&'a [Pte]),
    /// Computed: table `index` at `level` of the identity prefix.
    Computed { level: u8, index: u64 },
}

impl TablePage<'_> {
    fn entry(self, identity: Identity, slot: usize) -> Pte {
        match self {
            TablePage::Stored(entries) => entries[slot],
            TablePage::Computed { level, index } => identity.entry(level, index, slot),
        }
    }

    fn ptb(self, identity: Identity, ptb: usize) -> PageTableBlock {
        match self {
            TablePage::Stored(entries) => {
                let mut ptes = [Pte::NOT_PRESENT; PTES_PER_PTB];
                ptes.copy_from_slice(&entries[ptb * PTES_PER_PTB..(ptb + 1) * PTES_PER_PTB]);
                PageTableBlock::new(ptes)
            }
            TablePage::Computed { level, index } => identity.ptb(level, index, ptb),
        }
    }
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
///
/// // An identity-mapped footprint costs O(1) to build, at any size.
/// let big = PageTable::identity(PageTableConfig::for_data_pages(1 << 30, false), 1 << 30);
/// assert_eq!(big.translate(Vpn::new(123_456_789)), Some(Ppn::new(123_456_789)));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    cfg: PageTableConfig,
    /// The computed identity prefix; frozen once `overlay` holds a page.
    identity: Identity,
    /// Materialized table pages by PPN, 512 PTEs each: the computed pages
    /// an edit wrote, and every page allocated after the freeze. Keyed
    /// with the cheap vendored Fx hasher; nothing iterates the map, so
    /// the hasher cannot perturb observable ordering.
    overlay: FxHashMap<u64, Vec<Pte>>,
    next_table_ppn: u64,
    mapped_pages: u64,
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
        let mut pt = Self {
            cfg,
            identity: Identity { base: cfg.table_region_base, leaf, covered: 0 },
            overlay: FxHashMap::default(),
            next_table_ppn: cfg.table_region_base,
            mapped_pages: 0,
        };
        pt.set_identity(covered);
        pt
    }

    /// Sets the identity prefix to VPNs `0..covered` (before any freeze).
    fn set_identity(&mut self, covered: u64) {
        self.identity.covered = covered;
        self.mapped_pages = self.identity.count(self.identity.leaf - 1);
        self.next_table_ppn = self.cfg.table_region_base + self.identity.table_count();
    }

    fn alloc_table(&mut self) -> u64 {
        let ppn = self.next_table_ppn;
        self.next_table_ppn += 1;
        self.overlay.insert(ppn, vec![Pte::NOT_PRESENT; ENTRIES_PER_TABLE as usize]);
        ppn
    }

    /// The table page at `ppn`, if there is one.
    fn table(&self, ppn: u64) -> Option<TablePage<'_>> {
        if let Some(entries) = self.overlay.get(&ppn) {
            return Some(TablePage::Stored(entries));
        }
        let offset = ppn.checked_sub(self.cfg.table_region_base)?;
        let (level, index) = self.identity.table_at(offset)?;
        Some(TablePage::Computed { level, index })
    }

    /// The entries of the table page at `ppn` for writing, copied into the
    /// overlay on the first write.
    fn table_mut(&mut self, ppn: u64) -> Option<&mut Vec<Pte>> {
        let identity = self.identity;
        match self.overlay.entry(ppn) {
            Entry::Occupied(stored) => Some(stored.into_mut()),
            Entry::Vacant(slot) => {
                let (level, index) = identity.table_at(ppn.checked_sub(identity.base)?)?;
                let entries = (0..ENTRIES_PER_TABLE as usize)
                    .map(|i| identity.entry(level, index, i))
                    .collect();
                Some(slot.insert(entries))
            }
        }
    }

    /// The leaf level for this configuration (1, or 2 for huge pages).
    pub fn leaf_level(&self) -> u8 {
        self.identity.leaf
    }

    /// Index of `vpn` within the table at `level`.
    fn index(vpn: Vpn, level: u8) -> usize {
        ((vpn.raw() >> (9 * (level as u64 - 1))) & (ENTRIES_PER_TABLE - 1)) as usize
    }

    /// Maps `vpn` → `ppn` with default (present, writable, accessed) flags.
    /// The next identity page (2 MiB region) extends the computed prefix
    /// in O(1); any other pair freezes it, as
    /// [`map_with_flags`](Self::map_with_flags) does.
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn) {
        let unit = 1 << (9 * u32::from(self.leaf_level() - 1));
        let next = self.identity.covered;
        let extends = vpn.raw() / unit == next / unit && ppn.raw() == next;
        if self.overlay.is_empty() && next < VIRTUAL_PAGES && extends {
            self.set_identity(next + unit);
        } else {
            self.map_with_flags(vpn, ppn, PteFlags::present_rw());
        }
    }

    /// Maps `vpn` → `ppn` with explicit leaf flags. With huge pages, `vpn`
    /// is interpreted as a 4 KiB VPN whose covering 2 MiB region is mapped
    /// (offset bits pass through). Freezes the identity prefix.
    ///
    /// # Panics
    ///
    /// Panics if an upper-level entry on the way points outside the table
    /// pages (only a [`write_ptb`](Self::write_ptb) can make one).
    pub fn map_with_flags(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
        let leaf = self.leaf_level();
        let mut table = self.root().raw();
        for level in (leaf + 1..=4).rev() {
            let idx = Self::index(vpn, level);
            let entry = self.table(table).expect("table exists").entry(self.identity, idx);
            table = if entry.is_present() {
                entry.ppn().raw()
            } else {
                let child = self.alloc_table();
                self.table_mut(table).expect("table exists")[idx] =
                    Pte::new(Ppn::new(child), PteFlags::present_rw());
                child
            };
        }
        let slot = &mut self.table_mut(table).expect("table exists")[Self::index(vpn, leaf)];
        let fresh = !slot.is_present();
        *slot = Pte::new(ppn, leaf_flags(leaf, flags));
        self.mapped_pages += u64::from(fresh);
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
    /// Each step builds only the one PTB it fetches. Through the computed
    /// prefix that is a few shifts and adds per level, with no table
    /// lookup; only a table with an overlay looks pages up by PPN.
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
        if self.overlay.is_empty() {
            return self.identity.walk(vpn, top, out);
        }
        let mut table = self.root();
        for level in (self.leaf_level()..=4).rev() {
            let Some(page) = self.table(table.raw()) else {
                out.clear();
                return false;
            };
            let idx = Self::index(vpn, level);
            let ptb = page.ptb(self.identity, idx / PTES_PER_PTB);
            let entry = ptb.entry(idx % PTES_PER_PTB);
            if !entry.is_present() {
                out.clear();
                return false;
            }
            if level <= top {
                let step = WalkStep {
                    level,
                    ptb_block: table.block(idx / PTES_PER_PTB),
                    slot: idx % PTES_PER_PTB,
                    next_ppn: entry.ppn(),
                };
                out.push((step, ptb));
            }
            table = entry.ppn();
        }
        true
    }

    /// The 64 B PTB at a physical block address, if it belongs to a table
    /// page — what the cache hierarchy returns to the walker and what TMCC
    /// compresses.
    pub fn ptb_at(&self, block: BlockAddr) -> Option<PageTableBlock> {
        Some(self.table(block.ppn().raw())?.ptb(self.identity, block.index_in_page()))
    }

    /// Writes a whole PTB back (OS edits through the cache hierarchy).
    /// Freezes the identity prefix.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not within a table page.
    pub fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
        let base = block.index_in_page() * PTES_PER_PTB;
        let table = self.table_mut(block.ppn().raw()).expect("block belongs to a table page");
        table[base..base + PTES_PER_PTB].copy_from_slice(ptb.entries());
    }

    /// Iterates over every PTB of every table page at `level` (4 = root) —
    /// the corpus for the paper's Fig. 6 status-bit survey.
    pub fn ptbs_at_level(&self, level: u8) -> Vec<(BlockAddr, PageTableBlock)> {
        let mut out = Vec::new();
        self.collect_ptbs(self.root(), 4, level, &mut out);
        out
    }

    fn collect_ptbs(
        &self,
        table: Ppn,
        cur: u8,
        want: u8,
        out: &mut Vec<(BlockAddr, PageTableBlock)>,
    ) {
        let Some(page) = self.table(table.raw()) else {
            return;
        };
        if cur == want {
            for ptb_idx in 0..BLOCKS_PER_PAGE {
                let ptb = page.ptb(self.identity, ptb_idx);
                if ptb.entries().iter().any(|e| e.is_present()) {
                    out.push((table.block(ptb_idx), ptb));
                }
            }
            return;
        }
        if cur > self.leaf_level() {
            for idx in 0..ENTRIES_PER_TABLE as usize {
                let entry = page.entry(self.identity, idx);
                if entry.is_present() {
                    self.collect_ptbs(entry.ppn(), cur - 1, want, out);
                }
            }
        }
    }

    /// Every PTB that holds a present entry, table page by table page in
    /// PPN order, generated as the iterator advances — what a scheme warms
    /// per-PTB state from without collecting the table.
    pub fn ptbs(&self) -> impl Iterator<Item = (BlockAddr, PageTableBlock)> + '_ {
        self.table_ppns().flat_map(move |ppn| {
            let page = self.table(ppn);
            (0..BLOCKS_PER_PAGE).filter_map(move |ptb_idx| {
                let ptb = page?.ptb(self.identity, ptb_idx);
                let present = ptb.entries().iter().any(|e| e.is_present());
                present.then(|| (Ppn::new(ppn).block(ptb_idx), ptb))
            })
        })
    }

    /// Whether a physical page is a page-table page.
    pub fn is_table_page(&self, ppn: Ppn) -> bool {
        self.table_ppns().contains(&ppn.raw())
    }

    /// Number of 4 KiB table pages allocated.
    pub fn table_page_count(&self) -> usize {
        (self.next_table_ppn - self.cfg.table_region_base) as usize
    }

    /// The PPNs of every table page: table pages are allocated
    /// sequentially from [`table_region_base`](Self::table_region_base),
    /// so they form one dense range.
    pub fn table_ppns(&self) -> Range<u64> {
        self.cfg.table_region_base..self.next_table_ppn
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The root table's PPN (CR3).
    pub fn root(&self) -> Ppn {
        Ppn::new(self.cfg.table_region_base)
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
    use std::time::{Duration, Instant};

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

    /// Today's `map` algorithm over a hash map of table pages — the oracle
    /// the computed table is checked against. A table page stores its
    /// entries only up to the last one written, so a replay that touches
    /// one page per leaf table stays small.
    struct Reference {
        cfg: PageTableConfig,
        tables: FxHashMap<u64, Vec<Pte>>,
        next: u64,
        mapped: u64,
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

        fn map_with_flags(&mut self, vpn: Vpn, ppn: Ppn, flags: PteFlags) {
            let leaf = self.leaf();
            let mut table = self.cfg.table_region_base;
            for level in (leaf + 1..=4).rev() {
                let idx = PageTable::index(vpn, level);
                let entry = self.entry(table, idx).expect("table exists");
                table = if entry.is_present() {
                    entry.ppn().raw()
                } else {
                    let t = self.alloc();
                    self.set(table, idx, Pte::new(Ppn::new(t), PteFlags::present_rw()));
                    t
                };
            }
            let idx = PageTable::index(vpn, leaf);
            if !self.entry(table, idx).expect("table exists").is_present() {
                self.mapped += 1;
            }
            self.set(table, idx, Pte::new(ppn, leaf_flags(leaf, flags)));
        }

        fn map(&mut self, vpn: Vpn, ppn: Ppn) {
            self.map_with_flags(vpn, ppn, PteFlags::present_rw());
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

        fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
            let base = block.index_in_page() * PTES_PER_PTB;
            for (i, &e) in ptb.entries().iter().enumerate() {
                self.set(block.ppn().raw(), base + i, e);
            }
        }

        fn walk(&self, vpn: Vpn) -> Option<Vec<(WalkStep, PageTableBlock)>> {
            let mut table = self.cfg.table_region_base;
            let mut out = Vec::new();
            for level in (self.leaf()..=4).rev() {
                let idx = PageTable::index(vpn, level);
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
            assert_eq!(pt.is_table_page(Ppn::new(ppn)), is_table, "{ctx}: ppn {ppn:#x}");
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
            assert!(grown.overlay.is_empty(), "identity maps never materialize pages");
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
            assert!(grown.overlay.is_empty());
        }
        // A partial last region is mapped whole.
        let pt = PageTable::identity(cfg, 3 * 512 + 1);
        assert_eq!(pt.mapped_pages(), 4);
        assert_eq!(pt.translate(Vpn::new(4 * 512 - 1)), Some(Ppn::new(4 * 512 - 1)));
    }

    /// Applies every edit to both the table and the oracle.
    struct Pair {
        pt: PageTable,
        r: Reference,
    }

    impl Pair {
        fn identity(cfg: PageTableConfig, pages: u64) -> Self {
            let mut r = Reference::new(cfg);
            let step = if cfg.huge_pages { 512 } else { 1 };
            for i in (0..pages).step_by(step) {
                r.map(Vpn::new(i), Ppn::new(i));
            }
            Self { pt: PageTable::identity(cfg, pages), r }
        }

        fn map(&mut self, vpn: u64, ppn: u64) {
            self.pt.map(Vpn::new(vpn), Ppn::new(ppn));
            self.r.map(Vpn::new(vpn), Ppn::new(ppn));
        }

        fn map_with_flags(&mut self, vpn: u64, ppn: u64, flags: PteFlags) {
            self.pt.map_with_flags(Vpn::new(vpn), Ppn::new(ppn), flags);
            self.r.map_with_flags(Vpn::new(vpn), Ppn::new(ppn), flags);
        }

        fn write_ptb(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
            self.pt.write_ptb(block, ptb);
            self.r.write_ptb(block, ptb);
        }

        fn check(&self, vpns: impl IntoIterator<Item = u64>) {
            assert_matches(&self.pt, &self.r, vpns);
        }
    }

    #[test]
    fn flag_edit_freezes_the_prefix_and_materializes_one_page() {
        let cfg = PageTableConfig::default();
        let mut p = Pair::identity(cfg, 1000);
        let read_only = PteFlags::new(PteFlags::PRESENT, 0);
        p.map_with_flags(5, 5, read_only);
        assert_eq!(p.pt.overlay.len(), 1, "only the leaf table is copied");
        p.check(0..1600);
        // Identity maps after the freeze go through the overlay.
        for i in 1000..1600 {
            p.map(i, i);
        }
        assert_eq!(p.pt.identity.covered, 1000, "the prefix stays frozen");
        p.check(0..2200);
        // Re-mapping a prefix page to itself writes through the overlay.
        p.map(700, 700);
        p.check(600..800);
    }

    #[test]
    fn ptb_writes_and_foreign_maps_freeze_the_prefix() {
        let cfg = PageTableConfig::default();
        // A leaf PTB rewrite, then identity maps across new L1 tables.
        let mut p = Pair::identity(cfg, 700);
        let leaf = *p.pt.walk_path(Vpn::new(640)).unwrap().last().unwrap();
        let mut ptb = p.pt.ptb_at(leaf.ptb_block).unwrap();
        ptb.set_entry(1, Pte::new(Ppn::new(4242), PteFlags::present_rw()));
        ptb.set_entry(7, Pte::NOT_PRESENT);
        p.write_ptb(leaf.ptb_block, &ptb);
        for i in 700..1300 {
            p.map(i, i);
        }
        p.check(0..1900);
        // An upper-level rewrite that changes nothing still freezes.
        let mut q = Pair::identity(cfg, 513);
        let root = q.pt.root().block(0);
        let same = q.pt.ptb_at(root).unwrap();
        q.write_ptb(root, &same);
        for i in 513..1100 {
            q.map(i, i);
        }
        q.check(0..1200);
        // The next VPN mapped elsewhere, identity maps after it, and a
        // distant VPN that needs fresh L3..L1 tables.
        let mut s = Pair::identity(cfg, 600);
        s.map(600, 99_999);
        for i in 601..1200 {
            s.map(i, i);
        }
        s.map(1 << 30, 7);
        s.check((0..1300).chain([1 << 30, (1 << 30) + 1]));
        // A first map that is not identity freezes an empty prefix.
        let mut e = Pair::identity(cfg, 0);
        e.map(0x1234, 77);
        e.map(0, 0);
        e.map(1, 1);
        e.check((0..600).chain([0x1234]));
    }

    #[test]
    fn huge_page_edits_freeze_the_prefix() {
        let cfg = PageTableConfig { table_region_base: 1 << 26, huge_pages: true };
        let mut p = Pair::identity(cfg, 3 * 512);
        p.map_with_flags(512, 512, PteFlags::new(PteFlags::PRESENT, 0));
        for region in 3..600 {
            p.map(region * 512, region * 512);
        }
        p.check((0..610).map(|region| region * 512 + 3));
        // A region mapped to another frame is not an identity extension.
        let mut q = Pair::identity(cfg, 512);
        q.map(512, 7 * 512);
        q.map(1024, 1024);
        q.check((0..4).map(|region| region * 512 + 9));
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
        assert!(pt.is_table_page(Ppn::new(end - 1)) && !pt.is_table_page(Ppn::new(end)));
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
            assert!(walker_buf.iter().all(|(s, _)| pt.is_table_page(s.ptb_block.ppn())));
        }
        assert_eq!(pt.translate(Vpn::new(pages - 1)), Some(Ppn::new(pages - 1)));
        assert_eq!(pt.translate(Vpn::new(pages)), None);
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
    }
}
