//! Packed per-page metadata for the two-level schemes.
//!
//! The simulator's physical page numbers are dense by construction: data
//! pages are identity-mapped from 0, and page-table pages are allocated
//! sequentially from the table-region base (`PageTable::table_region_base`,
//! 2^26 by default). [`PageMetaStore`] exploits that layout to key
//! per-page state by a compact [`PageId`] handle derived *arithmetically*
//! from the PPN — one comparison and one subtraction — so the steady-state
//! access path indexes two dense regions (data pages keyed by PPN, table
//! pages keyed by PPN − `table_base`) instead of hashing on every page
//! touch. The scheme derives a handle once per request and reuses it for
//! every lookup the request needs.
//!
//! At datacenter-scale footprints per-page state dominates host memory, so
//! the store packs it into one 64-bit word per page plus a residency bit
//! and a 32-bit dirty epoch (~12.2 B/page):
//!
//! ```text
//! bit  0      level (0 = ML1, 1 = ML2)
//! bit  1      pinned (page-table pages never migrate)
//! bit  2      incompressible (sticky across migrations, §IV-B)
//! bits 3..16  ML2: compressed bytes (≤ 4096)
//! bits 16..20 ML2: size-class index
//! bits 20..27 ML2: slot within the super-chunk (< 128)
//! bits 32..64 ML1: frame number / ML2: super-chunk id
//! ```
//!
//! The word holds the page-level CTE of paper Fig. 13: the level, the
//! `isIncompressible` bit, and the placement the CTE's frame derives from
//! (the ML1 frame itself, or the ML2 sub-chunk whose address names it), so
//! the scheme keeps no separate CTE copy. Residency is tracked by a
//! succinct [`BitVec`].

use crate::free_list::SubChunk;
use tmcc_types::bitvec::BitVec;

/// Compact handle of a page's slot in a [`PageMetaStore`]: a region bit
/// (data vs. table) plus the index within the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageId(u32);

/// Region bit of a [`PageId`]: set for table-region pages.
const TABLE_BIT: u32 = 1 << 31;

/// Pages each region can index: handles carry a 31-bit index, so data
/// PPNs (and table-region offsets) must stay below this.
pub(crate) const MAX_REGION_PAGES: u64 = TABLE_BIT as u64;

impl PageId {
    /// The region-local index.
    #[inline]
    fn index(self) -> usize {
        (self.0 & !TABLE_BIT) as usize
    }

    /// Whether the handle points into the table region.
    #[inline]
    fn is_table(self) -> bool {
        self.0 & TABLE_BIT != 0
    }
}

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uncompressed, in a 4 KiB ML1 frame.
    Ml1 {
        /// The backing frame number.
        frame: u32,
    },
    /// Deflate-compressed, in an ML2 sub-chunk.
    Ml2 {
        /// The backing sub-chunk.
        sub: SubChunk,
        /// Compressed size actually stored, bytes.
        comp_bytes: u32,
    },
}

/// Decoded per-page state, returned by value — the packed word is the
/// single source of truth; mutate through the store's setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Where the page's bytes live.
    pub place: Placement,
    /// Content epoch, bumped when a writeback re-draws compressibility.
    pub dirty_epoch: u32,
    /// Page-table pages are pinned in ML1 and never migrate.
    pub pinned: bool,
    /// Flagged when an eviction found the page unfit for any ML2 class;
    /// sticky even across later migrations.
    pub incompressible: bool,
}

const LEVEL_BIT: u64 = 1 << 0;
const PINNED_BIT: u64 = 1 << 1;
const INCOMPRESSIBLE_BIT: u64 = 1 << 2;
const COMP_SHIFT: u32 = 3;
const COMP_MASK: u64 = (1 << 13) - 1;
const CLASS_SHIFT: u32 = 16;
const CLASS_MASK: u64 = (1 << 4) - 1;
const SLOT_SHIFT: u32 = 20;
const SLOT_MASK: u64 = (1 << 7) - 1;
const HI_SHIFT: u32 = 32;

/// Packs `info`'s placement and flags into the per-page word (the dirty
/// epoch lives in its own sidecar array).
fn encode(info: &PageInfo) -> u64 {
    let mut w = 0u64;
    if info.pinned {
        w |= PINNED_BIT;
    }
    if info.incompressible {
        w |= INCOMPRESSIBLE_BIT;
    }
    match info.place {
        Placement::Ml1 { frame } => w |= (frame as u64) << HI_SHIFT,
        Placement::Ml2 { sub, comp_bytes } => {
            debug_assert!(comp_bytes as u64 <= COMP_MASK, "comp_bytes {comp_bytes} overflows");
            debug_assert!(sub.class as u64 <= CLASS_MASK, "class {} overflows", sub.class);
            debug_assert!(sub.slot as u64 <= SLOT_MASK, "slot {} overflows", sub.slot);
            w |= LEVEL_BIT
                | ((comp_bytes as u64 & COMP_MASK) << COMP_SHIFT)
                | ((sub.class as u64 & CLASS_MASK) << CLASS_SHIFT)
                | ((sub.slot as u64 & SLOT_MASK) << SLOT_SHIFT)
                | ((sub.super_id as u64) << HI_SHIFT);
        }
    }
    w
}

/// Inverse of [`encode`].
fn decode(w: u64, dirty_epoch: u32) -> PageInfo {
    let place = if w & LEVEL_BIT == 0 {
        Placement::Ml1 { frame: (w >> HI_SHIFT) as u32 }
    } else {
        Placement::Ml2 {
            sub: SubChunk {
                class: (w >> CLASS_SHIFT & CLASS_MASK) as usize,
                super_id: (w >> HI_SHIFT) as u32,
                slot: (w >> SLOT_SHIFT & SLOT_MASK) as u8,
            },
            comp_bytes: (w >> COMP_SHIFT & COMP_MASK) as u32,
        }
    };
    PageInfo {
        place,
        dirty_epoch,
        pinned: w & PINNED_BIT != 0,
        incompressible: w & INCOMPRESSIBLE_BIT != 0,
    }
}

/// One dense region: residency bitmap plus parallel packed-word and
/// dirty-epoch arrays.
#[derive(Debug, Clone)]
struct Region {
    present: BitVec,
    words: Vec<u64>,
    epochs: Vec<u32>,
}

impl Region {
    fn new() -> Self {
        Self { present: BitVec::new(), words: Vec::new(), epochs: Vec::new() }
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.words.len() {
            self.words.resize(idx + 1, 0);
            self.epochs.resize(idx + 1, 0);
        }
        self.present.grow(idx + 1);
    }

    fn get(&self, idx: usize) -> Option<PageInfo> {
        (idx < self.present.len() && self.present.get(idx))
            .then(|| decode(self.words[idx], self.epochs[idx]))
    }

    fn heap_bytes(&self) -> usize {
        self.present.heap_bytes()
            + self.words.capacity() * std::mem::size_of::<u64>()
            + self.epochs.capacity() * std::mem::size_of::<u32>()
    }
}

/// Packed per-page state keyed by dense PPN, split into the two dense
/// regions of the simulator's physical layout.
///
/// # Examples
///
/// ```
/// use tmcc::page_meta::{PageInfo, PageMetaStore, Placement};
///
/// let mut pages = PageMetaStore::new(1 << 26);
/// pages.insert(
///     7,
///     PageInfo {
///         place: Placement::Ml1 { frame: 42 },
///         dirty_epoch: 0,
///         pinned: false,
///         incompressible: false,
///     },
/// );
/// let id = pages.id_of(7).unwrap();
/// assert_eq!(pages.get_id(id).unwrap().place, Placement::Ml1 { frame: 42 });
/// ```
#[derive(Debug, Clone)]
pub struct PageMetaStore {
    /// Data-page region: index = PPN (PPNs below `table_base`).
    data: Region,
    /// Table-page region: index = PPN − `table_base`.
    table: Region,
    /// First PPN of the table region.
    table_base: u64,
    len: usize,
}

impl PageMetaStore {
    /// Creates an empty store for a physical layout whose table pages
    /// start at `table_base`.
    pub fn new(table_base: u64) -> Self {
        Self { data: Region::new(), table: Region::new(), table_base, len: 0 }
    }

    /// Derives the compact handle for `ppn` — pure arithmetic, no
    /// hashing. `None` when the PPN cannot be an index (outside both
    /// dense regions' representable range).
    #[inline]
    pub fn id_of(&self, ppn: u64) -> Option<PageId> {
        if ppn < self.table_base {
            (ppn < TABLE_BIT as u64).then_some(PageId(ppn as u32))
        } else {
            let off = ppn - self.table_base;
            (off < TABLE_BIT as u64).then_some(PageId(off as u32 | TABLE_BIT))
        }
    }

    #[inline]
    fn region(&self, id: PageId) -> &Region {
        if id.is_table() {
            &self.table
        } else {
            &self.data
        }
    }

    #[inline]
    fn region_mut(&mut self, id: PageId) -> &mut Region {
        if id.is_table() {
            &mut self.table
        } else {
            &mut self.data
        }
    }

    /// Number of pages with state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The decoded state of the page behind a handle.
    #[inline]
    pub fn get_id(&self, id: PageId) -> Option<PageInfo> {
        self.region(id).get(id.index())
    }

    /// The decoded state of page `ppn`.
    #[inline]
    pub fn get(&self, ppn: u64) -> Option<PageInfo> {
        self.get_id(self.id_of(ppn)?)
    }

    /// Inserts (or replaces) state for page `ppn`, allocating its slot on
    /// first touch. Returns `true` when the page was previously absent.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` lies outside both dense regions.
    pub fn insert(&mut self, ppn: u64, info: PageInfo) -> bool {
        let id = self
            .id_of(ppn)
            .unwrap_or_else(|| panic!("page {ppn:#x} outside the store's dense regions"));
        let idx = id.index();
        let region = self.region_mut(id);
        region.ensure(idx);
        region.words[idx] = encode(&info);
        region.epochs[idx] = info.dirty_epoch;
        let was_absent = region.present.set(idx);
        if was_absent {
            self.len += 1;
        }
        was_absent
    }

    /// Re-homes the page behind `id`, preserving its flags and epoch.
    /// Returns `false` when no such page has state.
    #[inline]
    pub fn set_place(&mut self, id: PageId, place: Placement) -> bool {
        let idx = id.index();
        let region = self.region_mut(id);
        if idx >= region.present.len() || !region.present.get(idx) {
            return false;
        }
        let mut info = decode(region.words[idx], 0);
        info.place = place;
        region.words[idx] = encode(&info);
        true
    }

    /// Sets or clears the sticky incompressible flag. Returns `false`
    /// when no such page has state.
    #[inline]
    pub fn set_incompressible(&mut self, id: PageId, flag: bool) -> bool {
        let idx = id.index();
        let region = self.region_mut(id);
        if idx >= region.present.len() || !region.present.get(idx) {
            return false;
        }
        if flag {
            region.words[idx] |= INCOMPRESSIBLE_BIT;
        } else {
            region.words[idx] &= !INCOMPRESSIBLE_BIT;
        }
        true
    }

    /// Advances the page's dirty epoch by one. Returns `false` when no
    /// such page has state.
    #[inline]
    pub fn bump_dirty_epoch(&mut self, id: PageId) -> bool {
        let idx = id.index();
        let region = self.region_mut(id);
        if idx >= region.present.len() || !region.present.get(idx) {
            return false;
        }
        region.epochs[idx] += 1;
        true
    }

    /// Iterates `(ppn, state)` pairs: the data region in PPN order, then
    /// the table region.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageInfo)> + '_ {
        let base = self.table_base;
        self.data
            .present
            .iter_ones()
            .map(move |i| (i as u64, decode(self.data.words[i], self.data.epochs[i])))
            .chain(
                self.table.present.iter_ones().map(move |i| {
                    (base + i as u64, decode(self.table.words[i], self.table.epochs[i]))
                }),
            )
    }

    /// Host heap bytes owned by the store (capacity, not length) — the
    /// footprint experiments report this per simulated GB.
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes() + self.table.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 1 << 26;

    fn ml1(frame: u32) -> PageInfo {
        PageInfo {
            place: Placement::Ml1 { frame },
            dirty_epoch: 0,
            pinned: false,
            incompressible: false,
        }
    }

    #[test]
    fn insert_get_both_regions() {
        let mut s = PageMetaStore::new(BASE);
        assert!(s.insert(5, ml1(50)));
        assert!(s.insert(BASE + 3, PageInfo { pinned: true, ..ml1(33) }));
        assert_eq!(s.get(5).unwrap().place, Placement::Ml1 { frame: 50 });
        assert!(s.get(BASE + 3).unwrap().pinned);
        assert!(s.get(6).is_none());
        assert!(s.get(BASE + 4).is_none());
        assert_eq!(s.len(), 2);
        assert!(!s.insert(5, ml1(51)), "replace counts once");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(5).unwrap().place, Placement::Ml1 { frame: 51 });
    }

    #[test]
    fn ids_round_trip_and_replace_counts_once() {
        let mut s = PageMetaStore::new(BASE);
        assert!(s.insert(7, ml1(1)));
        assert!(!s.insert(7, ml1(2)));
        assert_eq!(s.len(), 1);
        let id = s.id_of(7).unwrap();
        assert_eq!(s.get_id(id).unwrap().place, Placement::Ml1 { frame: 2 });
        let tid = s.id_of(BASE).unwrap();
        assert_ne!(id, tid);
        assert_eq!(s.get_id(tid), None, "table slot untouched");
    }

    #[test]
    fn packed_word_roundtrips_extremes() {
        let mut s = PageMetaStore::new(BASE);
        let info = PageInfo {
            place: Placement::Ml2 {
                sub: SubChunk { class: 10, super_id: u32::MAX, slot: 127 },
                comp_bytes: 4096,
            },
            dirty_epoch: 77,
            pinned: true,
            incompressible: true,
        };
        s.insert(0, info);
        assert_eq!(s.get(0).unwrap(), info);
        let ml1_max = PageInfo {
            place: Placement::Ml1 { frame: u32::MAX },
            dirty_epoch: u32::MAX,
            pinned: false,
            incompressible: true,
        };
        s.insert(1, ml1_max);
        assert_eq!(s.get(1).unwrap(), ml1_max);
    }

    #[test]
    fn incompressible_is_sticky_across_set_place() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(9, ml1(4));
        let id = s.id_of(9).unwrap();
        assert!(s.set_incompressible(id, true));
        // Migrate down and back up; the flag must survive both hops.
        let sub = SubChunk { class: 3, super_id: 17, slot: 5 };
        assert!(s.set_place(id, Placement::Ml2 { sub, comp_bytes: 900 }));
        assert!(s.get_id(id).unwrap().incompressible);
        assert!(s.set_place(id, Placement::Ml1 { frame: 8 }));
        let info = s.get_id(id).unwrap();
        assert!(info.incompressible);
        assert_eq!(info.place, Placement::Ml1 { frame: 8 });
    }

    #[test]
    fn dirty_epoch_survives_set_place() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(2, ml1(1));
        let id = s.id_of(2).unwrap();
        assert!(s.bump_dirty_epoch(id));
        assert!(s.bump_dirty_epoch(id));
        assert!(s.set_place(id, Placement::Ml1 { frame: 3 }));
        assert_eq!(s.get_id(id).unwrap().dirty_epoch, 2);
    }

    #[test]
    fn setters_on_absent_pages_report_failure() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(0, ml1(0));
        let absent = s.id_of(40).unwrap();
        assert!(!s.set_place(absent, Placement::Ml1 { frame: 1 }));
        assert!(!s.set_incompressible(absent, true));
        assert!(!s.bump_dirty_epoch(absent));
    }

    #[test]
    fn iter_is_dense_ppn_order() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(BASE + 1, ml1(4));
        s.insert(2, ml1(2));
        s.insert(0, ml1(1));
        s.insert(BASE, ml1(3));
        let ppns: Vec<u64> = s.iter().map(|(p, _)| p).collect();
        assert_eq!(ppns, vec![0, 2, BASE, BASE + 1]);
    }

    #[test]
    fn iter_pairs_each_ppn_with_its_info() {
        let mut s = PageMetaStore::new(BASE);
        s.insert(BASE + 1, ml1(4));
        s.insert(2, ml1(2));
        s.insert(0, ml1(1));
        s.insert(BASE, ml1(3));
        let pairs: Vec<(u64, Placement)> = s.iter().map(|(p, info)| (p, info.place)).collect();
        let frames = [(0, 1), (2, 2), (BASE, 3), (BASE + 1, 4)];
        let want: Vec<(u64, Placement)> =
            frames.iter().map(|&(p, frame)| (p, Placement::Ml1 { frame })).collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn setters_reach_both_regions() {
        // Data page 3 and table page BASE + 3 share region index 3; only
        // the region bit keeps their handles apart.
        let mut s = PageMetaStore::new(BASE);
        s.insert(3, ml1(30));
        s.insert(BASE + 3, PageInfo { pinned: true, ..ml1(33) });
        let (data, table) = (s.id_of(3).unwrap(), s.id_of(BASE + 3).unwrap());
        assert_ne!(data, table);
        assert!(s.set_place(table, Placement::Ml1 { frame: 34 }));
        assert!(s.bump_dirty_epoch(table));
        assert!(s.set_incompressible(table, true));
        let t = s.get(BASE + 3).unwrap();
        assert_eq!(t.place, Placement::Ml1 { frame: 34 });
        assert_eq!(t.dirty_epoch, 1);
        assert!(t.pinned && t.incompressible);
        assert_eq!(s.get(3).unwrap(), ml1(30), "data page untouched");
    }

    #[test]
    fn out_of_range_ppn_has_no_id() {
        let s = PageMetaStore::new(BASE);
        assert!(s.id_of(BASE - 1).is_some());
        assert!(s.id_of(BASE + (1 << 31)).is_none());
    }

    #[test]
    fn both_regions_stop_at_the_handle_range() {
        // A table base above the handle range leaves data PPNs the store
        // cannot index; lookups there miss instead of aliasing.
        let base = 1 << 40;
        let s = PageMetaStore::new(base);
        assert!(s.id_of(MAX_REGION_PAGES - 1).is_some());
        assert!(s.id_of(MAX_REGION_PAGES).is_none());
        assert!(s.id_of(base - 1).is_none());
        assert!(s.id_of(base + MAX_REGION_PAGES - 1).is_some());
        assert!(s.id_of(base + MAX_REGION_PAGES).is_none());
        assert!(s.get(MAX_REGION_PAGES).is_none());
    }

    #[test]
    fn heap_cost_is_near_twelve_bytes_per_page() {
        let mut s = PageMetaStore::new(BASE);
        for i in 0..10_000u64 {
            s.insert(i, ml1(i as u32));
        }
        // Word + epoch + residency bit is ~12.2 B/page; capacity-doubling
        // growth can at most double that.
        assert!(s.heap_bytes() < 10_000 * 13 * 2, "heap {} too large", s.heap_bytes());
    }
}
