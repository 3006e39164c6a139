//! Packed per-page metadata for the two-level schemes.
//!
//! Every page the simulator places has state from construction on, and
//! none is added or dropped afterwards, so [`PageMetaStore`] keeps it in
//! flat arrays with one entry per page, indexed by the page's slot in the
//! shared [`PageIndex`]. The scheme derives a [`PageId`] handle once per
//! request and reuses it for every lookup the request needs.
//!
//! At datacenter-scale footprints per-page state dominates host memory, so
//! the store packs it into one 64-bit word per page plus a 32-bit dirty
//! epoch (12 B/page):
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
//! the scheme keeps no separate CTE copy.
//!
//! Initial placement writes each word once. Both arrays are allocated
//! zeroed, so the epoch of a page no writeback has re-drawn costs no
//! resident memory: 8 B/page resident after construction.

use crate::free_list::SubChunk;
use crate::page_index::PageIndex;

/// Data pages the two-level schemes can number: with the table pages,
/// about one per 511 data pages, every slot stays within a `u32`
/// [`PageId`].
pub(crate) const MAX_DATA_PAGES: u64 = 1 << 31;

/// Compact handle of a page's slot in a [`PageMetaStore`]: its rank in
/// the store's [`PageIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageId(u32);

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

/// Packed per-page state for every page a [`PageIndex`] places.
///
/// # Examples
///
/// ```
/// use tmcc::page_meta::{PageMetaStore, Placement};
/// use tmcc::PageIndex;
///
/// let mut index = PageIndex::default();
/// index.push(0..8);
/// let mut pages = PageMetaStore::with_pages(index);
/// let id = pages.id_of(7).unwrap();
/// pages.set_place(id, Placement::Ml1 { frame: 42 });
/// assert_eq!(pages.get_id(id).place, Placement::Ml1 { frame: 42 });
/// assert_eq!(pages.id_of(8), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMetaStore {
    index: PageIndex,
    /// Packed placement word per slot.
    words: Vec<u64>,
    /// Dirty epoch per slot.
    epochs: Vec<u32>,
}

impl PageMetaStore {
    /// A store holding every page `index` places, each in ML1 frame 0 at
    /// epoch 0 until initial placement writes its packed word, once, in
    /// place. Both arrays are allocated zeroed, so a page costs resident
    /// memory only once its word or epoch is written.
    ///
    /// # Panics
    ///
    /// Panics if a slot would not fit a [`PageId`].
    pub fn with_pages(index: PageIndex) -> Self {
        let len = index.len();
        assert!(len <= 1 << 32, "{len} pages exceed the store's 32-bit page handles");
        Self { index, words: vec![0; len as usize], epochs: vec![0; len as usize] }
    }

    /// Writes the placement of page `ppn` as its packed word, with the
    /// incompressible flag clear and the epoch left as it is.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is not placed.
    #[inline]
    pub(crate) fn set_initial(&mut self, ppn: u64, place: Placement, pinned: bool) {
        let slot = self.index.slot(ppn).unwrap_or_else(|| panic!("page {ppn:#x} is not placed"));
        let info = PageInfo { place, dirty_epoch: 0, pinned, incompressible: false };
        self.words[slot] = encode(&info);
    }

    /// The handle of page `ppn`, or `None` when it is not placed.
    #[inline]
    pub fn id_of(&self, ppn: u64) -> Option<PageId> {
        self.index.slot(ppn).map(|slot| PageId(slot as u32))
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the store holds no page.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The decoded state of the page behind a handle.
    #[inline]
    pub fn get_id(&self, id: PageId) -> PageInfo {
        let slot = id.0 as usize;
        decode(self.words[slot], self.epochs[slot])
    }

    /// Re-homes the page behind `id`, preserving its flags and epoch.
    #[inline]
    pub fn set_place(&mut self, id: PageId, place: Placement) {
        let word = &mut self.words[id.0 as usize];
        let mut info = decode(*word, 0);
        info.place = place;
        *word = encode(&info);
    }

    /// Sets or clears the sticky incompressible flag.
    #[inline]
    pub fn set_incompressible(&mut self, id: PageId, flag: bool) {
        let word = &mut self.words[id.0 as usize];
        if flag {
            *word |= INCOMPRESSIBLE_BIT;
        } else {
            *word &= !INCOMPRESSIBLE_BIT;
        }
    }

    /// Advances the page's dirty epoch by one.
    #[inline]
    pub fn bump_dirty_epoch(&mut self, id: PageId) {
        self.epochs[id.0 as usize] += 1;
    }

    /// Iterates `(ppn, state)` pairs in slot order: ascending PPN.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PageInfo)> + '_ {
        let states = self.words.iter().zip(&self.epochs).map(|(&w, &e)| decode(w, e));
        self.index.iter().zip(states)
    }

    /// Host heap bytes owned by the store (capacity, not length) — the
    /// footprint experiments report this per simulated GB.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
            + self.words.capacity() * std::mem::size_of::<u64>()
            + self.epochs.capacity() * std::mem::size_of::<u32>()
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

    /// A store over data pages `0..data` and table pages `BASE..BASE + table`.
    fn store(data: u64, table: u64) -> PageMetaStore {
        let mut index = PageIndex::default();
        index.push(0..data);
        index.push(BASE..BASE + table);
        PageMetaStore::with_pages(index)
    }

    fn get(s: &PageMetaStore, ppn: u64) -> Option<PageInfo> {
        s.id_of(ppn).map(|id| s.get_id(id))
    }

    #[test]
    fn insert_get_both_regions() {
        let mut s = store(6, 4);
        s.set_initial(5, Placement::Ml1 { frame: 50 }, false);
        s.set_initial(BASE + 3, Placement::Ml1 { frame: 33 }, true);
        assert_eq!(get(&s, 5), Some(ml1(50)));
        assert_eq!(get(&s, BASE + 3), Some(PageInfo { pinned: true, ..ml1(33) }));
        assert_eq!(get(&s, 4), Some(ml1(0)), "present before it is placed");
        assert!(get(&s, 6).is_none());
        assert!(get(&s, BASE + 4).is_none());
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn ids_round_trip_and_replace_counts_once() {
        let mut s = store(8, 1);
        s.set_initial(7, Placement::Ml1 { frame: 1 }, false);
        s.set_initial(7, Placement::Ml1 { frame: 2 }, false);
        assert_eq!(s.len(), 9);
        let id = s.id_of(7).unwrap();
        assert_eq!(s.get_id(id).place, Placement::Ml1 { frame: 2 });
        let tid = s.id_of(BASE).unwrap();
        assert_ne!(id, tid);
        assert_eq!(s.get_id(tid), ml1(0), "table slot untouched");
    }

    #[test]
    fn packed_word_roundtrips_extremes() {
        let info = PageInfo {
            place: Placement::Ml2 {
                sub: SubChunk { class: 10, super_id: u32::MAX, slot: 127 },
                comp_bytes: 4096,
            },
            dirty_epoch: 77,
            pinned: true,
            incompressible: true,
        };
        assert_eq!(decode(encode(&info), info.dirty_epoch), info);
        let ml1_max = PageInfo {
            place: Placement::Ml1 { frame: u32::MAX },
            dirty_epoch: u32::MAX,
            pinned: false,
            incompressible: true,
        };
        assert_eq!(decode(encode(&ml1_max), ml1_max.dirty_epoch), ml1_max);
    }

    #[test]
    fn incompressible_is_sticky_across_set_place() {
        let mut s = store(10, 0);
        let id = s.id_of(9).unwrap();
        s.set_place(id, Placement::Ml1 { frame: 4 });
        s.set_incompressible(id, true);
        // Migrate down and back up; the flag must survive both hops.
        let sub = SubChunk { class: 3, super_id: 17, slot: 5 };
        s.set_place(id, Placement::Ml2 { sub, comp_bytes: 900 });
        assert!(s.get_id(id).incompressible);
        s.set_place(id, Placement::Ml1 { frame: 8 });
        let info = s.get_id(id);
        assert!(info.incompressible);
        assert_eq!(info.place, Placement::Ml1 { frame: 8 });
        s.set_incompressible(id, false);
        assert!(!s.get_id(id).incompressible);
    }

    #[test]
    fn dirty_epoch_survives_set_place() {
        let mut s = store(3, 0);
        let id = s.id_of(2).unwrap();
        s.bump_dirty_epoch(id);
        s.bump_dirty_epoch(id);
        s.set_place(id, Placement::Ml1 { frame: 3 });
        assert_eq!(s.get_id(id).dirty_epoch, 2);
    }

    #[test]
    fn iter_is_dense_ppn_order() {
        let s = store(3, 2);
        let ppns: Vec<u64> = s.iter().map(|(p, _)| p).collect();
        assert_eq!(ppns, vec![0, 1, 2, BASE, BASE + 1]);
    }

    #[test]
    fn iter_pairs_each_ppn_with_its_info() {
        let mut s = store(3, 2);
        let frames = [(0, 1), (1, 5), (2, 2), (BASE, 3), (BASE + 1, 4)];
        for &(p, frame) in frames.iter().rev() {
            s.set_initial(p, Placement::Ml1 { frame }, false);
        }
        let pairs: Vec<(u64, Placement)> = s.iter().map(|(p, info)| (p, info.place)).collect();
        let want: Vec<(u64, Placement)> =
            frames.iter().map(|&(p, frame)| (p, Placement::Ml1 { frame })).collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn setters_reach_both_regions() {
        // Data page 3 and table page BASE + 3 share their low bits; their
        // slots keep them apart.
        let mut s = store(4, 4);
        s.set_initial(3, Placement::Ml1 { frame: 30 }, false);
        s.set_initial(BASE + 3, Placement::Ml1 { frame: 33 }, true);
        let (data, table) = (s.id_of(3).unwrap(), s.id_of(BASE + 3).unwrap());
        assert_ne!(data, table);
        s.set_place(table, Placement::Ml1 { frame: 34 });
        s.bump_dirty_epoch(table);
        s.set_incompressible(table, true);
        let t = s.get_id(table);
        assert_eq!(t.place, Placement::Ml1 { frame: 34 });
        assert_eq!(t.dirty_epoch, 1);
        assert!(t.pinned && t.incompressible);
        assert_eq!(s.get_id(data), ml1(30), "data page untouched");
    }

    #[test]
    fn out_of_range_ppn_has_no_id() {
        let s = store(4, 2);
        assert!(s.id_of(3).is_some() && s.id_of(BASE + 1).is_some());
        assert!(s.id_of(4).is_none());
        assert!(s.id_of(BASE - 1).is_none());
        assert!(s.id_of(BASE + 2).is_none());
        assert!(s.id_of(BASE + (1 << 31)).is_none());
    }

    #[test]
    fn lookups_past_either_run_miss() {
        // A table run far above the data pages: the PPNs between the runs
        // and past either one have no slot, so none aliases a placed page.
        let base = 1 << 40;
        let mut index = PageIndex::default();
        index.push(0..100);
        index.push(base..base + 3);
        let s = PageMetaStore::with_pages(index);
        assert_eq!(s.id_of(99), Some(PageId(99)));
        assert_eq!(s.id_of(base + 2), Some(PageId(102)));
        for ppn in [100, MAX_DATA_PAGES, base - 1, base + 3, base + MAX_DATA_PAGES] {
            assert!(s.id_of(ppn).is_none(), "{ppn:#x}");
        }
    }

    #[test]
    fn heap_cost_is_near_twelve_bytes_per_page() {
        let s = store(10_000, 20);
        // Word + epoch is 12 B per page, plus the index's two runs.
        assert!(s.heap_bytes() <= 10_020 * 12 + 128, "heap {} too large", s.heap_bytes());
    }
}
