//! Dense per-page state storage for the hot access path.
//!
//! The simulator's physical page numbers are dense by construction: data
//! pages are identity-mapped from 0, and page-table pages are allocated
//! sequentially from the table-region base (`PageTable::table_region_base`,
//! 2^26 by default). [`PageSlab`] exploits that layout to key per-page
//! state by a compact [`PageId`] handle derived *arithmetically* from the
//! PPN — one comparison and one subtraction — so the steady-state access
//! path indexes two `Vec`s instead of hashing into a `HashMap` on every
//! page touch.
//!
//! A `PageId` is allocated implicitly at first touch (`insert` grows the
//! backing region to cover the index) and stays valid for the page's
//! lifetime; the scheme derives it once per request and reuses it for
//! every lookup the request needs.

/// Compact handle of a page's slot in a [`PageSlab`]: a region bit (data
/// vs. table) plus the index within the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageId(u32);

/// Region bit: set for table-region pages. Shared with
/// [`crate::page_meta::PageMetaStore`], which derives handles with the
/// same arithmetic over the same two-region layout.
pub(crate) const TABLE_BIT: u32 = 1 << 31;

/// Pages each region can index: handles carry a 31-bit index, so data
/// PPNs (and table-region offsets) must stay below this.
pub(crate) const MAX_REGION_PAGES: u64 = TABLE_BIT as u64;

impl PageId {
    /// Rebuilds a handle from its raw encoding (region bit | index).
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The region-local index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 & !TABLE_BIT) as usize
    }

    /// Whether the handle points into the table region.
    #[inline]
    pub(crate) fn is_table(self) -> bool {
        self.0 & TABLE_BIT != 0
    }
}

/// Per-page state keyed by dense PPN, split into the two dense regions of
/// the simulator's physical layout.
#[derive(Debug, Clone)]
pub struct PageSlab<T> {
    /// Data-page region: index = PPN (PPNs below `table_base`).
    data: Vec<Option<T>>,
    /// Table-page region: index = PPN − `table_base`.
    table: Vec<Option<T>>,
    /// First PPN of the table region.
    table_base: u64,
    len: usize,
}

impl<T> PageSlab<T> {
    /// Creates an empty slab for a physical layout whose table pages start
    /// at `table_base`.
    pub fn new(table_base: u64) -> Self {
        Self { data: Vec::new(), table: Vec::new(), table_base, len: 0 }
    }

    /// Derives the compact handle for `ppn` — pure arithmetic, no hashing.
    /// `None` when the PPN cannot be a slab index (outside both dense
    /// regions' representable range).
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
    fn region(&self, id: PageId) -> &Vec<Option<T>> {
        if id.is_table() {
            &self.table
        } else {
            &self.data
        }
    }

    /// Number of pages with state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state of the page behind a handle.
    #[inline]
    pub fn get_id(&self, id: PageId) -> Option<&T> {
        self.region(id).get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable state of the page behind a handle.
    #[inline]
    pub fn get_id_mut(&mut self, id: PageId) -> Option<&mut T> {
        let idx = id.index();
        let region = if id.is_table() { &mut self.table } else { &mut self.data };
        region.get_mut(idx).and_then(Option::as_mut)
    }

    /// The state of page `ppn`.
    #[inline]
    pub fn get(&self, ppn: u64) -> Option<&T> {
        self.get_id(self.id_of(ppn)?)
    }

    /// Mutable state of page `ppn`.
    #[inline]
    pub fn get_mut(&mut self, ppn: u64) -> Option<&mut T> {
        let id = self.id_of(ppn)?;
        self.get_id_mut(id)
    }

    /// Inserts (or replaces) state for page `ppn`, allocating its slot on
    /// first touch. Returns the previous state, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` lies outside both dense regions.
    pub fn insert(&mut self, ppn: u64, value: T) -> Option<T> {
        let id = self
            .id_of(ppn)
            .unwrap_or_else(|| panic!("page {ppn:#x} outside the slab's dense regions"));
        let idx = id.index();
        let region = if id.is_table() { &mut self.table } else { &mut self.data };
        if idx >= region.len() {
            region.resize_with(idx + 1, || None);
        }
        let prev = region[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Iterates `(ppn, state)` pairs: the data region in PPN order, then
    /// the table region.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.table_base;
        self.data.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i as u64, v))).chain(
            self.table
                .iter()
                .enumerate()
                .filter_map(move |(i, s)| s.as_ref().map(move |v| (base + i as u64, v))),
        )
    }

    /// Iterates the stored states.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 1 << 26;

    #[test]
    fn insert_get_both_regions() {
        let mut s: PageSlab<u32> = PageSlab::new(BASE);
        assert!(s.insert(5, 50).is_none());
        assert!(s.insert(BASE + 3, 33).is_none());
        assert_eq!(s.get(5), Some(&50));
        assert_eq!(s.get(BASE + 3), Some(&33));
        assert_eq!(s.get(6), None);
        assert_eq!(s.get(BASE + 4), None);
        assert_eq!(s.len(), 2);
        *s.get_mut(5).unwrap() += 1;
        assert_eq!(s.get(5), Some(&51));
    }

    #[test]
    fn ids_round_trip_and_replace_counts_once() {
        let mut s: PageSlab<&str> = PageSlab::new(BASE);
        s.insert(7, "a");
        assert_eq!(s.insert(7, "b"), Some("a"));
        assert_eq!(s.len(), 1);
        let id = s.id_of(7).unwrap();
        assert_eq!(s.get_id(id), Some(&"b"));
        let tid = s.id_of(BASE).unwrap();
        assert_ne!(id, tid);
        assert_eq!(s.get_id(tid), None, "table slot untouched");
    }

    #[test]
    fn iter_is_dense_ppn_order() {
        let mut s: PageSlab<u8> = PageSlab::new(BASE);
        s.insert(BASE + 1, 4);
        s.insert(2, 2);
        s.insert(0, 1);
        s.insert(BASE, 3);
        let pairs: Vec<(u64, u8)> = s.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 2), (BASE, 3), (BASE + 1, 4)]);
        assert_eq!(s.values().count(), 4);
    }

    #[test]
    fn out_of_range_ppn_has_no_id() {
        let s: PageSlab<u8> = PageSlab::new(BASE);
        assert!(s.id_of(BASE - 1).is_some());
        assert!(s.id_of(BASE + (1 << 31)).is_none());
    }
}
