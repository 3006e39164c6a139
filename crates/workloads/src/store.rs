//! Lazy page materialization: generate-on-read, verify-on-write.
//!
//! The simulator's page contents are a pure function of `(workload seed,
//! page index)` ([`PageContent`]), so a simulated footprint of a terabyte
//! costs the host *nothing* to hold — any page can be rematerialized on
//! demand. [`PageStore`] is the abstraction that makes that invariant
//! explicit and enforceable:
//!
//! * **generate-on-read** — [`PageStore::read`] regenerates the page into
//!   one reusable 4 KiB scratch buffer; steady-state reads allocate
//!   nothing, regardless of simulated footprint.
//! * **verify-on-write** — [`PageStore::write`] compares written bytes
//!   against the regenerated reference. Bytes that match the deterministic
//!   source are *discarded* (they are derivable); only pages that diverge
//!   are **pinned** — stored as real host buffers — until a later write
//!   converges back or [`PageStore::release`] drops them.
//!
//! The host-resident state is therefore exactly: one scratch page, plus
//! one 4 KiB buffer per *currently divergent* page. Experiments that never
//! mutate content (all the paper's figures — writes perturb the size model
//! via dirty epochs, not the bytes) run with zero pinned pages at any
//! footprint, which is what lets the `capacity_cliff` experiment family
//! sweep simulated footprints to 1 TB under a flat host RSS.

use crate::content::PageContent;
use tmcc_types::addr::PAGE_SIZE;
use tmcc_types::fxhash::FxHashMap;

/// Deterministic lazy page store over a workload's content source.
///
/// # Examples
///
/// ```
/// use tmcc_workloads::{ContentProfile, PageContent, PageStore};
///
/// let mut store = PageStore::new(PageContent::new(ContentProfile::mcf(), 7));
/// let golden = store.read(42).to_vec();
/// assert!(store.write(42, &golden), "matching bytes need no storage");
/// assert_eq!(store.pinned_pages(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PageStore {
    content: PageContent,
    /// Reusable materialization buffer for generate-on-read.
    scratch: Vec<u8>,
    /// Pages whose last written bytes diverge from the deterministic
    /// source — the only content the host actually holds.
    pinned: FxHashMap<u64, Box<[u8]>>,
    reads: u64,
    writes: u64,
    divergent_writes: u64,
}

impl PageStore {
    /// Wraps a content source.
    pub fn new(content: PageContent) -> Self {
        Self {
            content,
            scratch: vec![0u8; PAGE_SIZE],
            pinned: FxHashMap::default(),
            reads: 0,
            writes: 0,
            divergent_writes: 0,
        }
    }

    /// The underlying deterministic content source.
    pub fn content(&self) -> &PageContent {
        &self.content
    }

    /// The current bytes of page `index`: the pinned buffer when the page
    /// has diverged, otherwise the content regenerated into the scratch
    /// buffer (no allocation).
    pub fn read(&mut self, index: u64) -> &[u8] {
        self.reads += 1;
        if let Some(p) = self.pinned.get(&index) {
            return p;
        }
        self.content.fill_page(index, &mut self.scratch);
        &self.scratch
    }

    /// Accepts a full-page write. Returns `true` when `bytes` match the
    /// deterministic source (nothing is stored; any previous pin is
    /// dropped) and `false` when the page diverged and had to be pinned.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly one page.
    pub fn write(&mut self, index: u64, bytes: &[u8]) -> bool {
        assert_eq!(bytes.len(), PAGE_SIZE, "writes are whole pages");
        self.writes += 1;
        self.content.fill_page(index, &mut self.scratch);
        if bytes == &self.scratch[..] {
            self.pinned.remove(&index);
            true
        } else {
            self.divergent_writes += 1;
            self.pinned.insert(index, bytes.into());
            false
        }
    }

    /// Whether page `index` currently diverges from the source.
    pub fn is_pinned(&self, index: u64) -> bool {
        self.pinned.contains_key(&index)
    }

    /// Drops the pinned bytes of page `index` (the page reverts to its
    /// deterministic content — e.g. it was freed and will be re-zeroed by
    /// the workload). Returns whether it was pinned.
    pub fn release(&mut self, index: u64) -> bool {
        self.pinned.remove(&index).is_some()
    }

    /// Number of currently divergent (host-resident) pages.
    pub fn pinned_pages(&self) -> usize {
        self.pinned.len()
    }

    /// `(reads, writes, divergent_writes)` since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.divergent_writes)
    }

    /// Host heap the store holds: the scratch page plus every pinned page
    /// (map overhead excluded; it is proportional to the pin count).
    pub fn heap_bytes(&self) -> usize {
        self.scratch.capacity() + self.pinned.len() * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;

    fn store() -> PageStore {
        PageStore::new(PageContent::new(ContentProfile::graph_analytics(), 11))
    }

    /// Page `index` generated straight from the store's content source.
    fn generated(s: &PageStore, index: u64) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        s.content().fill_page(index, &mut page);
        page
    }

    #[test]
    fn read_matches_eager_generation() {
        let mut s = store();
        for idx in [0u64, 1, 7, 1 << 30, u64::MAX / 3] {
            let got = s.read(idx).to_vec();
            assert_eq!(got, generated(&s, idx), "page {idx}");
        }
        assert_eq!(s.heap_bytes(), PAGE_SIZE, "reads pin nothing");
    }

    #[test]
    fn matching_write_stores_nothing() {
        let mut s = store();
        let golden = s.read(5).to_vec();
        assert!(s.write(5, &golden));
        assert_eq!(s.pinned_pages(), 0);
        assert_eq!(s.stats(), (1, 1, 0));
    }

    #[test]
    fn divergent_write_pins_until_convergent_write() {
        let mut s = store();
        let mut bytes = s.read(9).to_vec();
        bytes[100] ^= 0xFF;
        assert!(!s.write(9, &bytes));
        assert!(s.is_pinned(9));
        assert_eq!(s.read(9), &bytes[..], "reads see the written bytes");
        assert_eq!(s.heap_bytes(), 2 * PAGE_SIZE);
        // Writing the deterministic content back unpins.
        bytes[100] ^= 0xFF;
        assert!(s.write(9, &bytes));
        assert!(!s.is_pinned(9));
        assert_eq!(s.stats(), (2, 2, 1));
    }

    #[test]
    fn release_reverts_to_source() {
        let mut s = store();
        let mut bytes = s.read(3).to_vec();
        bytes[0] = bytes[0].wrapping_add(1);
        s.write(3, &bytes);
        assert!(s.release(3));
        assert!(!s.release(3));
        let got = s.read(3).to_vec();
        assert_eq!(got, generated(&s, 3));
    }

    #[test]
    fn footprint_is_independent_of_read_range() {
        let mut s = store();
        for idx in (0..2048u64).map(|i| i * 0x1_0000_0000) {
            let _ = s.read(idx);
        }
        assert_eq!(s.heap_bytes(), PAGE_SIZE, "a TB-scale sweep holds one scratch page");
    }
}
