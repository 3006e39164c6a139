//! TMCC's CTE buffer (paper §V-A3, Fig. 10).
//!
//! When the page walker fetches a compressed PTB, L2 copies every embedded
//! CTE into this small temporary buffer, keyed by the PPN each PTE records.
//! When L2 later sees another request (the next walk step or the end
//! data/instruction access), it looks the request's PPN up here and
//! piggybacks the CTE down the hierarchy so the memory controller can
//! launch the speculative parallel DRAM access.
//!
//! Each entry also remembers the PTB (block address and PTE slot) the CTE
//! came from, so that when the *correct* CTE comes back in the response,
//! L2 can lazily repair a stale embedded CTE in the PTB (§V-A2's lazy
//! update).
//!
//! The buffer is fully associative with exact LRU replacement. Every PTB
//! fetch inserts up to eight entries, so it is stored for O(1) operations
//! in the same exact-LRU map as the page-walk cache: a fixed arena of
//! entries, a chained key index with four buckets per entry, and an
//! intrusive recency list. The victim is the least recently *touched*
//! entry — [`insert`](CteBuffer::insert) and a
//! [`lookup`](CteBuffer::lookup) hit touch;
//! [`reconcile`](CteBuffer::reconcile) and
//! [`invalidate`](CteBuffer::invalidate) do not — which is the order an
//! LRU stamp per entry gives. The parity test at the bottom drives the
//! buffer beside a stamped fully-associative cache with one trace.

use crate::lru_map::LruMap;
use tmcc_types::addr::{BlockAddr, Ppn};
use tmcc_types::cte::TruncatedCte;

/// One CTE-buffer entry (Fig. 10: PPN key → embedded CTE + PTB address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CteBufferEntry {
    /// The embedded CTE for this PPN, if the PTB had one for this slot.
    pub cte: Option<TruncatedCte>,
    /// The PTB the entry came from (for lazy repair).
    pub ptb_block: BlockAddr,
    /// Which of the PTB's PTEs (`0..8`) recorded this PPN.
    pub slot: usize,
}

/// The 64-entry CTE buffer (~1 KiB, §V-A6).
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::{CteBuffer, CteBufferEntry};
/// use tmcc_types::addr::{BlockAddr, Ppn};
/// use tmcc_types::cte::TruncatedCte;
///
/// let mut buf = CteBuffer::paper_default();
/// let ptb_block = BlockAddr::new(900);
/// let cte = Some(TruncatedCte::new(123));
/// buf.insert(Ppn::new(5), CteBufferEntry { cte, ptb_block, slot: 5 });
/// let e = buf.lookup(Ppn::new(5)).expect("present");
/// assert_eq!(e.cte.unwrap().frame(), 123);
/// // A disagreeing verified CTE names the PTB slot to repair.
/// assert_eq!(buf.reconcile(Ppn::new(5), TruncatedCte::new(7)), Some((ptb_block, 5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CteBuffer {
    entries: LruMap<CteBufferEntry>,
}

impl CteBuffer {
    /// Creates a buffer with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above 2^24 (the arena links are
    /// `u32`).
    pub fn new(entries: usize) -> Self {
        Self { entries: LruMap::new(entries) }
    }

    /// The paper's 64-entry buffer.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// Heap bytes the buffer owns (capacity, not length): the entry
    /// arena, its free list and the key index.
    pub fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
    }

    /// Inserts (or replaces) the entry for `ppn`, evicting the least
    /// recently touched entry when the buffer is full.
    pub fn insert(&mut self, ppn: Ppn, entry: CteBufferEntry) {
        self.entries.insert(ppn.raw(), entry);
    }

    /// Looks up the entry for `ppn` (recency-updating).
    pub fn lookup(&mut self, ppn: Ppn) -> Option<CteBufferEntry> {
        self.entries.lookup(ppn.raw())
    }

    /// Stores the verified CTE into an existing entry (the response path
    /// of §V-A3: "L2 stores the correct CTE into the entry"). Returns the
    /// PTB block and PTE slot to repair when the entry existed and
    /// disagreed.
    pub fn reconcile(&mut self, ppn: Ppn, correct: TruncatedCte) -> Option<(BlockAddr, usize)> {
        let entry = self.entries.get_mut(ppn.raw())?;
        let stale = entry.cte != Some(correct);
        entry.cte = Some(correct);
        stale.then_some((entry.ptb_block, entry.slot))
    }

    /// Drops the entry for `ppn`.
    pub fn invalidate(&mut self, ppn: Ppn) {
        self.entries.remove(ppn.raw());
    }

    /// Drops every entry (a flush storm).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp_cache::StampCache;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn entry(cte: Option<u32>, block: u64, slot: usize) -> CteBufferEntry {
        CteBufferEntry { cte: cte.map(TruncatedCte::new), ptb_block: BlockAddr::new(block), slot }
    }

    /// The buffer as it was built before the arena: a fully-associative
    /// cache whose LRU stamps define the victim order the arena must
    /// reproduce.
    struct ReferenceBuffer {
        entries: StampCache<CteBufferEntry>,
    }

    impl ReferenceBuffer {
        fn new(entries: usize) -> Self {
            Self { entries: StampCache::fully_associative(entries) }
        }

        /// Sets the entry, then touches it.
        fn insert(&mut self, ppn: Ppn, entry: CteBufferEntry) {
            let _ = self.entries.insert(ppn.raw(), entry);
            let _ = self.entries.lookup(ppn.raw());
        }

        fn lookup(&mut self, ppn: Ppn) -> Option<CteBufferEntry> {
            self.entries.lookup(ppn.raw())
        }

        /// Rewrites a resident entry without touching it.
        fn reconcile(&mut self, ppn: Ppn, correct: TruncatedCte) -> Option<(BlockAddr, usize)> {
            let mut entry = self.entries.peek(ppn.raw())?;
            let stale = entry.cte != Some(correct);
            entry.cte = Some(correct);
            let _ = self.entries.insert(ppn.raw(), entry);
            stale.then_some((entry.ptb_block, entry.slot))
        }

        fn invalidate(&mut self, ppn: Ppn) {
            let _ = self.entries.invalidate(ppn.raw());
        }

        fn clear(&mut self) {
            self.entries.clear();
        }

        /// Resident entries among `universe`, every PPN the trace touches.
        fn len(&self, universe: &[u64]) -> usize {
            universe.iter().filter(|&&ppn| self.entries.contains(ppn)).count()
        }
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(1), entry(Some(10), 100, 1));
        buf.insert(Ppn::new(2), entry(None, 200, 2));
        assert_eq!(buf.lookup(Ppn::new(1)).unwrap().cte, Some(TruncatedCte::new(10)));
        assert_eq!(buf.lookup(Ppn::new(2)).unwrap().cte, None);
        assert!(buf.lookup(Ppn::new(3)).is_none());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut buf = CteBuffer::new(64);
        for i in 0..100u64 {
            buf.insert(Ppn::new(i), entry(None, i, 0));
        }
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn evicts_least_recently_touched() {
        let mut buf = CteBuffer::new(3);
        for i in 1..=3u64 {
            buf.insert(Ppn::new(i), entry(None, i, 0));
        }
        assert!(buf.lookup(Ppn::new(1)).is_some()); // 2 is now LRU
        buf.reconcile(Ppn::new(2), TruncatedCte::new(9)); // not a touch
        buf.insert(Ppn::new(4), entry(None, 4, 0));
        assert!(buf.lookup(Ppn::new(2)).is_none());
        assert!(buf.lookup(Ppn::new(1)).is_some() && buf.lookup(Ppn::new(3)).is_some());
    }

    #[test]
    fn reconcile_reports_stale_ptb() {
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(7), entry(Some(1), 70, 3));
        // Correct CTE disagrees: PTB slot needs repair.
        assert_eq!(buf.reconcile(Ppn::new(7), TruncatedCte::new(2)), Some((BlockAddr::new(70), 3)));
        // Now it agrees: no repair.
        assert_eq!(buf.reconcile(Ppn::new(7), TruncatedCte::new(2)), None);
        assert_eq!(buf.lookup(Ppn::new(7)).unwrap().cte, Some(TruncatedCte::new(2)));
    }

    #[test]
    fn reconcile_missing_entry_is_none() {
        let mut buf = CteBuffer::new(4);
        assert_eq!(buf.reconcile(Ppn::new(9), TruncatedCte::new(1)), None);
    }

    #[test]
    fn entry_with_no_cte_reconciles_to_repair() {
        // "if the CTE Buffer entry ... has no CTE, L2 stores the correct
        // CTE into the entry and ... updates the PTB" (§V-A3).
        let mut buf = CteBuffer::new(4);
        buf.insert(Ppn::new(3), entry(None, 30, 6));
        assert_eq!(buf.reconcile(Ppn::new(3), TruncatedCte::new(5)), Some((BlockAddr::new(30), 6)));
    }

    #[test]
    fn invalidate_and_clear_free_slots() {
        let mut buf = CteBuffer::new(2);
        buf.insert(Ppn::new(1), entry(None, 1, 0));
        buf.insert(Ppn::new(2), entry(None, 2, 0));
        buf.invalidate(Ppn::new(1));
        buf.invalidate(Ppn::new(1));
        assert_eq!(buf.len(), 1);
        buf.insert(Ppn::new(3), entry(None, 3, 0)); // reuses the freed slot
        assert!(buf.lookup(Ppn::new(2)).is_some(), "a free slot is used before evicting");
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.lookup(Ppn::new(2)).is_none());
    }

    #[test]
    fn heap_bytes_are_the_arena_and_index() {
        // 64 arena nodes of 48 B and 256 index buckets of 4 B: the bytes
        // `capacity_cliff` reports per TMCC system.
        assert_eq!(CteBuffer::paper_default().heap_bytes(), 64 * 48 + 256 * 4);
    }

    #[test]
    fn parity_with_generic_cache_on_random_trace() {
        let mut buf = CteBuffer::paper_default();
        let mut reference = ReferenceBuffer::new(64);
        let mut rng = SmallRng::seed_from_u64(0xB0FF);
        // 200 keys scattered over the 40-bit PPN space: unlike a run of
        // adjacent PPNs, they collide in the key index, which exercises
        // chains longer than one node.
        let keys: Vec<Ppn> = (0..200).map(|_| Ppn::new(rng.gen_range(0..1u64 << 40))).collect();
        let mut universe: Vec<u64> = keys.iter().map(|k| k.raw()).collect();
        universe.sort_unstable();
        universe.dedup();
        for step in 0..50_000u32 {
            let ppn = keys[rng.gen_range(0..keys.len())];
            match rng.gen_range(0..100u32) {
                0..=44 => {
                    let cte = rng.gen_bool(0.8).then(|| rng.gen_range(0..16u32));
                    let e = entry(cte, rng.gen_range(0..1024u64), rng.gen_range(0..8usize));
                    buf.insert(ppn, e);
                    reference.insert(ppn, e);
                }
                45..=74 => assert_eq!(buf.lookup(ppn), reference.lookup(ppn), "step {step}"),
                75..=92 => {
                    let correct = TruncatedCte::new(rng.gen_range(0..16u32));
                    let got = buf.reconcile(ppn, correct);
                    assert_eq!(got, reference.reconcile(ppn, correct), "step {step}");
                }
                93..=98 => {
                    buf.invalidate(ppn);
                    reference.invalidate(ppn);
                }
                _ if step % 7 == 0 => {
                    buf.clear();
                    reference.clear();
                }
                _ => {}
            }
            assert_eq!(buf.len(), reference.len(&universe), "step {step}");
        }
        for ppn in keys {
            assert_eq!(buf.lookup(ppn), reference.lookup(ppn), "final residency of {ppn:?}");
        }
    }
}
