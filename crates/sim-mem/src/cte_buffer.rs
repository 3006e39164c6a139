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
//! fetch inserts up to eight entries, so it is stored for O(1) operations:
//! a fixed arena of entries, a chained key index with four buckets per
//! entry, and an intrusive recency list. The victim is the least recently
//! *touched* entry — [`insert`](CteBuffer::insert) and a
//! [`lookup`](CteBuffer::lookup) hit touch;
//! [`reconcile`](CteBuffer::reconcile) and
//! [`invalidate`](CteBuffer::invalidate) do not — which is the order the
//! generic [`SetAssocCache`](crate::SetAssocCache)'s stamps gave. The
//! parity test at the bottom drives both with one trace.

use tmcc_types::addr::{BlockAddr, Ppn};
use tmcc_types::cte::TruncatedCte;

/// Link and index sentinel: no entry.
const NIL: u32 = u32::MAX;

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

/// One arena slot: a resident entry, its recency links and its index chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    key: u64,
    entry: CteBufferEntry,
    /// Next more recently touched node (`NIL` at the MRU end).
    newer: u32,
    /// Next less recently touched node (`NIL` at the LRU end).
    older: u32,
    /// Next node whose key hashes to the same bucket.
    chain: u32,
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
    /// Entry arena; grows to `capacity`, then recycles the LRU node.
    nodes: Vec<Node>,
    capacity: usize,
    /// Arena indices released by `invalidate`.
    free: Vec<u32>,
    /// Key index: per bucket, the first node of its chain (`NIL` when
    /// empty). Power-of-two length, at least 4× `capacity`, so chains
    /// average well under one node.
    heads: Vec<u32>,
    /// Right shift that maps a multiplicative key hash onto `heads`.
    shift: u32,
    /// Most and least recently touched nodes.
    mru: u32,
    lru: u32,
}

impl CteBuffer {
    /// Creates a buffer with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above 2^24 (the arena links are
    /// `u32`).
    pub fn new(entries: usize) -> Self {
        assert!((1..=1 << 24).contains(&entries), "CTE buffer size {entries} outside 1..=2^24");
        let buckets = (entries * 4).next_power_of_two();
        Self {
            nodes: Vec::with_capacity(entries),
            capacity: entries,
            free: Vec::new(),
            heads: vec![NIL; buckets],
            shift: u64::BITS - buckets.trailing_zeros(),
            mru: NIL,
            lru: NIL,
        }
    }

    /// The paper's 64-entry buffer.
    pub fn paper_default() -> Self {
        Self::new(64)
    }

    /// Heap bytes the buffer owns (capacity, not length): the entry
    /// arena, its free list and the key index.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + (self.free.capacity() + self.heads.capacity()) * std::mem::size_of::<u32>()
    }

    /// Bucket of `key` (Fibonacci hashing keeps runs of adjacent PPNs —
    /// one PTB's worth — apart).
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Arena index of `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut n = self.heads[self.bucket(key)];
        while n != NIL {
            let node = &self.nodes[n as usize];
            if node.key == key {
                return Some(n as usize);
            }
            n = node.chain;
        }
        None
    }

    /// Removes node `n` from its bucket's chain.
    fn unchain(&mut self, n: usize) {
        let b = self.bucket(self.nodes[n].key);
        let next = self.nodes[n].chain;
        if self.heads[b] == n as u32 {
            self.heads[b] = next;
            return;
        }
        let mut prev = self.heads[b] as usize;
        while self.nodes[prev].chain != n as u32 {
            prev = self.nodes[prev].chain as usize;
        }
        self.nodes[prev].chain = next;
    }

    /// Detaches node `n` from the recency list.
    fn unlink(&mut self, n: usize) {
        let Node { newer, older, .. } = self.nodes[n];
        match newer {
            NIL => self.mru = older,
            m => self.nodes[m as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.nodes[o as usize].newer = newer,
        }
    }

    /// Links detached node `n` in as the most recently touched.
    fn push_mru(&mut self, n: usize) {
        self.nodes[n].newer = NIL;
        self.nodes[n].older = self.mru;
        match self.mru {
            NIL => self.lru = n as u32,
            m => self.nodes[m as usize].newer = n as u32,
        }
        self.mru = n as u32;
    }

    /// Marks node `n` as the most recently touched.
    fn touch(&mut self, n: usize) {
        if self.mru != n as u32 {
            self.unlink(n);
            self.push_mru(n);
        }
    }

    /// Inserts (or replaces) the entry for `ppn`, evicting the least
    /// recently touched entry when the buffer is full.
    pub fn insert(&mut self, ppn: Ppn, entry: CteBufferEntry) {
        let key = ppn.raw();
        if let Some(n) = self.find(key) {
            self.nodes[n].entry = entry;
            self.touch(n);
            return;
        }
        let node = Node { key, entry, newer: NIL, older: NIL, chain: NIL };
        let n = if let Some(n) = self.free.pop() {
            n as usize
        } else if self.nodes.len() < self.capacity {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let victim = self.lru as usize;
            self.unlink(victim);
            self.unchain(victim);
            victim
        };
        // Read the bucket head only now: the victim may have been it.
        let b = self.bucket(key);
        self.nodes[n] = Node { chain: self.heads[b], ..node };
        self.heads[b] = n as u32;
        self.push_mru(n);
    }

    /// Looks up the entry for `ppn` (recency-updating).
    pub fn lookup(&mut self, ppn: Ppn) -> Option<CteBufferEntry> {
        let n = self.find(ppn.raw())?;
        self.touch(n);
        Some(self.nodes[n].entry)
    }

    /// Stores the verified CTE into an existing entry (the response path
    /// of §V-A3: "L2 stores the correct CTE into the entry"). Returns the
    /// PTB block and PTE slot to repair when the entry existed and
    /// disagreed.
    pub fn reconcile(&mut self, ppn: Ppn, correct: TruncatedCte) -> Option<(BlockAddr, usize)> {
        let n = self.find(ppn.raw())?;
        let entry = &mut self.nodes[n].entry;
        let stale = entry.cte != Some(correct);
        entry.cte = Some(correct);
        stale.then_some((entry.ptb_block, entry.slot))
    }

    /// Drops the entry for `ppn`.
    pub fn invalidate(&mut self, ppn: Ppn) {
        if let Some(n) = self.find(ppn.raw()) {
            self.unchain(n);
            self.unlink(n);
            self.free.push(n as u32);
        }
    }

    /// Drops every entry (a flush storm).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.heads.fill(NIL);
        self.mru = NIL;
        self.lru = NIL;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn entry(cte: Option<u32>, block: u64, slot: usize) -> CteBufferEntry {
        CteBufferEntry { cte: cte.map(TruncatedCte::new), ptb_block: BlockAddr::new(block), slot }
    }

    /// The buffer as it was built before the arena: the generic
    /// fully-associative cache, whose LRU stamps define the victim order
    /// the arena must reproduce.
    struct ReferenceBuffer {
        entries: SetAssocCache<CteBufferEntry>,
    }

    impl ReferenceBuffer {
        fn new(entries: usize) -> Self {
            Self { entries: SetAssocCache::fully_associative(entries) }
        }

        fn insert(&mut self, ppn: Ppn, entry: CteBufferEntry) {
            if self.entries.contains(ppn.raw()) {
                *self.entries.payload_mut(ppn.raw()).expect("resident") = entry;
            }
            let _ = self.entries.access(ppn.raw(), false, entry);
        }

        fn lookup(&mut self, ppn: Ppn) -> Option<CteBufferEntry> {
            let e = *self.entries.payload(ppn.raw())?;
            let _ = self.entries.access(ppn.raw(), false, e);
            Some(e)
        }

        fn reconcile(&mut self, ppn: Ppn, correct: TruncatedCte) -> Option<(BlockAddr, usize)> {
            let entry = self.entries.payload_mut(ppn.raw())?;
            let stale = entry.cte != Some(correct);
            entry.cte = Some(correct);
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
