//! The ML1 Recency List (paper §IV-B).
//!
//! A doubly linked list of the pages resident in ML1, hottest at the head,
//! coldest at the tail. To keep hardware cost low the paper updates it for
//! only **1 % of randomly chosen ML1 accesses**; victims for eviction to
//! ML2 come from the cold tail. Incompressible pages are *removed* from
//! the list (so ML1 stops trying to evict them) and re-enter with 1 %
//! probability after a writeback (§IV-B).
//!
//! The list is intrusive over a dense slab: page numbers index a `Vec` of
//! link slots directly, exactly as the hardware table indexes DRAM by page
//! frame, so every touch/unlink is two array loads — the per-access hash
//! lookups of the earlier `HashMap` representation are gone. Membership
//! lives in a succinct [`BitVec`] beside the link slab, which keeps each
//! slot at exactly two 32-bit links (8 B instead of a padded 12 B) at
//! datacenter-scale page counts. Only data pages enter the list (table
//! pages are pinned), and they are the dense range from PPN 0, so the
//! slab is sized for every data page at construction and never grows.
//!
//! Initial placement fills ML1 with pages `0..n`, hottest first, so the
//! list starts as that chain ([`RecencyList::with_chain`]): page `i` links
//! to `i − 1` and `i + 1`. A slot stores its links XOR the chain's, so the
//! whole chain is zeroed storage — allocated, never written, and resident
//! only once the run first touches a slot.
//!
//! The list costs real DRAM — 0.4 % of capacity (§V-A6) — accounted by
//! [`RecencyList::dram_overhead_bytes`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_types::addr::Ppn;
use tmcc_types::bitvec::BitVec;

/// The paper's hardware sampling probability: 1 % of ML1 accesses update
/// the list (§IV-B). Hardware runs billions of accesses, so 1 % sampling
/// converges; scaled-down simulations pass [`RecencyList::with_chain`] a
/// higher probability to keep the *list quality* (samples per resident
/// page) comparable — see `SystemConfig::recency_sample`.
pub const SAMPLE_PROBABILITY: f64 = 0.01;

/// Sentinel link value ("no neighbour").
const NIL: u32 = u32::MAX;

/// One slot's links. Membership is tracked separately in the `present`
/// bitmap so the slot packs into 8 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prev: u32, // towards head
    next: u32, // towards tail
}

impl Slot {
    fn pack(self) -> u64 {
        u64::from(self.prev) | u64::from(self.next) << 32
    }

    fn unpack(w: u64) -> Self {
        Slot { prev: w as u32, next: (w >> 32) as u32 }
    }
}

/// The recency list.
///
/// # Examples
///
/// ```
/// use tmcc::RecencyList;
/// use tmcc_types::addr::Ppn;
///
/// // Pages 0..3 of 8, hottest first, without a write per page.
/// let mut rl = RecencyList::with_chain(7, 0.01, 3, 8);
/// assert_eq!(rl.cold_to_hot(), [Ppn::new(2), Ppn::new(1), Ppn::new(0)]);
/// rl.insert_hot(Ppn::new(2));
/// rl.insert_hot(Ppn::new(7));
/// assert_eq!(rl.coldest(), Some(Ppn::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct RecencyList {
    /// Packed link slots indexed directly by page number (dense data-page
    /// range), each stored XOR its links in the initial chain (see
    /// [`chain_links`](Self::chain_links)).
    slots: Vec<u64>,
    /// Membership bitmap, indexed like `slots`.
    present: BitVec,
    /// Length of the initial chain: pages `0..chain`, hottest first.
    chain: u32,
    head: u32, // hottest (NIL when empty)
    tail: u32, // coldest (NIL when empty)
    len: usize,
    rng: SmallRng,
    sample_prob: f64,
}

impl RecencyList {
    /// Creates a list over pages `0..pages` that tracks pages `0..chain`,
    /// page 0 hottest — what `insert_hot` of pages `chain − 1` down to 0
    /// builds. Each ML1 access updates it with probability `sample_prob`.
    /// No slot is written, and the slab is allocated zeroed, so a slot
    /// costs resident memory only once the list first touches it.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sample_prob <= 1` and `chain <= pages`, or if
    /// `pages` reaches past the slab's dense index range.
    pub fn with_chain(seed: u64, sample_prob: f64, chain: u64, pages: u64) -> Self {
        assert!(sample_prob > 0.0 && sample_prob <= 1.0, "sampling probability must be in (0, 1]");
        assert!(chain <= pages, "a {chain}-page chain past a {pages}-page slab");
        assert!(pages <= u64::from(NIL), "{pages} pages exceed the recency slab's index range");
        let chain = chain as u32;
        let (head, tail) = if chain == 0 { (NIL, NIL) } else { (0, chain - 1) };
        Self {
            slots: vec![0; pages as usize],
            present: BitVec::with_prefix(pages as usize, chain as usize),
            chain,
            head,
            tail,
            len: chain as usize,
            rng: SmallRng::seed_from_u64(seed ^ 0xDECAF),
            sample_prob,
        }
    }

    /// Slab index of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies past the slab.
    #[inline]
    fn key(&self, page: Ppn) -> usize {
        let raw = page.raw();
        assert!(raw < self.slots.len() as u64, "page {raw:#x} past the recency slab");
        raw as usize
    }

    /// Slot `key`'s links in the initial chain, packed: its neighbours
    /// `key ∓ 1` inside the chain, none outside it.
    #[inline]
    fn chain_links(&self, key: usize) -> u64 {
        let key = key as u32;
        if key >= self.chain {
            return Slot { prev: NIL, next: NIL }.pack();
        }
        let prev = if key == 0 { NIL } else { key - 1 };
        let next = if key + 1 == self.chain { NIL } else { key + 1 };
        Slot { prev, next }.pack()
    }

    #[inline]
    fn load(&self, key: usize) -> Slot {
        Slot::unpack(self.slots[key] ^ self.chain_links(key))
    }

    #[inline]
    fn store(&mut self, key: usize, slot: Slot) {
        self.slots[key] = slot.pack() ^ self.chain_links(key);
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `page` is tracked.
    pub fn contains(&self, page: Ppn) -> bool {
        self.present.get(self.key(page))
    }

    /// Unconditionally inserts/moves `page` to the hot end.
    pub fn insert_hot(&mut self, page: Ppn) {
        let key = self.key(page);
        if self.present.get(key) {
            self.unlink(key as u32);
            self.len -= 1;
        }
        let old_head = self.head;
        self.store(key, Slot { prev: NIL, next: old_head });
        self.present.set(key);
        if old_head != NIL {
            let mut head = self.load(old_head as usize);
            head.prev = key as u32;
            self.store(old_head as usize, head);
        }
        self.head = key as u32;
        if self.tail == NIL {
            self.tail = key as u32;
        }
        self.len += 1;
    }

    /// Called on every ML1 access: with 1 % probability, moves the page to
    /// the hot end (inserting it if untracked). Returns whether the update
    /// fired (for stats).
    pub fn on_access(&mut self, page: Ppn) -> bool {
        if self.rng.gen::<f64>() < self.sample_prob {
            self.insert_hot(page);
            true
        } else {
            false
        }
    }

    /// Called when a writeback hits a page marked incompressible: with 1 %
    /// probability the page re-enters the list (§IV-B: "ML1 adds an
    /// incompressible page back to the Recency List at 1% probability
    /// after a writeback"). Returns whether it re-entered.
    pub fn on_incompressible_writeback(&mut self, page: Ppn) -> bool {
        if self.rng.gen::<f64>() < self.sample_prob {
            self.insert_hot(page);
            true
        } else {
            false
        }
    }

    /// The coldest tracked page.
    pub fn coldest(&self) -> Option<Ppn> {
        if self.tail == NIL {
            None
        } else {
            Some(Ppn::new(self.tail as u64))
        }
    }

    /// Removes and returns the coldest page (the eviction victim).
    pub fn pop_coldest(&mut self) -> Option<Ppn> {
        let t = self.tail;
        if t == NIL {
            return None;
        }
        self.unlink(t);
        self.present.clear(t as usize);
        self.len -= 1;
        Some(Ppn::new(t as u64))
    }

    fn unlink(&mut self, key: u32) {
        let node = self.load(key as usize);
        debug_assert!(self.present.get(key as usize), "unlinking an untracked slot");
        match node.prev {
            NIL => self.head = node.next,
            p => {
                let mut prev = self.load(p as usize);
                prev.next = node.next;
                self.store(p as usize, prev);
            }
        }
        match node.next {
            NIL => self.tail = node.prev,
            n => {
                let mut next = self.load(n as usize);
                next.prev = node.prev;
                self.store(n as usize, next);
            }
        }
    }

    /// Pages from coldest to hottest (diagnostics; O(n)).
    pub fn cold_to_hot(&self) -> Vec<Ppn> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.tail;
        while cur != NIL {
            out.push(Ppn::new(cur as u64));
            cur = self.load(cur as usize).prev;
        }
        out
    }

    /// DRAM cost of the list for a machine with `total_pages` ML1-capable
    /// pages: 16 bytes per page, two 8-byte links (the entry's position
    /// names its page), ≈ 0.4 % of DRAM (§V-A6).
    pub fn dram_overhead_bytes(total_pages: u64) -> u64 {
        total_pages * 16
    }

    /// Host heap bytes the list occupies (link slab + membership bitmap).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>() + self.present.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty list over pages `0..64` with the paper's sampling.
    fn empty(seed: u64) -> RecencyList {
        RecencyList::with_chain(seed, SAMPLE_PROBABILITY, 0, 64)
    }

    #[test]
    fn order_is_lru() {
        let mut rl = empty(1);
        for p in 1..=4u64 {
            rl.insert_hot(Ppn::new(p));
        }
        assert_eq!(rl.cold_to_hot(), vec![Ppn::new(1), Ppn::new(2), Ppn::new(3), Ppn::new(4)]);
        rl.insert_hot(Ppn::new(1)); // re-touch the coldest
        assert_eq!(rl.coldest(), Some(Ppn::new(2)));
    }

    #[test]
    fn pop_coldest_drains_in_order() {
        let mut rl = empty(1);
        for p in 0..5u64 {
            rl.insert_hot(Ppn::new(p));
        }
        let drained: Vec<u64> = std::iter::from_fn(|| rl.pop_coldest().map(|p| p.raw())).collect();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
        assert!(rl.is_empty());
    }

    #[test]
    fn sampling_rate_is_about_one_percent() {
        let mut rl = empty(99);
        let mut fired = 0;
        for i in 0..100_000u64 {
            if rl.on_access(Ppn::new(i % 64)) {
                fired += 1;
            }
        }
        let rate = fired as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.004, "sample rate {rate}");
    }

    #[test]
    fn single_element_list() {
        let mut rl = empty(1);
        rl.insert_hot(Ppn::new(9));
        assert_eq!(rl.coldest(), Some(Ppn::new(9)));
        assert_eq!(rl.pop_coldest(), Some(Ppn::new(9)));
        assert_eq!(rl.pop_coldest(), None);
        assert_eq!(rl.coldest(), None);
    }

    #[test]
    fn reinsert_after_pop_is_tracked_again() {
        let mut rl = empty(1);
        rl.insert_hot(Ppn::new(3));
        rl.insert_hot(Ppn::new(4));
        assert_eq!(rl.pop_coldest(), Some(Ppn::new(3)));
        assert!(!rl.contains(Ppn::new(3)));
        rl.insert_hot(Ppn::new(3));
        assert!(rl.contains(Ppn::new(3)));
        assert_eq!(rl.cold_to_hot(), vec![Ppn::new(4), Ppn::new(3)]);
    }

    #[test]
    fn derived_chain_equals_inserting_coldest_first() {
        for pages in [0u64, 1, 2, 3, 64, 1000] {
            let chain = RecencyList::with_chain(5, 0.5, pages, pages + 3);
            let mut built = RecencyList::with_chain(5, 0.5, 0, pages + 3);
            for p in (0..pages).rev() {
                built.insert_hot(Ppn::new(p));
            }
            assert_eq!(chain.cold_to_hot(), built.cold_to_hot(), "{pages} pages");
            assert_eq!(chain.len(), built.len());
            assert!((0..pages + 2).all(|p| chain.contains(Ppn::new(p)) == (p < pages)));
            // The same operations keep them equal: touches inside and past
            // the chain, evictions, membership and sampled accesses.
            let (mut a, mut b) = (chain, built);
            for step in 0..3 * pages + 8 {
                let page = Ppn::new(step * 7 % (pages + 3));
                match step % 4 {
                    0 => {
                        a.insert_hot(page);
                        b.insert_hot(page);
                    }
                    1 => assert_eq!(a.pop_coldest(), b.pop_coldest()),
                    2 => assert_eq!(a.contains(page), b.contains(page)),
                    _ => assert_eq!(a.on_access(page), b.on_access(page)),
                }
                assert_eq!(a.cold_to_hot(), b.cold_to_hot(), "{pages} pages, step {step}");
            }
        }
    }

    #[test]
    fn derived_chain_is_zeroed_storage() {
        // The links are stored relative to the chain's, so a fresh chain
        // has written nothing: every slot word is zero.
        let mut rl = RecencyList::with_chain(1, 0.5, 4096, 8192);
        assert!(rl.slots.iter().all(|&w| w == 0));
        rl.insert_hot(Ppn::new(2000));
        let written = rl.slots.iter().filter(|&&w| w != 0).count();
        assert_eq!(written, 4, "page 2000, its old neighbours and the old head");
    }

    #[test]
    fn overhead_is_0_4_percent() {
        // 16 B per 4096 B page = 0.39 %.
        let pages = 1_000_000u64;
        let frac = RecencyList::dram_overhead_bytes(pages) as f64 / (pages * 4096) as f64;
        assert!((frac - 0.004).abs() < 0.001);
    }
}
