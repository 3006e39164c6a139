//! A generic set-associative cache model with LRU replacement.
//!
//! Used for the L1/L2/LLC tag arrays and the TLB. The model tracks tags,
//! dirtiness and one *payload* value per line (the TLB's PPN; the other
//! users keep `()`). The fully-associative page-walk cache and CTE buffer
//! keep their entries in an O(1) exact-LRU map instead, and the CTE cache
//! has a packed one-word-per-way directory
//! ([`PackedCteSlots`](crate::PackedCteSlots)).
//!
//! A set holds at most eight ways and is one host cache line of keys.
//! Each set has one `u16` index entry, allocated zeroed with the cache,
//! where 0 means the set was never filled and `b` points at block `b - 1`
//! of three parallel append-only slabs: a 64-byte-aligned block of eight
//! keys, a `u64` meta word, and (for a non-empty payload type) a block of
//! eight payloads. The slabs reserve their full capacity once, on the
//! first fill, and a set gets its block the first time it is filled; no
//! set is allocated, grown or moved on its own, so only the sets a run
//! touches become resident.
//!
//! A free way holds the sentinel key `u64::MAX`, so a probe compares all
//! eight keys, with no early exit and nothing else read. The meta word
//! holds the set's recency order as eight 4-bit way numbers, most recent
//! first, and the dirty mask above it. Free ways sit at the least recent
//! end of the order, so the victim is always the order's last way: a
//! free way while the set has one, else the least recently touched line.
//! Touching a line moves its nibble to the front and invalidating one
//! moves it to the back, each a few shifts of the meta word.

/// Key of a free way. No simulated key reaches it: block addresses, VPNs
/// and page-walk keys all sit far below 2^63.
const FREE: u64 = u64::MAX;
/// Ways per set at most: one key block, one nibble per way in the order.
const MAX_WAYS: usize = 8;
/// Bit offset of the dirty mask in a meta word, above the 32-bit order.
const DIRTY_SHIFT: usize = 32;

/// One set's worth of keys or payloads; a block of keys is one host
/// cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Block<T>([T; MAX_WAYS]);

/// What an access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The key was resident.
    Hit,
    /// The key was absent (and has now been filled).
    Miss,
}

/// An evicted line: its key, whether it was dirty, and its payload.
pub type Evicted<P> = (u64, bool, P);

/// A set-associative LRU cache over `u64` keys with per-line payloads.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::SetAssocCache;
///
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 4); // 8 lines
/// assert!(!c.access(42, false, 7).0.is_hit());
/// assert!(c.access(42, false, 8).0.is_hit());
/// assert_eq!(c.lookup(42), Some(7), "a hit keeps the fill's payload");
/// c.insert(42, 9);
/// assert_eq!(c.lookup(42), Some(9), "an insert overwrites it");
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    /// Per set: 0 if never filled, else 1 + its block's index.
    sets: Vec<u16>,
    /// Per filled set: its keys, `FREE` in a free way.
    keys: Vec<Block<u64>>,
    /// Per filled set: the recency order (bits 0..32, way numbers most
    /// recent first) and the dirty mask (bits 32..40; a free way's bit is
    /// stale until a fill sets it).
    meta: Vec<u64>,
    /// Per filled set: its payloads (no memory for `()`).
    payloads: Vec<Block<P>>,
    ways: usize,
}

impl CacheOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Mask of the first `n` positions (nibbles) of a recency order.
fn positions(n: usize) -> u64 {
    (1 << (4 * n)) - 1
}

/// Mask of the positions of `meta`'s order in front of way `w`'s. The
/// zero-nibble test on the order XOR `w` in every nibble flags the top bit
/// of `w`'s nibble; a false flag can only follow a true one, and `w` sits
/// in front of every unused position, so the lowest flag is `w`'s.
fn ahead_of(meta: u64, w: usize) -> u64 {
    let x = meta as u32 ^ (0x1111_1111 * w as u32);
    let zero = x.wrapping_sub(0x1111_1111) & !x & 0x8888_8888;
    u64::from((zero & zero.wrapping_neg()) >> 3) - 1
}

/// `meta` with way `w` moved to the front of the order (most recent).
fn promote(meta: u64, w: usize) -> u64 {
    let ahead = ahead_of(meta, w);
    let through = (ahead << 4) | 0xF;
    (meta & !through) | ((meta & ahead) << 4) | w as u64
}

/// `meta` with way `w` moved to the back of a `ways`-way order (least
/// recent).
fn demote(meta: u64, w: usize, ways: usize) -> u64 {
    let ahead = ahead_of(meta, w);
    let behind = (meta >> 4) & positions(ways - 1) & !ahead;
    (meta & !positions(ways)) | (meta & ahead) | behind | ((w as u64) << (4 * (ways - 1)))
}

/// The dirty bit of way `w`.
fn dirty_bit(w: usize) -> u64 {
    1 << (DIRTY_SHIFT + w)
}

impl<P: Copy> SetAssocCache<P> {
    /// Creates a cache with `num_sets` sets of `ways` lines. Only the
    /// zeroed set index is allocated here.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, `ways` exceeds 8, `num_sets` is
    /// not a power of two, or `num_sets` exceeds 2^15.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache dimensions must be nonzero");
        assert!(ways <= MAX_WAYS, "a set holds at most {MAX_WAYS} ways (got {ways})");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        assert!(num_sets <= 1 << 15, "set count must fit the u16 set index");
        let sets = vec![0; num_sets];
        Self { sets, keys: Vec::new(), meta: Vec::new(), payloads: Vec::new(), ways }
    }

    fn set_of(&self, key: u64) -> usize {
        // Multiplicative hash spreads structured keys across sets.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets.len() - 1)
    }

    /// The block of `key`'s set, if the set was ever filled.
    fn block(&self, key: u64) -> Option<usize> {
        match self.sets[self.set_of(key)] {
            0 => None,
            b => Some(b as usize - 1),
        }
    }

    /// The way of block `b` that holds `key`: all eight keys compared.
    fn way_of(&self, b: usize, key: u64) -> Option<usize> {
        let hits = self.keys[b]
            .0
            .iter()
            .enumerate()
            .fold(0u32, |hits, (w, &k)| hits | u32::from(k == key) << w);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// `(block, way)` of a resident `key`.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        let b = self.block(key)?;
        Some((b, self.way_of(b, key)?))
    }

    /// Probes `key`'s set, giving a never-filled set its block (whose
    /// payloads are copies of `filler`): its block, and `Ok` with the way
    /// holding `key` or `Err` with the way a fill takes, the last in the
    /// order.
    fn probe(&mut self, key: u64, filler: P) -> (usize, Result<usize, usize>) {
        debug_assert_ne!(key, FREE, "u64::MAX marks a free way");
        let b = match self.block(key) {
            Some(b) => b,
            None => self.append_block(key, filler),
        };
        match self.way_of(b, key) {
            Some(w) => (b, Ok(w)),
            None => (b, Err(((self.meta[b] >> (4 * (self.ways - 1))) & 0xF) as usize)),
        }
    }

    /// Gives `key`'s set a fresh block of free ways, reserving every
    /// set's block on the first call; returns the block.
    fn append_block(&mut self, key: u64, filler: P) -> usize {
        let b = self.keys.len();
        if b == self.keys.capacity() {
            let rest = self.sets.len() - b;
            self.keys.reserve_exact(rest);
            self.meta.reserve_exact(rest);
            self.payloads.reserve_exact(rest);
        }
        self.keys.push(Block([FREE; MAX_WAYS]));
        self.payloads.push(Block([filler; MAX_WAYS]));
        // Way 0 last in the order, so the set fills from way 0 up.
        let fresh = (0..self.ways).fold(0, |m, w| m << 4 | w as u64);
        self.meta.push(fresh);
        let set = self.set_of(key);
        self.sets[set] = b as u16 + 1;
        b
    }

    /// Writes `key` into way `w` of block `b` (the last in its order) and
    /// makes it the most recent, returning the line it evicted.
    fn fill(
        &mut self,
        b: usize,
        w: usize,
        key: u64,
        dirty: bool,
        payload: P,
    ) -> Option<Evicted<P>> {
        let old = std::mem::replace(&mut self.keys[b].0[w], key);
        let old_payload = std::mem::replace(&mut self.payloads[b].0[w], payload);
        let (meta, bit) = (self.meta[b], dirty_bit(w));
        self.meta[b] = (promote(meta, w) & !bit) | if dirty { bit } else { 0 };
        (old != FREE).then_some((old, meta & bit != 0, old_payload))
    }

    /// Makes way `w` of block `b` the most recent, marking it dirty on a
    /// write.
    fn touch(&mut self, b: usize, w: usize, write: bool) {
        let meta = self.meta[b];
        self.meta[b] = promote(meta, w) | if write { dirty_bit(w) } else { 0 };
    }

    /// Accesses `key`; fills it with `payload` on miss. Returns the outcome
    /// and, on miss, the evicted line if the set was full. A hit keeps the
    /// line's payload.
    pub fn access(
        &mut self,
        key: u64,
        write: bool,
        payload: P,
    ) -> (CacheOutcome, Option<Evicted<P>>) {
        match self.probe(key, payload) {
            (b, Ok(w)) => {
                self.touch(b, w, write);
                (CacheOutcome::Hit, None)
            }
            (b, Err(w)) => (CacheOutcome::Miss, self.fill(b, w, key, write, payload)),
        }
    }

    /// The payload of a resident `key`, refreshing its recency (a read
    /// hit); `None`, with nothing filled, if absent.
    pub fn lookup(&mut self, key: u64) -> Option<P> {
        let (b, w) = self.find(key)?;
        self.touch(b, w, false);
        Some(self.payloads[b].0[w])
    }

    /// Sets `key`'s payload. A resident line keeps its recency and
    /// dirtiness; an absent key is filled clean as on an access miss,
    /// and the evicted line, if the set was full, is returned.
    pub fn insert(&mut self, key: u64, payload: P) -> Option<Evicted<P>> {
        match self.probe(key, payload) {
            (b, Ok(w)) => {
                self.payloads[b].0[w] = payload;
                None
            }
            (b, Err(w)) => self.fill(b, w, key, false, payload),
        }
    }

    /// Whether `key` is resident, without touching LRU state.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key` if resident, returning its payload. The freed way
    /// moves to the back of the order.
    pub fn invalidate(&mut self, key: u64) -> Option<P> {
        let (b, w) = self.find(key)?;
        self.keys[b].0[w] = FREE;
        self.meta[b] = demote(self.meta[b], w, self.ways);
        Some(self.payloads[b].0[w])
    }

    /// Empties every way; filled sets keep their blocks. Any order of
    /// free ways is valid, and a fill sets its way's dirty bit, so only
    /// the keys are reset.
    pub fn clear(&mut self) {
        self.keys.fill(Block([FREE; MAX_WAYS]));
    }

    /// The payload of a resident `key`, without touching LRU state.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: u64) -> Option<P> {
        self.find(key).map(|(b, w)| self.payloads[b].0[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp_cache::StampCache;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tmcc_types::addr::Ppn;

    #[test]
    fn hit_after_fill() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(!c.access(1, false, 10).0.is_hit());
        assert!(c.access(1, false, 11).0.is_hit());
        // Payload from the fill survives (hits don't replace payloads).
        assert_eq!(c.lookup(1), Some(10));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 2);
        c.access(1, false, ());
        c.access(2, false, ());
        c.access(1, false, ()); // 2 is now LRU
        let (_, victim) = c.access(3, false, ());
        assert_eq!(victim.map(|v| v.0), Some(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 1);
        c.access(7, true, ());
        let (_, victim) = c.access(8, false, ());
        let (key, dirty, _) = victim.expect("eviction");
        assert_eq!(key, 7);
        assert!(dirty);
    }

    #[test]
    fn invalidate_removes() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 4);
        c.access(5, false, 99);
        assert_eq!(c.invalidate(5), Some(99));
        assert!(!c.contains(5));
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn no_duplicate_keys() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(8, 4);
        for i in 0..1000u64 {
            c.access(i % 64, i % 3 == 0, ());
        }
        // A key resident twice would survive one invalidation.
        for key in 0..64 {
            if c.invalidate(key).is_some() {
                assert!(!c.contains(key), "key {key} resident twice");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = SetAssocCache::<()>::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "at most 8 ways")]
    fn rejects_more_than_eight_ways() {
        let _ = SetAssocCache::<()>::new(1, 9);
    }

    #[test]
    fn insert_keeps_recency_and_lookup_refreshes_it() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.insert(2, 20), None);
        assert_eq!(c.insert(1, 11), None, "an overwrite evicts nothing");
        // The overwrite did not touch 1: it is still the LRU line.
        assert_eq!(c.insert(3, 30), Some((1, false, 11)));
        assert_eq!(c.lookup(2), Some(20)); // 3 is now LRU
        assert_eq!(c.lookup(4), None, "a lookup miss fills nothing");
        assert_eq!(c.insert(4, 40), Some((3, false, 30)));
        assert!(c.contains(2) && c.contains(4));
    }

    #[test]
    fn order_moves_one_way_at_a_time() {
        // A 5-way order, most recent first: 4 3 2 1 0.
        let meta = 0x01234;
        assert_eq!((ahead_of(meta, 4), ahead_of(meta, 2), ahead_of(meta, 0)), (0, 0xFF, 0xFFFF));
        assert_eq!(promote(meta, 2), 0x01342);
        assert_eq!(promote(meta, 0), 0x12340);
        assert_eq!(promote(meta, 4), meta);
        assert_eq!(demote(meta, 4, 5), 0x40123);
        assert_eq!(demote(meta, 1, 5), 0x10234);
        assert_eq!(demote(meta, 0, 5), meta);
        // The dirty mask above the order rides through unchanged.
        let dirty = 0x1F << DIRTY_SHIFT;
        assert_eq!(promote(dirty | meta, 1), dirty | 0x02341);
        assert_eq!(demote(dirty | meta, 3, 5), dirty | 0x30124);
    }

    #[test]
    fn slab_blocks_only_for_filled_sets() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1 << 14, 8);
        assert!(c.keys.is_empty() && c.keys.capacity() == 0 && c.meta.capacity() == 0);
        assert_eq!(c.lookup(5), None);
        assert!(!c.contains(5) && c.invalidate(5).is_none());
        assert_eq!(c.keys.capacity(), 0, "reads allocate nothing");
        for key in 0..3u64 {
            c.access(key * 977, false, ());
        }
        assert_eq!(c.keys.capacity(), 1 << 14, "one reservation of every set's block");
        assert_eq!(c.meta.capacity(), 1 << 14);
        let filled = c.sets.iter().filter(|&&b| b != 0).count();
        assert_eq!((c.keys.len(), c.meta.len()), (filled, filled));
        let blocks = c.keys.len();
        c.clear();
        assert!((0..3u64).all(|key| !c.contains(key * 977)));
        c.access(977, false, ());
        assert!(c.contains(977));
        assert_eq!(c.keys.len(), blocks, "a cleared set refills its own block");
    }

    /// Applies one operation to the store and the stamp reference and
    /// checks that they return the same thing. `op` picks the operation
    /// (0..100; 99 clears), `write` and `p` are an access's arguments.
    fn apply_both<P: Copy + PartialEq + std::fmt::Debug>(
        store: &mut SetAssocCache<P>,
        stamps: &mut StampCache<P>,
        (op, key, write, p): (u32, u64, bool, P),
        at: &str,
    ) {
        match op {
            0..=39 => {
                let (outcome, evicted) = store.access(key, write, p);
                assert_eq!((outcome, evicted), stamps.access(key, write, p), "access, {at}");
            }
            40..=59 => assert_eq!(store.lookup(key), stamps.lookup(key), "lookup, {at}"),
            60..=79 => assert_eq!(store.insert(key, p), stamps.insert(key, p), "insert, {at}"),
            80..=89 => assert_eq!(store.contains(key), stamps.contains(key), "contains, {at}"),
            90..=98 => {
                assert_eq!(store.invalidate(key), stamps.invalidate(key), "invalidate, {at}")
            }
            _ => {
                store.clear();
                stamps.clear();
            }
        }
    }

    /// Drives the store and the stamp reference with one seeded trace of
    /// every operation over `keys`, and checks that they agree on every
    /// result and, at the end, on every key's residency and payload.
    fn parity<P: Copy + PartialEq + std::fmt::Debug>(
        num_sets: usize,
        ways: usize,
        keys: &[u64],
        steps: u32,
        seed: u64,
        mut payload: impl FnMut(&mut SmallRng) -> P,
    ) {
        let mut store: SetAssocCache<P> = SetAssocCache::new(num_sets, ways);
        let mut stamps = StampCache::new(num_sets, ways);
        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..steps {
            let key = keys[rng.gen_range(0..keys.len())];
            let (write, p) = (rng.gen_bool(0.3), payload(&mut rng));
            // A few clears per trace, so the large geometries still fill.
            let op = match rng.gen_range(0..100u32) {
                99 if rng.gen_range(0..2_000u32) != 0 => continue,
                op => op,
            };
            let at = format!("{num_sets}x{ways}, step {step}");
            apply_both(&mut store, &mut stamps, (op, key, write, p), &at);
        }
        for &key in keys {
            assert_eq!(
                store.peek(key),
                stamps.peek(key),
                "{num_sets}x{ways}: residency of {key:#x}"
            );
        }
    }

    #[test]
    fn parity_with_stamp_store_reference() {
        // The TLB: 256 sets of 8 ways holding PPNs, over ~1.5x its reach.
        let vpns: Vec<u64> = (0..3_000).collect();
        parity(256, 8, &vpns, 200_000, 0x71B, |rng| Ppn::new(rng.gen_range(0..1u64 << 40)));
        // The L1, L2 and a fleet tenant's L3 (128, 512 and 16 384 sets of
        // 8 ways): sparse block keys over a 40-bit space, enough of them
        // to fill and evict sets.
        let mut rng = SmallRng::seed_from_u64(0x13);
        for (sets, blocks, steps) in [(128, 2_000, 100_000), (512, 8_000, 150_000)] {
            let keys: Vec<u64> = (0..blocks).map(|_| rng.gen_range(0..1u64 << 40)).collect();
            parity(sets, 8, &keys, steps, 0x11 * sets as u64, |_| ());
        }
        let blocks: Vec<u64> = (0..200_000).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        parity(1 << 14, 8, &blocks, 600_000, 0x13_13, |_| ());
        // Narrow sets, where the order has unused nibbles above the LRU
        // way: 16 sets of 1, 2, 3 and 5 ways, with payloads.
        for ways in [1, 2, 3, 5] {
            let keys: Vec<u64> = (0..24 * ways as u64).map(|k| k * 0x1_0001).collect();
            parity(16, ways, &keys, 50_000, ways as u64, |rng| rng.gen_range(0..1_000u32));
        }
    }

    fn op() -> impl Strategy<Value = (u32, u64, bool, u32)> {
        (0u32..100, 0u64..40, any::<bool>(), any::<u32>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any geometry of 1 to 8 ways and 1 to 4 sets returns what the
        /// stamp reference returns, clears included.
        #[test]
        fn any_geometry_matches_stamp_store(
            sets_log2 in 0u32..3,
            ways in 1usize..=8,
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let sets = 1 << sets_log2;
            let mut store: SetAssocCache<u32> = SetAssocCache::new(sets, ways);
            let mut stamps = StampCache::new(sets, ways);
            for (i, &op) in ops.iter().enumerate() {
                apply_both(&mut store, &mut stamps, op, &format!("{sets}x{ways}, op {i}"));
            }
            for key in 0..40 {
                prop_assert_eq!(store.peek(key), stamps.peek(key));
            }
        }
    }
}
