//! A generic set-associative cache model with LRU replacement.
//!
//! Used for the L1/L2/LLC tag arrays and the TLB. The model tracks tags,
//! dirtiness and one *payload* value per line (the TLB's PPN; the other
//! users keep `()`). The fully-associative page-walk cache and CTE buffer
//! keep their entries in an O(1) exact-LRU map instead, and the CTE cache
//! has a packed one-word-per-way directory
//! ([`PackedCteSlots`](crate::PackedCteSlots)).
//!
//! A set holds at most eight ways. Each set has one `u16` index entry,
//! allocated zeroed with the cache, where 0 means the set was never filled
//! and `b` points at block `b - 1` of three parallel append-only slabs: a
//! 32-byte-aligned block of eight 32-bit tags (two sets to a host cache
//! line), a `u64` meta word, and (for a non-empty payload type) a block of
//! eight payloads. The slabs reserve their full capacity once, on the
//! first fill, and a set gets its block the first time it is filled; no
//! set is allocated, grown or moved on its own, so only the sets a run
//! touches become resident.
//!
//! A way's tag is the low 32 bits of its key. The set index is bits 32 and
//! up of the key times an odd constant, masked to the set count 2^s, so
//! keys below 2^(32+s) that share their low 32 bits always land in
//! different sets: a set and a tag name exactly one key, and an evicted
//! line's full key is rebuilt from them (`key_of`). A key at or past
//! 2^(32+s) fails an assert ([`SetAssocCache::key_limit`]).
//!
//! The meta word holds the set's recency order as eight 4-bit way
//! numbers, most recent first, then the dirty mask and the valid mask. A
//! probe compares all eight tags, with no early exit, and masks the
//! matches with the valid bits. Free ways sit at the least recent end of
//! the order, so the victim is always the order's last way: a free way
//! while the set has one, else the least recently touched line. Touching
//! a line moves its nibble to the front and invalidating one clears its
//! valid bit and moves it to the back, each a few shifts of the meta word.

/// Ways per set at most: one tag block, one nibble per way in the order.
const MAX_WAYS: usize = 8;
/// Bit offset of the dirty mask in a meta word, above the 32-bit order.
const DIRTY_SHIFT: usize = 32;
/// Bit offset of the valid mask in a meta word, above the dirty mask.
const VALID_SHIFT: usize = 40;
/// The odd multiplier of the set-index hash (2^64 over the golden ratio).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The inverse of `MUL` mod 2^32.
const MUL_INV: u32 = inverse(MUL as u32);
const _: () = assert!((MUL as u32).wrapping_mul(MUL_INV) == 1);

/// The inverse of an odd `a` mod 2^32 by Newton's iteration: `a` is its
/// own inverse mod 8, and each step doubles the bits that are right.
const fn inverse(a: u32) -> u32 {
    let mut x = a;
    let mut steps = 0;
    while steps < 4 {
        x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
        steps += 1;
    }
    x
}

/// Bits 32..64 of `key × MUL`: the hash a set index is the low bits of.
fn hash(key: u64) -> u32 {
    (key.wrapping_mul(MUL) >> 32) as u32
}

/// The key of `tag` in set `set` of a store of `mask + 1` = 2^s sets: the
/// one key below 2^(32+s) with that set and low 32 bits `tag`.
///
/// Write the key as `tag + j·2^32` with `j < 2^s`. The low 32 bits of
/// `j·2^32 × MUL` are zero, so adding it to `tag × MUL` carries nothing
/// into bit 32, and the key's set is `(hash(tag) + j·MUL) mod 2^s`. `MUL`
/// is odd, so `j = (set − hash(tag))·MUL⁻¹ mod 2^s`.
fn key_of(set: usize, tag: u32, mask: usize) -> u64 {
    let high = (set as u32).wrapping_sub(hash(u64::from(tag))).wrapping_mul(MUL_INV);
    u64::from(high & mask as u32) << 32 | u64::from(tag)
}

/// One set's tags: two blocks to a host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Tags([u32; MAX_WAYS]);

/// One set's payloads.
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
/// assert_eq!(c.key_limit(), 1 << 33, "keys below 2^(32 + log2 sets)");
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
    /// Per filled set: each way's tag, the low 32 bits of its key (stale
    /// in a free way).
    tags: Vec<Tags>,
    /// Per filled set: the recency order (bits 0..32, way numbers most
    /// recent first), the dirty mask (bits 32..40; a free way's bit is
    /// stale until a fill sets it) and the valid mask (bits 40..48).
    meta: Vec<u64>,
    /// Per filled set: its payloads (no memory for `()`).
    payloads: Vec<Block<P>>,
    ways: usize,
    /// `32 + s` for 2^s sets: every key is below `1 << key_bits`.
    key_bits: u32,
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

/// The valid bit of way `w`.
fn valid_bit(w: usize) -> u64 {
    1 << (VALID_SHIFT + w)
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
        let key_bits = 32 + num_sets.trailing_zeros();
        Self { sets, tags: Vec::new(), meta: Vec::new(), payloads: Vec::new(), ways, key_bits }
    }

    /// One past the largest key the cache takes: 2^(32+s) for 2^s sets.
    /// Every operation panics on a key at or past it.
    pub fn key_limit(&self) -> u64 {
        1 << self.key_bits
    }

    /// The set of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is at or past [`key_limit`](Self::key_limit), where
    /// its tag and set would name another key.
    fn set_of(&self, key: u64) -> usize {
        assert!(
            key >> self.key_bits == 0,
            "key {key:#x} is at or past 2^{}, the key range of a {}-set cache",
            self.key_bits,
            self.sets.len()
        );
        hash(key) as usize & (self.sets.len() - 1)
    }

    /// The block of `set`, if the set was ever filled.
    fn block(&self, set: usize) -> Option<usize> {
        match self.sets[set] {
            0 => None,
            b => Some(b as usize - 1),
        }
    }

    /// The valid way of block `b` whose tag is `tag`: all eight tags
    /// compared, the matches masked with the valid bits. Always inlined:
    /// as a call it made every probe 8–10 % slower.
    #[inline(always)]
    fn way_of(&self, b: usize, tag: u32) -> Option<usize> {
        let hits = self.tags[b]
            .0
            .iter()
            .enumerate()
            .fold(0u32, |hits, (w, &t)| hits | u32::from(t == tag) << w);
        let hits = hits & (self.meta[b] >> VALID_SHIFT) as u32 & 0xFF;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// `(block, way)` of a resident `key`.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        let b = self.block(self.set_of(key))?;
        Some((b, self.way_of(b, key as u32)?))
    }

    /// Probes `key`'s set, giving a never-filled set its block (whose
    /// payloads are copies of `filler`): the set, its block, and `Ok` with
    /// the way holding `key` or `Err` with the way a fill takes, the last
    /// in the order.
    fn probe(&mut self, key: u64, filler: P) -> (usize, usize, Result<usize, usize>) {
        let set = self.set_of(key);
        let b = match self.block(set) {
            Some(b) => b,
            None => self.append_block(set, filler),
        };
        match self.way_of(b, key as u32) {
            Some(w) => (set, b, Ok(w)),
            None => (set, b, Err(((self.meta[b] >> (4 * (self.ways - 1))) & 0xF) as usize)),
        }
    }

    /// Gives `set` a fresh block of free ways, reserving every set's block
    /// on the first call; returns the block.
    fn append_block(&mut self, set: usize, filler: P) -> usize {
        let b = self.tags.len();
        if b == self.tags.capacity() {
            let rest = self.sets.len() - b;
            self.tags.reserve_exact(rest);
            self.meta.reserve_exact(rest);
            self.payloads.reserve_exact(rest);
        }
        self.tags.push(Tags([0; MAX_WAYS]));
        self.payloads.push(Block([filler; MAX_WAYS]));
        // No way valid, and way 0 last in the order, so the set fills
        // from way 0 up.
        let fresh = (0..self.ways).fold(0, |m, w| m << 4 | w as u64);
        self.meta.push(fresh);
        self.sets[set] = b as u16 + 1;
        b
    }

    /// Writes `key` into way `w` of block `b` of `set` (the last in its
    /// order) and makes it the most recent, returning the line it
    /// evicted.
    fn fill(
        &mut self,
        (set, b, w): (usize, usize, usize),
        key: u64,
        dirty: bool,
        payload: P,
    ) -> Option<Evicted<P>> {
        let old = std::mem::replace(&mut self.tags[b].0[w], key as u32);
        let old_payload = std::mem::replace(&mut self.payloads[b].0[w], payload);
        let (meta, bit) = (self.meta[b], dirty_bit(w));
        self.meta[b] = (promote(meta, w) & !bit) | valid_bit(w) | if dirty { bit } else { 0 };
        (meta & valid_bit(w) != 0)
            .then(|| (key_of(set, old, self.sets.len() - 1), meta & bit != 0, old_payload))
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
    ///
    /// # Panics
    ///
    /// Panics if `key` is at or past [`key_limit`](Self::key_limit), as
    /// does every operation.
    pub fn access(
        &mut self,
        key: u64,
        write: bool,
        payload: P,
    ) -> (CacheOutcome, Option<Evicted<P>>) {
        match self.probe(key, payload) {
            (_, b, Ok(w)) => {
                self.touch(b, w, write);
                (CacheOutcome::Hit, None)
            }
            (set, b, Err(w)) => (CacheOutcome::Miss, self.fill((set, b, w), key, write, payload)),
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
            (_, b, Ok(w)) => {
                self.payloads[b].0[w] = payload;
                None
            }
            (set, b, Err(w)) => self.fill((set, b, w), key, false, payload),
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
        self.meta[b] = demote(self.meta[b] & !valid_bit(w), w, self.ways);
        Some(self.payloads[b].0[w])
    }

    /// Empties every way; filled sets keep their blocks. Any order of
    /// free ways is valid, and a fill sets its way's tag and dirty bit,
    /// so only the valid masks are reset.
    pub fn clear(&mut self) {
        for meta in &mut self.meta {
            *meta &= !(0xFF << VALID_SHIFT);
        }
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
        // The dirty and valid masks above the order ride through unchanged.
        let masks = 0x1F << DIRTY_SHIFT | 0x15 << VALID_SHIFT;
        assert_eq!(promote(masks | meta, 1), masks | 0x02341);
        assert_eq!(demote(masks | meta, 3, 5), masks | 0x30124);
    }

    #[test]
    fn slab_blocks_only_for_filled_sets() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1 << 14, 8);
        assert!(c.tags.is_empty() && c.tags.capacity() == 0 && c.meta.capacity() == 0);
        assert_eq!(c.lookup(5), None);
        assert!(!c.contains(5) && c.invalidate(5).is_none());
        assert_eq!(c.tags.capacity(), 0, "reads allocate nothing");
        for key in 0..3u64 {
            c.access(key * 977, false, ());
        }
        assert_eq!(c.tags.capacity(), 1 << 14, "one reservation of every set's block");
        assert_eq!(c.meta.capacity(), 1 << 14);
        let filled = c.sets.iter().filter(|&&b| b != 0).count();
        assert_eq!((c.tags.len(), c.meta.len()), (filled, filled));
        let blocks = c.tags.len();
        c.clear();
        assert!((0..3u64).all(|key| !c.contains(key * 977)));
        c.access(977, false, ());
        assert!(c.contains(977));
        assert_eq!(c.tags.len(), blocks, "a cleared set refills its own block");
    }

    #[test]
    fn a_set_costs_40_bytes_or_104_with_ppns() {
        /// Bytes the slabs reserve per set on the first fill.
        fn bytes_per_set<P: Copy>(mut c: SetAssocCache<P>, filler: P) -> usize {
            c.access(0, false, filler);
            let sets = c.sets.len();
            assert_eq!((c.tags.capacity(), c.meta.capacity()), (sets, sets));
            let payloads = c.payloads.capacity().min(sets) * std::mem::size_of::<Block<P>>();
            (sets * (std::mem::size_of::<Tags>() + std::mem::size_of::<u64>()) + payloads) / sets
        }
        // The L3 and the TLB: 32 B of tags and an 8 B meta word, plus 64 B
        // of PPNs in the TLB.
        assert_eq!(bytes_per_set(SetAssocCache::new(1 << 14, 8), ()), 40);
        assert_eq!(bytes_per_set(SetAssocCache::new(256, 8), Ppn::new(0)), 104);
        assert_eq!(std::mem::align_of::<Tags>(), 32, "two sets' tags to a host cache line");
    }

    #[test]
    fn key_limit_is_two_to_the_32_plus_log2_sets() {
        // The default L1, the TLB and the L3, and the extremes.
        for (sets, bits) in [(128, 39), (256, 40), (1 << 14, 46), (1, 32), (1 << 15, 47)] {
            assert_eq!(SetAssocCache::<()>::new(sets, 8).key_limit(), 1 << bits, "{sets} sets");
        }
        let mut c: SetAssocCache<()> = SetAssocCache::new(128, 8);
        let top = c.key_limit() - 1;
        assert!(!c.access(top, true, ()).0.is_hit() && c.contains(top));
        assert_eq!(c.invalidate(top), Some(()));
    }

    #[test]
    #[should_panic(
        expected = "key 0x8000000000 is at or past 2^39, the key range of a 128-set cache"
    )]
    fn rejects_keys_past_the_range() {
        // The default L1: 2^39 blocks (32 TiB) and no further, where the
        // key's set and low 32 bits would name key 0.
        let mut c: SetAssocCache<()> = SetAssocCache::new(128, 8);
        c.access(0, false, ());
        let _ = c.contains(1 << 39);
    }

    #[test]
    fn keys_sharing_their_low_bits_are_distinct_lines() {
        // 2^s keys of one low word land in 2^s different sets, and each
        // eviction reports its own full key.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(16, 1);
        let keys: Vec<u64> = (0..16).map(|j| j << 32 | 0xDEAD_BEEF).collect();
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(c.access(key, i.is_multiple_of(2), i as u32), (CacheOutcome::Miss, None));
        }
        assert!(keys.iter().enumerate().all(|(i, &key)| c.peek(key) == Some(i as u32)));
        // One more key in each set evicts exactly the line that set held.
        let mut evicted: Vec<(u64, bool, u32)> = Vec::new();
        for key in 0..1_000u64 {
            if let (CacheOutcome::Miss, Some(line)) = c.access(key, false, 0) {
                evicted.push(line);
            }
        }
        let shared: Vec<_> = evicted.iter().filter(|(k, _, _)| *k as u32 == 0xDEAD_BEEF).collect();
        assert_eq!(shared.len(), 16, "every set evicted its shared-low line once");
        for &&(key, dirty, payload) in &shared {
            let i = (key >> 32) as usize;
            assert_eq!((key, dirty, payload), (keys[i], i.is_multiple_of(2), i as u32));
        }
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

    /// `n` keys drawn over the whole legal range of a `sets`-set store,
    /// its top key included.
    fn legal_keys(rng: &mut SmallRng, sets: usize, n: usize) -> Vec<u64> {
        let limit = SetAssocCache::<()>::new(sets, 1).key_limit();
        (1..n).map(|_| rng.gen_range(0..limit)).chain([limit - 1]).collect()
    }

    #[test]
    fn parity_with_stamp_store_reference() {
        // The TLB: 256 sets of 8 ways holding PPNs, over ~1.5x its reach,
        // then sparse VPNs over its whole 2^40 range.
        let ppn = |rng: &mut SmallRng| Ppn::new(rng.gen_range(0..1u64 << 40));
        let vpns: Vec<u64> = (0..3_000).collect();
        parity(256, 8, &vpns, 200_000, 0x71B, ppn);
        let mut rng = SmallRng::seed_from_u64(0x13);
        parity(256, 8, &legal_keys(&mut rng, 256, 3_000), 100_000, 0x71C, ppn);
        // The L1, L2 and a fleet tenant's L3 (128, 512 and 16 384 sets of
        // 8 ways): sparse block keys up to each one's top legal key (2^39,
        // 2^41 and 2^46), enough of them to fill and evict sets.
        for (sets, blocks, steps) in [(128, 2_000, 100_000), (512, 8_000, 150_000)] {
            let keys = legal_keys(&mut rng, sets, blocks);
            parity(sets, 8, &keys, steps, 0x11 * sets as u64, |_| ());
        }
        let blocks = legal_keys(&mut rng, 1 << 14, 200_000);
        parity(1 << 14, 8, &blocks, 600_000, 0x13_13, |_| ());
        // Keys that share their low 32 bits: every high part of a few low
        // words, so each set holds several of them and evicts them.
        for (sets, ways) in [(128, 8), (16, 3), (2, 2)] {
            let high = SetAssocCache::<()>::new(sets, 1).key_limit() >> 32;
            let keys: Vec<u64> = [0, 1, 0xDEAD_BEEF, 0x8000_0000, u32::MAX]
                .into_iter()
                .chain((0..ways as u32 * 2).map(|i| i.wrapping_mul(0x9E37_79B9)))
                .flat_map(|low| (0..high).map(move |j| j << 32 | u64::from(low)))
                .collect();
            let seed = 0x5A5E + sets as u64;
            parity(sets, ways, &keys, 60_000, seed, |rng| rng.gen_range(0..1_000u32));
        }
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

        /// At every set count from 1 to 2^15, a legal key's set and low 32
        /// bits rebuild the key.
        #[test]
        fn a_set_and_a_tag_rebuild_the_key(bits in any::<u64>()) {
            for s in 0..=15 {
                let mask = (1usize << s) - 1;
                for key in [bits >> (32 - s), (1 << (32 + s)) - 1 - (bits >> (32 - s))] {
                    let set = hash(key) as usize & mask;
                    prop_assert_eq!(key_of(set, key as u32, mask), key, "{} sets", mask + 1);
                }
            }
        }
    }
}
