//! A generic set-associative cache model with LRU replacement.
//!
//! Used for the L1/L2/LLC tag arrays, the TLB and the page-walk cache. The
//! model tracks tags, dirtiness and one *payload* value per line (the TLB's
//! PPN; the other users keep `()`). The CTE cache and the CTE buffer have
//! specialized layouts ([`PackedCteSlots`](crate::PackedCteSlots),
//! [`CteBuffer`](crate::CteBuffer)); their parity tests keep this model
//! as the reference for the replacement order they must reproduce.
//!
//! The tag store is flat. Each set has one `u32` index entry, allocated
//! zeroed with the cache, where 0 means the set was never filled and `b`
//! points at block `b - 1` of an append-only slab of `ways`-line blocks.
//! The slab reserves its full capacity once, on the first fill, and a set
//! gets its block the first time it is filled; no set is allocated, grown
//! or moved on its own, so only the sets a run touches become resident.
//! A line is its key and an LRU stamp (larger = more recent) whose top
//! bit is the dirty bit; stamp 0 marks an empty way. A set's resident
//! lines are a prefix of its block: a fill takes the first empty way, and
//! an invalidation moves the set's last resident line into the freed way.
//! So a probe compares one key per way and reads a stamp only where the
//! key matches: a key found first in an empty way is not resident, since
//! every resident line precedes every empty way. Stamps are unique, so
//! the victim, the least recent line of a full set, is unique too,
//! whatever order the ways hold their lines in.

/// The stamp bit that marks a dirty line.
const DIRTY: u64 = 1 << 63;

/// One way of a set: 16 bytes plus the payload.
#[derive(Debug, Clone, Copy)]
struct Line<P> {
    key: u64,
    /// LRU timestamp, dirty bit on top; 0 = empty way.
    stamp: u64,
    payload: P,
}

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
    /// Per set: 0 if never filled, else 1 + its block's index in `lines`.
    sets: Vec<u32>,
    /// Append-only slab of `ways`-line blocks, one per filled set.
    lines: Vec<Line<P>>,
    ways: usize,
    tick: u64,
}

impl CacheOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

impl<P: Copy> SetAssocCache<P> {
    /// Creates a cache with `num_sets` sets of `ways` lines. Only the
    /// zeroed set index is allocated here.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, `num_sets` is not a power of
    /// two, or `num_sets` exceeds 2^31.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache dimensions must be nonzero");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        assert!(num_sets <= 1 << 31, "set count must fit the u32 set index");
        Self { sets: vec![0; num_sets], lines: Vec::new(), ways, tick: 0 }
    }

    /// A fully-associative cache with `entries` lines.
    pub fn fully_associative(entries: usize) -> Self {
        Self::new(1, entries)
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    fn set_of(&self, key: u64) -> usize {
        // Multiplicative hash spreads structured keys across sets.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets.len() - 1)
    }

    /// The slab index of `key`'s set's first way, if the set was ever
    /// filled.
    fn block(&self, key: u64) -> Option<usize> {
        match self.sets[self.set_of(key)] {
            0 => None,
            b => Some((b as usize - 1) * self.ways),
        }
    }

    /// The slab index of `key`'s line, if resident.
    fn find(&self, key: u64) -> Option<usize> {
        self.scan(self.block(key)?, key)
    }

    /// Scans the block at `start` for a resident `key`: one key compare per
    /// way, then the stamp of the first match (see the module doc).
    fn scan(&self, start: usize, key: u64) -> Option<usize> {
        let ways = &self.lines[start..start + self.ways];
        let w = ways.iter().position(|l| l.key == key)?;
        (ways[w].stamp != 0).then_some(start + w)
    }

    /// Probes `key`'s set, giving a never-filled set its block (whose empty
    /// ways hold copies of `filler`): `Ok` with the slab index of `key`'s
    /// line, or `Err` with the way a fill takes, the first empty way or in
    /// a full set the least recent line.
    fn probe(&mut self, key: u64, filler: P) -> Result<usize, usize> {
        let Some(start) = self.block(key) else {
            if self.lines.capacity() == 0 {
                self.lines.reserve_exact(self.capacity());
            }
            let start = self.lines.len();
            let empty = Line { key: 0, stamp: 0, payload: filler };
            self.lines.resize(start + self.ways, empty);
            let set = self.set_of(key);
            self.sets[set] = (start / self.ways) as u32 + 1;
            return Err(start);
        };
        if let Some(i) = self.scan(start, key) {
            return Ok(i);
        }
        let (mut victim, mut oldest) = (start, u64::MAX);
        for (i, line) in self.lines[start..start + self.ways].iter().enumerate() {
            if line.stamp == 0 {
                return Err(start + i);
            }
            if line.stamp & !DIRTY < oldest {
                (victim, oldest) = (start + i, line.stamp & !DIRTY);
            }
        }
        Err(victim)
    }

    /// Writes `line` into slab index `i`, returning the line it evicted.
    fn fill(&mut self, i: usize, line: Line<P>) -> Option<Evicted<P>> {
        let old = std::mem::replace(&mut self.lines[i], line);
        (old.stamp != 0).then_some((old.key, old.stamp & DIRTY != 0, old.payload))
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
        self.tick += 1;
        let stamp = self.tick | if write { DIRTY } else { 0 };
        match self.probe(key, payload) {
            Ok(i) => {
                let line = &mut self.lines[i];
                line.stamp = stamp | (line.stamp & DIRTY);
                (CacheOutcome::Hit, None)
            }
            Err(i) => (CacheOutcome::Miss, self.fill(i, Line { key, stamp, payload })),
        }
    }

    /// The payload of a resident `key`, refreshing its recency (a read
    /// hit); `None`, with nothing filled, if absent.
    pub fn lookup(&mut self, key: u64) -> Option<P> {
        let i = self.find(key)?;
        self.tick += 1;
        let line = &mut self.lines[i];
        line.stamp = self.tick | (line.stamp & DIRTY);
        Some(line.payload)
    }

    /// Sets `key`'s payload. A resident line keeps its recency and
    /// dirtiness; an absent key is filled clean as on an access miss,
    /// and the evicted line, if the set was full, is returned.
    pub fn insert(&mut self, key: u64, payload: P) -> Option<Evicted<P>> {
        match self.probe(key, payload) {
            Ok(i) => {
                self.lines[i].payload = payload;
                None
            }
            Err(i) => {
                self.tick += 1;
                self.fill(i, Line { key, stamp: self.tick, payload })
            }
        }
    }

    /// Whether `key` is resident, without touching LRU state.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key` if resident, returning its payload. The set's last
    /// resident line moves into the freed way, so residents stay a prefix.
    pub fn invalidate(&mut self, key: u64) -> Option<P> {
        let i = self.find(key)?;
        let start = i - i % self.ways;
        let ways = &self.lines[start..start + self.ways];
        let last = start + ways.iter().take_while(|l| l.stamp != 0).count() - 1;
        let line = self.lines[i];
        self.lines[i] = self.lines[last];
        self.lines[last].stamp = 0;
        Some(line.payload)
    }

    /// Empties every way; filled sets keep their blocks. Costs one write
    /// per resident line.
    pub fn clear(&mut self) {
        for block in self.lines.chunks_exact_mut(self.ways) {
            for line in block.iter_mut().take_while(|l| l.stamp != 0) {
                line.stamp = 0;
            }
        }
    }

    /// The payload of a resident `key`, without touching LRU state.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: u64) -> Option<P> {
        self.find(key).map(|i| self.lines[i].payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tmcc_types::addr::Ppn;

    /// The cache as it was built before the flat store: one `Vec` of
    /// lines per set, filled by `push` and emptied by `swap_remove`. The
    /// parity test drives both with one trace.
    mod reference {
        #[derive(Debug, Clone)]
        struct Line<P> {
            key: u64,
            dirty: bool,
            payload: P,
            /// LRU timestamp (larger = more recent).
            stamp: u64,
        }

        pub struct VecPerSetCache<P> {
            sets: Vec<Vec<Line<P>>>,
            ways: usize,
            tick: u64,
        }

        impl<P: Clone> VecPerSetCache<P> {
            pub fn new(num_sets: usize, ways: usize) -> Self {
                Self { sets: vec![Vec::with_capacity(ways); num_sets], ways, tick: 0 }
            }

            fn set_of(&self, key: u64) -> usize {
                (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets.len() - 1)
            }

            pub fn access(
                &mut self,
                key: u64,
                write: bool,
                payload: P,
            ) -> (bool, Option<(u64, bool, P)>) {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(key);
                let lines = &mut self.sets[set];
                if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
                    line.stamp = tick;
                    line.dirty |= write;
                    return (true, None);
                }
                let mut victim = None;
                if lines.len() == self.ways {
                    let idx = lines
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .expect("set is full");
                    let v = lines.swap_remove(idx);
                    victim = Some((v.key, v.dirty, v.payload));
                }
                lines.push(Line { key, dirty: write, payload, stamp: tick });
                (false, victim)
            }

            pub fn contains(&self, key: u64) -> bool {
                self.sets[self.set_of(key)].iter().any(|l| l.key == key)
            }

            pub fn payload(&self, key: u64) -> Option<&P> {
                self.sets[self.set_of(key)].iter().find(|l| l.key == key).map(|l| &l.payload)
            }

            pub fn payload_mut(&mut self, key: u64) -> Option<&mut P> {
                let set = self.set_of(key);
                self.sets[set].iter_mut().find(|l| l.key == key).map(|l| &mut l.payload)
            }

            pub fn invalidate(&mut self, key: u64) -> Option<P> {
                let set = self.set_of(key);
                let lines = &mut self.sets[set];
                let idx = lines.iter().position(|l| l.key == key)?;
                Some(lines.swap_remove(idx).payload)
            }

            pub fn clear(&mut self) {
                for s in self.sets.iter_mut() {
                    s.clear();
                }
            }

            /// What the TLB's lookup did before the store had one: check
            /// residency, access (touching recency), then read the payload.
            pub fn lookup(&mut self, key: u64) -> Option<P> {
                let p = self.payload(key)?.clone();
                let _ = self.access(key, false, p.clone());
                Some(p)
            }

            /// What the TLB's fill did: overwrite a resident payload in
            /// place, else fill through an access.
            pub fn insert(&mut self, key: u64, payload: P) -> Option<(u64, bool, P)> {
                match self.payload_mut(key) {
                    Some(slot) => {
                        *slot = payload;
                        None
                    }
                    None => self.access(key, false, payload).1,
                }
            }
        }
    }

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
        let mut c: SetAssocCache<()> = SetAssocCache::fully_associative(2);
        c.access(1, false, ());
        c.access(2, false, ());
        c.access(1, false, ()); // 2 is now LRU
        let (_, victim) = c.access(3, false, ());
        assert_eq!(victim.map(|v| v.0), Some(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut c: SetAssocCache<()> = SetAssocCache::fully_associative(1);
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
    fn insert_keeps_recency_and_lookup_refreshes_it() {
        let mut c: SetAssocCache<u32> = SetAssocCache::fully_associative(2);
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
    fn slab_blocks_only_for_filled_sets() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1 << 14, 8);
        assert!(c.lines.is_empty() && c.lines.capacity() == 0);
        assert_eq!(c.lookup(5), None);
        assert!(!c.contains(5) && c.invalidate(5).is_none());
        assert_eq!(c.lines.capacity(), 0, "reads allocate nothing");
        for key in 0..3u64 {
            c.access(key * 977, false, ());
        }
        assert_eq!(c.lines.capacity(), c.capacity(), "one reservation of every line");
        let filled = c.sets.iter().filter(|&&b| b != 0).count();
        assert_eq!(c.lines.len(), filled * 8);
        let blocks = c.lines.len();
        c.clear();
        assert!((0..3u64).all(|key| !c.contains(key * 977)));
        c.access(977, false, ());
        assert!(c.contains(977));
        assert_eq!(c.lines.len(), blocks, "a cleared set refills its own block");
    }

    /// Drives the flat store and the `Vec`-per-set reference with one
    /// seeded trace of every operation over `keys`, and checks that they
    /// agree on every result and, at the end, on every key's residency.
    fn parity<P: Copy + PartialEq + std::fmt::Debug>(
        num_sets: usize,
        ways: usize,
        keys: &[u64],
        steps: u32,
        seed: u64,
        mut payload: impl FnMut(&mut SmallRng) -> P,
    ) {
        let mut flat: SetAssocCache<P> = SetAssocCache::new(num_sets, ways);
        let mut reference = reference::VecPerSetCache::new(num_sets, ways);
        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..steps {
            let key = keys[rng.gen_range(0..keys.len())];
            match rng.gen_range(0..100u32) {
                0..=39 => {
                    let (write, p) = (rng.gen_bool(0.3), payload(&mut rng));
                    let (outcome, evicted) = flat.access(key, write, p);
                    let want = reference.access(key, write, p);
                    assert_eq!((outcome.is_hit(), evicted), want, "access, step {step}");
                }
                40..=59 => assert_eq!(flat.lookup(key), reference.lookup(key), "step {step}"),
                60..=79 => {
                    let p = payload(&mut rng);
                    assert_eq!(flat.insert(key, p), reference.insert(key, p), "step {step}");
                }
                80..=89 => assert_eq!(flat.contains(key), reference.contains(key), "step {step}"),
                90..=98 => {
                    assert_eq!(flat.invalidate(key), reference.invalidate(key), "step {step}")
                }
                // A few clears per trace, so the large geometry still fills.
                _ if rng.gen_range(0..2_000u32) == 0 => {
                    flat.clear();
                    reference.clear();
                }
                _ => {}
            }
        }
        for &key in keys {
            assert_eq!(flat.peek(key), reference.payload(key).copied(), "residency of {key:#x}");
        }
    }

    #[test]
    fn parity_with_vec_per_set_reference() {
        // The page-walk cache: one fully-associative set of 64.
        let pwc_keys: Vec<u64> = (0..96).map(|k| k << 3 | (k % 3 + 2)).collect();
        parity(1, 64, &pwc_keys, 60_000, 0x9C, |_| ());
        // The TLB: 256 sets of 8 ways holding PPNs, over ~1.5x its reach.
        let vpns: Vec<u64> = (0..3_000).collect();
        parity(256, 8, &vpns, 200_000, 0x71B, |rng| Ppn::new(rng.gen_range(0..1u64 << 40)));
        // A fleet tenant's L3: 16 384 sets of 8 ways, sparse block keys
        // over a 40-bit space, enough of them to fill and evict sets.
        let mut rng = SmallRng::seed_from_u64(0x13);
        let blocks: Vec<u64> = (0..200_000).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        parity(1 << 14, 8, &blocks, 600_000, 0x13_13, |_| ());
    }
}
