//! A generic set-associative cache model with LRU replacement.
//!
//! Used for the L1/L2/LLC tag arrays, the TLB and the page-walk cache. The
//! model tracks tags, dirtiness and one *payload* value per line (used,
//! e.g., to hold the "compressed PTB" data bit the paper adds to every
//! L2/L3 cacheline, §V-A4). The CTE cache and the CTE buffer have
//! specialized layouts ([`PackedCteSlots`](crate::PackedCteSlots),
//! [`CteBuffer`](crate::CteBuffer)); their parity tests keep this model
//! as the reference for the replacement order they must reproduce.

/// One resident line.
#[derive(Debug, Clone)]
struct Line<P> {
    key: u64,
    dirty: bool,
    payload: P,
    /// LRU timestamp (larger = more recent).
    stamp: u64,
}

/// What an access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The key was resident.
    Hit,
    /// The key was absent (and has now been filled).
    Miss,
}

/// A set-associative LRU cache over `u64` keys with per-line payloads.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::SetAssocCache;
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(2, 4); // 8 lines
/// assert!(!c.access(42, false, ()).0.is_hit());
/// assert!(c.access(42, false, ()).0.is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    sets: Vec<Vec<Line<P>>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CacheOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

impl<P: Clone> SetAssocCache<P> {
    /// Creates a cache with `num_sets` sets of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `num_sets` is not a power of
    /// two.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache dimensions must be nonzero");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Self { sets: vec![Vec::with_capacity(ways); num_sets], ways, tick: 0, hits: 0, misses: 0 }
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

    /// Accesses `key`; fills it with `payload` on miss. Returns the outcome
    /// and, on miss, the evicted line's `(key, dirty, payload)` if the set
    /// was full.
    pub fn access(
        &mut self,
        key: u64,
        write: bool,
        payload: P,
    ) -> (CacheOutcome, Option<(u64, bool, P)>) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        let lines = &mut self.sets[set];
        if let Some(line) = lines.iter_mut().find(|l| l.key == key) {
            line.stamp = tick;
            line.dirty |= write;
            self.hits = self.hits.saturating_add(1);
            return (CacheOutcome::Hit, None);
        }
        self.misses = self.misses.saturating_add(1);
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
        (CacheOutcome::Miss, victim)
    }

    /// Whether `key` is resident, without touching LRU state.
    pub fn contains(&self, key: u64) -> bool {
        self.sets[self.set_of(key)].iter().any(|l| l.key == key)
    }

    /// The payload of a resident line.
    pub fn payload(&self, key: u64) -> Option<&P> {
        self.sets[self.set_of(key)].iter().find(|l| l.key == key).map(|l| &l.payload)
    }

    /// Mutable payload of a resident line.
    pub fn payload_mut(&mut self, key: u64) -> Option<&mut P> {
        let set = self.set_of(key);
        self.sets[set].iter_mut().find(|l| l.key == key).map(|l| &mut l.payload)
    }

    /// Removes `key` if resident, returning its payload.
    pub fn invalidate(&mut self, key: u64) -> Option<P> {
        let set = self.set_of(key);
        let lines = &mut self.sets[set];
        let idx = lines.iter().position(|l| l.key == key)?;
        Some(lines.swap_remove(idx).payload)
    }

    /// Drops every line.
    pub fn clear(&mut self) {
        for s in self.sets.iter_mut() {
            s.clear();
        }
    }

    /// (hits, misses) since construction or [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zeroes the hit/miss counters (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(!c.access(1, false, 10).0.is_hit());
        assert!(c.access(1, false, 11).0.is_hit());
        // Payload from the fill survives (hits don't replace payloads).
        assert_eq!(c.payload(1), Some(&10));
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
    fn stats_and_hit_rate() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 2);
        c.access(1, false, ());
        c.access(1, false, ());
        c.access(2, false, ());
        assert_eq!(c.stats(), (1, 2));
        c.reset_stats();
        assert_eq!(c.stats(), (0, 0));
        assert!(c.access(2, false, ()).0.is_hit(), "a reset keeps the lines");
        assert_eq!(c.stats(), (1, 0));
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
}
