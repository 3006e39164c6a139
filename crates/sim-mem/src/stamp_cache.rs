//! The set-associative cache as it was stored before the one-line-per-set
//! layout, kept as the reference the replacement order is checked
//! against: an LRU stamp per line, any number of ways.
//!
//! Each set has one `u32` index entry (0 = never filled, `b` = block
//! `b - 1` of an append-only slab of `ways`-line blocks). A line is its
//! key and an LRU stamp (larger = more recent) whose top bit is the dirty
//! bit; stamp 0 marks an empty way. A set's resident lines are a prefix
//! of its block: a fill takes the first empty way, and an invalidation
//! moves the set's last resident line into the freed way. Stamps come
//! from one counter, so the victim, the least recent line of a full set,
//! is unique. [`SetAssocCache`](crate::SetAssocCache)'s parity tests drive
//! it beside the store over every operation; the page walker, the CTE
//! buffer and the CTE-cache directory keep it as the 64-way and 16-way
//! exact-LRU reference for their own parity tests.

use crate::cache::{CacheOutcome, Evicted};

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

/// A set-associative LRU cache over `u64` keys with per-line payloads,
/// one LRU stamp per line.
#[derive(Debug, Clone)]
pub(crate) struct StampCache<P> {
    /// Per set: 0 if never filled, else 1 + its block's index in `lines`.
    sets: Vec<u32>,
    /// Append-only slab of `ways`-line blocks, one per filled set.
    lines: Vec<Line<P>>,
    ways: usize,
    tick: u64,
}

impl<P: Copy> StampCache<P> {
    /// Creates a cache with `num_sets` sets (a power of two) of `ways`
    /// lines.
    pub(crate) fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache dimensions must be nonzero");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Self { sets: vec![0; num_sets], lines: Vec::new(), ways, tick: 0 }
    }

    /// A fully-associative cache with `entries` lines.
    pub(crate) fn fully_associative(entries: usize) -> Self {
        Self::new(1, entries)
    }

    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets.len() - 1)
    }

    fn block(&self, key: u64) -> Option<usize> {
        match self.sets[self.set_of(key)] {
            0 => None,
            b => Some((b as usize - 1) * self.ways),
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        self.scan(self.block(key)?, key)
    }

    /// One key compare per way, then the stamp of the first match.
    fn scan(&self, start: usize, key: u64) -> Option<usize> {
        let ways = &self.lines[start..start + self.ways];
        let w = ways.iter().position(|l| l.key == key)?;
        (ways[w].stamp != 0).then_some(start + w)
    }

    /// `Ok` with the slab index of `key`'s line, or `Err` with the way a
    /// fill takes: the first empty way, or in a full set the least
    /// recent line.
    fn probe(&mut self, key: u64, filler: P) -> Result<usize, usize> {
        let Some(start) = self.block(key) else {
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

    fn fill(&mut self, i: usize, line: Line<P>) -> Option<Evicted<P>> {
        let old = std::mem::replace(&mut self.lines[i], line);
        (old.stamp != 0).then_some((old.key, old.stamp & DIRTY != 0, old.payload))
    }

    /// As [`SetAssocCache::access`](crate::SetAssocCache::access).
    pub(crate) fn access(
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

    /// As [`SetAssocCache::lookup`](crate::SetAssocCache::lookup).
    pub(crate) fn lookup(&mut self, key: u64) -> Option<P> {
        let i = self.find(key)?;
        self.tick += 1;
        let line = &mut self.lines[i];
        line.stamp = self.tick | (line.stamp & DIRTY);
        Some(line.payload)
    }

    /// As [`SetAssocCache::insert`](crate::SetAssocCache::insert).
    pub(crate) fn insert(&mut self, key: u64, payload: P) -> Option<Evicted<P>> {
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
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key` if resident, returning its payload.
    pub(crate) fn invalidate(&mut self, key: u64) -> Option<P> {
        let i = self.find(key)?;
        let start = i - i % self.ways;
        let ways = &self.lines[start..start + self.ways];
        let last = start + ways.iter().take_while(|l| l.stamp != 0).count() - 1;
        let line = self.lines[i];
        self.lines[i] = self.lines[last];
        self.lines[last].stamp = 0;
        Some(line.payload)
    }

    /// Empties every way; filled sets keep their blocks.
    pub(crate) fn clear(&mut self) {
        for block in self.lines.chunks_exact_mut(self.ways) {
            for line in block.iter_mut().take_while(|l| l.stamp != 0) {
                line.stamp = 0;
            }
        }
    }

    /// The payload of a resident `key`, without touching LRU state.
    pub(crate) fn peek(&self, key: u64) -> Option<P> {
        self.find(key).map(|i| self.lines[i].payload)
    }
}
