//! A small fully-associative map with exact LRU replacement, O(1) per
//! operation: the store under the page walker's page-walk cache and
//! TMCC's CTE buffer, the two 64-entry fully-associative structures.
//!
//! Entries live in a fixed arena, found through a chained key index with
//! four buckets per entry and ordered by an intrusive recency list. The
//! victim is the least recently *touched* entry: [`LruMap::insert`] and a
//! [`LruMap::lookup`] hit touch, while [`LruMap::get_mut`] and
//! [`LruMap::remove`] do not. That is the order an LRU stamp per line
//! gives; the walker's and the CTE buffer's parity tests drive their
//! structure beside a stamped fully-associative cache.

/// Link and index sentinel: no entry.
const NIL: u32 = u32::MAX;

/// One arena slot: a resident entry, its recency links and its index chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node<V> {
    key: u64,
    value: V,
    /// Next more recently touched node (`NIL` at the MRU end).
    newer: u32,
    /// Next less recently touched node (`NIL` at the LRU end).
    older: u32,
    /// Next node whose key hashes to the same bucket.
    chain: u32,
}

/// A fully-associative exact-LRU map from `u64` keys to `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LruMap<V> {
    /// Entry arena; grows to `capacity`, then recycles the LRU node.
    nodes: Vec<Node<V>>,
    capacity: usize,
    /// Arena indices released by `remove`.
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

impl<V: Copy> LruMap<V> {
    /// Creates a map of `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above 2^24 (the arena links are
    /// `u32`).
    pub(crate) fn new(entries: usize) -> Self {
        assert!((1..=1 << 24).contains(&entries), "LRU map size {entries} outside 1..=2^24");
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

    /// Heap bytes the map owns (capacity, not length): the entry arena,
    /// its free list and the key index.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
            + (self.free.capacity() + self.heads.capacity()) * std::mem::size_of::<u32>()
    }

    /// Bucket of `key` (Fibonacci hashing keeps runs of adjacent keys,
    /// such as one PTB's worth of PPNs, apart).
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

    /// Sets `key`'s value and touches it, evicting the least recently
    /// touched entry when the map is full. Returns whether `key` was
    /// already resident.
    pub(crate) fn insert(&mut self, key: u64, value: V) -> bool {
        if let Some(n) = self.find(key) {
            self.nodes[n].value = value;
            self.touch(n);
            return true;
        }
        let node = Node { key, value, newer: NIL, older: NIL, chain: NIL };
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
        false
    }

    /// The value of `key`, touching it.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<V> {
        let n = self.find(key)?;
        self.touch(n);
        Some(self.nodes[n].value)
    }

    /// The value of `key`, to update in place without touching it.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let n = self.find(key)?;
        Some(&mut self.nodes[n].value)
    }

    /// Drops `key`'s entry, if resident.
    pub(crate) fn remove(&mut self, key: u64) {
        if let Some(n) = self.find(key) {
            self.unchain(n);
            self.unlink(n);
            self.free.push(n as u32);
        }
    }

    /// Drops every entry: one index write per arena node, so a map with
    /// few entries clears in a few writes.
    pub(crate) fn clear(&mut self) {
        for n in 0..self.nodes.len() {
            let b = self.bucket(self.nodes[n].key);
            self.heads[b] = NIL;
        }
        self.nodes.clear();
        self.free.clear();
        self.mru = NIL;
        self.lru = NIL;
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_residency_and_touches() {
        let mut m = LruMap::new(2);
        assert!(!m.insert(1, 'a'));
        assert!(!m.insert(2, 'b'));
        assert!(m.insert(1, 'c'), "1 was resident; it is now the most recent");
        assert!(!m.insert(3, 'd')); // evicts 2
        assert_eq!((m.lookup(2), m.lookup(1), m.lookup(3)), (None, Some('c'), Some('d')));
    }

    #[test]
    fn clear_empties_every_bucket() {
        let mut m = LruMap::new(64);
        // 64 scattered keys in 256 buckets: some share a bucket, so the
        // cleared index holds chains of more than one node.
        let keys: Vec<u64> =
            (0..200u64).map(|k| k.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 24).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i);
            if i % 7 == 0 {
                m.remove(keys[i / 2]);
            }
        }
        m.clear();
        assert_eq!(m.len(), 0);
        assert!(m.heads.iter().all(|&h| h == NIL), "no bucket points at a dropped node");
        assert!(keys.iter().all(|&k| m.lookup(k).is_none()));
    }
}
