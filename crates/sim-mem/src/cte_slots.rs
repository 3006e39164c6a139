//! Packed slot directory for CTE cache metadata.
//!
//! The CTE cache only ever needs *tag + recency* per line — its payload is
//! empty — yet the generic [`SetAssocCache`](crate::SetAssocCache) spends a
//! 16-byte line on it (a 64-bit key and a 64-bit global stamp that carries
//! the dirty bit), plus a 4-byte index entry per set. [`PackedCteSlots`]
//! stores the same directory in two fixed-width packed sequences: a 40-bit
//! tag per way (the paper's PPN width bounds every line key) and a metadata
//! field holding a valid bit plus a per-set recency rank sized to the way
//! count (3 rank bits for the default 8-way geometry — 5.5 bytes per line).
//! Both are flat in two allocations, and the directory scales to the
//! multi-tenant rosters where hundreds of per-tenant CTE caches exist at
//! once.
//!
//! The recency ranks are behaviorally identical to the generic cache's
//! global LRU stamps: stamps are only ever *compared within one set*, so
//! the per-set rank order (0 = least recent, `valid-1` = most recent) picks
//! the same victim on every eviction, and hit/miss outcomes are a function
//! of residency only. The parity test at the bottom drives both structures
//! with the same trace and asserts identical outcomes.

use tmcc_types::packed::PackedSeq;

/// Bits per tag: covers any line key derived from a 40-bit PPN.
const TAG_BITS: u32 = 40;
/// Metadata layout: bit 0 = valid, the remaining bits the recency rank.
const VALID_BIT: u64 = 1;
const RANK_SHIFT: u64 = 1;

/// Metadata bits for a `ways`-way set: valid bit + enough rank bits to
/// hold ranks `0..ways` (3 rank bits for the default 8-way geometry).
fn meta_bits(ways: usize) -> u32 {
    1 + (usize::BITS - (ways - 1).leading_zeros()).max(1)
}

/// A set-associative tag/LRU directory with no payload, packed to 44 bits
/// per way.
///
/// # Examples
///
/// ```
/// use tmcc_sim_mem::PackedCteSlots;
///
/// let mut d = PackedCteSlots::new(2, 4); // 8 lines
/// assert!(!d.access(42), "cold miss fills the line");
/// assert!(d.access(42));
/// ```
#[derive(Debug, Clone)]
pub struct PackedCteSlots {
    /// `sets * ways` tags, valid only where the meta nibble says so.
    tags: PackedSeq,
    /// `sets * ways` nibbles: valid bit + per-set recency rank.
    meta: PackedSeq,
    /// One even-parity bit per line over (tag, meta) — the metadata
    /// integrity check of the fault ladder. Maintained by every directory
    /// mutation; only [`corrupt_line_bit`](Self::corrupt_line_bit) flips
    /// state without it, modeling a DRAM bit flip.
    parity: PackedSeq,
    sets: usize,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl PackedCteSlots {
    /// Creates a directory with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `num_sets` is not a power
    /// of two.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "directory dimensions must be nonzero");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        let lines = num_sets * ways;
        Self {
            tags: PackedSeq::with_len(TAG_BITS, lines),
            meta: PackedSeq::with_len(meta_bits(ways), lines),
            parity: PackedSeq::with_len(1, lines),
            sets: num_sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Even parity over one line's tag and meta fields.
    fn line_parity(&self, line: usize) -> u64 {
        ((self.tags.get(line).count_ones() + self.meta.get(line).count_ones()) & 1) as u64
    }

    /// Recomputes the stored parity bit after a legitimate mutation.
    fn refresh_parity(&mut self, line: usize) {
        let p = self.line_parity(line);
        self.parity.set(line, p);
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Same multiplicative hash as the generic cache, so a swapped-in
    /// directory indexes identical sets.
    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets - 1)
    }

    /// Accesses `key`, filling it on a miss (evicting the set's
    /// least-recently-used way if full). Returns whether it hit.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit the 40-bit tag.
    pub fn access(&mut self, key: u64) -> bool {
        assert!(key <= self.tags.max_value(), "key {key:#x} exceeds the {TAG_BITS}-bit tag");
        let base = self.set_of(key) * self.ways;
        let mut valid = 0u64;
        let mut hit_way = None;
        let mut victim_way = 0;
        let mut free_way = None;
        for w in 0..self.ways {
            let m = self.meta.get(base + w);
            if m & VALID_BIT == 0 {
                free_way.get_or_insert(w);
                continue;
            }
            valid += 1;
            if self.tags.get(base + w) == key {
                hit_way = Some(w);
            }
            if m >> RANK_SHIFT == 0 {
                victim_way = w;
            }
        }
        if let Some(w) = hit_way {
            self.hits = self.hits.saturating_add(1);
            let old_rank = self.meta.get(base + w) >> RANK_SHIFT;
            self.demote_above(base, old_rank);
            self.meta.set(base + w, VALID_BIT | ((valid - 1) << RANK_SHIFT));
            self.refresh_parity(base + w);
            return true;
        }
        self.misses = self.misses.saturating_add(1);
        let (w, new_rank) = match free_way {
            Some(w) => (w, valid), // fill a free way at the most-recent rank
            None => {
                // Evict rank 0: everything above it slides down one.
                self.demote_above(base, 0);
                (victim_way, valid - 1)
            }
        };
        self.tags.set(base + w, key);
        self.meta.set(base + w, VALID_BIT | (new_rank << RANK_SHIFT));
        self.refresh_parity(base + w);
        false
    }

    /// Decrements the rank of every valid way ranked strictly above
    /// `rank` (closing the gap a promotion or eviction leaves).
    fn demote_above(&mut self, base: usize, rank: u64) {
        for w in 0..self.ways {
            let m = self.meta.get(base + w);
            if m & VALID_BIT != 0 && m >> RANK_SHIFT > rank {
                self.meta.set(base + w, m - (1 << RANK_SHIFT));
                self.refresh_parity(base + w);
            }
        }
    }

    /// Whether `key` is resident, without touching recency state.
    pub fn contains(&self, key: u64) -> bool {
        if key > self.tags.max_value() {
            return false;
        }
        let base = self.set_of(key) * self.ways;
        (0..self.ways)
            .any(|w| self.meta.get(base + w) & VALID_BIT != 0 && self.tags.get(base + w) == key)
    }

    /// Removes `key` if resident. Returns whether it was.
    pub fn invalidate(&mut self, key: u64) -> bool {
        if key > self.tags.max_value() {
            return false;
        }
        let base = self.set_of(key) * self.ways;
        for w in 0..self.ways {
            let m = self.meta.get(base + w);
            if m & VALID_BIT != 0 && self.tags.get(base + w) == key {
                self.meta.set(base + w, 0);
                self.refresh_parity(base + w);
                self.demote_above(base, m >> RANK_SHIFT);
                return true;
            }
        }
        false
    }

    /// Drops every resident line; hit/miss counters are preserved.
    pub fn clear(&mut self) {
        let lines = self.capacity();
        for i in 0..lines {
            self.meta.set(i, 0);
            self.refresh_parity(i);
        }
    }

    /// Bits of protected state per line: tag + meta + the parity bit
    /// itself (a flip landing on the parity bit is also detectable).
    fn line_bits(&self) -> u32 {
        TAG_BITS + self.meta.width() + 1
    }

    /// Fault-injection hook: flips one bit of `line`'s stored state
    /// *without* updating parity — exactly what a DRAM upset does. `bit`
    /// is taken modulo the line's protected width (tag bits, then meta
    /// bits, then the parity bit).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn corrupt_line_bit(&mut self, line: usize, bit: u32) {
        assert!(line < self.capacity(), "line {line} out of range");
        let b = bit % self.line_bits();
        if b < TAG_BITS {
            self.tags.set(line, self.tags.get(line) ^ (1 << b));
        } else if b < TAG_BITS + self.meta.width() {
            self.meta.set(line, self.meta.get(line) ^ (1 << (b - TAG_BITS)));
        } else {
            self.parity.set(line, self.parity.get(line) ^ 1);
        }
    }

    /// Read-only integrity audit: number of lines whose stored parity
    /// bit disagrees with the parity recomputed over (tag, meta). Zero
    /// on an uncorrupted directory; odd-weight corruptions always show
    /// up here, even-weight ones (e.g. a 2-bit burst within one line)
    /// can escape — that asymmetry is what the fault ladder measures.
    pub fn audit_parity(&self) -> usize {
        (0..self.capacity()).filter(|&i| self.parity.get(i) != self.line_parity(i)).count()
    }

    /// Scrubs the directory: every parity-violating line is invalidated
    /// (its contents are untrustworthy — a re-walk will refill it) and
    /// each affected set's recency ranks are re-compacted so LRU
    /// invariants hold again. Returns the number of lines dropped.
    pub fn scrub(&mut self) -> usize {
        let mut dropped = 0usize;
        for set in 0..self.sets {
            let base = set * self.ways;
            let mut dirty = false;
            for w in 0..self.ways {
                if self.parity.get(base + w) != self.line_parity(base + w) {
                    self.meta.set(base + w, 0);
                    self.refresh_parity(base + w);
                    dropped += 1;
                    dirty = true;
                }
            }
            if !dirty {
                continue;
            }
            // Re-rank the survivors 0..n preserving their relative order;
            // the corrupted line may have held (or claimed) any rank.
            let mut ways: Vec<(u64, usize)> = (0..self.ways)
                .filter(|&w| self.meta.get(base + w) & VALID_BIT != 0)
                .map(|w| (self.meta.get(base + w) >> RANK_SHIFT, w))
                .collect();
            ways.sort_unstable();
            for (rank, &(_, w)) in ways.iter().enumerate() {
                self.meta.set(base + w, VALID_BIT | ((rank as u64) << RANK_SHIFT));
                self.refresh_parity(base + w);
            }
        }
        dropped
    }

    /// `(hits, misses)` since construction or [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zeroes the hit/miss counters (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Heap bytes owned by the directory.
    pub fn heap_bytes(&self) -> usize {
        self.tags.heap_bytes() + self.meta.heap_bytes() + self.parity.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hit_after_fill() {
        let mut d = PackedCteSlots::new(4, 2);
        assert!(!d.access(1));
        assert!(d.access(1));
        assert_eq!(d.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut d = PackedCteSlots::new(1, 2);
        d.access(1);
        d.access(2);
        d.access(1); // 2 is now LRU
        d.access(3); // evicts 2
        assert!(d.contains(1) && d.contains(3) && !d.contains(2));
    }

    #[test]
    fn invalidate_removes_and_keeps_order() {
        let mut d = PackedCteSlots::new(1, 3);
        d.access(1);
        d.access(2);
        d.access(3);
        assert!(d.invalidate(2));
        assert!(!d.invalidate(2));
        d.access(4); // set full again: 1, 3, 4
        d.access(5); // evicts 1, the survivor with the oldest rank
        assert!(!d.contains(1) && d.contains(3) && d.contains(4) && d.contains(5));
    }

    #[test]
    fn parity_with_generic_cache_on_random_trace() {
        let mut d = PackedCteSlots::new(8, 4);
        let mut c: SetAssocCache<()> = SetAssocCache::new(8, 4);
        let mut c_stats = (0, 0); // the reference's (hits, misses)
        let mut rng = SmallRng::seed_from_u64(0xC7E);
        for step in 0..20_000u32 {
            let key = rng.gen_range(0..96u64);
            match rng.gen_range(0..10u32) {
                0 => assert_eq!(d.invalidate(key), c.invalidate(key).is_some(), "step {step}"),
                1 => assert_eq!(d.contains(key), c.contains(key), "step {step}"),
                2 if step % 997 == 0 => {
                    d.clear();
                    c.clear();
                }
                _ => {
                    let hit = d.access(key);
                    assert_eq!(hit, c.access(key, false, ()).0.is_hit(), "step {step}");
                    if hit {
                        c_stats.0 += 1
                    } else {
                        c_stats.1 += 1
                    }
                }
            }
        }
        assert_eq!(d.stats(), c_stats);
        for key in 0..96u64 {
            assert_eq!(d.contains(key), c.contains(key), "final residency of {key}");
        }
    }

    #[test]
    fn packs_under_six_bytes_per_line() {
        let d = PackedCteSlots::new(128, 8); // the tmcc() geometry: 1024 lines
        assert!(
            d.heap_bytes() <= d.capacity() * 6,
            "{} bytes for {} lines",
            d.heap_bytes(),
            d.capacity()
        );
    }

    #[test]
    fn oversized_key_is_never_resident() {
        let mut d = PackedCteSlots::new(2, 2);
        d.access(7);
        assert!(!d.contains(1 << 41));
        assert!(!d.invalidate(1 << 41));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = PackedCteSlots::new(3, 2);
    }

    #[test]
    fn clean_directory_audits_clean_under_any_trace() {
        let mut d = PackedCteSlots::new(8, 4);
        let mut rng = SmallRng::seed_from_u64(0xA0D17);
        for _ in 0..5_000u32 {
            let key = rng.gen_range(0..96u64);
            match rng.gen_range(0..8u32) {
                0 => {
                    d.invalidate(key);
                }
                1 => d.clear(),
                _ => {
                    d.access(key);
                }
            }
            assert_eq!(d.audit_parity(), 0, "legitimate mutations must keep parity");
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected() {
        let mut rng = SmallRng::seed_from_u64(0xF11);
        for trial in 0..200u32 {
            let mut d = PackedCteSlots::new(4, 4);
            for _ in 0..64 {
                d.access(rng.gen_range(0..48u64));
            }
            let line = rng.gen_range(0..d.capacity());
            d.corrupt_line_bit(line, rng.gen());
            assert_eq!(d.audit_parity(), 1, "trial {trial}: odd-weight flip must be seen");
        }
    }

    #[test]
    fn even_weight_bursts_can_escape_parity() {
        // Flip the same tag bit twice (net no-op) and two distinct bits
        // (real corruption): the former audits clean by construction,
        // the latter escapes parity — the documented SDC window.
        let mut d = PackedCteSlots::new(2, 2);
        d.access(5);
        let line = d.set_of(5) * d.ways; // way 0 of 5's set holds the fill
        d.corrupt_line_bit(line, 3);
        d.corrupt_line_bit(line, 3);
        assert_eq!(d.audit_parity(), 0);
        d.corrupt_line_bit(line, 3);
        d.corrupt_line_bit(line, 7);
        assert_eq!(d.audit_parity(), 0, "2-bit burst in one line escapes parity");
        assert!(d.contains(5 ^ 0x88), "the silently corrupted tag is live");
    }

    #[test]
    fn scrub_drops_corrupt_lines_and_restores_lru_invariants() {
        let mut d = PackedCteSlots::new(1, 4);
        for key in 1..=4u64 {
            d.access(key);
        }
        // Corrupt a high tag bit of the way holding key 2: its tag now
        // claims a key that was never inserted.
        let victim = (0..4).find(|&w| d.tags.get(w) == 2).expect("2 is resident");
        d.corrupt_line_bit(victim, 20);
        assert!(d.contains(2 | (1 << 20)), "pre-scrub, the forged tag answers lookups");
        assert_eq!(d.audit_parity(), 1);
        assert_eq!(d.scrub(), 1);
        assert_eq!(d.audit_parity(), 0);
        assert!(!d.contains(2) && !d.contains(2 | (1 << 20)), "corrupt line dropped");
        assert!(d.contains(1) && d.contains(3) && d.contains(4), "survivors kept");
        // Ranks were re-compacted: fills and evictions still behave.
        d.access(9); // refills the scrubbed way: set is 1, 3, 4, 9
        d.access(10); // set full again: evicts the oldest survivor (1)
        assert!(!d.contains(1) && d.contains(3) && d.contains(4));
        assert!(d.contains(9) && d.contains(10));
        assert_eq!(d.audit_parity(), 0);
    }

    #[test]
    fn parity_bit_flip_itself_is_detected_and_scrubbed() {
        let mut d = PackedCteSlots::new(2, 2);
        d.access(7);
        let line = d.set_of(7) * d.ways;
        let parity_bit = TAG_BITS + d.meta.width(); // past tag and meta
        d.corrupt_line_bit(line, parity_bit);
        assert_eq!(d.audit_parity(), 1);
        assert_eq!(d.scrub(), 1);
        assert!(!d.contains(7), "a line with untrusted parity is dropped, not believed");
    }

    #[test]
    fn wide_sets_get_wider_rank_fields() {
        // A 4x-scaled CTE cache is 16-way; ranks 0..16 need 4 bits.
        let mut d = PackedCteSlots::new(4, 16);
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 16);
        let mut c_stats = (0, 0); // the reference's (hits, misses)
        let mut rng = SmallRng::seed_from_u64(0x16C7E);
        for step in 0..20_000u32 {
            let key = rng.gen_range(0..192u64);
            let hit = d.access(key);
            assert_eq!(hit, c.access(key, false, ()).0.is_hit(), "step {step}");
            if hit {
                c_stats.0 += 1
            } else {
                c_stats.1 += 1
            }
        }
        assert_eq!(d.stats(), c_stats);
    }
}
