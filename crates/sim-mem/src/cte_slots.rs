//! The CTE cache's directory: tag and recency per line, one word per way.
//!
//! The CTE cache only ever needs *tag + recency* per line — its payload is
//! empty — so [`PackedCteSlots`] keeps one `u64` per way and nothing else.
//! The word's low bits are the line's protected state, from bit 0 up:
//!
//! * the 40-bit tag (the paper's PPN width bounds every line key);
//! * the valid bit;
//! * a per-set recency rank sized to the way count (3 bits at 8 ways,
//!   4 at 16);
//! * the parity bit, which makes the protected bits' weight even.
//!
//! Every bit above the parity bit is zero. That is 45 bits at 8 ways and
//! 46 at 16, so an 8-way set is 64 B, the size of one host cache line; a
//! probe is one pass over it, a line's parity check is the parity of its
//! word, and a modeled bit flip is one XOR.
//!
//! The recency ranks are behaviorally identical to the generic cache's
//! global LRU stamps: stamps are only ever *compared within one set*, so
//! the per-set rank order (0 = least recent, `valid-1` = most recent) picks
//! the same victim on every eviction, and hit/miss outcomes are a function
//! of residency only. The tests at the bottom drive the directory beside
//! the generic cache, and beside the earlier layout that kept tag, meta
//! and parity in three arrays (flips included), and assert identical
//! outcomes.

/// Bits per tag: covers any line key derived from a 40-bit PPN.
const TAG_BITS: u32 = 40;
/// The tag field, bits `0..40`; also the largest key.
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// The valid bit, right above the tag.
const VALID: u64 = 1 << TAG_BITS;
/// The recency rank sits above the valid bit.
const RANK_SHIFT: u32 = TAG_BITS + 1;

/// Where a directory's rank and parity bits sit, given its way count.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Rank field mask, after shifting the word down by [`RANK_SHIFT`].
    rank_mask: u64,
    /// Position of the parity bit, the top protected bit.
    parity_shift: u32,
}

impl Layout {
    fn rank(self, line: u64) -> u64 {
        (line >> RANK_SHIFT) & self.rank_mask
    }

    /// `line`'s tag and valid bit under `rank`, with its parity bit
    /// recomputed: the word of a legitimate mutation.
    fn sealed(self, line: u64, valid: bool, rank: u64) -> u64 {
        let meta = if valid { VALID | rank << RANK_SHIFT } else { 0 };
        let body = line & TAG_MASK | meta;
        body | u64::from(body.count_ones() & 1) << self.parity_shift
    }

    /// Decrements the rank of every valid way of `set` ranked strictly
    /// above `rank` (closing the gap a promotion or eviction leaves).
    fn demote_above(self, set: &mut [u64], rank: u64) {
        for line in set {
            let r = self.rank(*line);
            if *line & VALID != 0 && r > rank {
                *line = self.sealed(*line, true, r - 1);
            }
        }
    }
}

/// A set-associative tag/LRU directory with no payload, one 64-bit word
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
    /// `sets * ways` lines (see the module doc for the layout). The parity
    /// bit is maintained by every directory mutation; only
    /// [`corrupt_line_bit`](Self::corrupt_line_bit) flips state without
    /// it, modeling a DRAM bit flip — the metadata integrity check of the
    /// fault ladder.
    lines: Box<[u64]>,
    sets: usize,
    ways: usize,
    layout: Layout,
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
        // Enough rank bits to hold ranks `0..ways`, at least one.
        let rank_bits = (usize::BITS - (ways - 1).leading_zeros()).max(1);
        Self {
            lines: vec![0; num_sets * ways].into_boxed_slice(),
            sets: num_sets,
            ways,
            layout: Layout {
                rank_mask: (1 << rank_bits) - 1,
                parity_shift: RANK_SHIFT + rank_bits,
            },
        }
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Same multiplicative hash as the generic cache, so a swapped-in
    /// directory indexes identical sets.
    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets - 1)
    }

    /// The lines of `key`'s set.
    fn set_mut(&mut self, key: u64) -> &mut [u64] {
        let base = self.set_of(key) * self.ways;
        &mut self.lines[base..base + self.ways]
    }

    /// Accesses `key`, filling it on a miss (evicting the set's
    /// least-recently-used way if full). Returns whether it hit.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit the 40-bit tag.
    pub fn access(&mut self, key: u64) -> bool {
        assert!(key <= TAG_MASK, "key {key:#x} exceeds the {TAG_BITS}-bit tag");
        let layout = self.layout;
        let set = self.set_mut(key);
        let mut valid = 0u64;
        let mut hit_way = None;
        let mut victim_way = 0;
        let mut free_way = None;
        for (w, &line) in set.iter().enumerate() {
            if line & VALID == 0 {
                free_way.get_or_insert(w);
                continue;
            }
            valid += 1;
            if line & TAG_MASK == key {
                hit_way = Some(w);
            }
            if layout.rank(line) == 0 {
                victim_way = w;
            }
        }
        if let Some(w) = hit_way {
            layout.demote_above(set, layout.rank(set[w]));
            set[w] = layout.sealed(set[w], true, valid - 1);
            return true;
        }
        let (w, new_rank) = match free_way {
            Some(w) => (w, valid), // fill a free way at the most-recent rank
            None => {
                // Evict rank 0: everything above it slides down one.
                layout.demote_above(set, 0);
                (victim_way, valid - 1)
            }
        };
        set[w] = layout.sealed(key, true, new_rank);
        false
    }

    /// Whether `key` is resident, without touching recency state.
    pub fn contains(&self, key: u64) -> bool {
        let base = self.set_of(key) * self.ways;
        key <= TAG_MASK
            && self.lines[base..base + self.ways]
                .iter()
                .any(|&l| l & (TAG_MASK | VALID) == key | VALID)
    }

    /// Removes `key` if resident. Returns whether it was.
    pub fn invalidate(&mut self, key: u64) -> bool {
        if key > TAG_MASK {
            return false;
        }
        let layout = self.layout;
        let set = self.set_mut(key);
        let Some(w) = set.iter().position(|&l| l & (TAG_MASK | VALID) == key | VALID) else {
            return false;
        };
        let line = set[w];
        set[w] = layout.sealed(line, false, 0);
        layout.demote_above(set, layout.rank(line));
        true
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        let layout = self.layout;
        for line in self.lines.iter_mut() {
            *line = layout.sealed(*line, false, 0);
        }
    }

    /// Bits of protected state per line: tag, valid bit, rank and the
    /// parity bit itself (a flip landing on the parity bit is also
    /// detectable).
    fn line_bits(&self) -> u32 {
        self.layout.parity_shift + 1
    }

    /// Fault-injection hook: flips one bit of `line`'s stored state
    /// *without* updating parity — exactly what a DRAM upset does. `bit`
    /// is taken modulo the line's protected width (tag bits, then the
    /// valid bit and the rank, then the parity bit).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn corrupt_line_bit(&mut self, line: usize, bit: u32) {
        assert!(line < self.capacity(), "line {line} out of range");
        self.lines[line] ^= 1 << (bit % self.line_bits());
    }

    /// Read-only integrity audit: number of lines whose stored parity
    /// bit disagrees with the parity recomputed over (tag, meta). Zero
    /// on an uncorrupted directory; odd-weight corruptions always show
    /// up here, even-weight ones (e.g. a 2-bit burst within one line)
    /// can escape — that asymmetry is what the fault ladder measures.
    pub fn audit_parity(&self) -> usize {
        self.lines.iter().filter(|l| l.count_ones() & 1 != 0).count()
    }

    /// Scrubs the directory: every parity-violating line is invalidated
    /// (its contents are untrustworthy — a re-walk will refill it) and
    /// each affected set's recency ranks are re-compacted so LRU
    /// invariants hold again. Returns the number of lines dropped.
    pub fn scrub(&mut self) -> usize {
        let layout = self.layout;
        let mut dropped = 0usize;
        for set in self.lines.chunks_exact_mut(self.ways) {
            let mut dirty = false;
            for line in set.iter_mut() {
                // A line's parity holds when its word's weight is even.
                if line.count_ones() & 1 != 0 {
                    *line = layout.sealed(*line, false, 0);
                    dropped += 1;
                    dirty = true;
                }
            }
            if !dirty {
                continue;
            }
            // Re-rank the survivors 0..n preserving their relative order;
            // the corrupted line may have held (or claimed) any rank.
            let mut survivors: Vec<(u64, usize)> = (0..set.len())
                .filter(|&w| set[w] & VALID != 0)
                .map(|w| (layout.rank(set[w]), w))
                .collect();
            survivors.sort_unstable();
            for (rank, &(_, w)) in survivors.iter().enumerate() {
                set[w] = layout.sealed(set[w], true, rank as u64);
            }
        }
        dropped
    }

    /// Heap bytes owned by the directory: 8 per line.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The directory as it was before the one-word layout: the tag, the
    /// meta field (valid bit, then the rank) and the parity bit in three
    /// separate arrays, with the same algorithm. The new directory must
    /// return what it returns on every call, corrupted state included.
    struct ThreeFieldSlots {
        tags: Vec<u64>,
        meta: Vec<u64>,
        parity: Vec<u64>,
        sets: usize,
        ways: usize,
        meta_width: u32,
    }

    impl ThreeFieldSlots {
        fn new(sets: usize, ways: usize) -> Self {
            let lines = sets * ways;
            let meta_width = 1 + (usize::BITS - (ways - 1).leading_zeros()).max(1);
            let zeros = || vec![0; lines];
            Self { tags: zeros(), meta: zeros(), parity: zeros(), sets, ways, meta_width }
        }

        fn line_parity(&self, line: usize) -> u64 {
            ((self.tags[line].count_ones() + self.meta[line].count_ones()) & 1) as u64
        }

        fn refresh_parity(&mut self, line: usize) {
            self.parity[line] = self.line_parity(line);
        }

        fn set_of(&self, key: u64) -> usize {
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.sets - 1)
        }

        fn access(&mut self, key: u64) -> bool {
            let base = self.set_of(key) * self.ways;
            let (mut valid, mut hit_way, mut victim_way, mut free_way) = (0u64, None, 0, None);
            for w in 0..self.ways {
                let m = self.meta[base + w];
                if m & 1 == 0 {
                    free_way.get_or_insert(w);
                    continue;
                }
                valid += 1;
                if self.tags[base + w] == key {
                    hit_way = Some(w);
                }
                if m >> 1 == 0 {
                    victim_way = w;
                }
            }
            if let Some(w) = hit_way {
                self.demote_above(base, self.meta[base + w] >> 1);
                self.meta[base + w] = 1 | (valid - 1) << 1;
                self.refresh_parity(base + w);
                return true;
            }
            let (w, new_rank) = match free_way {
                Some(w) => (w, valid),
                None => {
                    self.demote_above(base, 0);
                    (victim_way, valid - 1)
                }
            };
            self.tags[base + w] = key;
            self.meta[base + w] = 1 | new_rank << 1;
            self.refresh_parity(base + w);
            false
        }

        fn demote_above(&mut self, base: usize, rank: u64) {
            for w in 0..self.ways {
                let m = self.meta[base + w];
                if m & 1 != 0 && m >> 1 > rank {
                    self.meta[base + w] = m - 2;
                    self.refresh_parity(base + w);
                }
            }
        }

        fn contains(&self, key: u64) -> bool {
            let base = self.set_of(key) * self.ways;
            key <= TAG_MASK
                && (0..self.ways)
                    .any(|w| self.meta[base + w] & 1 != 0 && self.tags[base + w] == key)
        }

        fn invalidate(&mut self, key: u64) -> bool {
            let base = self.set_of(key) * self.ways;
            for w in 0..self.ways {
                let m = self.meta[base + w];
                if key <= TAG_MASK && m & 1 != 0 && self.tags[base + w] == key {
                    self.meta[base + w] = 0;
                    self.refresh_parity(base + w);
                    self.demote_above(base, m >> 1);
                    return true;
                }
            }
            false
        }

        fn clear(&mut self) {
            for i in 0..self.tags.len() {
                self.meta[i] = 0;
                self.refresh_parity(i);
            }
        }

        fn corrupt_line_bit(&mut self, line: usize, bit: u32) {
            let b = bit % (TAG_BITS + self.meta_width + 1);
            if b < TAG_BITS {
                self.tags[line] ^= 1 << b;
            } else if b < TAG_BITS + self.meta_width {
                self.meta[line] ^= 1 << (b - TAG_BITS);
            } else {
                self.parity[line] ^= 1;
            }
        }

        fn audit_parity(&self) -> usize {
            (0..self.tags.len()).filter(|&i| self.parity[i] != self.line_parity(i)).count()
        }

        /// Line `i` in the one-word layout: the tag, the meta field above
        /// it, the parity bit on top.
        fn word(&self, i: usize) -> u64 {
            self.tags[i] | self.meta[i] << TAG_BITS | self.parity[i] << (TAG_BITS + self.meta_width)
        }

        fn scrub(&mut self) -> usize {
            let mut dropped = 0;
            for set in 0..self.sets {
                let base = set * self.ways;
                let mut dirty = false;
                for w in 0..self.ways {
                    if self.parity[base + w] != self.line_parity(base + w) {
                        self.meta[base + w] = 0;
                        self.refresh_parity(base + w);
                        dropped += 1;
                        dirty = true;
                    }
                }
                if !dirty {
                    continue;
                }
                let mut ways: Vec<(u64, usize)> = (0..self.ways)
                    .filter(|&w| self.meta[base + w] & 1 != 0)
                    .map(|w| (self.meta[base + w] >> 1, w))
                    .collect();
                ways.sort_unstable();
                for (rank, &(_, w)) in ways.iter().enumerate() {
                    self.meta[base + w] = 1 | (rank as u64) << 1;
                    self.refresh_parity(base + w);
                }
            }
            dropped
        }
    }

    /// One directory operation, as the parity harnesses draw them.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64),
        Contains(u64),
        Invalidate(u64),
        Clear,
        /// One bit of a line, or two adjacent bits of it.
        Flip {
            line: usize,
            bit: u32,
            pair: bool,
        },
        Audit,
        Scrub,
    }

    /// Applies `op` to both directories and asserts they answer alike.
    /// `ctx` (sets, ways, step) labels a failure.
    fn apply_both(
        d: &mut PackedCteSlots,
        r: &mut ThreeFieldSlots,
        op: Op,
        ctx: (usize, usize, usize),
    ) {
        match op {
            Op::Access(key) => assert_eq!(d.access(key), r.access(key), "{ctx:?}: {op:?}"),
            Op::Contains(key) => assert_eq!(d.contains(key), r.contains(key), "{ctx:?}: {op:?}"),
            Op::Invalidate(key) => {
                assert_eq!(d.invalidate(key), r.invalidate(key), "{ctx:?}: {op:?}")
            }
            Op::Clear => {
                d.clear();
                r.clear();
            }
            Op::Flip { line, bit, pair } => {
                let line = line % d.capacity();
                for b in [bit, bit.wrapping_add(1)].into_iter().take(1 + usize::from(pair)) {
                    d.corrupt_line_bit(line, b);
                    r.corrupt_line_bit(line, b);
                }
            }
            Op::Audit => assert_eq!(d.audit_parity(), r.audit_parity(), "{ctx:?}: {op:?}"),
            Op::Scrub => assert_eq!(d.scrub(), r.scrub(), "{ctx:?}: {op:?}"),
        }
    }

    /// Asserts that every line of the directory is the reference's line
    /// in the one-word layout: the same tags, valid bits, ranks (so the
    /// same victims from here on) and parity bits.
    fn assert_same_lines(d: &PackedCteSlots, r: &ThreeFieldSlots, ctx: (usize, usize, usize)) {
        for i in 0..d.capacity() {
            assert_eq!(d.lines[i], r.word(i), "{ctx:?}: line {i}");
        }
    }

    #[test]
    fn one_word_directory_matches_three_field_reference() {
        // The TMCC and Compresso geometries and a 4x-scaled 16-way one.
        for (sets, ways) in [(128usize, 8usize), (256, 8), (4, 16)] {
            let mut d = PackedCteSlots::new(sets, ways);
            let mut r = ThreeFieldSlots::new(sets, ways);
            let mut rng = SmallRng::seed_from_u64(0xD1_2EC7 ^ (sets * ways) as u64);
            // Keys scattered over the 40-bit tag space, 1.5x the capacity
            // so the sets both hit and evict.
            let keys: Vec<u64> =
                (0..d.capacity() * 3 / 2).map(|_| rng.gen::<u64>() & TAG_MASK).collect();
            for step in 0..400_000usize {
                let key = keys[rng.gen_range(0..keys.len())];
                let op = match rng.gen_range(0..1000u32) {
                    0..=599 => Op::Access(key),
                    600..=799 => Op::Contains(key),
                    800..=899 => Op::Invalidate(key),
                    900..=949 => Op::Contains(rng.gen::<u64>() >> rng.gen_range(0..64)),
                    // Flips stay unscrubbed until a scrub comes by. Half
                    // land on the valid, rank and parity bits, so stale
                    // tags come back to life and ranks collide.
                    950..=989 => {
                        let bit = if rng.gen() { rng.gen() } else { rng.gen_range(TAG_BITS..46) };
                        Op::Flip { line: rng.gen(), bit, pair: rng.gen() }
                    }
                    990..=995 => Op::Audit,
                    996..=998 => Op::Scrub,
                    _ => Op::Clear,
                };
                apply_both(&mut d, &mut r, op, (sets, ways, step));
                if step % 1000 == 0 {
                    assert_same_lines(&d, &r, (sets, ways, step));
                }
            }
            assert_same_lines(&d, &r, (sets, ways, usize::MAX));
            for &key in &keys {
                assert_eq!(d.contains(key), r.contains(key), "{sets}x{ways}: final {key:#x}");
            }
            assert_eq!(d.audit_parity(), r.audit_parity());
            assert_eq!(d.scrub(), r.scrub());
        }
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..7, 0u64..24, any::<u32>(), any::<bool>()).prop_map(
            |(kind, key, bit, pair)| match kind {
                0 | 1 => Op::Access(key),
                2 => Op::Contains(key),
                3 => Op::Invalidate(key),
                // Half the flips land on the valid, rank and parity bits.
                4 => Op::Flip {
                    line: bit as usize >> 8,
                    bit: if pair { bit } else { 40 + bit % 6 },
                    pair,
                },
                5 => Op::Audit,
                _ if pair => Op::Scrub,
                _ => Op::Clear,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every geometry from 1 to 16 ways packs its line into the word
        /// without a field leaking into a neighbor: under an arbitrary
        /// trace, flips included, the directory answers as the
        /// three-field reference does.
        #[test]
        fn any_geometry_matches_three_field_reference(
            sets_log2 in 0u32..3,
            ways in 1usize..=16,
            ops in prop::collection::vec(op(), 0..200),
        ) {
            let sets = 1 << sets_log2;
            let mut d = PackedCteSlots::new(sets, ways);
            let mut r = ThreeFieldSlots::new(sets, ways);
            for (i, &op) in ops.iter().enumerate() {
                apply_both(&mut d, &mut r, op, (sets, ways, i));
            }
            assert_same_lines(&d, &r, (sets, ways, ops.len()));
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut d = PackedCteSlots::new(4, 2);
        assert!(!d.access(1));
        assert!(d.access(1));
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

    /// Counts `(hits, misses)` of a run of accesses through `access`.
    fn tally(hits: &mut (u64, u64), hit: bool) {
        if hit {
            hits.0 += 1
        } else {
            hits.1 += 1
        }
    }

    #[test]
    fn parity_with_generic_cache_on_random_trace() {
        let mut d = PackedCteSlots::new(8, 4);
        let mut c: SetAssocCache<()> = SetAssocCache::new(8, 4);
        let (mut d_stats, mut c_stats) = ((0, 0), (0, 0));
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
                    tally(&mut d_stats, hit);
                    tally(&mut c_stats, hit);
                }
            }
        }
        assert_eq!(d_stats, c_stats);
        for key in 0..96u64 {
            assert_eq!(d.contains(key), c.contains(key), "final residency of {key}");
        }
    }

    #[test]
    fn heap_is_one_word_per_line() {
        // The tmcc() geometry: 1024 lines, each 8-way set 64 B.
        let d = PackedCteSlots::new(128, 8);
        assert_eq!(d.heap_bytes(), 8 * d.capacity());
        assert_eq!(d.capacity(), 1024);
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
        // Corrupt a high tag bit of the way holding key 2 (a fill takes
        // the first empty way, so key k sits in way k - 1): its tag now
        // claims a key that was never inserted.
        d.corrupt_line_bit(1, 20);
        assert!(d.contains(2 | (1 << 20)), "pre-scrub, the forged tag answers lookups");
        assert!(!d.contains(2));
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
        let parity_bit = d.line_bits() - 1; // the top protected bit
        d.corrupt_line_bit(line, parity_bit);
        assert!(d.contains(7), "the tag and meta fields are intact");
        assert_eq!(d.audit_parity(), 1);
        assert_eq!(d.scrub(), 1);
        assert!(!d.contains(7), "a line with untrusted parity is dropped, not believed");
    }

    #[test]
    fn wide_sets_get_wider_rank_fields() {
        // A 4x-scaled CTE cache is 16-way; ranks 0..16 need 4 bits.
        let mut d = PackedCteSlots::new(4, 16);
        assert_eq!(d.line_bits(), 46);
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 16);
        let (mut d_stats, mut c_stats) = ((0, 0), (0, 0));
        let mut rng = SmallRng::seed_from_u64(0x16C7E);
        for step in 0..20_000u32 {
            let key = rng.gen_range(0..192u64);
            let hit = d.access(key);
            let c_hit = c.access(key, false, ()).0.is_hit();
            assert_eq!(hit, c_hit, "step {step}");
            tally(&mut d_stats, hit);
            tally(&mut c_stats, c_hit);
        }
        assert_eq!(d_stats, c_stats);
    }
}
