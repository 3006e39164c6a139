//! Succinct bit vectors with rank/select support.
//!
//! Two structures, following the `bitm`-style split between mutable and
//! indexed bitmaps:
//!
//! * [`BitVec`] — a growable, mutable bitmap storing one bit per element
//!   in packed 64-bit words. `get`/`set`/`clear` are O(1); `rank1` /
//!   `select1` scan whole words with `count_ones`, so they are O(n/64)
//!   but allocation-free. This is the workhorse behind free-slot maps
//!   and residency/present bits, where the bitmap mutates constantly.
//! * [`RankSelect`] — a frozen snapshot of a [`BitVec`] plus a cumulative
//!   rank directory (one counter per 512-bit block, ~1.6 % overhead).
//!   `rank1` is O(1) block lookup + ≤ 8 popcounts; `select1` binary
//!   searches the directory. Build it when a bitmap stops changing and
//!   many rank/select queries follow (residency reports, audits).
//!
//! Both structures are deliberately dependency-free: the simulator's
//! determinism contract means every consumer must get bit-exact answers
//! on every platform.

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words per [`RankSelect`] directory block (512 bits per block).
const BLOCK_WORDS: usize = 8;

/// A growable, mutable packed bitmap.
///
/// # Examples
///
/// ```
/// use tmcc_types::bitvec::BitVec;
///
/// let mut bv = BitVec::with_len(130);
/// bv.set(0);
/// bv.set(64);
/// bv.set(129);
/// assert_eq!(bv.count_ones(), 3);
/// assert_eq!(bv.rank1(65), 2); // ones strictly below index 65
/// assert_eq!(bv.select1(2), Some(129)); // third one (0-indexed)
/// bv.clear(64);
/// assert!(!bv.get(64));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl BitVec {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn with_len(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(WORD_BITS)], len, ones: 0 }
    }

    /// A bitmap of `len` bits whose first `ones` are set. The words are
    /// allocated zeroed and only those holding set bits are written.
    ///
    /// # Panics
    ///
    /// Panics if `ones > len`.
    pub fn with_prefix(len: usize, ones: usize) -> Self {
        assert!(ones <= len, "{ones} set bits past a {len}-bit map");
        let mut words = vec![0; len.div_ceil(WORD_BITS)];
        words[..ones / WORD_BITS].fill(u64::MAX);
        if !ones.is_multiple_of(WORD_BITS) {
            words[ones / WORD_BITS] = (1 << (ones % WORD_BITS)) - 1;
        }
        Self { words, len, ones }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (maintained incrementally, O(1)).
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// Bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Sets bit `index`; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        let changed = *word & mask == 0;
        *word |= mask;
        self.ones += changed as usize;
        changed
    }

    /// Clears bit `index`; returns `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        let changed = *word & mask != 0;
        *word &= !mask;
        self.ones -= changed as usize;
        changed
    }

    /// Sets bit `index` to `value`; returns `true` if the bit changed.
    #[inline]
    pub fn set_to(&mut self, index: usize, value: bool) -> bool {
        if value {
            self.set(index)
        } else {
            self.clear(index)
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let i = self.len - 1;
            self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            self.ones += 1;
        }
    }

    /// Grows to `new_len` bits, zero-filling; no-op when already at least
    /// that long.
    pub fn grow(&mut self, new_len: usize) {
        if new_len > self.len {
            self.words.resize(new_len.div_ceil(WORD_BITS), 0);
            self.len = new_len;
        }
    }

    /// Drops any excess word capacity (pool-shrink hygiene).
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// Number of ones strictly below `index` (`index` may equal `len`).
    pub fn rank1(&self, index: usize) -> usize {
        assert!(index <= self.len, "rank index {index} out of range (len {})", self.len);
        let full = index / WORD_BITS;
        let mut ones: usize = self.words[..full].iter().map(|w| w.count_ones() as usize).sum();
        let rem = index % WORD_BITS;
        if rem != 0 {
            ones += (self.words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        ones
    }

    /// Number of zeros strictly below `index`.
    pub fn rank0(&self, index: usize) -> usize {
        index - self.rank1(index)
    }

    /// Position of the `k`-th set bit (0-indexed), or `None` if fewer than
    /// `k + 1` bits are set.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.ones {
            return None;
        }
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let pop = w.count_ones() as usize;
            if remaining < pop {
                return Some(wi * WORD_BITS + select_in_word(w, remaining as u32) as usize);
            }
            remaining -= pop;
        }
        unreachable!("ones counter out of sync with words")
    }

    /// Position of the `k`-th clear bit (0-indexed), or `None`.
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k >= self.count_zeros() {
            return None;
        }
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let bits_here = WORD_BITS.min(self.len - wi * WORD_BITS);
            let zeros = bits_here - (w & low_mask(bits_here)).count_ones() as usize;
            if remaining < zeros {
                return Some(wi * WORD_BITS + select_in_word(!w, remaining as u32) as usize);
            }
            remaining -= zeros;
        }
        unreachable!("zero count out of sync with words")
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// Heap bytes owned by the bitmap (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The raw packed words (low bit of word 0 is bit 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Index of the `k`-th set bit within `word` (0-indexed). `k` must be less
/// than `word.count_ones()`.
#[inline]
fn select_in_word(mut word: u64, k: u32) -> u32 {
    for _ in 0..k {
        word &= word - 1; // clear lowest set bit
    }
    word.trailing_zeros()
}

/// Mask with the low `bits` bits set (`bits <= 64`).
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= WORD_BITS {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// A frozen bitmap with a cumulative rank directory for O(1)-ish rank and
/// directory-guided select.
///
/// # Examples
///
/// ```
/// use tmcc_types::bitvec::{BitVec, RankSelect};
///
/// let mut bv = BitVec::with_len(10_000);
/// for i in (0..10_000).step_by(3) {
///     bv.set(i);
/// }
/// let rs = RankSelect::build(bv);
/// assert_eq!(rs.rank1(9_000), 3_000);
/// assert_eq!(rs.select1(1_000), Some(3_000));
/// ```
#[derive(Debug, Clone)]
pub struct RankSelect {
    bits: BitVec,
    /// `blocks[i]` = ones strictly before block `i` (one block = 8 words).
    blocks: Vec<u64>,
}

impl RankSelect {
    /// Freezes `bits` and builds the rank directory.
    pub fn build(bits: BitVec) -> Self {
        let n_blocks = bits.words.len().div_ceil(BLOCK_WORDS);
        let mut blocks = Vec::with_capacity(n_blocks + 1);
        let mut acc = 0u64;
        for chunk in bits.words.chunks(BLOCK_WORDS) {
            blocks.push(acc);
            acc += chunk.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        blocks.push(acc);
        Self { bits, blocks }
    }

    /// The underlying bitmap.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Bit at `index`.
    pub fn get(&self, index: usize) -> bool {
        self.bits.get(index)
    }

    /// Ones strictly below `index`, using the directory.
    pub fn rank1(&self, index: usize) -> usize {
        assert!(index <= self.bits.len, "rank index {index} out of range");
        let block = index / (BLOCK_WORDS * WORD_BITS);
        let mut ones = self.blocks[block] as usize;
        let first_word = block * BLOCK_WORDS;
        let full = index / WORD_BITS;
        for &w in &self.bits.words[first_word..full] {
            ones += w.count_ones() as usize;
        }
        let rem = index % WORD_BITS;
        if rem != 0 {
            ones += (self.bits.words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        ones
    }

    /// Zeros strictly below `index`.
    pub fn rank0(&self, index: usize) -> usize {
        index - self.rank1(index)
    }

    /// Position of the `k`-th set bit (0-indexed), binary-searching the
    /// directory before scanning at most one block.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.bits.ones {
            return None;
        }
        // Last block whose cumulative count is <= k.
        let block = self.blocks.partition_point(|&c| c as usize <= k) - 1;
        let mut remaining = k - self.blocks[block] as usize;
        let first_word = block * BLOCK_WORDS;
        for (off, &w) in self.bits.words[first_word..].iter().enumerate() {
            let pop = w.count_ones() as usize;
            if remaining < pop {
                return Some(
                    (first_word + off) * WORD_BITS + select_in_word(w, remaining as u32) as usize,
                );
            }
            remaining -= pop;
        }
        unreachable!("directory out of sync with words")
    }

    /// Heap bytes owned by the bitmap plus directory.
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes() + self.blocks.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_get_roundtrip() {
        let mut bv = BitVec::with_len(200);
        assert!(bv.set(7));
        assert!(!bv.set(7), "already set");
        assert!(bv.get(7));
        assert!(bv.clear(7));
        assert!(!bv.clear(7), "already clear");
        assert!(!bv.get(7));
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn prefix_equals_pushed_bits() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            for ones in [0, 1.min(len), len / 2, len.saturating_sub(1), len] {
                let mut pushed = BitVec::new();
                (0..len).for_each(|i| pushed.push(i < ones));
                assert_eq!(BitVec::with_prefix(len, ones), pushed, "len {len}, ones {ones}");
            }
        }
    }

    #[test]
    fn word_boundaries() {
        let mut bv = BitVec::with_len(129);
        for i in [0, 63, 64, 127, 128] {
            bv.set(i);
        }
        assert_eq!(bv.count_ones(), 5);
        assert_eq!(bv.rank1(64), 2);
        assert_eq!(bv.rank1(65), 3);
        assert_eq!(bv.rank1(129), 5);
        assert_eq!(bv.select1(0), Some(0));
        assert_eq!(bv.select1(2), Some(64));
        assert_eq!(bv.select1(4), Some(128));
        assert_eq!(bv.select1(5), None);
    }

    #[test]
    fn rank_select_inverse() {
        let mut bv = BitVec::with_len(1000);
        for i in (0..1000).step_by(7) {
            bv.set(i);
        }
        for k in 0..bv.count_ones() {
            let pos = bv.select1(k).expect("in range");
            assert_eq!(bv.rank1(pos), k);
            assert!(bv.get(pos));
        }
    }

    #[test]
    fn select0_on_mixed_words() {
        let mut bv = BitVec::with_len(130);
        for i in 0..64 {
            bv.set(i);
        }
        assert_eq!(bv.select0(0), Some(64));
        assert_eq!(bv.select0(65), Some(129));
        assert_eq!(bv.select0(66), None);
    }

    #[test]
    fn push_and_grow() {
        let mut bv = BitVec::new();
        for i in 0..100 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 34);
        bv.grow(150);
        assert_eq!(bv.len(), 150);
        assert!(!bv.get(149));
        assert_eq!(bv.count_ones(), 34);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut bv = BitVec::with_len(300);
        let set: Vec<usize> = vec![0, 1, 63, 64, 65, 199, 299];
        for &i in &set {
            bv.set(i);
        }
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), set);
    }

    #[test]
    fn rank_select_directory_agrees_with_scan() {
        let mut bv = BitVec::with_len(5000);
        for i in (0..5000).step_by(11) {
            bv.set(i);
        }
        let rs = RankSelect::build(bv.clone());
        for i in (0..=5000).step_by(97) {
            assert_eq!(rs.rank1(i), bv.rank1(i), "rank at {i}");
        }
        for k in (0..bv.count_ones()).step_by(13) {
            assert_eq!(rs.select1(k), bv.select1(k), "select at {k}");
        }
        assert_eq!(rs.select1(bv.count_ones()), None);
    }

    #[test]
    fn all_zero_and_all_one_blocks() {
        let mut bv = BitVec::with_len(2048);
        for i in 512..1024 {
            bv.set(i);
        }
        let rs = RankSelect::build(bv);
        assert_eq!(rs.rank1(512), 0);
        assert_eq!(rs.rank1(1024), 512);
        assert_eq!(rs.rank1(2048), 512);
        assert_eq!(rs.select1(0), Some(512));
        assert_eq!(rs.select1(511), Some(1023));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::with_len(10);
        bv.get(10);
    }
}
