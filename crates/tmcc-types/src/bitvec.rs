//! A succinct bit vector.
//!
//! [`BitVec`] is a growable, mutable bitmap storing one bit per element in
//! packed 64-bit words, with O(1) `get`/`set`/`clear` and an incrementally
//! maintained count of set bits. It backs membership and free maps that
//! mutate constantly. It is deliberately dependency-free: the simulator's
//! determinism contract means every consumer must get bit-exact answers on
//! every platform.

/// Bits per storage word.
const WORD_BITS: usize = 64;

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
/// assert!(bv.get(129) && !bv.get(128));
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

    /// Heap bytes owned by the bitmap (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
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
                // Append the bits one at a time: grow by one, set if a one.
                let mut pushed = BitVec::new();
                for i in 0..len {
                    pushed.grow(i + 1);
                    if i < ones {
                        pushed.set(i);
                    }
                }
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
        for i in [0, 63, 64, 127, 128] {
            assert!(bv.get(i), "bit {i}");
        }
        for i in [1, 62, 65, 126] {
            assert!(!bv.get(i), "bit {i}");
        }
        assert!(bv.clear(64) && !bv.get(64) && bv.get(63) && bv.get(127));
        assert_eq!(bv.count_ones(), 4);
    }

    #[test]
    fn all_zero_and_all_one_blocks() {
        let mut bv = BitVec::with_len(2048);
        for i in 512..1024 {
            bv.set(i);
        }
        assert_eq!(bv.count_ones(), 512);
        assert!((0..2048).all(|i| bv.get(i) == (512..1024).contains(&i)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::with_len(10);
        bv.get(10);
    }
}
