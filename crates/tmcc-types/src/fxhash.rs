//! A vendored FxHash-style hasher for the workspace's hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, whose per-lookup
//! cost shows up directly in the simulator's per-access loop (every page
//! touch used to pay several hash invocations). The dense-slab refactor
//! removes most of those maps entirely (the PTB-embedding store and the
//! CTE buffer are dense too); the few that remain, such as the page-table
//! directory, key on small integers, where a multiply-fold hash is both
//! far cheaper and collision-adequate.
//!
//! The algorithm follows the well-known Firefox/rustc "Fx" construction:
//! fold each input word into the state with an xor-rotate-multiply step
//! using a 64-bit odd constant derived from the golden ratio. It is not
//! DoS-resistant; none of these maps take attacker-controlled keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (⌊2^64 / φ⌋, forced odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Rotation applied to the accumulated state before each fold, as in the
/// upstream Fx construction.
const ROTATE: u32 = 5;

/// The hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// The Fx step: rotate the state, xor the word in, multiply. The
    /// multiply must come *last* — `hashbrown` takes the bucket index
    /// from the hash's **low** bits, and only a trailing multiply leaves
    /// them mixed. (An earlier revision rotated after the xor and fed the
    /// multiply a value whose low bits were all zero for every key below
    /// 2^38, collapsing whole maps into one bucket chain.)
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Finishes with an xor-fold of the high bits into the low bits:
    /// the workspace keys many maps on aligned addresses (PTB blocks,
    /// cacheline keys) whose trailing zeros would otherwise zero the low
    /// product bits the bucket mask reads.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            self.fold(u64::from_le_bytes(head.try_into().expect("8-byte chunk")));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    /// Buckets seen when hashing `keys` into a 4096-way pow2 table using
    /// the LOW bits, exactly as `hashbrown`'s bucket mask does.
    fn low_bit_buckets(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| {
            let mut h = FxHasher::default();
            h.write_u64(k);
            h.finish() & 0xFFF
        })
        .collect::<HashSet<u64>>()
        .len()
    }

    // A hash behaving like a random function fills ~4096·(1−e⁻¹) ≈ 2589
    // of 4096 buckets at load factor 1; the failure mode being guarded
    // against (all keys in one chain) fills a handful. 2000 cleanly
    // separates the two.
    const HEALTHY_BUCKETS: usize = 2000;

    #[test]
    fn small_integer_keys_spread_in_low_bits() {
        // Sequential keys must not collide in the low bits a pow2-sized
        // table masks on.
        let n = low_bit_buckets(0u64..4096);
        assert!(n > HEALTHY_BUCKETS, "only {n} distinct low-12 buckets for sequential keys");
    }

    #[test]
    fn aligned_address_keys_spread_in_low_bits() {
        // Page/cacheline-aligned addresses (trailing zeros) are the
        // workspace's worst-case key shape; they collapsed to one bucket
        // under a multiply-first fold.
        let n = low_bit_buckets((0u64..4096).map(|k| k * 4096));
        assert!(n > HEALTHY_BUCKETS, "only {n} distinct low-12 buckets for 4096-aligned keys");
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 7919, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 7919)), Some(&i));
        }
    }

    #[test]
    fn byte_writes_match_word_writes_for_len() {
        // Not required to be equal to write_u64 (std Hash prefixes lengths
        // anyway); just exercise the partial-word tail path.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let full = h.finish();
        let mut g = FxHasher::default();
        g.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(full, g.finish());
    }
}
