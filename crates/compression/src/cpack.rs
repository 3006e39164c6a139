//! CPack (Cache Packer) compression.
//!
//! Chen et al., "C-Pack: A High-Performance Microprocessor Cache Compression
//! Algorithm", IEEE TVLSI 2010 (paper reference [54]).
//!
//! Processes a block as 4-byte words against a 16-entry FIFO dictionary.
//! Pattern table (codes MSB-first, `z` = zero byte, `m` = dictionary match
//! byte, `x` = literal byte):
//!
//! | pattern | meaning                         | code                      |
//! |---------|---------------------------------|---------------------------|
//! | `zzzz`  | all-zero word                   | `00`                      |
//! | `xxxx`  | no match                        | `01` + 32-bit literal     |
//! | `mmmm`  | full dictionary match           | `10` + 4-bit index        |
//! | `mmxx`  | high 2 bytes match              | `1100` + 4-bit + 16 bits  |
//! | `zzzx`  | three zero bytes + literal byte | `1101` + 8 bits           |
//! | `mmmx`  | high 3 bytes match              | `1110` + 4-bit + 8 bits   |
//!
//! Words that are not fully matched (`xxxx`, `mmxx`, `mmmx`) are pushed into
//! the dictionary; the decompressor mirrors the exact same update rule, so
//! no dictionary is stored in the output.

use crate::bits::{BitCount, BitReader, BitSink, BitWriter};
use crate::{BlockCodec, CodecError, BLOCK_SIZE};

const DICT_ENTRIES: usize = 16;

/// FIFO dictionary shared (by construction) between compressor and
/// decompressor.
#[derive(Debug, Clone)]
struct Dict {
    entries: [u32; DICT_ENTRIES],
    next: usize,
}

impl Dict {
    fn new() -> Self {
        Self { entries: [0; DICT_ENTRIES], next: 0 }
    }

    fn push(&mut self, word: u32) {
        self.entries[self.next] = word;
        self.next = (self.next + 1) % DICT_ENTRIES;
    }

    /// Best match: prefers full, then 3-byte, then 2-byte (high bytes,
    /// big-endian view of the word — i.e. most significant bytes).
    fn find(&self, word: u32) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None; // (index, matched bytes)
        for (i, &e) in self.entries.iter().enumerate() {
            let matched = if e == word {
                4
            } else if (e >> 8) == (word >> 8) {
                3
            } else if (e >> 16) == (word >> 16) {
                2
            } else {
                continue;
            };
            if best.is_none_or(|(_, m)| matched > m) {
                best = Some((i, matched));
            }
        }
        best
    }
}

/// The CPack block codec.
///
/// # Examples
///
/// ```
/// use tmcc_compression::{CpackCodec, BlockCodec};
///
/// // Words repeating from a small working set dictionary-compress well.
/// let mut block = [0u8; 64];
/// for i in 0..16u32 {
///     let v = [0xAABB_CC00u32, 0xAABB_CC11][i as usize % 2];
///     block[i as usize * 4..][..4].copy_from_slice(&v.to_le_bytes());
/// }
/// let codec = CpackCodec::new();
/// let out = codec.compress(&block).expect("repetitive block compresses");
/// assert_eq!(codec.try_decompress(&out), Ok(block));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct CpackCodec {
    _private: (),
}

impl CpackCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `block`'s encoding into `w`, whatever its length.
    fn encode(block: &[u8; BLOCK_SIZE], w: &mut impl BitSink) {
        let mut dict = Dict::new();
        for chunk in block.chunks_exact(4) {
            // Big-endian view so "high bytes" are the most significant.
            let word = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
            if word == 0 {
                w.put(0b00, 2);
                continue;
            }
            if word & 0xffff_ff00 == 0 {
                // zzzx: three zero bytes + one literal byte.
                w.put(0b1101, 4);
                w.put((word & 0xff) as u64, 8);
                continue;
            }
            match dict.find(word) {
                Some((idx, 4)) => {
                    w.put(0b10, 2);
                    w.put(idx as u64, 4);
                }
                Some((idx, 3)) => {
                    w.put(0b1110, 4);
                    w.put(idx as u64, 4);
                    w.put((word & 0xff) as u64, 8);
                    dict.push(word);
                }
                Some((idx, 2)) => {
                    w.put(0b1100, 4);
                    w.put(idx as u64, 4);
                    w.put((word & 0xffff) as u64, 16);
                    dict.push(word);
                }
                _ => {
                    w.put(0b01, 2);
                    w.put(word as u64, 32);
                    dict.push(word);
                }
            }
        }
    }
}

impl BlockCodec for CpackCodec {
    fn name(&self) -> &'static str {
        "cpack"
    }

    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        let mut w = BitWriter::with_capacity(BLOCK_SIZE);
        Self::encode(block, &mut w);
        (w.len_bytes() < BLOCK_SIZE).then(|| w.into_bytes())
    }

    fn compressed_size(&self, block: &[u8; BLOCK_SIZE]) -> usize {
        let mut count = BitCount::new();
        Self::encode(block, &mut count);
        count.len_bytes().min(BLOCK_SIZE)
    }

    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError> {
        const CTX: &str = "CPack word code";
        let mut dict = Dict::new();
        let mut r = BitReader::new(data);
        let mut out = [0u8; BLOCK_SIZE];
        for chunk in out.chunks_exact_mut(4) {
            let word = match r.try_get(2, CTX)? {
                0b00 => 0u32,
                0b01 => {
                    let word = r.try_get(32, CTX)? as u32;
                    dict.push(word);
                    word
                }
                0b10 => dict.entries[r.try_get(4, CTX)? as usize],
                _ => match r.try_get(2, CTX)? {
                    0b00 => {
                        // mmxx
                        let idx = r.try_get(4, CTX)? as usize;
                        let low = r.try_get(16, CTX)? as u32;
                        let word = (dict.entries[idx] & 0xffff_0000) | low;
                        dict.push(word);
                        word
                    }
                    0b01 => {
                        // zzzx
                        r.try_get(8, CTX)? as u32
                    }
                    0b10 => {
                        // mmmx
                        let idx = r.try_get(4, CTX)? as usize;
                        let low = r.try_get(8, CTX)? as u32;
                        let word = (dict.entries[idx] & 0xffff_ff00) | low;
                        dict.push(word);
                        word
                    }
                    other => {
                        // `11 11` is unassigned in the pattern table.
                        return Err(CodecError::InvalidCode {
                            context: "CPack pattern",
                            value: 0b1100 | other,
                        });
                    }
                },
            };
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_blocks;

    #[test]
    fn round_trips_all_samples() {
        let codec = CpackCodec::new();
        for (i, block) in sample_blocks().into_iter().enumerate() {
            if let Some(c) = codec.compress(&block) {
                assert_eq!(codec.try_decompress(&c), Ok(block), "sample {i} failed");
            }
        }
    }

    #[test]
    fn zero_block_is_four_bytes() {
        let codec = CpackCodec::new();
        // 16 words x 2 bits = 32 bits = 4 bytes.
        assert_eq!(codec.compressed_size(&[0u8; BLOCK_SIZE]), 4);
    }

    #[test]
    fn full_match_after_first_occurrence() {
        let codec = CpackCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        for c in block.chunks_exact_mut(4) {
            c.copy_from_slice(&0x1234_5678u32.to_be_bytes());
        }
        // First word: 34 bits; remaining 15: 6 bits each = 124 bits -> 16 B.
        let c = codec.compress(&block).expect("compresses");
        assert!(c.len() <= 16, "got {}", c.len());
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }

    #[test]
    fn partial_matches_round_trip() {
        let codec = CpackCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        // Same high bytes, varying low bytes: mmmx/mmxx territory.
        for (i, c) in block.chunks_exact_mut(4).enumerate() {
            let v: u32 = 0xCAFE_0000 | (i as u32 * 0x101);
            c.copy_from_slice(&v.to_be_bytes());
        }
        let c = codec.compress(&block).expect("compresses");
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let codec = CpackCodec::new();
        // Empty input dies on the first word's prefix.
        assert_eq!(
            codec.try_decompress(&[]),
            Err(CodecError::UnexpectedEnd { context: "CPack word code" })
        );
        // The unassigned `11 11` pattern is an invalid code.
        let mut w = BitWriter::new();
        w.put(0b1111, 4);
        w.put(0, 28); // padding so the stream is not merely short
        assert_eq!(
            codec.try_decompress(&w.into_bytes()),
            Err(CodecError::InvalidCode { context: "CPack pattern", value: 0b1111 })
        );
        // A literal word cut short mid-payload.
        let mut w = BitWriter::new();
        w.put(0b01, 2);
        w.put(0xAB, 8); // only 8 of the 32 literal bits
        assert_eq!(
            codec.try_decompress(&w.into_bytes()),
            Err(CodecError::UnexpectedEnd { context: "CPack word code" })
        );
    }

    #[test]
    fn small_byte_words_use_zzzx() {
        let codec = CpackCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        for (i, c) in block.chunks_exact_mut(4).enumerate() {
            c.copy_from_slice(&(i as u32 + 1).to_be_bytes());
        }
        // 16 words x 12 bits = 24 bytes.
        let c = codec.compress(&block).expect("compresses");
        assert_eq!(c.len(), 24);
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }
}
