//! Bit-Plane Compression (BPC).
//!
//! Kim et al., "Bit-Plane Compression: Transforming Data for Better
//! Compression in Many-Core Architectures", ISCA 2016 (paper reference
//! [12]). Adapted from the original 128 B/32-thread GPU formulation to
//! 64-byte memory blocks: sixteen 32-bit words give one base word plus
//! fifteen 33-bit deltas, which are bit-plane transposed (DBP), XORed with
//! their neighbour plane (DBX) and run-length / pattern encoded.
//!
//! Symbol table (MSB-first), following the original paper:
//!
//! | pattern                     | code                      |
//! |-----------------------------|---------------------------|
//! | run of 2..=33 zero planes   | `01` + 5-bit (run-2)      |
//! | single zero plane           | `001`                     |
//! | all-ones plane              | `00000`                   |
//! | DBX ≠ 0 but DBP = 0         | `00001`                   |
//! | exactly one 1 in plane      | `00010` + 4-bit position  |
//! | two consecutive 1s          | `00011` + 4-bit position  |
//! | uncompressed plane          | `1` + 15 raw bits         |
//!
//! The base word uses a small width code (zero / 4 / 8 / 16 / 32 bits).

use crate::bits::{BitCount, BitReader, BitSink, BitWriter};
use crate::{BlockCodec, CodecError, BLOCK_SIZE};

const WORDS: usize = 16;
const DELTAS: usize = WORDS - 1; // 15
const PLANES: usize = 33; // 33-bit deltas

/// The Bit-Plane Compression block codec.
///
/// # Examples
///
/// ```
/// use tmcc_compression::{BpcCodec, BlockCodec};
///
/// // A linear ramp has constant deltas: DBX planes are almost all zero.
/// let mut block = [0u8; 64];
/// for i in 0..16u32 {
///     block[i as usize * 4..][..4].copy_from_slice(&(i * 8).to_le_bytes());
/// }
/// let codec = BpcCodec::new();
/// let out = codec.compress(&block).expect("ramp compresses");
/// assert!(out.len() < 16);
/// assert_eq!(codec.try_decompress(&out), Ok(block));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct BpcCodec {
    _private: (),
}

impl BpcCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }

    fn words(block: &[u8; BLOCK_SIZE]) -> [u32; WORDS] {
        let mut w = [0u32; WORDS];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
        w
    }

    /// Deltas as 33-bit values (sign bit + 32 magnitude bits, two's
    /// complement in 33 bits).
    fn deltas(words: &[u32; WORDS]) -> [u64; DELTAS] {
        let mut d = [0u64; DELTAS];
        for i in 0..DELTAS {
            let diff = (words[i + 1] as i64) - (words[i] as i64);
            d[i] = (diff as u64) & ((1u64 << 33) - 1);
        }
        d
    }

    /// Transposes deltas into 33 bit-planes of 15 bits each. Plane `p`
    /// holds bit `p` of every delta; bit `i` of the plane = delta `i`.
    fn dbp(deltas: &[u64; DELTAS]) -> [u16; PLANES] {
        let mut planes = [0u16; PLANES];
        for (p, plane) in planes.iter_mut().enumerate() {
            let mut v = 0u16;
            for (i, &d) in deltas.iter().enumerate() {
                v |= (((d >> p) & 1) as u16) << i;
            }
            *plane = v;
        }
        planes
    }

    fn encode_base(w: &mut impl BitSink, base: u32) {
        // 2-bit width selector: 0 => zero, 1 => 8-bit, 2 => 16-bit, 3 => 32.
        if base == 0 {
            w.put(0, 2);
        } else if base < (1 << 8) {
            w.put(1, 2);
            w.put(base as u64, 8);
        } else if base < (1 << 16) {
            w.put(2, 2);
            w.put(base as u64, 16);
        } else {
            w.put(3, 2);
            w.put(base as u64, 32);
        }
    }

    /// Writes `block`'s encoding into `w`, whatever its length.
    fn encode(block: &[u8; BLOCK_SIZE], w: &mut impl BitSink) {
        let words = Self::words(block);
        let deltas = Self::deltas(&words);
        let dbp = Self::dbp(&deltas);
        Self::encode_base(w, words[0]);

        const ALL_ONES: u16 = (1 << DELTAS as u16) - 1;
        let mut p = 0;
        while p < PLANES {
            let prev_dbp = if p == 0 { 0 } else { dbp[p - 1] };
            let dbx = dbp[p] ^ prev_dbp;
            if dbx == 0 {
                // Count the zero-DBX run.
                let mut run = 1;
                while p + run < PLANES && (dbp[p + run] ^ dbp[p + run - 1]) == 0 && run < 33 {
                    run += 1;
                }
                if run >= 2 {
                    w.put(0b01, 2);
                    w.put(run as u64 - 2, 5);
                } else {
                    w.put(0b001, 3);
                }
                p += run;
                continue;
            }
            if dbx == ALL_ONES {
                w.put(0b00000, 5);
            } else if dbp[p] == 0 {
                w.put(0b00001, 5);
            } else if dbx.count_ones() == 1 {
                w.put(0b00010, 5);
                w.put(dbx.trailing_zeros() as u64, 4);
            } else if dbx.count_ones() == 2 && ((dbx >> dbx.trailing_zeros()) & 0b11) == 0b11 {
                w.put(0b00011, 5);
                w.put(dbx.trailing_zeros() as u64, 4);
            } else {
                w.put(0b1, 1);
                w.put(dbx as u64, DELTAS as u32);
            }
            p += 1;
        }
    }

    fn decode_base(r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        const CTX: &str = "BPC base word";
        Ok(match r.try_get(2, CTX)? {
            0 => 0,
            1 => r.try_get(8, CTX)? as u32,
            2 => r.try_get(16, CTX)? as u32,
            _ => r.try_get(32, CTX)? as u32,
        })
    }
}

impl BlockCodec for BpcCodec {
    fn name(&self) -> &'static str {
        "bpc"
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
        const CTX: &str = "BPC plane code";
        let mut r = BitReader::new(data);
        let base = Self::decode_base(&mut r)?;
        const ALL_ONES: u16 = (1 << DELTAS as u16) - 1;
        let mut dbp = [0u16; PLANES];
        let mut p = 0;
        while p < PLANES {
            let prev = if p == 0 { 0 } else { dbp[p - 1] };
            // Decode by prefix.
            if r.try_get_bit(CTX)? {
                // '1' + raw 15 bits of DBX.
                let dbx = r.try_get(DELTAS as u32, CTX)? as u16;
                dbp[p] = dbx ^ prev;
                p += 1;
                continue;
            }
            if r.try_get_bit(CTX)? {
                // '01' + 5-bit run of zero-DBX planes. A flipped run count
                // can claim more planes than remain; that run never came
                // from `compress`.
                let run = r.try_get(5, CTX)? as usize + 2;
                if run > PLANES - p {
                    return Err(CodecError::LengthMismatch {
                        context: "BPC zero-DBX run",
                        expected: PLANES - p,
                        got: run,
                    });
                }
                for _ in 0..run {
                    dbp[p] = if p == 0 { 0 } else { dbp[p - 1] };
                    p += 1;
                }
                continue;
            }
            if r.try_get_bit(CTX)? {
                // '001': single zero-DBX plane.
                dbp[p] = prev;
                p += 1;
                continue;
            }
            // '000' + 2 more bits.
            match r.try_get(2, CTX)? {
                0b00 => dbp[p] = ALL_ONES ^ prev,
                0b01 => dbp[p] = 0,
                0b10 => {
                    let pos = r.try_get(4, CTX)? as u16;
                    dbp[p] = (1 << pos) ^ prev;
                }
                _ => {
                    let pos = r.try_get(4, CTX)? as u16;
                    dbp[p] = (0b11 << pos) ^ prev;
                }
            }
            p += 1;
        }
        // Un-transpose planes into deltas.
        let mut deltas = [0u64; DELTAS];
        for (p, &plane) in dbp.iter().enumerate() {
            for (i, d) in deltas.iter_mut().enumerate() {
                *d |= (((plane >> i) & 1) as u64) << p;
            }
        }
        // Rebuild words.
        let mut words = [0u32; WORDS];
        words[0] = base;
        for i in 0..DELTAS {
            let shift = 64 - 33;
            let signed = ((deltas[i] << shift) as i64) >> shift;
            words[i + 1] = (words[i] as i64 + signed) as u32;
        }
        let mut out = [0u8; BLOCK_SIZE];
        for (i, wv) in words.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&wv.to_le_bytes());
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
        let codec = BpcCodec::new();
        for (i, block) in sample_blocks().into_iter().enumerate() {
            if let Some(c) = codec.compress(&block) {
                assert_eq!(codec.try_decompress(&c), Ok(block), "sample {i} failed");
            }
        }
    }

    #[test]
    fn zero_block_is_tiny() {
        let codec = BpcCodec::new();
        // 2 bits base + '01'+5 bits covering 33 planes: 2 bytes total.
        assert!(codec.compressed_size(&[0u8; BLOCK_SIZE]) <= 2);
    }

    #[test]
    fn constant_stride_compresses_hard() {
        let codec = BpcCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        for i in 0..16u32 {
            block[i as usize * 4..][..4].copy_from_slice(&(7 + i * 4).to_le_bytes());
        }
        let c = codec.compress(&block).expect("stride compresses");
        assert!(c.len() <= 8, "stride pattern should be tiny, got {}", c.len());
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }

    #[test]
    fn wrapping_word_arithmetic_round_trips() {
        let codec = BpcCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        let vals: [u32; 16] = [
            u32::MAX,
            0,
            u32::MAX,
            1,
            0x8000_0000,
            0x7fff_ffff,
            3,
            u32::MAX - 7,
            0,
            0,
            1,
            2,
            0xffff_0000,
            0x0000_ffff,
            42,
            41,
        ];
        for (i, v) in vals.iter().enumerate() {
            block[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
        }
        if let Some(c) = codec.compress(&block) {
            assert_eq!(codec.try_decompress(&c), Ok(block));
        }
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let codec = BpcCodec::new();
        // Empty input dies reading the base width selector.
        assert_eq!(
            codec.try_decompress(&[]),
            Err(CodecError::UnexpectedEnd { context: "BPC base word" })
        );
        // A single raw-plane code ('1' + 15 bits) with nothing after it:
        // the second plane's prefix bit is past the end. 2 bits base(0) +
        // 16 bits = 18 bits, so 3 bytes carry it; stop after those.
        let mut w = BitWriter::new();
        w.put(0, 2); // base = 0
        w.put(0b1, 1);
        w.put(0x5555, DELTAS as u32);
        let bytes = w.into_bytes();
        // 18 bits of payload in 3 bytes leaves 6 zero pad bits: the decoder
        // misreads pads as '01'-run prefixes until the stream runs dry.
        assert!(codec.try_decompress(&bytes).is_err());
        // An overlong zero-DBX run (claims 33 planes after one is done).
        let mut w = BitWriter::new();
        w.put(0, 2); // base = 0
        w.put(0b001, 3); // one single zero plane => 32 remain
        w.put(0b01, 2);
        w.put(31, 5); // run = 33 > 32 remaining
        assert_eq!(
            codec.try_decompress(&w.into_bytes()),
            Err(CodecError::LengthMismatch { context: "BPC zero-DBX run", expected: 32, got: 33 })
        );
    }

    #[test]
    fn exhaustive_single_bit_planes() {
        // Blocks whose deltas set exactly one DBX bit exercise the
        // single-one and consecutive-ones codes.
        let codec = BpcCodec::new();
        for bit in 0..15usize {
            let mut words = [100u32; 16];
            for w in words.iter_mut().skip(bit + 1) {
                *w = 101; // one delta of +1 at position `bit`
            }
            let mut block = [0u8; BLOCK_SIZE];
            for (i, v) in words.iter().enumerate() {
                block[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
            }
            let c = codec.compress(&block).expect("compresses");
            assert_eq!(codec.try_decompress(&c), Ok(block), "bit {bit}");
        }
    }
}
