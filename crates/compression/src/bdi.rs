//! Base-Delta-Immediate (BDI) compression.
//!
//! Pekhimenko et al., "Base-Delta-Immediate Compression: Practical Data
//! Compression for On-Chip Caches", PACT 2012 (paper reference [53]).
//!
//! A block is viewed as an array of `base_size`-byte values. BDI stores one
//! explicit base plus, per value, a narrow delta from either the explicit
//! base or an implicit zero base (the "immediate" part). Each encoding has
//! a fixed length, so the smallest valid one is found without writing any:
//! the codec checks them in the order of this table, shortest first (at 39
//! bytes base2-Δ1 before base4-Δ2), and the first that fits wins.
//!
//! | encoding     | output bytes (64 B block)          |
//! |--------------|------------------------------------|
//! | zeros        | 1 (header only)                    |
//! | repeat-8     | 1 + 8                              |
//! | base8-Δ1     | 1 + 8 + 1 + 8×1 = 18               |
//! | base4-Δ1     | 1 + 4 + 2 + 16×1 = 23              |
//! | base8-Δ2     | 1 + 8 + 1 + 8×2 = 26               |
//! | base2-Δ1     | 1 + 2 + 4 + 32×1 = 39              |
//! | base4-Δ2     | 1 + 4 + 2 + 16×2 = 39              |
//! | base8-Δ4     | 1 + 8 + 1 + 8×4 = 42               |
//!
//! (The per-value mask records which base — explicit or zero — each delta is
//! relative to.)

use crate::{BlockCodec, CodecError, BLOCK_SIZE};

/// Encoding identifiers stored in the first output byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Encoding {
    Zeros = 0,
    Repeat8 = 1,
    B8D1 = 2,
    B8D2 = 3,
    B8D4 = 4,
    B4D1 = 5,
    B4D2 = 6,
    B2D1 = 7,
}

impl Encoding {
    fn try_from_id(id: u8) -> Result<Self, CodecError> {
        Ok(match id {
            0 => Self::Zeros,
            1 => Self::Repeat8,
            2 => Self::B8D1,
            3 => Self::B8D2,
            4 => Self::B8D4,
            5 => Self::B4D1,
            6 => Self::B4D2,
            7 => Self::B2D1,
            other => {
                return Err(CodecError::InvalidCode {
                    context: "BDI encoding id",
                    value: other as u64,
                })
            }
        })
    }

    /// The base-delta encodings in the module table's order, shortest
    /// first: the first that fits a block is its smallest.
    const BASE_DELTA: [Self; 6] =
        [Self::B8D1, Self::B4D1, Self::B8D2, Self::B2D1, Self::B4D2, Self::B8D4];

    /// Output bytes of this encoding of a 64 B block, header included.
    fn len(self) -> usize {
        match self.base_delta() {
            None if self == Self::Zeros => 1,
            None => 1 + 8,
            Some((bs, ds)) => {
                let n = BLOCK_SIZE / bs;
                1 + bs + n.div_ceil(8) + n * ds
            }
        }
    }

    fn base_delta(self) -> Option<(usize, usize)> {
        match self {
            Self::Zeros | Self::Repeat8 => None,
            Self::B8D1 => Some((8, 1)),
            Self::B8D2 => Some((8, 2)),
            Self::B8D4 => Some((8, 4)),
            Self::B4D1 => Some((4, 1)),
            Self::B4D2 => Some((4, 2)),
            Self::B2D1 => Some((2, 1)),
        }
    }
}

/// A base-delta encoding's body: the explicit base, which values use it
/// (bit `i` of `mask` for value `i`; its little-endian bytes are the
/// stream's mask) and each value's delta in its low `delta_size` bytes.
struct BaseDelta {
    base: u64,
    mask: u32,
    deltas: [u64; BLOCK_SIZE / 2],
}

/// The Base-Delta-Immediate block codec.
///
/// # Examples
///
/// ```
/// use tmcc_compression::{BdiCodec, BlockCodec};
///
/// // Sixteen consecutive small integers compress well under base4-Δ1.
/// let mut block = [0u8; 64];
/// for i in 0..16u32 {
///     block[i as usize * 4..][..4].copy_from_slice(&(5000 + i).to_le_bytes());
/// }
/// let codec = BdiCodec::new();
/// let out = codec.compress(&block).expect("BDI applies");
/// assert!(out.len() <= 23);
/// assert_eq!(codec.try_decompress(&out), Ok(block));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct BdiCodec {
    _private: (),
}

impl BdiCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `value - base` (wrapping, in `base_size`-byte arithmetic)
    /// fits in a sign-extended `delta_size`-byte delta.
    fn delta_fits(value: u64, base: u64, base_size: usize, delta_size: usize) -> Option<u64> {
        let width = base_size as u32 * 8;
        let mask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        let delta = value.wrapping_sub(base) & mask;
        // Sign-extend delta from `width` to 64 bits, then check it fits in
        // delta_size bytes as a signed quantity.
        let shift = 64 - width;
        let signed = ((delta << shift) as i64) >> shift;
        let dbits = delta_size as u32 * 8;
        let min = -(1i64 << (dbits - 1));
        let max = (1i64 << (dbits - 1)) - 1;
        if signed >= min && signed <= max {
            // dbits <= 32 for every encoding, so the mask never overflows.
            Some((signed as u64) & ((1u64 << dbits) - 1))
        } else {
            None
        }
    }

    /// The base-delta body of `enc` for `block`, or `None` when some value
    /// fits neither the zero base nor the explicit one, which is the first
    /// value that does not fit the zero base.
    fn try_base_delta(block: &[u8; BLOCK_SIZE], enc: Encoding) -> Option<BaseDelta> {
        let (bs, ds) = enc.base_delta().expect("base-delta encoding");
        let mut base: Option<u64> = None;
        let mut body = BaseDelta { base: 0, mask: 0, deltas: [0; BLOCK_SIZE / 2] };
        for (i, c) in block.chunks_exact(bs).enumerate() {
            let mut v = [0u8; 8];
            v[..bs].copy_from_slice(c);
            let v = u64::from_le_bytes(v);
            body.deltas[i] = match Self::delta_fits(v, 0, bs, ds) {
                Some(d) => d,
                None => {
                    body.mask |= 1 << i;
                    Self::delta_fits(v, *base.get_or_insert(v), bs, ds)?
                }
            };
        }
        body.base = base.unwrap_or(0);
        Some(body)
    }

    /// The encoding `compress` writes for `block`, with its body when it is
    /// a base-delta one, or `None` when none fits.
    fn choose(block: &[u8; BLOCK_SIZE]) -> Option<(Encoding, Option<BaseDelta>)> {
        if block.iter().all(|&b| b == 0) {
            return Some((Encoding::Zeros, None));
        }
        if block.chunks_exact(8).all(|c| c == &block[..8]) {
            return Some((Encoding::Repeat8, None));
        }
        Encoding::BASE_DELTA
            .into_iter()
            .find_map(|enc| Some((enc, Some(Self::try_base_delta(block, enc)?))))
    }
}

impl BlockCodec for BdiCodec {
    fn name(&self) -> &'static str {
        "bdi"
    }

    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        let (enc, body) = Self::choose(block)?;
        let mut out = Vec::with_capacity(enc.len());
        out.push(enc as u8);
        match (enc.base_delta(), body) {
            (Some((bs, ds)), Some(body)) => {
                let n = BLOCK_SIZE / bs;
                out.extend_from_slice(&body.base.to_le_bytes()[..bs]);
                out.extend_from_slice(&body.mask.to_le_bytes()[..n.div_ceil(8)]);
                for d in &body.deltas[..n] {
                    out.extend_from_slice(&d.to_le_bytes()[..ds]);
                }
            }
            _ if enc == Encoding::Repeat8 => out.extend_from_slice(&block[..8]),
            _ => {}
        }
        debug_assert_eq!(out.len(), enc.len());
        Some(out)
    }

    fn compressed_size(&self, block: &[u8; BLOCK_SIZE]) -> usize {
        Self::choose(block).map_or(BLOCK_SIZE, |(enc, _)| enc.len())
    }

    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError> {
        let &header = data.first().ok_or(CodecError::UnexpectedEnd { context: "BDI header" })?;
        let enc = Encoding::try_from_id(header)?;
        let mut out = [0u8; BLOCK_SIZE];
        match enc {
            Encoding::Zeros => Ok(out),
            Encoding::Repeat8 => {
                let word = data
                    .get(1..9)
                    .ok_or(CodecError::UnexpectedEnd { context: "BDI repeat word" })?;
                for chunk in out.chunks_exact_mut(8) {
                    chunk.copy_from_slice(word);
                }
                Ok(out)
            }
            _ => {
                let (bs, ds) = enc.base_delta().expect("base-delta encoding");
                let n = BLOCK_SIZE / bs;
                // Fixed layout per encoding: header + base + mask + deltas.
                let expected = enc.len();
                if data.len() < expected {
                    return Err(CodecError::LengthMismatch {
                        context: "BDI base-delta body",
                        expected,
                        got: data.len(),
                    });
                }
                let mut pos = 1;
                let mut base_bytes = [0u8; 8];
                base_bytes[..bs].copy_from_slice(&data[pos..pos + bs]);
                let base = u64::from_le_bytes(base_bytes);
                pos += bs;
                let mask_len = n.div_ceil(8);
                let mask = &data[pos..pos + mask_len];
                pos += mask_len;
                let width = bs as u32 * 8;
                let vmask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
                for i in 0..n {
                    let mut dbytes = [0u8; 8];
                    dbytes[..ds].copy_from_slice(&data[pos..pos + ds]);
                    pos += ds;
                    // Sign-extend the delta from ds bytes.
                    let dbits = ds as u32 * 8;
                    let raw = u64::from_le_bytes(dbytes);
                    let shift = 64 - dbits;
                    let delta = (((raw << shift) as i64) >> shift) as u64;
                    let use_base = mask[i / 8] & (1 << (i % 8)) != 0;
                    let b = if use_base { base } else { 0 };
                    let v = b.wrapping_add(delta) & vmask;
                    out[i * bs..(i + 1) * bs].copy_from_slice(&v.to_le_bytes()[..bs]);
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{profile_blocks, sample_blocks};

    /// The codec's earlier `compress`, kept as a reference: it writes every
    /// base-delta encoding that fits into a vector of its own and keeps
    /// the shortest, the earlier one on a tie.
    fn reference_compress(block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        if block.iter().all(|&b| b == 0) {
            return Some(vec![Encoding::Zeros as u8]);
        }
        if block.chunks_exact(8).all(|c| c == &block[..8]) {
            let mut out = vec![Encoding::Repeat8 as u8];
            out.extend_from_slice(&block[..8]);
            return Some(out);
        }
        let mut best: Option<Vec<u8>> = None;
        for enc in [
            Encoding::B8D1,
            Encoding::B4D1,
            Encoding::B8D2,
            Encoding::B2D1,
            Encoding::B4D2,
            Encoding::B8D4,
        ] {
            if let Some(out) = reference_base_delta(block, enc) {
                if best.as_ref().is_none_or(|b| out.len() < b.len()) {
                    best = Some(out);
                }
            }
        }
        best.filter(|b| b.len() < BLOCK_SIZE)
    }

    fn reference_base_delta(block: &[u8; BLOCK_SIZE], enc: Encoding) -> Option<Vec<u8>> {
        let (bs, ds) = enc.base_delta().expect("base-delta encoding");
        let values: Vec<u64> = block
            .chunks_exact(bs)
            .map(|c| {
                let mut v = [0u8; 8];
                v[..bs].copy_from_slice(c);
                u64::from_le_bytes(v)
            })
            .collect();
        let n = values.len();
        let mut base: Option<u64> = None;
        let mut mask = vec![false; n];
        let mut deltas = vec![0u64; n];
        for (i, &v) in values.iter().enumerate() {
            if let Some(d) = BdiCodec::delta_fits(v, 0, bs, ds) {
                deltas[i] = d;
            } else {
                let b = *base.get_or_insert(v);
                let d = BdiCodec::delta_fits(v, b, bs, ds)?;
                mask[i] = true;
                deltas[i] = d;
            }
        }
        let base = base.unwrap_or(0);
        let mut out = vec![enc as u8];
        out.extend_from_slice(&base.to_le_bytes()[..bs]);
        let mut mask_bytes = vec![0u8; n.div_ceil(8)];
        for (i, &m) in mask.iter().enumerate() {
            if m {
                mask_bytes[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&mask_bytes);
        for &d in &deltas {
            out.extend_from_slice(&d.to_le_bytes()[..ds]);
        }
        Some(out)
    }

    #[test]
    fn compress_matches_the_all_encodings_reference() {
        let codec = BdiCodec::new();
        let mut hits = [0usize; 8];
        for block in profile_blocks().iter().chain(&sample_blocks()) {
            let out = codec.compress(block);
            assert_eq!(out, reference_compress(block));
            if let Some(out) = out {
                hits[out[0] as usize] += 1;
            }
        }
        assert!(hits.iter().all(|&n| n > 0), "every encoding is chosen somewhere: {hits:?}");
    }

    #[test]
    fn table_lengths_are_the_encoded_lengths() {
        let lengths: Vec<usize> = Encoding::BASE_DELTA.iter().map(|e| e.len()).collect();
        assert_eq!(lengths, [18, 23, 26, 39, 39, 42]);
        assert_eq!((Encoding::Zeros.len(), Encoding::Repeat8.len()), (1, 9));
    }

    #[test]
    fn round_trips_all_samples() {
        let codec = BdiCodec::new();
        for block in sample_blocks() {
            if let Some(c) = codec.compress(&block) {
                assert!(c.len() < BLOCK_SIZE);
                assert_eq!(codec.try_decompress(&c), Ok(block), "round trip failed");
            }
        }
    }

    #[test]
    fn zero_block_is_one_byte() {
        let codec = BdiCodec::new();
        assert_eq!(codec.compressed_size(&[0u8; BLOCK_SIZE]), 1);
    }

    #[test]
    fn repeated_word_is_nine_bytes() {
        let codec = BdiCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        for c in block.chunks_exact_mut(8) {
            c.copy_from_slice(&0xdead_beef_cafe_f00du64.to_le_bytes());
        }
        assert_eq!(codec.compressed_size(&block), 9);
    }

    #[test]
    fn pointers_compress_with_base8() {
        let codec = BdiCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        for i in 0..8u64 {
            block[i as usize * 8..][..8]
                .copy_from_slice(&(0x7f00_0000_1000u64 + i * 8).to_le_bytes());
        }
        let c = codec.compress(&block).expect("pointer block compresses");
        assert!(c.len() <= 18, "base8-delta1 expected, got {}", c.len());
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }

    #[test]
    fn random_block_declines() {
        let codec = BdiCodec::new();
        let block = sample_blocks().pop().unwrap();
        assert_eq!(codec.compressed_size(&block), BLOCK_SIZE);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let codec = BdiCodec::new();
        assert_eq!(
            codec.try_decompress(&[]),
            Err(CodecError::UnexpectedEnd { context: "BDI header" })
        );
        assert_eq!(
            codec.try_decompress(&[200]),
            Err(CodecError::InvalidCode { context: "BDI encoding id", value: 200 })
        );
        assert_eq!(
            codec.try_decompress(&[Encoding::Repeat8 as u8, 1, 2]),
            Err(CodecError::UnexpectedEnd { context: "BDI repeat word" })
        );
        assert_eq!(
            codec.try_decompress(&[Encoding::B8D1 as u8, 0, 0]),
            Err(CodecError::LengthMismatch {
                context: "BDI base-delta body",
                expected: 18,
                got: 3
            })
        );
    }

    #[test]
    fn negative_deltas_round_trip() {
        let codec = BdiCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        // Descending values: deltas from the first value are negative.
        for i in 0..16u32 {
            let v = 100_000u32.wrapping_sub(i * 3);
            block[i as usize * 4..][..4].copy_from_slice(&v.to_le_bytes());
        }
        let c = codec.compress(&block).expect("descending ints compress");
        assert_eq!(codec.try_decompress(&c), Ok(block));
    }
}
