//! The "smallest of BDI, BPC, CPack, Zero Block" composite.
//!
//! This is exactly the block-level compression the paper models for
//! Compresso and plots in Fig. 15 ("we model a 64B-block-level compression
//! that chooses the smallest output between BPC, BDI, Cpack, and Zero
//! Block"). A one-byte header records which codec won so the block can be
//! restored.

use crate::{BdiCodec, BlockCodec, BpcCodec, CodecError, CpackCodec, ZeroBlockCodec, BLOCK_SIZE};

/// Identifier of the winning codec, stored in the composite header byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Winner {
    Zero = 0,
    Bdi = 1,
    Bpc = 2,
    Cpack = 3,
}

/// Chooses the smallest output among the four block codecs.
///
/// # Examples
///
/// ```
/// use tmcc_compression::{BestOfCodec, BlockCodec};
///
/// let codec = BestOfCodec::new();
/// let mut block = [0u8; 64];
/// for i in 0..16u32 {
///     block[i as usize * 4..][..4].copy_from_slice(&(i * 2).to_le_bytes());
/// }
/// let out = codec.compress(&block).expect("ramp compresses");
/// assert_eq!(codec.try_decompress(&out), Ok(block));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct BestOfCodec {
    zero: ZeroBlockCodec,
    bdi: BdiCodec,
    bpc: BpcCodec,
    cpack: CpackCodec,
}

impl BestOfCodec {
    /// Creates the composite codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Which codec would win for this block, with its payload, if any
    /// compresses.
    fn best(&self, block: &[u8; BLOCK_SIZE]) -> Option<(Winner, Vec<u8>)> {
        let mut best: Option<(Winner, Vec<u8>)> = None;
        let candidates: [(Winner, Option<Vec<u8>>); 4] = [
            (Winner::Zero, self.zero.compress(block)),
            (Winner::Bdi, self.bdi.compress(block)),
            (Winner::Bpc, self.bpc.compress(block)),
            (Winner::Cpack, self.cpack.compress(block)),
        ];
        for (who, out) in candidates {
            if let Some(out) = out {
                if best.as_ref().is_none_or(|(_, b)| out.len() < b.len()) {
                    best = Some((who, out));
                }
            }
        }
        best
    }
}

impl BlockCodec for BestOfCodec {
    fn name(&self) -> &'static str {
        "best-of-block"
    }

    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        let (winner, payload) = self.best(block)?;
        if payload.len() + 1 >= BLOCK_SIZE {
            return None;
        }
        let mut out = Vec::with_capacity(payload.len() + 1);
        out.push(winner as u8);
        out.extend_from_slice(&payload);
        Some(out)
    }

    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError> {
        let (&header, payload) =
            data.split_first().ok_or(CodecError::UnexpectedEnd { context: "best-of header" })?;
        match header {
            0 => self.zero.try_decompress(payload),
            1 => self.bdi.try_decompress(payload),
            2 => self.bpc.try_decompress(payload),
            3 => self.cpack.try_decompress(payload),
            other => {
                Err(CodecError::InvalidCode { context: "best-of header", value: other as u64 })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sample_blocks;

    #[test]
    fn round_trips_all_samples() {
        let codec = BestOfCodec::new();
        for (i, block) in sample_blocks().into_iter().enumerate() {
            if let Some(c) = codec.compress(&block) {
                assert!(c.len() < BLOCK_SIZE);
                assert_eq!(codec.try_decompress(&c), Ok(block), "sample {i} failed");
            }
        }
    }

    #[test]
    fn never_worse_than_any_member() {
        let codec = BestOfCodec::new();
        let members: [&dyn BlockCodec; 4] = [&codec.zero, &codec.bdi, &codec.bpc, &codec.cpack];
        for block in sample_blocks() {
            let composite = codec.compressed_size(&block);
            for m in &members {
                // +1 for the composite's header byte, capped at BLOCK_SIZE.
                let bound = (m.compressed_size(&block) + 1).min(BLOCK_SIZE);
                assert!(
                    composite <= bound,
                    "{} beat composite on a block: {composite} > {bound}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let codec = BestOfCodec::new();
        assert_eq!(
            codec.try_decompress(&[]),
            Err(CodecError::UnexpectedEnd { context: "best-of header" })
        );
        assert_eq!(
            codec.try_decompress(&[9, 0]),
            Err(CodecError::InvalidCode { context: "best-of header", value: 9 })
        );
        // Errors from the inner codec surface unchanged.
        assert_eq!(
            codec.try_decompress(&[0, 7]),
            Err(CodecError::InvalidCode { context: "zero marker", value: 7 })
        );
    }

    #[test]
    fn zero_wins_on_zero_block() {
        let codec = BestOfCodec::new();
        let c = codec.compress(&[0u8; BLOCK_SIZE]).unwrap();
        assert_eq!(c[0], Winner::Zero as u8);
        assert_eq!(c.len(), 2);
    }
}
