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

impl Winner {
    /// Every member, in header order.
    const ALL: [Self; 4] = [Self::Zero, Self::Bdi, Self::Bpc, Self::Cpack];
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

    fn member(&self, who: Winner) -> &dyn BlockCodec {
        match who {
            Winner::Zero => &self.zero,
            Winner::Bdi => &self.bdi,
            Winner::Bpc => &self.bpc,
            Winner::Cpack => &self.cpack,
        }
    }

    /// The member `compress` encodes `block` with and that member's size:
    /// the smallest, the earlier in header order on a tie.
    fn best(&self, block: &[u8; BLOCK_SIZE]) -> (Winner, usize) {
        Winner::ALL
            .into_iter()
            .map(|who| (who, self.member(who).compressed_size(block)))
            .min_by_key(|&(_, size)| size)
            .expect("four members")
    }
}

impl BlockCodec for BestOfCodec {
    fn name(&self) -> &'static str {
        "best-of-block"
    }

    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        let (winner, size) = self.best(block);
        if size + 1 >= BLOCK_SIZE {
            return None;
        }
        let payload = self.member(winner).compress(block).expect("a member sized below a block");
        let mut out = Vec::with_capacity(size + 1);
        out.push(winner as u8);
        out.extend_from_slice(&payload);
        Some(out)
    }

    /// One header byte plus the smallest member's size, or [`BLOCK_SIZE`].
    fn compressed_size(&self, block: &[u8; BLOCK_SIZE]) -> usize {
        (self.best(block).1 + 1).min(BLOCK_SIZE)
    }

    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError> {
        let (&header, payload) =
            data.split_first().ok_or(CodecError::UnexpectedEnd { context: "best-of header" })?;
        let who = Winner::ALL
            .get(header as usize)
            .ok_or(CodecError::InvalidCode { context: "best-of header", value: header as u64 })?;
        self.member(*who).try_decompress(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{profile_blocks, sample_blocks};

    /// The codec's earlier `compress`, kept as a reference: it encodes the
    /// block with every member and keeps the shortest payload, the earlier
    /// member on a tie.
    fn reference_compress(codec: &BestOfCodec, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        let mut best: Option<(Winner, Vec<u8>)> = None;
        let candidates: [(Winner, Option<Vec<u8>>); 4] = [
            (Winner::Zero, codec.zero.compress(block)),
            (Winner::Bdi, codec.bdi.compress(block)),
            (Winner::Bpc, codec.bpc.compress(block)),
            (Winner::Cpack, codec.cpack.compress(block)),
        ];
        for (who, out) in candidates {
            if let Some(out) = out {
                if best.as_ref().is_none_or(|(_, b)| out.len() < b.len()) {
                    best = Some((who, out));
                }
            }
        }
        let (winner, payload) = best?;
        if payload.len() + 1 >= BLOCK_SIZE {
            return None;
        }
        let mut out = vec![winner as u8];
        out.extend_from_slice(&payload);
        Some(out)
    }

    #[test]
    fn compress_matches_the_every_member_reference() {
        let codec = BestOfCodec::new();
        let mut wins = [0usize; 4];
        for block in profile_blocks().iter().chain(&sample_blocks()) {
            let out = codec.compress(block);
            assert_eq!(out, reference_compress(&codec, block));
            if let Some(out) = out {
                wins[out[0] as usize] += 1;
            }
        }
        assert!(wins.iter().all(|&n| n > 0), "every member wins somewhere: {wins:?}");
    }

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
