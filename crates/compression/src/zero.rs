//! Zero-block detection.
//!
//! The cheapest and most common special case: an all-zero 64-byte block is
//! represented by metadata alone. The paper's block-level composite ("Zero
//! Block", Fig. 15) and Compresso both special-case it.

use crate::{BlockCodec, CodecError, BLOCK_SIZE};

/// Recognizes all-zero blocks and encodes them in a single marker byte.
///
/// # Examples
///
/// ```
/// use tmcc_compression::{ZeroBlockCodec, BlockCodec};
///
/// let codec = ZeroBlockCodec::new();
/// assert_eq!(codec.compressed_size(&[0u8; 64]), 1);
/// assert_eq!(codec.compressed_size(&[1u8; 64]), 64); // declines
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroBlockCodec {
    _private: (),
}

impl ZeroBlockCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

fn is_zero(block: &[u8; BLOCK_SIZE]) -> bool {
    block.iter().all(|&b| b == 0)
}

impl BlockCodec for ZeroBlockCodec {
    fn name(&self) -> &'static str {
        "zero"
    }

    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>> {
        is_zero(block).then(|| vec![0u8])
    }

    fn compressed_size(&self, block: &[u8; BLOCK_SIZE]) -> usize {
        if is_zero(block) {
            1
        } else {
            BLOCK_SIZE
        }
    }

    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError> {
        match data {
            [0u8] => Ok([0u8; BLOCK_SIZE]),
            [] => Err(CodecError::UnexpectedEnd { context: "zero marker" }),
            [b, ..] if data.len() == 1 => {
                Err(CodecError::InvalidCode { context: "zero marker", value: *b as u64 })
            }
            _ => Err(CodecError::LengthMismatch {
                context: "zero marker",
                expected: 1,
                got: data.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_round_trip() {
        let codec = ZeroBlockCodec::new();
        let c = codec.compress(&[0u8; BLOCK_SIZE]).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(codec.try_decompress(&c), Ok([0u8; BLOCK_SIZE]));
    }

    #[test]
    fn nonzero_declines() {
        let codec = ZeroBlockCodec::new();
        let mut block = [0u8; BLOCK_SIZE];
        block[63] = 1;
        assert!(codec.compress(&block).is_none());
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let codec = ZeroBlockCodec::new();
        assert_eq!(
            codec.try_decompress(&[]),
            Err(CodecError::UnexpectedEnd { context: "zero marker" })
        );
        assert_eq!(
            codec.try_decompress(&[7]),
            Err(CodecError::InvalidCode { context: "zero marker", value: 7 })
        );
        assert_eq!(
            codec.try_decompress(&[0, 0]),
            Err(CodecError::LengthMismatch { context: "zero marker", expected: 1, got: 2 })
        );
    }
}
