//! Block-level memory compression algorithms.
//!
//! Hardware memory compression for *bandwidth* (and Compresso-style designs
//! for capacity) compress individual 64-byte memory blocks with fast,
//! shallow algorithms. The paper's block-level reference point (Fig. 15)
//! "chooses the smallest output between BPC, BDI, CPack, and Zero Block";
//! that exact composite is [`BestOfCodec`].
//!
//! Every codec here is **functionally real**: `compress` produces a byte
//! stream that `try_decompress` restores bit-exactly, verified by unit and
//! property tests. Compressed sizes are what the capacity accounting in the
//! simulator consumes, and [`BlockCodec::compressed_size`] measures them
//! without producing the stream: the bit-packed codecs (BPC, CPack) run the
//! one encoder `compress` runs into a [`BitCount`] instead of a
//! [`BitWriter`] (both are [`BitSink`]s), BDI reads the fixed length of the
//! smallest encoding that fits, and the composite adds its header byte to
//! its smallest member's size. None of them allocates to size a block.
//!
//! # Examples
//!
//! ```
//! use tmcc_compression::{BestOfCodec, BlockCodec, BLOCK_SIZE};
//!
//! let codec = BestOfCodec::new();
//! let block = [0u8; BLOCK_SIZE]; // an all-zero block
//! let compressed = codec.compress(&block).expect("zero blocks compress");
//! assert!(compressed.len() < BLOCK_SIZE);
//! assert_eq!(codec.try_decompress(&compressed), Ok(block));
//! ```

mod bdi;
mod bestof;
mod bits;
mod bpc;
mod cpack;
mod error;
mod zero;

pub use bdi::BdiCodec;
pub use bestof::BestOfCodec;
pub use bits::{BitCount, BitReader, BitSink, BitWriter};
pub use bpc::BpcCodec;
pub use cpack::CpackCodec;
pub use error::CodecError;
pub use zero::ZeroBlockCodec;

/// Size of a memory block in bytes (one cacheline).
pub const BLOCK_SIZE: usize = 64;

/// A lossless compressor for one 64-byte memory block.
///
/// Implementations return `None` from [`compress`](Self::compress) when the
/// block does not benefit (the output would be at least as large as the
/// input); hardware then stores the block uncompressed.
pub trait BlockCodec {
    /// Short identifier used in reports (e.g. `"bdi"`).
    fn name(&self) -> &'static str;

    /// Compresses `block`, returning the encoded bytes, or `None` when the
    /// encoding would not be smaller than [`BLOCK_SIZE`].
    fn compress(&self, block: &[u8; BLOCK_SIZE]) -> Option<Vec<u8>>;

    /// Restores the original block from bytes produced by
    /// [`compress`](Self::compress), or reports *why* the bytes cannot be
    /// a stream this codec produced. Implementations must never panic,
    /// over-read, or allocate unboundedly on arbitrary input — a corrupt
    /// stream is a value, not an abort.
    fn try_decompress(&self, data: &[u8]) -> Result<[u8; BLOCK_SIZE], CodecError>;

    /// The size the block occupies after compression: the encoded length,
    /// or [`BLOCK_SIZE`] when the codec declines to compress. It always
    /// equals `compress(block).map_or(BLOCK_SIZE, |v| v.len())`, and the
    /// codecs of this crate compute it without encoding the block or
    /// touching the heap.
    fn compressed_size(&self, block: &[u8; BLOCK_SIZE]) -> usize;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::BLOCK_SIZE;
    use tmcc_workloads::WorkloadProfile;

    /// The blocks of the first 16 pages the size model samples (index
    /// `i * 0x9E37 + i`) from every profile of the four suites, at a fixed
    /// seed: the data the codecs are sized on in the simulator.
    pub fn profile_blocks() -> Vec<[u8; BLOCK_SIZE]> {
        let profiles = WorkloadProfile::large_suite()
            .into_iter()
            .chain(WorkloadProfile::small_suite())
            .chain(WorkloadProfile::bandwidth_suite())
            .chain(WorkloadProfile::kv_suite());
        let mut page = vec![0u8; 4096];
        let mut blocks = Vec::new();
        for w in profiles {
            let content = w.page_content(0xC0FFEE);
            for i in 0..16u64 {
                content.fill_page(i.wrapping_mul(0x9E37) + i, &mut page);
                blocks.extend(
                    page.chunks_exact(BLOCK_SIZE)
                        .map(|b| <[u8; BLOCK_SIZE]>::try_from(b).expect("64 B chunk")),
                );
            }
        }
        blocks
    }

    /// A few structured blocks covering the interesting regimes.
    pub fn sample_blocks() -> Vec<[u8; BLOCK_SIZE]> {
        let mut blocks = Vec::new();
        blocks.push([0u8; BLOCK_SIZE]); // zero
        blocks.push([0xAB; BLOCK_SIZE]); // repeated byte
                                         // Small 32-bit integers (BDI-friendly).
        let mut ints = [0u8; BLOCK_SIZE];
        for i in 0..16 {
            ints[i * 4..i * 4 + 4].copy_from_slice(&(1000u32 + i as u32).to_le_bytes());
        }
        blocks.push(ints);
        // Pointers sharing the high 5 bytes (CPack/BDI-friendly).
        let mut ptrs = [0u8; BLOCK_SIZE];
        for i in 0..8 {
            let p: u64 = 0x7fff_aaaa_0000 + (i as u64) * 0x40;
            ptrs[i * 8..i * 8 + 8].copy_from_slice(&p.to_le_bytes());
        }
        blocks.push(ptrs);
        // Pseudorandom (incompressible).
        let mut rnd = [0u8; BLOCK_SIZE];
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for b in rnd.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        blocks.push(rnd);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{profile_blocks, sample_blocks};

    /// Every codec, sized and encoded, on every block of the workload
    /// corpus: the size is the encoding's length and the encoding round
    /// trips.
    #[test]
    fn sizes_are_encoding_lengths_on_profile_pages() {
        let codecs: [&dyn BlockCodec; 5] = [
            &ZeroBlockCodec::new(),
            &BdiCodec::new(),
            &BpcCodec::new(),
            &CpackCodec::new(),
            &BestOfCodec::new(),
        ];
        let blocks = profile_blocks();
        for codec in codecs {
            let mut compressed = 0;
            for block in blocks.iter().chain(&sample_blocks()) {
                let out = codec.compress(block);
                let size = codec.compressed_size(block);
                assert_eq!(size, out.as_ref().map_or(BLOCK_SIZE, Vec::len), "{}", codec.name());
                if let Some(out) = out {
                    compressed += 1;
                    assert!(out.len() < BLOCK_SIZE, "{}", codec.name());
                    assert_eq!(codec.try_decompress(&out), Ok(*block), "{}", codec.name());
                }
            }
            assert!(compressed > 0, "{} compressed no corpus block", codec.name());
        }
    }
}
