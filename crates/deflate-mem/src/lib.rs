//! Memory-specialized ASIC Deflate (paper §V-B).
//!
//! The paper takes IBM's general-purpose ASIC Deflate (Power9/z15, reference
//! \[11\]) and specializes it for 4 KiB memory pages:
//!
//! * **LZ stage** ([`lz`]): sliding-window match search against a 1 KiB CAM
//!   (down from 32 KiB), greedy match selection, and a space-efficient
//!   256-symbol output alphabet instead of RFC 1951's 286-symbol alphabet.
//! * **Reduced Huffman** ([`huffman`]): a 16-leaf tree — the 15 hottest
//!   bytes of the LZ output plus one escape code — stored *uncompressed* so
//!   decompression needs no slow canonical-tree reconstruction.
//! * **Page-level pipelining** ([`pipeline`]): LZ and Huffman operate
//!   concurrently on two independent pages via an accumulate/replay buffer,
//!   and Huffman is dynamically skipped for pages it would expand.
//! * **Cycle/latency model** ([`timing`]): per-stage rates from the paper
//!   (8 B/cycle LZ, 32-cycle tree build, 16-cycle tree read/write, 32 b/cycle
//!   Huffman, 2.5 GHz) reproducing Table II, plus the analytic model of
//!   IBM's ASIC ([`ibm`]) and the area/power model of Table I ([`area`]).
//!
//! The codec is **functionally real** — compress/decompress round-trips are
//! bit-exact and property-tested — while latency and area are *models*
//! (clearly separated in [`timing`] / [`area`]), because this reproduction
//! replaces the paper's Chisel RTL + Verilator + 7 nm synthesis flow.
//!
//! # Examples
//!
//! ```
//! use tmcc_deflate::MemDeflate;
//!
//! let codec = MemDeflate::default();
//! let page = vec![42u8; 4096];
//! let compressed = codec.compress_page(&page);
//! assert!(compressed.stored_len() < 200);
//! assert_eq!(codec.compressed_size(&page), compressed.stored_len());
//! // Decoders are fallible: a corrupt page is an error value, not a panic.
//! let mut restored = Vec::new();
//! codec.try_decompress_page_into(&compressed, &mut restored).expect("clean page");
//! assert_eq!(restored, page);
//! ```

pub mod area;
pub mod huffman;
pub mod ibm;
pub mod lz;
pub mod pipeline;
pub mod timing;

pub use area::{AreaModel, ModuleArea};
pub use huffman::{FullHuffman, ReducedHuffman};
pub use ibm::IbmDeflateModel;
pub use lz::{LzCodec, LzScratch};
pub use pipeline::{
    CompressedPage, DeflateParams, MemDeflate, PageMode, PageSeal, SizeQuote, SoftwareDeflate,
};
pub use timing::{DeflateTiming, TimingReport};
pub use tmcc_compression::CodecError;

/// Size of a memory page in bytes.
pub const PAGE_SIZE: usize = 4096;
