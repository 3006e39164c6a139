//! Common vocabulary types for the TMCC reproduction.
//!
//! This crate defines the address-space newtypes, page-table encodings and
//! compression-translation-entry (CTE) layouts shared by every other crate in
//! the workspace. It deliberately contains **no behaviour** beyond
//! encoding/decoding and invariant checking, so that the simulator crates can
//! agree on bit-exact representations without depending on each other.
//!
//! The layouts follow the paper:
//!
//! * [`pte`] — x86-64-style page-table entries (24 status bits + 40-bit PPN)
//!   and the 64-byte page-table block (PTB) holding eight of them (paper
//!   Fig. 7a/b).
//! * [`ptb`] — the geometry of the hardware-compressed PTB encoding: when a
//!   PTB compresses and how many truncated CTEs it embeds (paper Fig. 7c
//!   and §V-A5).
//! * [`cte`] — the truncated CTE a compressed PTB embeds (the frame of
//!   TMCC's page-level CTE, paper Fig. 13) and the sizes of the 64-byte
//!   block-level metadata entry used by Compresso-style designs.
//! * [`addr`] — virtual/physical/DRAM address newtypes and geometry
//!   constants.
//! * [`bitvec`] — the packed bitmap backing the simulator's membership
//!   bits (recency-list membership, compressed-encoding and repacked-page
//!   bits) at datacenter-scale page counts.
//!
//! # Examples
//!
//! ```
//! use tmcc_types::addr::{PhysAddr, Ppn, PAGE_SIZE};
//!
//! let pa = PhysAddr::new(3 * PAGE_SIZE as u64 + 128);
//! assert_eq!(pa.ppn(), Ppn::new(3));
//! assert_eq!(pa.page_offset(), 128);
//! ```

pub mod addr;
pub mod bitvec;
pub mod crc32;
pub mod cte;
pub mod fxhash;
pub mod ptb;
pub mod pte;

pub use addr::{
    BlockAddr, DramAddr, PhysAddr, Ppn, VirtAddr, Vpn, BLOCKS_PER_PAGE, BLOCK_SIZE, PAGE_SIZE,
};
pub use bitvec::BitVec;
pub use crc32::crc32;
pub use cte::{BlockMetadata, TruncatedCte};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ptb::PtbCompressError;
pub use pte::{PageTableBlock, Pte, PteFlags};
