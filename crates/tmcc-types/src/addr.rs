//! Address-space newtypes and memory geometry constants.
//!
//! Four distinct address spaces appear in a system with hardware memory
//! compression (paper §II):
//!
//! 1. **Virtual addresses** ([`VirtAddr`], [`Vpn`]) — what programs issue.
//! 2. **Physical addresses** ([`PhysAddr`], [`Ppn`]) — what the OS page table
//!    produces. Under hardware compression the OS may see *more* physical
//!    pages than DRAM can hold uncompressed.
//! 3. **DRAM addresses** ([`DramAddr`]) — where bytes actually live; the
//!    memory controller's CTEs map physical → DRAM.
//! 4. **Block addresses** ([`BlockAddr`]) — 64-byte cacheline-granularity
//!    physical addresses used by the cache hierarchy.
//!
//! Keeping them as separate newtypes makes it a type error to, e.g., index a
//! CTE table with a DRAM address — the exact confusion the paper's added
//! translation layer invites.

use serde::Serialize;
use std::fmt;

/// Size of an OS page in bytes (4 KiB, paper §II).
pub const PAGE_SIZE: usize = 4096;
/// Size of a memory block / cacheline in bytes.
pub const BLOCK_SIZE: usize = 64;
/// Number of 64 B blocks in a 4 KiB page.
pub const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_SIZE;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 6;

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

addr_newtype!(
    /// A byte-granularity virtual address.
    VirtAddr
);
addr_newtype!(
    /// A byte-granularity physical address (output of the OS page table).
    PhysAddr
);
addr_newtype!(
    /// A byte-granularity DRAM address (output of the CTE translation).
    DramAddr
);
addr_newtype!(
    /// A virtual page number: [`VirtAddr`] with the low 12 bits stripped.
    Vpn
);
addr_newtype!(
    /// A physical page number: [`PhysAddr`] with the low 12 bits stripped.
    Ppn
);
addr_newtype!(
    /// A 64 B-block-granularity physical address (cacheline number).
    BlockAddr
);

impl VirtAddr {
    /// The virtual page containing this address.
    #[inline]
    pub const fn vpn(self) -> Vpn {
        Vpn::new(self.0 >> PAGE_SHIFT)
    }

    /// Offset of this address within its page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE as u64 - 1)
    }
}

impl PhysAddr {
    /// The physical page containing this address.
    #[inline]
    pub const fn ppn(self) -> Ppn {
        Ppn::new(self.0 >> PAGE_SHIFT)
    }

    /// Offset of this address within its page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE as u64 - 1)
    }

    /// The 64 B block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr::new(self.0 >> BLOCK_SHIFT)
    }
}

impl Vpn {
    /// First byte address of this page.
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT)
    }

    /// The VPN of the page-table block covering this page at walk level
    /// `level` (1 = leaf PTEs, 4 = root). Pages whose translations share a
    /// PTB share this value.
    ///
    /// A PTB holds eight PTEs, and each level-N entry covers `512^(N-1)`
    /// pages, so the PTB group key shifts by `3 + 9*(level-1)` bits.
    #[inline]
    pub const fn ptb_group(self, level: u8) -> u64 {
        self.0 >> (3 + 9 * (level as u64 - 1))
    }
}

impl Ppn {
    /// First byte address of this page.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT)
    }

    /// The `idx`-th 64 B block of this page.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= BLOCKS_PER_PAGE`.
    #[inline]
    pub fn block(self, idx: usize) -> BlockAddr {
        assert!(idx < BLOCKS_PER_PAGE, "block index {idx} out of page");
        BlockAddr::new((self.0 << (PAGE_SHIFT - BLOCK_SHIFT)) + idx as u64)
    }
}

impl BlockAddr {
    /// Byte address of the first byte in this block.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << BLOCK_SHIFT)
    }

    /// The physical page containing this block.
    #[inline]
    pub const fn ppn(self) -> Ppn {
        Ppn::new(self.0 >> (PAGE_SHIFT - BLOCK_SHIFT))
    }

    /// Index of this block within its page (`0..64`).
    #[inline]
    pub const fn index_in_page(self) -> usize {
        (self.0 & (BLOCKS_PER_PAGE as u64 - 1)) as usize
    }
}

impl DramAddr {
    /// The 4 KiB-aligned DRAM frame number containing this address.
    #[inline]
    pub const fn frame(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_decomposition() {
        let pa = PhysAddr::new(0x1234_5678);
        assert_eq!(pa.ppn().raw(), 0x1234_5678 >> 12);
        assert_eq!(pa.page_offset(), 0x678);
        assert_eq!(pa.block().base().raw(), 0x1234_5640);
        assert_eq!(pa.block().index_in_page(), (0x678 >> 6) as usize);
    }

    #[test]
    fn ppn_block_round_trip() {
        let ppn = Ppn::new(42);
        for idx in 0..BLOCKS_PER_PAGE {
            let b = ppn.block(idx);
            assert_eq!(b.ppn(), ppn);
            assert_eq!(b.index_in_page(), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn ppn_block_rejects_out_of_range() {
        let _ = Ppn::new(1).block(BLOCKS_PER_PAGE);
    }

    #[test]
    fn vpn_ptb_group_levels() {
        // Adjacent pages share a leaf PTB (8 PTEs per PTB).
        assert_eq!(Vpn::new(0).ptb_group(1), Vpn::new(7).ptb_group(1));
        assert_ne!(Vpn::new(7).ptb_group(1), Vpn::new(8).ptb_group(1));
        // A level-2 PTB covers 8 * 512 pages.
        assert_eq!(Vpn::new(0).ptb_group(2), Vpn::new(8 * 512 - 1).ptb_group(2));
        assert_ne!(Vpn::new(0).ptb_group(2), Vpn::new(8 * 512).ptb_group(2));
    }

    #[test]
    fn dram_addr_frame() {
        let d = DramAddr::new(5 * PAGE_SIZE as u64 + 17);
        assert_eq!(d.frame(), 5);
        assert_eq!(DramAddr::new(6 * PAGE_SIZE as u64 - 1).frame(), 5);
        assert_eq!(DramAddr::new(6 * PAGE_SIZE as u64).frame(), 6);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:?}", Vpn::new(16)), "Vpn(0x10)");
    }
}
