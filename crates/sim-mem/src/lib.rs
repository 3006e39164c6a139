//! Address-translation and cache-hierarchy models.
//!
//! This crate supplies the simulator substrate the paper gets from gem5: a
//! per-core TLB, a software-built 4-level x86-style page table with a
//! hardware page walker and page-walk cache, a three-level cache hierarchy,
//! and the two structures hardware memory compression adds — the **CTE
//! cache** in the memory controller (paper §II/III) and TMCC's 64-entry
//! **CTE buffer** in L2 (paper Fig. 10).
//!
//! Everything here is a *functional + hit/miss* model: structures track
//! exactly which addresses hit where, and expose the per-level latencies of
//! the paper's Table III; end-to-end timing is assembled by the `tmcc`
//! crate's system model.

pub mod cache;
pub mod cte_buffer;
pub mod cte_cache;
pub mod cte_slots;
pub mod hierarchy;
pub mod page_table;
pub mod tlb;
pub mod walker;

pub use cache::SetAssocCache;
pub use cte_buffer::{CteBuffer, CteBufferEntry};
pub use cte_cache::{CteCache, CteCacheConfig};
pub use cte_slots::PackedCteSlots;
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HitLevel, MemAccess};
pub use page_table::{PageTable, PageTableConfig};
pub use tlb::Tlb;
pub use walker::PageWalker;
