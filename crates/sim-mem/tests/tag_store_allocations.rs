//! Pins how the cache hierarchy allocates: construction allocates only the
//! three levels' zeroed `u16` set indexes, and accesses allocate twice per
//! level (the tag and meta slabs, each reserved whole on the level's first
//! fill; payload-free lines need no payload slab) however many sets they
//! fill.
//!
//! The counting allocator tallies per thread, so tests that run in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tmcc_sim_mem::{CacheHierarchy, HierarchyConfig};
use tmcc_types::addr::BlockAddr;

struct Counting;

thread_local! {
    /// (allocations, bytes) made by this thread.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Tallies one allocation of `bytes` on this thread. A `const`-initialized
/// `Cell` of plain integers needs no lazy setup and no destructor, so it
/// never allocates from inside the allocator.
fn count(bytes: usize) {
    ALLOCATED.with(|a| {
        let (n, total) = a.get();
        a.set((n + 1, total + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` impl upholds the trait's contract; counting touches only a
// thread-local tally.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` that `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// Deterministic block addresses scattered over a 39-bit space: every
/// block the default 128-set L1 takes (2^39, 32 TiB of blocks).
fn sparse_blocks(n: usize) -> Vec<BlockAddr> {
    let mut state = 0x5EED_u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            BlockAddr::new(state >> 25)
        })
        .collect()
}

#[test]
fn construction_allocates_only_the_set_indexes() {
    let cfg = HierarchyConfig::default();
    let ((n, bytes), _h) = allocations(|| CacheHierarchy::new(cfg));
    // 128, 512 and 16 384 sets of 8 ways: one `u16` index entry each,
    // 256 B, 1 KiB and 32 KiB.
    let sets = [cfg.l1_bytes, cfg.l2_bytes, cfg.l3_bytes].map(|b| b / 64 / cfg.ways);
    assert_eq!(n, 3, "one zeroed index array per level");
    assert_eq!(bytes, sets.iter().sum::<usize>() * 2);
    assert_eq!(bytes, 256 + 1024 + 32 * 1024);
}

#[test]
fn accesses_allocate_once_per_level() {
    let blocks = sparse_blocks(5_000);
    let cfg = HierarchyConfig::default();
    let mut h = CacheHierarchy::new(cfg);
    let ((n, bytes), writebacks) = allocations(|| {
        (0..10_000usize)
            .filter(|&i| {
                h.access(blocks[i * 7 % blocks.len()], i % 3 == 0, false).writeback.is_some()
            })
            .count()
    });
    assert_eq!(n, 6, "each level reserves its tag and meta slabs once, on its first fill");
    // Per set: a 32 B block of 32-bit tags and an 8 B meta word.
    let sets: usize =
        [cfg.l1_bytes, cfg.l2_bytes, cfg.l3_bytes].map(|b| b / 64 / cfg.ways).iter().sum();
    assert_eq!(bytes, sets * (32 + 8));
    // The accesses did fill thousands of L3 sets; none of them allocated.
    assert_eq!(writebacks, 0, "5 000 blocks fit in the L3");
    let ((n, _), _) = allocations(|| {
        for (i, &b) in blocks.iter().enumerate() {
            h.invalidate(b);
            h.access(b, i % 2 == 0, false);
        }
    });
    assert_eq!(n, 0, "refills after invalidations reuse the reserved lines");
}
