//! Pins that sizing a block allocates nothing: `compressed_size` of every
//! codec, the composite the size model runs included, over the 64 blocks
//! of a real page of every large-suite workload.
//!
//! The counting allocator tallies per thread, so tests that run in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tmcc_compression::{
    BdiCodec, BestOfCodec, BlockCodec, BpcCodec, CpackCodec, ZeroBlockCodec, BLOCK_SIZE,
};
use tmcc_workloads::WorkloadProfile;

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

#[test]
fn sizing_a_page_allocates_nothing() {
    let codecs: [&dyn BlockCodec; 5] = [
        &ZeroBlockCodec::new(),
        &BdiCodec::new(),
        &BpcCodec::new(),
        &CpackCodec::new(),
        &BestOfCodec::new(),
    ];
    let mut page = vec![0u8; 4096];
    for w in WorkloadProfile::large_suite() {
        w.page_content(0xC0FFEE).fill_page(1, &mut page);
        let blocks: Vec<&[u8; BLOCK_SIZE]> =
            page.chunks_exact(BLOCK_SIZE).map(|b| b.try_into().expect("64 B chunk")).collect();
        for codec in codecs {
            let (made, _) =
                allocations(|| blocks.iter().map(|b| codec.compressed_size(b)).sum::<usize>());
            assert_eq!(made, (0, 0), "{} sizing {}'s page", codec.name(), w.name);
            // The tally does see `compress`, which allocates per encoding,
            // so the zero above is not a blind spot.
            let (made, encoded) =
                allocations(|| blocks.iter().filter_map(|b| codec.compress(b)).count());
            assert!(made.0 >= encoded, "{}: {made:?} for {encoded} encodings", codec.name());
        }
    }
}
