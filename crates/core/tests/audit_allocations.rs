//! Pins that the two-level schemes' invariant audit (`System::validate`,
//! which `SystemConfig::with_audit` runs every maintenance interval)
//! allocates nothing once its scratch map is warm: a fleet audits every
//! tenant every 32 accesses.
//!
//! The counting allocator tallies per thread, so tests that run in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;
use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose `GlobalAlloc` impl upholds the trait's contract;
// counting touches only a thread-local tally.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are `Heap.alloc`'s.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from this allocator, that is from `Heap`, with
        // `layout`; the caller's guarantees are `Heap.realloc`'s.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Heap` with `layout`, as above.
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn a_warm_audit_allocates_nothing() {
    for scheme in [SchemeKind::Tmcc, SchemeKind::OsInspired] {
        // A budget between the smallest feasible one and the footprint,
        // so pages sit in both levels and migrate during the run.
        let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
        w.sim_pages = 4_096;
        let cfg = SystemConfig::new(w, scheme);
        let min = System::min_budget_bytes(&cfg);
        let budget = min + cfg.footprint_bytes().saturating_sub(min) / 4;
        let mut sys = System::try_new(cfg.with_budget(budget)).expect("feasible budget");
        sys.try_run(20_000).expect("run completes");
        let first = allocations(|| sys.validate().expect("consistent scheme"));
        assert!(first > 0, "{scheme:?}: the first audit sizes its scratch map");
        let warm = allocations(|| {
            for _ in 0..10 {
                sys.validate().expect("consistent scheme");
            }
        });
        assert_eq!(warm, 0, "{scheme:?}: a warm audit allocates nothing");
        // The scratch map is reset, not stale: more accesses move pages
        // between frames and the audit still passes, allocation-free.
        sys.try_run_slice(5_000).expect("run completes");
        assert_eq!(allocations(|| sys.validate().expect("consistent scheme")), 0);
    }
}
