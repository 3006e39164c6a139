//! Property tests on the core data structures' invariants: free-list
//! conservation, recency-list linkage, size-model determinism.

use proptest::prelude::*;
use tmcc::free_list::{Ml1FreeList, Ml2FreeLists, SubChunk};
use tmcc::size_model::{PageSizes, SizeModel};
use tmcc::{RecencyList, TmccError};
use tmcc_types::addr::Ppn;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No chunk is ever lost or duplicated across arbitrary interleavings
    /// of ML2 allocations and frees.
    #[test]
    fn ml2_conserves_chunks(ops in prop::collection::vec((any::<bool>(), 1usize..4096), 1..200)) {
        let total = 128u32;
        let mut ml1 = Ml1FreeList::with_chunks(total);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut live = Vec::new();
        for (free, bytes) in ops {
            if free && !live.is_empty() {
                let sub = live.swap_remove(bytes % live.len());
                prop_assert_eq!(ml2.try_free(sub, &mut ml1), Ok(()));
            } else if let Ok(sub) = ml2.try_allocate(bytes, &mut ml1) {
                live.push(sub);
            }
            prop_assert_eq!(ml2.owned_chunks() + ml1.len(), total as usize);
        }
        for sub in live {
            prop_assert_eq!(ml2.try_free(sub, &mut ml1), Ok(()));
        }
        prop_assert_eq!(ml1.len(), total as usize);
        prop_assert_eq!(ml2.allocated_bytes(), 0);
    }

    /// With a deliberately starved ML1 (injected exhaustion), random
    /// alloc/free interleavings surface typed errors — never panics — and
    /// the allocator's byte and chunk books stay exact through every
    /// failed allocation.
    #[test]
    fn ml2_exhaustion_is_typed_never_a_panic(
        total in 0u32..24,
        ops in prop::collection::vec((any::<bool>(), 1usize..5000), 1..250),
    ) {
        let mut ml1 = Ml1FreeList::with_chunks(total);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut live: Vec<(SubChunk, usize)> = Vec::new();
        let mut live_bytes = 0usize;
        for (free, bytes) in ops {
            if free && !live.is_empty() {
                let (sub, sz) = live.swap_remove(bytes % live.len());
                prop_assert!(ml2.try_free(sub, &mut ml1).is_ok(), "live free must succeed");
                live_bytes -= sz;
            } else {
                match ml2.try_allocate(bytes, &mut ml1) {
                    Ok(sub) => {
                        let sz = ml2.class_size(sub.class);
                        live_bytes += sz;
                        live.push((sub, sz));
                    }
                    Err(TmccError::FreeListExhausted { requested_bytes, .. }) => {
                        prop_assert_eq!(requested_bytes, bytes);
                    }
                    Err(TmccError::OversizedAllocation { requested_bytes, largest_class }) => {
                        prop_assert!(requested_bytes > largest_class);
                    }
                    Err(e) => prop_assert!(false, "unexpected error: {e}"),
                }
            }
            // Failed allocations must not leak: the books balance after
            // every single operation.
            prop_assert_eq!(ml2.allocated_bytes(), live_bytes);
            prop_assert_eq!(ml2.owned_chunks() + ml1.len(), total as usize);
        }
        for (sub, _) in live {
            prop_assert!(ml2.try_free(sub, &mut ml1).is_ok());
        }
        prop_assert_eq!(ml1.len(), total as usize);
        prop_assert_eq!(ml2.allocated_bytes(), 0);
    }

    /// Sub-chunk addresses of live allocations never overlap.
    #[test]
    fn ml2_addresses_disjoint(sizes in prop::collection::vec(1usize..4096, 1..60)) {
        let mut ml1 = Ml1FreeList::with_chunks(256);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for bytes in sizes {
            if let Ok(sub) = ml2.try_allocate(bytes, &mut ml1) {
                let start = ml2.try_addr_of(sub).expect("live");
                let len = ml2.class_size(sub.class) as u64;
                for &(s, l) in &spans {
                    prop_assert!(start + len <= s || s + l <= start,
                        "overlap: [{start}, {}) vs [{s}, {})", start + len, s + l);
                }
                spans.push((start, len));
            }
        }
    }

    /// The recency list stays a consistent doubly linked list under any
    /// sequence of touches and pops.
    #[test]
    fn recency_list_is_consistent(ops in prop::collection::vec((0u8..2, 0u64..40), 1..300)) {
        let mut rl = RecencyList::with_chain(5, 0.01, 0, 40);
        let mut reference: Vec<u64> = Vec::new(); // cold..hot order
        for (op, page) in ops {
            match op {
                0 => {
                    rl.insert_hot(Ppn::new(page));
                    reference.retain(|&p| p != page);
                    reference.push(page);
                }
                _ => {
                    let got = rl.pop_coldest().map(|p| p.raw());
                    let want = if reference.is_empty() { None } else { Some(reference.remove(0)) };
                    prop_assert_eq!(got, want);
                }
            }
            let listed: Vec<u64> = rl.cold_to_hot().iter().map(|p| p.raw()).collect();
            prop_assert_eq!(&listed, &reference);
            prop_assert_eq!(rl.len(), reference.len());
        }
    }

    /// Size draws are pure functions of (page, epoch).
    #[test]
    fn size_model_is_deterministic(pages in prop::collection::vec(any::<u64>(), 1..50), epoch in 0u32..8) {
        let model = SizeModel::from_samples(vec![
            PageSizes { deflate_bytes: 500, block_bytes: 2000 },
            PageSizes { deflate_bytes: 1500, block_bytes: 3500 },
            PageSizes { deflate_bytes: 4096, block_bytes: 4096 },
        ]);
        for p in pages {
            prop_assert_eq!(model.sizes_of(p, epoch), model.sizes_of(p, epoch));
        }
    }
}
