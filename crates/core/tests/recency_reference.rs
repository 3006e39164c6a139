//! Property test pinning the slab-backed [`RecencyList`] to an executable
//! specification of the original pointer-chasing implementation: an
//! ordered cold→hot sequence where `insert_hot` moves a page to the hot
//! end and `pop_coldest` evicts the cold end. Arbitrary op traces,
//! starting from a derived initial chain of random length
//! (`RecencyList::with_chain`), must produce identical membership, length,
//! victim choice and full eviction order.

use proptest::prelude::*;
use tmcc::RecencyList;
use tmcc_types::addr::Ppn;

/// The specification: a plain ordered list, coldest first.
#[derive(Default)]
struct SpecList {
    cold_to_hot: Vec<u64>,
}

impl SpecList {
    fn insert_hot(&mut self, page: u64) {
        self.cold_to_hot.retain(|&p| p != page);
        self.cold_to_hot.push(page);
    }

    fn pop_coldest(&mut self) -> Option<u64> {
        if self.cold_to_hot.is_empty() {
            None
        } else {
            Some(self.cold_to_hot.remove(0))
        }
    }
}

/// Pages the traces touch. The universe is kept small so traces revisit
/// pages often — the interesting transitions are re-touch, re-insert
/// after eviction, and touching the current head/tail.
const PAGES: u64 = 48;

/// One step of a trace.
#[derive(Debug, Clone)]
enum Op {
    InsertHot(u64),
    OnAccess(u64),
    PopColdest,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), 0..PAGES).prop_map(|(kind, page)| match kind % 3 {
        0 => Op::InsertHot(page),
        1 => Op::OnAccess(page),
        _ => Op::PopColdest,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slab list and the specification agree on every observable after
    /// every op, and drain in the same eviction order.
    #[test]
    fn slab_lru_matches_reference(
        chain in 0..PAGES,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        // Probability 1 makes `on_access` deterministic (always a touch) so
        // the spec needs no coupled RNG; the sampled path reduces to
        // `insert_hot`, which this trace exercises directly. The chain
        // starts as pages 0..chain, page 0 hottest: what inserting them
        // coldest first builds. The slab covers every page a trace touches.
        let mut slab = RecencyList::with_chain(7, 1.0, chain, PAGES);
        let mut spec = SpecList { cold_to_hot: (0..chain).rev().collect() };
        let start: Vec<u64> = slab.cold_to_hot().iter().map(|p| p.raw()).collect();
        prop_assert_eq!(&start, &spec.cold_to_hot, "derived chain");
        for op in ops {
            match op {
                Op::InsertHot(p) => {
                    slab.insert_hot(Ppn::new(p));
                    spec.insert_hot(p);
                }
                Op::OnAccess(p) => {
                    prop_assert!(slab.on_access(Ppn::new(p)), "probability-1 access must fire");
                    spec.insert_hot(p);
                }
                Op::PopColdest => {
                    prop_assert_eq!(slab.pop_coldest().map(|p| p.raw()), spec.pop_coldest());
                }
            }
            prop_assert_eq!(slab.len(), spec.cold_to_hot.len());
            prop_assert_eq!(slab.coldest().map(|p| p.raw()), spec.cold_to_hot.first().copied());
            for p in 0..PAGES {
                prop_assert_eq!(slab.contains(Ppn::new(p)), spec.cold_to_hot.contains(&p));
            }
        }
        let slab_order: Vec<u64> = slab.cold_to_hot().iter().map(|p| p.raw()).collect();
        prop_assert_eq!(&slab_order, &spec.cold_to_hot, "cold-to-hot walk diverged");
        let drained: Vec<u64> = std::iter::from_fn(|| slab.pop_coldest().map(|p| p.raw())).collect();
        prop_assert_eq!(drained, spec.cold_to_hot, "eviction order diverged");
    }
}
