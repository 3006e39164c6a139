//! Property test pinning the slab-backed [`RecencyList`] to an executable
//! specification of the original pointer-chasing implementation: an
//! ordered cold→hot sequence where `insert_hot` moves a page to the hot
//! end, `pop_coldest` evicts the cold end, and `remove` deletes in place.
//! Arbitrary op traces, starting from a derived initial chain of random
//! length (`RecencyList::with_chain`), must produce identical membership,
//! length, victim choice and full eviction order.

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

    fn remove(&mut self, page: u64) -> bool {
        let before = self.cold_to_hot.len();
        self.cold_to_hot.retain(|&p| p != page);
        self.cold_to_hot.len() != before
    }
}

/// One step of a trace. The page universe is kept small (0..48) so traces
/// revisit pages often — the interesting transitions are re-touch,
/// re-insert after eviction, and removing the current head/tail.
#[derive(Debug, Clone)]
enum Op {
    InsertHot(u64),
    OnAccess(u64),
    PopColdest,
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), 0u64..48).prop_map(|(kind, page)| match kind % 4 {
        0 => Op::InsertHot(page),
        1 => Op::OnAccess(page),
        2 => Op::PopColdest,
        _ => Op::Remove(page),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slab list and the specification agree on every observable after
    /// every op, and drain in the same eviction order.
    #[test]
    fn slab_lru_matches_reference(
        chain in 0u64..48,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        // Probability 1 makes `on_access` deterministic (always a touch) so
        // the spec needs no coupled RNG; the sampled path reduces to
        // `insert_hot`, which this trace exercises directly. The chain
        // starts as pages 0..chain, page 0 hottest: what inserting them
        // coldest first builds.
        let mut slab = RecencyList::with_chain(7, 1.0, chain, chain + 8);
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
                Op::Remove(p) => {
                    prop_assert_eq!(slab.remove(Ppn::new(p)), spec.remove(p));
                }
            }
            prop_assert_eq!(slab.len(), spec.cold_to_hot.len());
            prop_assert_eq!(slab.coldest().map(|p| p.raw()), spec.cold_to_hot.first().copied());
            for &p in &spec.cold_to_hot {
                prop_assert!(slab.contains(Ppn::new(p)));
            }
        }
        let slab_order: Vec<u64> = slab.cold_to_hot().iter().map(|p| p.raw()).collect();
        prop_assert_eq!(&slab_order, &spec.cold_to_hot, "cold-to-hot walk diverged");
        let drained: Vec<u64> = std::iter::from_fn(|| slab.pop_coldest().map(|p| p.raw())).collect();
        prop_assert_eq!(drained, spec.cold_to_hot, "eviction order diverged");
    }
}
