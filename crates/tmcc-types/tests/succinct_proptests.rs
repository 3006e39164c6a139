//! Property tests pinning the succinct structures to naive reference
//! models: [`BitVec`] against a `Vec<bool>`. Arbitrary op traces must
//! leave every observable (get, counts, lengths) identical to the model,
//! including at word boundaries.

use proptest::prelude::*;
use tmcc_types::bitvec::BitVec;

#[derive(Debug, Clone)]
enum BitOp {
    Set(usize),
    Clear(usize),
    SetTo(usize, bool),
    Grow(usize),
}

fn bit_op() -> impl Strategy<Value = BitOp> {
    // Index range deliberately exceeds typical lengths so ops cluster on
    // boundary words; out-of-range indices are wrapped by the executor.
    (any::<u8>(), 0usize..200, any::<bool>()).prop_map(|(kind, i, b)| match kind % 4 {
        0 => BitOp::Set(i),
        1 => BitOp::Clear(i),
        2 => BitOp::SetTo(i, b),
        _ => BitOp::Grow(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every observable of `BitVec` matches the `Vec<bool>` model after an
    /// arbitrary trace of set/clear/set_to/grow ops.
    #[test]
    fn bitvec_matches_vec_bool(
        init_len in 0usize..150,
        ops in prop::collection::vec(bit_op(), 0..120),
    ) {
        let mut bv = BitVec::with_len(init_len);
        let mut model = vec![false; init_len];
        for op in ops {
            match op {
                BitOp::Set(i) if !model.is_empty() => {
                    let i = i % model.len();
                    let was_clear = !model[i];
                    prop_assert_eq!(bv.set(i), was_clear);
                    model[i] = true;
                }
                BitOp::Clear(i) if !model.is_empty() => {
                    let i = i % model.len();
                    let was_set = model[i];
                    prop_assert_eq!(bv.clear(i), was_set);
                    model[i] = false;
                }
                BitOp::SetTo(i, b) if !model.is_empty() => {
                    let i = i % model.len();
                    let changed = model[i] != b;
                    prop_assert_eq!(bv.set_to(i, b), changed);
                    model[i] = b;
                }
                BitOp::Grow(n) => {
                    bv.grow(n);
                    if n > model.len() {
                        model.resize(n, false);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(bv.len(), model.len());
        prop_assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bv.get(i), b, "bit {}", i);
        }
    }
}
