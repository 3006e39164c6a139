//! Property tests pinning the succinct structures to naive reference
//! models: [`BitVec`] against a `Vec<bool>`, and [`PackedSeq`] against a
//! `Vec<u64>`. Arbitrary op traces must leave every observable (get,
//! counts, iteration order) identical to the model, including at word
//! boundaries.

use proptest::prelude::*;
use tmcc_types::bitvec::BitVec;
use tmcc_types::packed::PackedSeq;

#[derive(Debug, Clone)]
enum BitOp {
    Set(usize),
    Clear(usize),
    SetTo(usize, bool),
    Push(bool),
    Grow(usize),
}

fn bit_op() -> impl Strategy<Value = BitOp> {
    // Index range deliberately exceeds typical lengths so ops cluster on
    // boundary words; out-of-range indices are wrapped by the executor.
    (any::<u8>(), 0usize..200, any::<bool>()).prop_map(|(kind, i, b)| match kind % 5 {
        0 => BitOp::Set(i),
        1 => BitOp::Clear(i),
        2 => BitOp::SetTo(i, b),
        3 => BitOp::Push(b),
        _ => BitOp::Grow(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every observable of `BitVec` matches the `Vec<bool>` model after an
    /// arbitrary trace of set/clear/push/grow ops.
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
                BitOp::Push(b) => {
                    bv.push(b);
                    model.push(b);
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
        let ones: Vec<usize> =
            model.iter().enumerate().filter(|&(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(bv.iter_ones().collect::<Vec<_>>(), ones);
    }
}

#[derive(Debug, Clone)]
enum SeqOp {
    Push(u64),
    Set(usize, u64),
}

fn seq_op() -> impl Strategy<Value = SeqOp> {
    (any::<bool>(), 0usize..300, any::<u64>()).prop_map(|(push, i, v)| {
        if push {
            SeqOp::Push(v)
        } else {
            SeqOp::Set(i, v)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `PackedSeq` matches a `Vec<u64>` model under arbitrary push/set
    /// traces at every width, so straddled word boundaries never leak
    /// bits into neighbors.
    #[test]
    fn packed_seq_matches_vec_u64(
        width in 1u32..=64,
        init_len in 0usize..80,
        ops in prop::collection::vec(seq_op(), 0..100),
    ) {
        let mask = if width == 64 { !0u64 } else { (1u64 << width) - 1 };
        let mut seq = PackedSeq::with_len(width, init_len);
        let mut model = vec![0u64; init_len];
        for op in ops {
            match op {
                SeqOp::Push(v) => {
                    seq.push(v & mask);
                    model.push(v & mask);
                }
                SeqOp::Set(i, v) if !model.is_empty() => {
                    let i = i % model.len();
                    seq.set(i, v & mask);
                    model[i] = v & mask;
                }
                _ => {}
            }
        }
        prop_assert_eq!(seq.len(), model.len());
        for (i, &v) in model.iter().enumerate() {
            prop_assert_eq!(seq.get(i), v, "element {}", i);
        }
        prop_assert_eq!(seq.iter().collect::<Vec<_>>(), model);
    }
}
