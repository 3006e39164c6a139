//! Criterion benchmarks of the succinct metadata structures: the
//! mutable [`BitVec`]. It backs membership maps on the simulator's hot
//! path, so its per-op cost bounds how cheaply a TB-scale footprint can
//! be tracked.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tmcc_types::BitVec;

const BITS: usize = 1 << 20;
const OPS: usize = 1 << 12;

/// Deterministic index stream (splitmix-style; no rand dependency).
fn indices(seed: u64, bound: usize, n: usize) -> Vec<usize> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize % bound
        })
        .collect()
}

fn every_third(bits: usize) -> BitVec {
    let mut bv = BitVec::with_len(bits);
    for i in (0..bits).step_by(3) {
        bv.set(i);
    }
    bv
}

fn bench_bitvec(c: &mut Criterion) {
    let bv = every_third(BITS);
    let churn = indices(3, BITS, OPS);

    let mut g = c.benchmark_group("bitvec");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("set-clear-churn/1Mi", |b| {
        let mut live = bv.clone();
        b.iter(|| {
            for &i in &churn {
                live.set(i);
                live.clear(i);
            }
            black_box(live.count_ones())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bitvec);
criterion_main!(benches);
