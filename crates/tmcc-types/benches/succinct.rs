//! Criterion benchmarks of the succinct metadata structures: the
//! mutable [`BitVec`] and the fixed-width [`PackedSeq`]. These back
//! membership maps and CTE slot metadata on the simulator's hot path, so
//! their per-op cost bounds how cheaply a TB-scale footprint can be
//! tracked.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tmcc_types::{BitVec, PackedSeq};

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

fn bench_packed_seq(c: &mut Criterion) {
    const WIDTH: u32 = 13; // CTE-slot-sized values, straddles words
    let len = BITS / 8;
    let mut seq = PackedSeq::with_len(WIDTH, len);
    for (pos, v) in indices(6, 1 << WIDTH, len).into_iter().enumerate() {
        seq.set(pos, v as u64);
    }
    let gets = indices(7, len, OPS);
    let sets = indices(8, len, OPS);

    let mut g = c.benchmark_group("packed-seq");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("get/13-bit", |b| {
        b.iter(|| {
            for &i in &gets {
                black_box(seq.get(i));
            }
        })
    });
    g.bench_function("set/13-bit", |b| {
        let mut live = seq.clone();
        b.iter(|| {
            for &i in &sets {
                live.set(i, (i as u64 * 7) & live.max_value());
            }
            black_box(live.get(0))
        })
    });
    g.bench_function("push/13-bit", |b| {
        b.iter(|| {
            let mut s = PackedSeq::new(WIDTH);
            for i in 0..OPS as u64 {
                s.push(i & s.max_value());
            }
            black_box(s.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bitvec, bench_packed_seq);
criterion_main!(benches);
