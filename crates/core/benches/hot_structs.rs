//! Criterion benchmarks of the simulator's hot-path bookkeeping
//! structures: the packed per-page [`PageMetaStore`], the sampled intrusive
//! [`RecencyList`], the FxHash maps versus `std`'s SipHash default, and
//! the page walk through a computed identity table. Every simulated
//! access crosses these structures at least once, so their per-op cost
//! is the floor of the whole simulator's throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use tmcc::{PageInfo, PageMetaStore, Placement, RecencyList};
use tmcc_sim_mem::{PageTable, PageTableConfig, PageWalker};
use tmcc_types::addr::{Ppn, Vpn};
use tmcc_types::FxHashMap;

const PAGES: u64 = 1 << 16;
const OPS: usize = 1 << 12;

/// Deterministic page-number stream (splitmix-style; no rand dependency).
fn ppns(seed: u64, bound: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        })
        .collect()
}

fn bench_page_meta(c: &mut Criterion) {
    let mut pages = PageMetaStore::new(1 << 26);
    for ppn in 0..PAGES {
        let place = Placement::Ml1 { frame: ppn as u32 };
        pages.insert(ppn, PageInfo { place, dirty_epoch: 0, pinned: false, incompressible: false });
    }
    let lookups = ppns(1, PAGES, OPS);
    let ids: Vec<_> = lookups.iter().map(|&p| pages.id_of(p).expect("resident")).collect();

    let mut g = c.benchmark_group("page-meta");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("id-of/64Ki", |b| {
        b.iter(|| {
            for &ppn in &lookups {
                black_box(pages.id_of(ppn));
            }
        })
    });
    g.bench_function("get-id/64Ki", |b| {
        b.iter(|| {
            for &id in &ids {
                black_box(pages.get_id(id));
            }
        })
    });
    g.bench_function("set-place/64Ki", |b| {
        b.iter(|| {
            for (i, &id) in ids.iter().enumerate() {
                black_box(pages.set_place(id, Placement::Ml1 { frame: i as u32 }));
            }
        })
    });
    g.finish();
}

fn bench_recency_list(c: &mut Criterion) {
    let stream = ppns(2, PAGES, OPS);

    let mut g = c.benchmark_group("recency-list");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("insert-hot/64Ki", |b| {
        b.iter(|| {
            let mut rl = RecencyList::new(7);
            for ppn in 0..OPS as u64 {
                rl.insert_hot(Ppn::new(ppn));
            }
            black_box(rl.len())
        })
    });
    g.bench_function("on-access/64Ki", |b| {
        let mut rl = RecencyList::new(7);
        for ppn in 0..PAGES {
            rl.insert_hot(Ppn::new(ppn));
        }
        b.iter(|| {
            for &ppn in &stream {
                black_box(rl.on_access(Ppn::new(ppn)));
            }
        })
    });
    g.bench_function("pop-coldest/4Ki", |b| {
        b.iter_with_setup(
            || {
                let mut rl = RecencyList::new(7);
                for ppn in 0..OPS as u64 {
                    rl.insert_hot(Ppn::new(ppn));
                }
                rl
            },
            |mut rl| {
                while let Some(p) = rl.pop_coldest() {
                    black_box(p);
                }
            },
        )
    });
    g.finish();
}

fn bench_hash_maps(c: &mut Criterion) {
    let keys = ppns(3, PAGES, OPS);
    let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
    let mut std_map: HashMap<u64, u64> = HashMap::new();
    for ppn in 0..PAGES {
        fx.insert(ppn, ppn * 3);
        std_map.insert(ppn, ppn * 3);
    }

    let mut g = c.benchmark_group("hash-maps");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("fxhash/get", |b| {
        b.iter(|| {
            for k in &keys {
                black_box(fx.get(k));
            }
        })
    });
    g.bench_function("siphash/get", |b| {
        b.iter(|| {
            for k in &keys {
                black_box(std_map.get(k));
            }
        })
    });
    g.finish();
}

fn bench_page_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("page-walk");
    g.throughput(Throughput::Elements(OPS as u64));
    for (name, pages) in [("64Ki", 1u64 << 16), ("4Mi", 1 << 22)] {
        let table = PageTable::identity(PageTableConfig::for_data_pages(pages, false), pages);
        let vpns: Vec<Vpn> = ppns(4, pages, OPS).into_iter().map(Vpn::new).collect();
        let mut buf = Vec::with_capacity(4);
        // The table alone: all four PTBs of each walk, no PWC.
        g.bench_function(&format!("walk-path-into/{name}"), |b| {
            b.iter(|| {
                for &vpn in &vpns {
                    black_box(table.walk_path_into(vpn, &mut buf));
                }
            })
        });
        // Cold: the PWC is flushed before every walk, so each one fetches
        // all four PTBs.
        g.bench_function(&format!("walk-into/pwc-cold/{name}"), |b| {
            let mut walker = PageWalker::paper_default();
            b.iter(|| {
                for &vpn in &vpns {
                    walker.flush();
                    black_box(walker.walk_into(&table, vpn, &mut buf));
                }
            })
        });
        // Warm: the PWC keeps upper-level pointers across the stream.
        g.bench_function(&format!("walk-into/pwc-warm/{name}"), |b| {
            let mut walker = PageWalker::paper_default();
            b.iter(|| {
                for &vpn in &vpns {
                    black_box(walker.walk_into(&table, vpn, &mut buf));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_page_meta, bench_recency_list, bench_hash_maps, bench_page_walk);
criterion_main!(benches);
