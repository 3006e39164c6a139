//! Criterion benchmarks of the simulator's hot-path bookkeeping
//! structures: the packed per-page [`PageMetaStore`] and the [`PageIndex`]
//! it shares with Compresso, the sampled intrusive [`RecencyList`], the
//! FxHash maps versus `std`'s SipHash default, and the page walk through
//! a computed identity table. Every simulated access crosses these
//! structures at least once, so their per-op cost is the floor of the
//! whole simulator's throughput. The `construction` group times the
//! two-level scheme's initial placement, which builds them all, and
//! Compresso's over the same pages. The `cache-hierarchy` group times the
//! tag stores every access crosses: building the L1/L2/L3 (each fleet
//! tenant pays it), a shortestPath block stream through them, the TLB's
//! lookup-then-fill, and a cold fleet tenant's first accesses through a
//! fresh hierarchy and TLB. The `cte-directory` group times what the
//! memory controller does on each of that stream's LLC misses: the CTE
//! cache probe at TMCC's and Compresso's geometries, and the DRAM access.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use tmcc::config::TmccToggles;
use tmcc::recency::SAMPLE_PROBABILITY;
use tmcc::schemes::{CompressoScheme, TwoLevelScheme};
use tmcc::{PageIndex, PageMetaStore, PageSizes, Placement, RecencyList, SizeModel};
use tmcc_sim_dram::{DramConfig, DramSim, InterleavePolicy};
use tmcc_sim_mem::{
    CacheHierarchy, CteCache, CteCacheConfig, HierarchyConfig, HitLevel, PageTable,
    PageTableConfig, PageWalker, Tlb,
};
use tmcc_types::addr::{BlockAddr, DramAddr, Ppn, Vpn};
use tmcc_types::FxHashMap;
use tmcc_workloads::{AccessStream, WorkloadProfile};

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
    // The two-run layout `System::try_new` places: the data pages from 0,
    // then the page-table region.
    let table = PageTable::identity(PageTableConfig::for_data_pages(PAGES, false), PAGES);
    let mut index = PageIndex::default();
    index.push(0..PAGES);
    index.push(table.table_ppns());
    let mut pages = PageMetaStore::with_pages(index.clone());
    for ppn in 0..PAGES {
        let id = pages.id_of(ppn).expect("placed");
        pages.set_place(id, Placement::Ml1 { frame: ppn as u32 });
    }
    let lookups = ppns(1, PAGES, OPS);
    let ids: Vec<_> = lookups.iter().map(|&p| pages.id_of(p).expect("placed")).collect();

    let mut g = c.benchmark_group("page-meta");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("page-index/slot", |b| {
        b.iter(|| {
            for &ppn in &lookups {
                black_box(index.slot(ppn));
            }
        })
    });
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
                pages.set_place(id, Placement::Ml1 { frame: i as u32 });
            }
            black_box(&pages);
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
            let mut rl = RecencyList::with_chain(7, SAMPLE_PROBABILITY, 0, OPS as u64);
            for ppn in 0..OPS as u64 {
                rl.insert_hot(Ppn::new(ppn));
            }
            black_box(rl.len())
        })
    });
    g.bench_function("on-access/64Ki", |b| {
        let mut rl = RecencyList::with_chain(7, SAMPLE_PROBABILITY, 0, PAGES);
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
                let mut rl = RecencyList::with_chain(7, SAMPLE_PROBABILITY, 0, OPS as u64);
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

fn bench_construction(c: &mut Criterion) {
    // `capacity_cliff`'s budget rule over a 1 Mi-page identity table: 9/16
    // of the footprint plus the translation-metadata allowance, less the
    // 24 B per page the two-level schemes keep in DRAM (as
    // `System::try_new` derives the frames). The size model is sixteen
    // fixed samples (~3x Deflate), so no codec runs inside the timing.
    const PAGES: u64 = 1 << 20;
    let table = PageTable::identity(PageTableConfig::for_data_pages(PAGES, false), PAGES);
    let table_pages = table.table_page_count() as u64;
    let budget_bytes = PAGES * 4096 * 9 / 16 + PAGES * 32;
    let frames = ((budget_bytes - (PAGES + table_pages) * 24) / 4096) as u32;
    let samples = (0..16).map(|i| PageSizes { deflate_bytes: 600 + 100 * i, block_bytes: 2048 });
    let model = SizeModel::from_samples(samples.collect());

    let mut g = c.benchmark_group("construction");
    g.throughput(Throughput::Elements(PAGES));
    g.sample_size(10);
    g.bench_function("two-level-try-new/1Mi", |b| {
        b.iter(|| {
            let toggles = TmccToggles::full();
            let cte = CteCacheConfig::tmcc();
            TwoLevelScheme::try_new(toggles, cte, model.clone(), &table, PAGES, frames, 7, 0.01)
                .expect("feasible budget")
        })
    });
    // Compresso over the same pages and table, as `System::try_new`
    // passes them: the data run from 0, then the table region.
    g.bench_function("compresso-new/1Mi", |b| {
        b.iter(|| {
            let ppns = (0..PAGES).chain(table.table_ppns()).map(Ppn::new);
            CompressoScheme::new(CteCacheConfig::compresso(), model.clone(), ppns, 7)
        })
    });
    g.finish();
}

/// The first `n` accesses of `profile`'s stream over `pages` identity-mapped
/// pages: each one's VPN, block and write flag.
fn stream_events(profile: &str, pages: u64, seed: u64, n: usize) -> Vec<(Vpn, BlockAddr, bool)> {
    let pattern = WorkloadProfile::by_name(profile).expect("profile").pattern;
    let mut stream = AccessStream::new(pattern, pages, seed);
    (0..n)
        .map(|_| {
            let ev = stream.next_access();
            let vpn = ev.vaddr.vpn();
            (vpn, Ppn::new(vpn.raw()).block(ev.vaddr.page_offset() as usize / 64), ev.write)
        })
        .collect()
}

fn bench_cache_hierarchy(c: &mut Criterion) {
    // shortestPath's stream over 64 Ki identity-mapped pages (256 MiB,
    // 32x the L3): its hot set fits the L3, its scans and cold draws miss.
    // Each timed batch is the next `OPS` accesses of a 1 Mi-access cycle,
    // long enough that a replayed block has left the L3.
    let events = stream_events("shortestPath", PAGES, 11, 1 << 20);
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::default());
    // The blocks that reach memory on the warm pass: the stream the
    // memory controller sees.
    let mut misses = Vec::new();
    for pass in 0..2 {
        misses.clear();
        for &(_, block, write) in &events {
            if hierarchy.access(block, write, false).level == HitLevel::Memory {
                misses.push((block, write));
            }
        }
        // Pin the stream's shape: once warm, ~80 % of accesses miss the
        // L3, as in the step loop on shortestPath.
        let miss_rate = misses.len() as f64 / events.len() as f64;
        assert!(pass == 0 || (0.7..0.9).contains(&miss_rate), "LLC miss rate {miss_rate}");
    }

    let mut g = c.benchmark_group("cache-hierarchy");
    g.bench_function("new/default", |b| {
        b.iter(|| CacheHierarchy::new(black_box(HierarchyConfig::default())))
    });
    let batches = || events.chunks(OPS).cycle();
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("access/shortestPath-64Ki", |b| {
        let mut batch = batches();
        b.iter(|| {
            for &(_, block, write) in batch.next().expect("cycle") {
                black_box(hierarchy.access(block, write, false));
            }
        })
    });
    // The step loop's translation: a lookup, and a fill after each miss.
    let mut tlb = Tlb::paper_default();
    g.bench_function("tlb-lookup-fill/shortestPath-64Ki", |b| {
        let mut batch = batches();
        b.iter(|| {
            for &(vpn, ..) in batch.next().expect("cycle") {
                if tlb.lookup(vpn).is_none() {
                    tlb.fill(vpn, Ppn::new(vpn.raw()));
                }
            }
        })
    });
    // A cold fleet tenant: `fleet_1k`'s tenants each build a hierarchy
    // and TLB of their own, so here every batch of a 64-page kv_zipf
    // stream starts on fresh ones and pays their first-fill reservations
    // and the set blocks its accesses take.
    let tenant = stream_events("kv_zipf", 64, 13, OPS);
    g.bench_function("cold-tenant/kv_zipf-64", |b| {
        b.iter(|| {
            let mut hierarchy = CacheHierarchy::new(HierarchyConfig::default());
            let mut tlb = Tlb::paper_default();
            for &(vpn, block, write) in &tenant {
                if tlb.lookup(vpn).is_none() {
                    tlb.fill(vpn, Ppn::new(vpn.raw()));
                }
                black_box(hierarchy.access(block, write, false));
            }
            black_box((hierarchy, tlb))
        })
    });
    g.finish();

    // Each LLC miss probes the memory controller's CTE cache, warmed over
    // the whole miss stream first, and then goes to DRAM.
    let mut g = c.benchmark_group("cte-directory");
    g.throughput(Throughput::Elements(OPS as u64));
    let miss_batches = || misses.chunks(OPS).cycle();
    for (name, cfg) in
        [("tmcc", CteCacheConfig::tmcc()), ("compresso", CteCacheConfig::compresso())]
    {
        let mut cache = CteCache::new(cfg);
        for &(block, _) in &misses {
            cache.access(block.ppn());
        }
        g.bench_function(&format!("cte-cache-access/{name}"), |b| {
            let mut batch = miss_batches();
            b.iter(|| {
                for &(block, _) in batch.next().expect("cycle") {
                    black_box(cache.access(block.ppn()));
                }
            })
        });
    }
    // The step loop's DRAM model and interleave, each access starting
    // when the previous one completes.
    let mut dram = DramSim::new(DramConfig::default(), InterleavePolicy::coarse_mc());
    let mut now_ns = 0.0;
    g.bench_function("dram-access/shortestPath-misses", |b| {
        let mut batch = miss_batches();
        b.iter(|| {
            for &(block, write) in batch.next().expect("cycle") {
                now_ns = dram.access(now_ns, DramAddr::new(block.base().raw()), write);
            }
            black_box(now_ns)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_page_meta,
    bench_recency_list,
    bench_hash_maps,
    bench_page_walk,
    bench_construction,
    bench_cache_hierarchy
);
criterion_main!(benches);
