//! Workspace-level integration tests spanning crates: the functional
//! codecs against the workload corpus, the PTB-embedding pipeline from the
//! page walker through the TMCC scheme, and figure-shaped smoke checks on
//! the full system.

use tmcc::config::TmccToggles;
use tmcc::schemes::{MemRequest, Scheme, TwoLevelScheme};
use tmcc::{FaultKind, PageSizes, SchemeKind, SimStats, SizeModel, System, SystemConfig};
use tmcc_compression::{BestOfCodec, BlockCodec};
use tmcc_deflate::{MemDeflate, SoftwareDeflate};
use tmcc_sim_dram::{DramSim, InterleavePolicy};
use tmcc_sim_mem::{CteCacheConfig, PageTable, PageTableConfig, PageWalker};
use tmcc_types::addr::Vpn;
use tmcc_workloads::WorkloadProfile;

/// The paper's RTL verification, in miniature: every page of every
/// workload's corpus must survive compress→decompress bit-exactly, under
/// both the page-level Deflate and the block-level composite.
#[test]
fn corpus_round_trips_under_all_codecs() {
    let deflate = MemDeflate::default();
    let software = SoftwareDeflate::new();
    let block = BestOfCodec::new();
    let mut page = vec![0u8; 4096];
    let mut restored = Vec::new();
    for w in WorkloadProfile::large_suite().into_iter().take(4) {
        let content = w.page_content(99);
        for i in 0..24u64 {
            content.fill_page(i * 31, &mut page);
            let c = deflate.compress_page(&page);
            deflate.try_decompress_page_into(&c, &mut restored).expect("clean page decodes");
            assert_eq!(restored, page, "{} page {i}", w.name);
            let sw = software.compress(&page);
            assert_eq!(software.try_decompress(&sw), Ok(page.clone()), "{} page {i}", w.name);
            for blk in page.chunks_exact(64) {
                let arr: &[u8; 64] = blk.try_into().expect("64B");
                if let Some(cb) = block.compress(arr) {
                    assert_eq!(block.try_decompress(&cb).as_ref(), Ok(arr));
                }
            }
        }
    }
}

/// The path a TMCC page walk runs, across crates: the walker fetches PTBs
/// from the computed page table, the scheme harvests the CTEs embedded in
/// them, and each access verifies the embedding it speculated on (§V-A3),
/// repairing a stale one after a migration (§V-A2).
#[test]
fn ptb_embedding_pipeline_end_to_end() {
    let pages = 2048;
    let pt = PageTable::identity(PageTableConfig::default(), pages);
    // Every page compresses to 1200 B, and 1400 frames leave the coldest
    // (highest) pages in ML2.
    let sizes = SizeModel::from_samples(vec![PageSizes { deflate_bytes: 1200, block_bytes: 3000 }]);
    let mut scheme = TwoLevelScheme::try_new(
        TmccToggles::full(),
        CteCacheConfig::tmcc(),
        sizes,
        &pt,
        pages,
        1400,
        7,
        0.15,
    )
    .expect("feasible budget");
    let mut walker = PageWalker::paper_default();
    let mut dram = DramSim::new(Default::default(), InterleavePolicy::coarse_mc());
    let mut stats = SimStats::default();
    let mut fetched = Vec::new();
    // What the system does on a TLB miss at `now` ns: walk, hand every
    // fetched PTB to the scheme, then read the page.
    let mut walk_and_read = |scheme: &mut TwoLevelScheme, stats: &mut SimStats, vpn, now| {
        let (ppn, _) = walker.walk_into(&pt, Vpn::new(vpn), &mut fetched).expect("mapped");
        assert_eq!(ppn.raw(), vpn, "identity map");
        for (step, ptb) in &fetched {
            scheme.on_ptb_fetched(step.ptb_block, ptb);
        }
        let req = MemRequest {
            ppn,
            block: ppn.block(0),
            write: false,
            is_ptb: false,
            after_tlb_miss: true,
        };
        scheme.access(&req, now, &mut dram, stats).expect("placed page");
    };

    // An ML1 page: the embedded CTE is right, so data and CTE are fetched
    // in parallel.
    walk_and_read(&mut scheme, &mut stats, 77, 0.0);
    assert_eq!((stats.ml1_parallel_correct, stats.ml1_parallel_mismatch), (1, 0), "{stats:?}");

    // An ML2 page migrates to ML1 on access; its embedding still names the
    // ML2 location.
    let cold = pages - 1;
    walk_and_read(&mut scheme, &mut stats, cold, 1e6);
    assert_eq!((stats.ml2_reads, stats.ml2_to_ml1_migrations), (1, 1), "{stats:?}");

    // Once the CTE cache and buffer lose the page, the next walk harvests
    // the stale embedding: the verify catches it and repairs the PTB.
    scheme.apply_fault(FaultKind::CteFlushStorm, 2e6, &mut stats).unwrap();
    walk_and_read(&mut scheme, &mut stats, cold, 2e6);
    assert_eq!((stats.ml1_parallel_correct, stats.ml1_parallel_mismatch), (1, 1), "{stats:?}");

    // The repaired embedding goes parallel-correct.
    scheme.apply_fault(FaultKind::CteFlushStorm, 3e6, &mut stats).unwrap();
    walk_and_read(&mut scheme, &mut stats, cold, 3e6);
    assert_eq!((stats.ml1_parallel_correct, stats.ml1_parallel_mismatch), (2, 1), "{stats:?}");
    assert_eq!(stats.ml1_serial, 0, "{stats:?}");
}

/// Fig. 1's qualitative claim on a scaled workload: under block-level
/// CTEs, CTE misses per LLC miss are comparable to (or exceed) TLB misses
/// per LLC miss.
#[test]
fn cte_misses_rival_tlb_misses_under_compresso() {
    let mut w = WorkloadProfile::by_name("graphColoring").expect("known");
    w.sim_pages = 24_576;
    let mut cfg = SystemConfig::new(w, SchemeKind::Compresso);
    cfg.warmup_accesses = 20_000;
    let r = System::try_new(cfg).expect("feasible budget").try_run(60_000).expect("run completes");
    let tlb = r.stats.tlb_miss_per_llc_miss();
    let cte = r.stats.cte_miss_per_llc_miss();
    assert!(tlb > 0.02, "TLB misses too rare: {tlb}");
    assert!(cte > 0.02, "CTE misses too rare: {cte}");
    assert!(cte > tlb * 0.6, "CTE misses ({cte:.3}) should rival TLB misses ({tlb:.3})");
}

/// The §IV claim: switching from block-level to page-level CTEs removes a
/// large share of CTE misses at identical cache capacity.
#[test]
fn page_level_ctes_cut_misses() {
    let mut w = WorkloadProfile::by_name("connComp").expect("known");
    w.sim_pages = 24_576;
    let mut block_cfg = SystemConfig::new(w.clone(), SchemeKind::Compresso);
    block_cfg.warmup_accesses = 20_000;
    // Page-level CTEs at the same 64 KiB capacity (the §IV comparison).
    block_cfg.cte_cache.size_bytes = 64 * 1024;
    let rb = System::try_new(block_cfg)
        .expect("feasible budget")
        .try_run(60_000)
        .expect("run completes");

    let mut page_cfg = SystemConfig::new(w, SchemeKind::OsInspired);
    page_cfg.warmup_accesses = 20_000;
    let rp =
        System::try_new(page_cfg).expect("feasible budget").try_run(60_000).expect("run completes");
    assert!(
        rp.stats.cte_miss_per_llc_miss() < rb.stats.cte_miss_per_llc_miss(),
        "page-level {:.3} vs block-level {:.3}",
        rp.stats.cte_miss_per_llc_miss(),
        rb.stats.cte_miss_per_llc_miss()
    );
}
