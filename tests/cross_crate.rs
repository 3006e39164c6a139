//! Workspace-level integration tests spanning crates: the functional
//! codecs against the workload corpus, the PTB-embedding pipeline against
//! a real page table, and figure-shaped smoke checks on the full system.

use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_compression::{BestOfCodec, BlockCodec};
use tmcc_deflate::{MemDeflate, SoftwareDeflate};
use tmcc_sim_mem::{PageTable, PageTableConfig, PageWalker, Tlb};
use tmcc_types::addr::Vpn;
use tmcc_types::cte::{Cte, MemoryLevel};
use tmcc_types::ptb::{CompressedPtb, PtbGeometry};
use tmcc_workloads::WorkloadProfile;

/// The paper's RTL verification, in miniature: every page of every
/// workload's corpus must survive compress→decompress bit-exactly, under
/// both the page-level Deflate and the block-level composite.
#[test]
fn corpus_round_trips_under_all_codecs() {
    let deflate = MemDeflate::default();
    let software = SoftwareDeflate::new();
    let block = BestOfCodec::new();
    for w in WorkloadProfile::large_suite().into_iter().take(4) {
        let content = w.page_content(99);
        for i in 0..24u64 {
            let page = content.page_bytes(i * 31);
            let c = deflate.compress_page(&page);
            assert_eq!(deflate.decompress_page(&c), page, "{} page {i}", w.name);
            let sw = software.compress(&page);
            assert_eq!(software.decompress(&sw), page, "{} page {i}", w.name);
            for blk in page.chunks_exact(64) {
                let arr: &[u8; 64] = blk.try_into().expect("64B");
                if let Some(cb) = block.compress(arr) {
                    assert_eq!(&block.decompress(&cb), arr);
                }
            }
        }
    }
}

/// Walk a real page table, compress the fetched PTBs, embed CTEs, and
/// check the full prefetch-verify-repair chain end to end.
#[test]
fn ptb_embedding_pipeline_end_to_end() {
    let pt = PageTable::identity(PageTableConfig::default(), 2048);
    let mut walker = PageWalker::paper_default();
    let mut tlb = Tlb::paper_default();
    let geometry = PtbGeometry::paper_default();

    let walk = walker.walk(&pt, Vpn::new(77)).expect("mapped");
    assert!(tlb.lookup(Vpn::new(77)).is_none());
    tlb.fill(Vpn::new(77), walk.ppn);

    // Compress the leaf PTB and embed a CTE for every present entry.
    let leaf = walk.fetched.last().expect("leaf step");
    let ptb = pt.ptb_at(leaf.ptb_block).expect("table block");
    let mut compressed = CompressedPtb::compress(&ptb, geometry).expect("uniform PTB");
    for slot in 0..8 {
        let pte = ptb.entry(slot);
        if pte.is_present() {
            let cte = Cte::new(pte.ppn().raw() as u32 + 5000, MemoryLevel::Ml1);
            assert!(compressed.embed_cte(slot, cte.truncated()));
        }
    }
    // Software never sees the embedded CTEs.
    assert_eq!(compressed.decompress(), ptb);
    // The embedded CTE verifies against the matching full CTE and fails
    // against a migrated one.
    let t = compressed.embedded_cte(leaf.slot).expect("embedded");
    let full = Cte::new(leaf.next_ppn.raw() as u32 + 5000, MemoryLevel::Ml1);
    assert!(t.matches(&full));
    let migrated = Cte::new(1, MemoryLevel::Ml2);
    assert!(!t.matches(&migrated));
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
    let r = System::new(cfg).run(60_000);
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
    let rb = System::new(block_cfg).run(60_000);

    let mut page_cfg = SystemConfig::new(w, SchemeKind::OsInspired);
    page_cfg.warmup_accesses = 20_000;
    let rp = System::new(page_cfg).run(60_000);
    assert!(
        rp.stats.cte_miss_per_llc_miss() < rb.stats.cte_miss_per_llc_miss(),
        "page-level {:.3} vs block-level {:.3}",
        rp.stats.cte_miss_per_llc_miss(),
        rb.stats.cte_miss_per_llc_miss()
    );
}
