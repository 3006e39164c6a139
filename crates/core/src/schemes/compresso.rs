//! The Compresso baseline (paper §III, reference \[6\]).
//!
//! Block-level compression for capacity: every page is stored as
//! individually compressed 64 B blocks packed into 512 B chunks from a
//! hardware free list; a 64-byte metadata entry (block-level CTE) per
//! 4 KiB page records where each block lives. On a metadata-cache miss the
//! MC must fetch the entry from DRAM **before** it knows where the data
//! is — the serial translation TMCC attacks (Fig. 8a).

use super::{metadata_dram_addr, MemRequest, Scheme};
use crate::config::SchemeKind;
use crate::error::TmccError;
use crate::free_list::CompressoFreeList;
use crate::size_model::SizeModel;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::{CteCache, CteCacheConfig};
use tmcc_types::addr::{DramAddr, Ppn};
use tmcc_types::cte::BlockMetadata;

/// Probability a dirty writeback changes a page's compressed size enough
/// to trigger repacking (page overflow/underflow churn in [6]).
const OVERFLOW_PROBABILITY: f64 = 0.02;

/// One resident page.
#[derive(Debug, Clone)]
struct PageState {
    chunks: Vec<u32>,
    dirty_epoch: u32,
}

/// The Compresso memory controller.
pub struct CompressoScheme {
    meta_cache: CteCache,
    pages: HashMap<u64, PageState>,
    free: CompressoFreeList,
    size_model: SizeModel,
    rng: SmallRng,
    footprint_bytes: u64,
}

impl CompressoScheme {
    /// Builds the scheme: lays out `data_ppns ∪ table_ppns` pages as
    /// block-compressed chunk lists according to the size model.
    pub fn new(
        cfg: CteCacheConfig,
        size_model: SizeModel,
        pages: impl IntoIterator<Item = Ppn>,
        seed: u64,
    ) -> Self {
        let mut s = Self {
            meta_cache: CteCache::new(cfg),
            pages: HashMap::new(),
            free: CompressoFreeList::new(),
            size_model,
            rng: SmallRng::seed_from_u64(seed ^ 0xC0117),
            footprint_bytes: 0,
        };
        let mut next_chunk = 0u32;
        for ppn in pages {
            let sizes = s.size_model.sizes_of(ppn.raw(), 0);
            let n = sizes.compresso_chunks();
            let chunks: Vec<u32> = (next_chunk..next_chunk + n as u32).collect();
            next_chunk += n as u32;
            s.pages.insert(ppn.raw(), PageState { chunks, dirty_epoch: 0 });
            s.footprint_bytes += 4096;
        }
        // Give the free list headroom for overflow churn.
        for c in next_chunk..next_chunk + 4096 {
            s.free.push(c);
        }
        s
    }

    fn data_addr(&self, req: &MemRequest) -> Result<DramAddr, TmccError> {
        let page =
            self.pages.get(&req.ppn.raw()).ok_or(TmccError::UnplacedPage { ppn: req.ppn.raw() })?;
        let bi = req.block.index_in_page();
        // Blocks are packed in order: place block i proportionally into
        // the page's chunk list (the exact packing is in the metadata
        // entry; timing only needs a deterministic in-page location).
        let idx = (bi * page.chunks.len()) / 64;
        let within = (bi * 64) % BlockMetadata::CHUNK_SIZE;
        Ok(DramAddr::new(
            page.chunks[idx] as u64 * BlockMetadata::CHUNK_SIZE as u64 + within as u64,
        ))
    }

    /// CTE translation for one request: returns added latency and whether
    /// it missed.
    fn translate(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
        count_stats: bool,
    ) -> (f64, bool) {
        if self.meta_cache.access(req.ppn) {
            if count_stats {
                stats.cte_hits = stats.cte_hits.saturating_add(1);
            }
            (now_ns, false)
        } else {
            if count_stats {
                stats.cte_misses = stats.cte_misses.saturating_add(1);
                if req.after_tlb_miss {
                    stats.cte_misses_after_tlb_miss =
                        stats.cte_misses_after_tlb_miss.saturating_add(1);
                }
            }
            // Serial metadata fetch from DRAM (Fig. 8a).
            let done = dram.access(now_ns, DramAddr::new(metadata_dram_addr(req.ppn)), false);
            (done, true)
        }
    }
}

impl Scheme for CompressoScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Compresso
    }

    fn access(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<f64, TmccError> {
        let addr = self.data_addr(req)?;
        let (ready_ns, _missed) = self.translate(req, now_ns, dram, stats, true);
        let done = dram.access(ready_ns, addr, req.write);
        Ok(done - now_ns)
    }

    fn writeback(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        let addr = self.data_addr(req)?;
        let (ready_ns, _) = self.translate(req, now_ns, dram, stats, false);
        let done = dram.access_background(ready_ns, addr, true);
        // Occasionally the new value no longer fits: repack the page
        // (metadata update + data movement), the churn [6] manages.
        if self.rng.gen::<f64>() < OVERFLOW_PROBABILITY {
            stats.page_overflows = stats.page_overflows.saturating_add(1);
            let page = self
                .pages
                .get_mut(&req.ppn.raw())
                .ok_or(TmccError::UnplacedPage { ppn: req.ppn.raw() })?;
            page.dirty_epoch += 1;
            let need = self.size_model.sizes_of(req.ppn.raw(), page.dirty_epoch).compresso_chunks();
            while page.chunks.len() < need {
                match self.free.pop() {
                    Some(c) => page.chunks.push(c),
                    None => break,
                }
            }
            while page.chunks.len() > need {
                match page.chunks.pop() {
                    Some(c) => self.free.push(c),
                    None => break,
                }
            }
            // Metadata rewrite + one chunk's worth of data movement.
            let t = dram.access_background(done, DramAddr::new(metadata_dram_addr(req.ppn)), true);
            let _ = dram.access_background(t, addr, true);
        }
        Ok(())
    }

    fn dram_used_bytes(&self) -> u64 {
        let data: u64 =
            self.pages.values().map(|p| (p.chunks.len() * BlockMetadata::CHUNK_SIZE) as u64).sum();
        let metadata = self.pages.len() as u64 * BlockMetadata::SIZE_IN_DRAM as u64;
        data + metadata
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_model::PageSizes;
    use tmcc_sim_dram::InterleavePolicy;

    fn scheme_with(pages: u64, block_bytes: usize) -> CompressoScheme {
        let model = SizeModel::from_samples(vec![PageSizes { deflate_bytes: 800, block_bytes }]);
        CompressoScheme::new(CteCacheConfig::compresso(), model, (0..pages).map(Ppn::new), 1)
    }

    fn req(ppn: u64, block: usize) -> MemRequest {
        MemRequest {
            ppn: Ppn::new(ppn),
            block: Ppn::new(ppn).block(block),
            write: false,
            is_ptb: false,
            after_tlb_miss: true,
        }
    }

    #[test]
    fn metadata_miss_serializes() {
        let mut dram = DramSim::new(Default::default(), InterleavePolicy::baseline());
        let mut s = scheme_with(16, 2000);
        let mut stats = SimStats::default();
        let cold = s.access(&req(3, 0), 0.0, &mut dram, &mut stats).unwrap();
        let warm = s.access(&req(3, 1), 10_000.0, &mut dram, &mut stats).unwrap();
        assert!(cold > warm, "serial metadata fetch must cost extra: {cold} vs {warm}");
        assert_eq!(stats.cte_misses, 1);
        assert_eq!(stats.cte_hits, 1);
        assert_eq!(stats.cte_misses_after_tlb_miss, 1);
    }

    #[test]
    fn usage_reflects_compressibility() {
        let tight = scheme_with(100, 1000); // 2 chunks/page
        let loose = scheme_with(100, 4000); // 8 chunks/page
        assert!(tight.dram_used_bytes() < loose.dram_used_bytes());
        // 2 chunks * 512 + 64 metadata per page.
        assert_eq!(tight.dram_used_bytes(), 100 * (1024 + 64));
    }

    #[test]
    fn overflow_churn_is_bounded() {
        let mut dram = DramSim::new(Default::default(), InterleavePolicy::baseline());
        let mut s = scheme_with(8, 2000);
        let mut stats = SimStats::default();
        let mut t = 0.0;
        for i in 0..2000 {
            let r = MemRequest { write: true, ..req(i % 8, (i % 64) as usize) };
            s.writeback(&r, t, &mut dram, &mut stats).unwrap();
            t += 100.0;
        }
        let rate = stats.page_overflows as f64 / 2000.0;
        assert!((rate - OVERFLOW_PROBABILITY).abs() < 0.015, "overflow rate {rate}");
    }
}
