//! The Compresso baseline (paper §III, reference \[6\]).
//!
//! Block-level compression for capacity: every page is stored as
//! individually compressed 64 B blocks packed into 512 B chunks from a
//! hardware free list; a 64-byte metadata entry (block-level CTE) per
//! 4 KiB page records where each block lives. On a metadata-cache miss the
//! MC must fetch the entry from DRAM **before** it knows where the data
//! is — the serial translation TMCC attacks (Fig. 8a).
//!
//! # Representation
//!
//! Construction hands chunks out in page order, so the `i`-th placed page
//! owns the run `first_i .. first_i + n_i`, where `n_i` is its epoch-0
//! chunk count under the size model. The scheme keeps one `u32` word per
//! page, its first chunk, in a dense array indexed by the page's slot in
//! the shared [`PageIndex`] (the data pages from 0 and the page-table
//! region), and derives `n_i` from the size model on each request. Only a
//! page an overflow has repacked gets an explicit record: its chunk
//! numbers (at most eight) and dirty epoch, in a slab that its word then
//! indexes; one bit per page tells the two kinds of word apart. A running
//! chunk total makes the usage report O(1).
//!
//! Chunk numbers are DRAM addresses, so they are part of the determinism
//! contract: the records hold exactly the chunks a per-page chunk list
//! would, the free list pops in the same order and the overflow draws
//! come from the same RNG stream.

use super::{metadata_dram_addr, MemRequest, Scheme};
use crate::config::SchemeKind;
use crate::error::TmccError;
use crate::free_list::CompressoFreeList;
use crate::page_index::PageIndex;
use crate::size_model::SizeModel;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::{CteCache, CteCacheConfig};
use tmcc_types::addr::{DramAddr, Ppn};
use tmcc_types::bitvec::BitVec;
use tmcc_types::cte::BlockMetadata;

/// Probability a dirty writeback changes a page's compressed size enough
/// to trigger repacking (page overflow/underflow churn in [6]).
const OVERFLOW_PROBABILITY: f64 = 0.02;

/// Free chunks issued beyond the pages' own as headroom for overflow
/// churn.
const HEADROOM_CHUNKS: u32 = 4096;

/// Chunks a 4 KiB page can occupy.
const MAX_PAGE_CHUNKS: usize = 4096 / BlockMetadata::CHUNK_SIZE;

/// Fails with [`TmccError::ScaleLimit`] when `pages` placed pages could
/// need chunk numbers past `u32`: every page at its largest, plus the
/// headroom. O(1), so a footprint is refused before anything is sized by
/// it.
pub(crate) fn chunk_limit(pages: u64) -> Result<(), TmccError> {
    let worst = pages.saturating_mul(MAX_PAGE_CHUNKS as u64).saturating_add(HEADROOM_CHUNKS.into());
    if worst > u32::MAX.into() {
        return Err(TmccError::ScaleLimit {
            quantity: "Compresso chunks (32-bit chunk numbers)",
            requested: worst,
            limit: u32::MAX.into(),
        });
    }
    Ok(())
}

/// A page an overflow has repacked: its chunks, in block order.
#[derive(Debug, Clone, Copy)]
struct Repacked {
    chunks: [u32; MAX_PAGE_CHUNKS],
    len: u32,
    dirty_epoch: u32,
}

/// The Compresso memory controller.
pub struct CompressoScheme {
    meta_cache: CteCache,
    /// The placed pages; a page's slot indexes `words` and `is_repacked`.
    pages: PageIndex,
    /// Per placed page: its first chunk, or the index of its record in
    /// `repacked` once an overflow has repacked it.
    words: Vec<u32>,
    /// Per placed page: whether its word indexes a repacked record.
    is_repacked: BitVec,
    repacked: Vec<Repacked>,
    /// Chunks a page drawing each size-model sample occupies.
    sample_chunks: Vec<u8>,
    /// Chunks the pages own, summed over every page.
    used_chunks: u64,
    /// Chunks ever issued: the pages' initial runs plus the headroom.
    issued: u32,
    free: CompressoFreeList,
    size_model: SizeModel,
    rng: SmallRng,
}

impl CompressoScheme {
    /// Builds the scheme: lays out `pages` as block-compressed chunk runs
    /// according to the size model, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is not strictly ascending, if a size-model
    /// sample needs more than a page's eight chunks, or if the chunk
    /// numbers pass `u32` (`System::try_new` refuses such footprints with
    /// [`TmccError::ScaleLimit`] first).
    pub fn new(
        cfg: CteCacheConfig,
        size_model: SizeModel,
        pages: impl IntoIterator<Item = Ppn>,
        seed: u64,
    ) -> Self {
        let sample_chunks: Vec<u8> = size_model
            .samples()
            .iter()
            .map(|s| {
                let n = s.compresso_chunks();
                assert!(n <= MAX_PAGE_CHUNKS, "a page of {} block bytes", s.block_bytes);
                n as u8
            })
            .collect();
        let ppns = pages.into_iter();
        let mut pages = PageIndex::default();
        let mut words = Vec::with_capacity(ppns.size_hint().0);
        let mut next_chunk = 0u32;
        for ppn in ppns {
            let ppn = ppn.raw();
            pages.push(ppn..ppn + 1);
            words.push(next_chunk);
            let n = sample_chunks[size_model.sample_of(ppn, 0)];
            next_chunk = next_chunk.checked_add(n.into()).expect("chunk numbers past u32");
        }
        let issued = next_chunk.checked_add(HEADROOM_CHUNKS).expect("chunk numbers past u32");
        // Pushed one by one, so the highest headroom chunk pops first.
        let mut free = CompressoFreeList::new();
        for c in next_chunk..issued {
            free.push(c);
        }
        Self {
            meta_cache: CteCache::new(cfg),
            pages,
            is_repacked: BitVec::with_len(words.len()),
            words,
            repacked: Vec::new(),
            sample_chunks,
            used_chunks: next_chunk.into(),
            issued,
            free,
            size_model,
            rng: SmallRng::seed_from_u64(seed ^ 0xC0117),
        }
    }

    /// Chunks page `ppn` needs at write-epoch `dirty_epoch`.
    #[inline]
    fn chunks_needed(&self, ppn: Ppn, dirty_epoch: u32) -> usize {
        self.sample_chunks[self.size_model.sample_of(ppn.raw(), dirty_epoch)].into()
    }

    fn data_addr(&self, slot: usize, req: &MemRequest) -> DramAddr {
        let bi = req.block.index_in_page();
        // Blocks are packed in order: place block i proportionally into
        // the page's chunks (the exact packing is in the metadata entry;
        // timing only needs a deterministic in-page location).
        let chunk = if self.is_repacked.get(slot) {
            let rec = &self.repacked[self.words[slot] as usize];
            rec.chunks[bi * rec.len as usize / 64]
        } else {
            self.words[slot] + (bi * self.chunks_needed(req.ppn, 0) / 64) as u32
        };
        let within = (bi * 64) % BlockMetadata::CHUNK_SIZE;
        DramAddr::new(chunk as u64 * BlockMetadata::CHUNK_SIZE as u64 + within as u64)
    }

    /// The repacked record of the page at `slot`, made from its initial
    /// run on its first overflow.
    fn record_of(&mut self, slot: usize, ppn: Ppn) -> usize {
        if self.is_repacked.get(slot) {
            return self.words[slot] as usize;
        }
        let len = self.chunks_needed(ppn, 0);
        let mut chunks = [0; MAX_PAGE_CHUNKS];
        for (c, i) in chunks[..len].iter_mut().zip(self.words[slot]..) {
            *c = i;
        }
        let idx = self.repacked.len();
        self.repacked.push(Repacked { chunks, len: len as u32, dirty_epoch: 0 });
        self.is_repacked.set(slot);
        self.words[slot] = idx as u32;
        idx
    }

    /// Repacks the page at `slot` for its next write-epoch: chunks come
    /// from the top of the free list while it lasts, and go back to it
    /// from the page's end.
    fn repack(&mut self, slot: usize, ppn: Ppn) {
        let idx = self.record_of(slot, ppn);
        let epoch = self.repacked[idx].dirty_epoch + 1;
        let need = self.chunks_needed(ppn, epoch) as u32;
        let rec = &mut self.repacked[idx];
        rec.dirty_epoch = epoch;
        while rec.len < need {
            let Some(c) = self.free.pop() else { break };
            rec.chunks[rec.len as usize] = c;
            rec.len += 1;
            self.used_chunks += 1;
        }
        while rec.len > need {
            rec.len -= 1;
            self.free.push(rec.chunks[rec.len as usize]);
            self.used_chunks -= 1;
        }
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

    /// A page's chunks, in block order.
    fn chunks_of(&self, slot: usize, ppn: Ppn) -> impl Iterator<Item = u32> + '_ {
        let (run, listed) = if self.is_repacked.get(slot) {
            let rec = &self.repacked[self.words[slot] as usize];
            (0..0, &rec.chunks[..rec.len as usize])
        } else {
            let first = self.words[slot];
            (first..first + self.chunks_needed(ppn, 0) as u32, &[][..])
        };
        run.chain(listed.iter().copied())
    }

    #[cfg(test)]
    fn record_mut(&mut self, ppn: Ppn) -> &mut Repacked {
        let slot = self.pages.slot(ppn.raw()).expect("placed page");
        assert!(self.is_repacked.get(slot), "page {ppn:?} was never repacked");
        &mut self.repacked[self.words[slot] as usize]
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
        let ppn = req.ppn.raw();
        let slot = self.pages.slot(ppn).ok_or(TmccError::UnplacedPage { ppn })?;
        let addr = self.data_addr(slot, req);
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
        let ppn = req.ppn.raw();
        let slot = self.pages.slot(ppn).ok_or(TmccError::UnplacedPage { ppn })?;
        let addr = self.data_addr(slot, req);
        let (ready_ns, _) = self.translate(req, now_ns, dram, stats, false);
        let done = dram.access_background(ready_ns, addr, true);
        // Occasionally the new value no longer fits: repack the page
        // (metadata update + data movement), the churn [6] manages.
        if self.rng.gen::<f64>() < OVERFLOW_PROBABILITY {
            stats.page_overflows = stats.page_overflows.saturating_add(1);
            self.repack(slot, req.ppn);
            // Metadata rewrite + one chunk's worth of data movement.
            let t = dram.access_background(done, DramAddr::new(metadata_dram_addr(req.ppn)), true);
            let _ = dram.access_background(t, addr, true);
        }
        Ok(())
    }

    /// Chunk conservation: the pages' running total plus the free list is
    /// every chunk issued, and each issued chunk has exactly one owner — a
    /// page's initial run, a repacked record, or the free list.
    fn validate(&self) -> Result<(), TmccError> {
        let violation = |detail| Err(TmccError::InvariantViolation { detail });
        let issued = u64::from(self.issued);
        if self.used_chunks + self.free.len() as u64 != issued {
            return violation(format!(
                "chunk conservation broken: {} owned by pages + {} free, {issued} issued",
                self.used_chunks,
                self.free.len()
            ));
        }
        let mut owned = BitVec::with_len(self.issued as usize);
        let mut claim = |chunk: u32| chunk < self.issued && owned.set(chunk as usize);
        let mut page_chunks = 0u64;
        for (slot, ppn) in self.pages.iter().enumerate() {
            let mut len = 0u64;
            for chunk in self.chunks_of(slot, Ppn::new(ppn)) {
                if !claim(chunk) {
                    return violation(format!(
                        "page {ppn:#x}: chunk {chunk} is not issued or has another owner"
                    ));
                }
                len += 1;
            }
            if len == 0 {
                return violation(format!("page {ppn:#x} holds no chunks"));
            }
            page_chunks += len;
        }
        if let Some(chunk) = self.free.iter().find(|&c| !claim(c)) {
            return violation(format!("free chunk {chunk} is not issued or has another owner"));
        }
        if page_chunks != self.used_chunks {
            return violation(format!(
                "pages hold {page_chunks} chunks, the running total says {}",
                self.used_chunks
            ));
        }
        Ok(())
    }

    fn dram_used_bytes(&self) -> u64 {
        let data = self.used_chunks * BlockMetadata::CHUNK_SIZE as u64;
        let metadata = self.words.len() as u64 * BlockMetadata::SIZE_IN_DRAM as u64;
        data + metadata
    }

    fn metadata_heap_bytes(&self) -> usize {
        self.pages.heap_bytes()
            + self.words.capacity() * std::mem::size_of::<u32>()
            + self.is_repacked.heap_bytes()
            + self.repacked.capacity() * std::mem::size_of::<Repacked>()
            + self.sample_chunks.capacity()
            + self.free.heap_bytes()
            + self.meta_cache.heap_bytes()
            + self.size_model.heap_bytes()
    }
}

/// The scheme as it kept its pages before the dense layout: a hash map
/// from PPN to a heap list of chunks. Tests drive it beside
/// [`CompressoScheme`], which must agree with it after every operation.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::HashMap;

    /// One resident page.
    struct PageState {
        chunks: Vec<u32>,
        dirty_epoch: u32,
    }

    pub(super) struct HashMapCompresso {
        meta_cache: CteCache,
        pages: HashMap<u64, PageState>,
        pub(super) free: CompressoFreeList,
        size_model: SizeModel,
        rng: SmallRng,
    }

    impl HashMapCompresso {
        pub(super) fn new(
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
            };
            let mut next_chunk = 0u32;
            for ppn in pages {
                let sizes = s.size_model.sizes_of(ppn.raw(), 0);
                let n = sizes.compresso_chunks();
                let chunks: Vec<u32> = (next_chunk..next_chunk + n as u32).collect();
                next_chunk += n as u32;
                s.pages.insert(ppn.raw(), PageState { chunks, dirty_epoch: 0 });
            }
            for c in next_chunk..next_chunk + 4096 {
                s.free.push(c);
            }
            s
        }

        fn data_addr(&self, req: &MemRequest) -> Result<DramAddr, TmccError> {
            let page = self
                .pages
                .get(&req.ppn.raw())
                .ok_or(TmccError::UnplacedPage { ppn: req.ppn.raw() })?;
            let bi = req.block.index_in_page();
            let idx = (bi * page.chunks.len()) / 64;
            let within = (bi * 64) % BlockMetadata::CHUNK_SIZE;
            Ok(DramAddr::new(
                page.chunks[idx] as u64 * BlockMetadata::CHUNK_SIZE as u64 + within as u64,
            ))
        }

        fn translate(
            &mut self,
            req: &MemRequest,
            now_ns: f64,
            dram: &mut DramSim,
            stats: &mut SimStats,
            count_stats: bool,
        ) -> f64 {
            if self.meta_cache.access(req.ppn) {
                if count_stats {
                    stats.cte_hits = stats.cte_hits.saturating_add(1);
                }
                now_ns
            } else {
                if count_stats {
                    stats.cte_misses = stats.cte_misses.saturating_add(1);
                    if req.after_tlb_miss {
                        stats.cte_misses_after_tlb_miss =
                            stats.cte_misses_after_tlb_miss.saturating_add(1);
                    }
                }
                dram.access(now_ns, DramAddr::new(metadata_dram_addr(req.ppn)), false)
            }
        }
    }

    impl Scheme for HashMapCompresso {
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
            let ready_ns = self.translate(req, now_ns, dram, stats, true);
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
            let ready_ns = self.translate(req, now_ns, dram, stats, false);
            let done = dram.access_background(ready_ns, addr, true);
            if self.rng.gen::<f64>() < OVERFLOW_PROBABILITY {
                stats.page_overflows = stats.page_overflows.saturating_add(1);
                let page = self
                    .pages
                    .get_mut(&req.ppn.raw())
                    .ok_or(TmccError::UnplacedPage { ppn: req.ppn.raw() })?;
                page.dirty_epoch += 1;
                let need =
                    self.size_model.sizes_of(req.ppn.raw(), page.dirty_epoch).compresso_chunks();
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
                let t =
                    dram.access_background(done, DramAddr::new(metadata_dram_addr(req.ppn)), true);
                let _ = dram.access_background(t, addr, true);
            }
            Ok(())
        }

        fn dram_used_bytes(&self) -> u64 {
            let data: u64 = self
                .pages
                .values()
                .map(|p| (p.chunks.len() * BlockMetadata::CHUNK_SIZE) as u64)
                .sum();
            let metadata = self.pages.len() as u64 * BlockMetadata::SIZE_IN_DRAM as u64;
            data + metadata
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HashMapCompresso;
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

    fn dram() -> DramSim {
        DramSim::new(Default::default(), InterleavePolicy::baseline())
    }

    #[test]
    fn metadata_miss_serializes() {
        let mut dram = dram();
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
        let mut dram = dram();
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

    #[test]
    fn validate_catches_a_corrupted_repacked_record() {
        let model = SizeModel::from_samples(vec![
            PageSizes { deflate_bytes: 800, block_bytes: 1000 },
            PageSizes { deflate_bytes: 800, block_bytes: 3000 },
        ]);
        let pages = (0..64).map(Ppn::new);
        let mut s = CompressoScheme::new(CteCacheConfig::compresso(), model, pages, 3);
        s.validate().unwrap();
        // Write back until some page holds two or more chunks in a record.
        let (mut dram, mut stats) = (dram(), SimStats::default());
        let mut i = 0;
        while !s.repacked.iter().any(|r| r.len >= 2) {
            let r = MemRequest { write: true, ..req(i % 64, i as usize % 64) };
            s.writeback(&r, i as f64 * 100.0, &mut dram, &mut stats).unwrap();
            i += 1;
        }
        s.validate().unwrap();
        let ppn = (0..64)
            .map(Ppn::new)
            .find(|&p| {
                let slot = s.pages.slot(p.raw()).unwrap();
                s.is_repacked.get(slot) && s.repacked[s.words[slot] as usize].len >= 2
            })
            .expect("a repacked page");
        let rec = s.record_mut(ppn);
        let (first, second) = (rec.chunks[0], rec.chunks[1]);
        rec.chunks[1] = first;
        let err = s.validate().expect_err("a chunk with two owners");
        assert!(err.to_string().contains("another owner"), "{err}");
        s.record_mut(ppn).chunks[1] = second;
        s.validate().unwrap();

        // A record that drops a chunk loses it: no owner, and the pages
        // hold fewer than the running total.
        s.record_mut(ppn).len -= 1;
        let err = s.validate().expect_err("a lost chunk");
        assert!(err.to_string().contains("running total"), "{err}");
    }

    #[test]
    fn metadata_heap_counts_the_page_words() {
        let s = scheme_with(1000, 2000);
        assert!(s.metadata_heap_bytes() >= 1000 * std::mem::size_of::<u32>());
    }

    #[test]
    #[should_panic(expected = "pages must ascend")]
    fn descending_pages_are_refused() {
        let model =
            SizeModel::from_samples(vec![PageSizes { deflate_bytes: 800, block_bytes: 10 }]);
        let _ = CompressoScheme::new(
            CteCacheConfig::compresso(),
            model,
            [5, 4].into_iter().map(Ppn::new),
            1,
        );
    }

    /// Drives the dense scheme and the hash-map reference through the
    /// same requests and checks that they agree after every one.
    struct Pair {
        dense: CompressoScheme,
        reference: HashMapCompresso,
        dram: [DramSim; 2],
        stats: [SimStats; 2],
        now_ns: f64,
    }

    impl Pair {
        fn new(model: SizeModel, ppns: &[u64], seed: u64) -> Self {
            let pages = || ppns.iter().copied().map(Ppn::new);
            let cfg = CteCacheConfig::compresso();
            Self {
                dense: CompressoScheme::new(cfg, model.clone(), pages(), seed),
                reference: HashMapCompresso::new(cfg, model, pages(), seed),
                dram: [dram(), dram()],
                stats: [SimStats::default(); 2],
                now_ns: 0.0,
            }
        }

        fn step(&mut self, r: &MemRequest, writeback: bool, case: &str, op: usize) {
            self.now_ns += 37.0;
            let [da, db] = &mut self.dram;
            let [sa, sb] = &mut self.stats;
            let (a, b) = if writeback {
                (
                    self.dense.writeback(r, self.now_ns, da, sa).map(|()| 0.0),
                    self.reference.writeback(r, self.now_ns, db, sb).map(|()| 0.0),
                )
            } else {
                (
                    self.dense.access(r, self.now_ns, da, sa),
                    self.reference.access(r, self.now_ns, db, sb),
                )
            };
            let ppn = r.ppn.raw();
            assert_eq!(a, b, "{case}, op {op}, ppn {ppn:#x}");
            if let Err(e) = a {
                assert!(matches!(e, TmccError::UnplacedPage { .. }), "{case}, op {op}: {e}");
            }
            assert_eq!(self.stats[0], self.stats[1], "{case}, op {op}");
            assert_eq!(self.dram[0].stats(), self.dram[1].stats(), "{case}, op {op}");
            let used = (self.dense.dram_used_bytes(), self.reference.dram_used_bytes());
            assert_eq!(used.0, used.1, "{case}, op {op}");
            assert_eq!(self.dense.free.len(), self.reference.free.len(), "{case}, op {op}");
        }
    }

    /// splitmix64: the trace's deterministic draws.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `ops` random requests, a third of them writebacks, over
    /// `ppns` and a few PPNs outside it.
    fn check_trace(pair: &mut Pair, ppns: &[u64], ops: usize, state: &mut u64, case: &str) {
        let top = ppns.last().map_or(0, |&p| p + 1);
        let pick = |d: u64| ppns.get(d as usize % ppns.len().max(1)).copied().unwrap_or(d >> 24);
        for op in 0..ops {
            let draw = mix(state);
            // Mostly placed pages; now and then one past the last run or
            // beside a placed page, which a gap may leave unplaced.
            let ppn = match (draw >> 8) % 32 {
                0 => top + (draw >> 32) % 3,
                1 => pick(draw >> 20).saturating_sub(1),
                2 => pick(draw >> 20) + 1,
                _ => pick(draw >> 20),
            };
            let r = MemRequest {
                ppn: Ppn::new(ppn),
                block: Ppn::new(ppn).block((draw >> 14) as usize % 64),
                write: draw & 4 != 0,
                is_ptb: false,
                after_tlb_miss: draw & 8 != 0,
            };
            pair.step(&r, draw.is_multiple_of(3), case, op);
        }
        pair.dense.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
    }

    /// Draws a 1- to 16-sample size model, every sample at eight chunks
    /// in one case of four.
    fn samples_from(state: &mut u64) -> Vec<PageSizes> {
        let n = 1 + mix(state) as usize % 16;
        let full = mix(state).is_multiple_of(4);
        (0..n)
            .map(|_| {
                let draw = mix(state) as usize;
                let block_bytes = if full { 3585 + draw % 512 } else { draw % 4097 };
                PageSizes { deflate_bytes: 1 + draw % 4096, block_bytes }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// A data run from 0 and a table run after a gap, the layout
        /// `System::try_new` passes, under random traces.
        #[test]
        fn dense_layout_matches_the_hash_map_reference(
            data_pick in 0usize..8,
            random_data in 0u64..700,
            table_pick in 0usize..6,
            random_table in 0u64..40,
            gap in 0u64..5000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            const EDGES: [u64; 5] = [0, 1, 7, 511, 513];
            let data = EDGES.get(data_pick).copied().unwrap_or(random_data);
            let table = [0, 1, 3].get(table_pick).copied().unwrap_or(random_table);
            let table_base = data + 1 + gap;
            let ppns: Vec<u64> = (0..data).chain(table_base..table_base + table).collect();
            let mut state = seed;
            let model = SizeModel::from_samples(samples_from(&mut state));
            let mut pair = Pair::new(model, &ppns, seed);
            let case = format!("{data} data pages, {table} table pages at {table_base:#x}");
            check_trace(&mut pair, &ppns, 3000, &mut state, &case);
        }
    }

    #[test]
    fn overflow_growth_drains_the_headroom_like_the_reference() {
        // Every eighth PPN, each its own run: of eight samples, such a page
        // draws the one-chunk sample at epoch 0 and an eight-chunk one at
        // about 7 of 8 later epochs, so repacking grows the pages by ~6
        // chunks each and the 4096-chunk headroom runs dry.
        let mut samples = vec![PageSizes { deflate_bytes: 800, block_bytes: 4096 }; 8];
        samples[0].block_bytes = 100;
        let ppns: Vec<u64> = (0..1024).map(|i| 8 * i).collect();
        let mut pair = Pair::new(SizeModel::from_samples(samples), &ppns, 11);
        assert_eq!(pair.dense.pages.run_count(), ppns.len());
        let mut state = 5;
        let drained_at = (0..200_000)
            .find(|&op| {
                let ppn = ppns[mix(&mut state) as usize % ppns.len()];
                let r = MemRequest { write: true, ..req(ppn, op % 64) };
                pair.step(&r, true, "draining", op);
                pair.dense.free.is_empty()
            })
            .expect("the headroom drains");
        // Past empty, growth stops short and shrinking refills the list.
        check_trace(&mut pair, &ppns, 20_000, &mut state, &format!("drained at {drained_at}"));
    }
}
