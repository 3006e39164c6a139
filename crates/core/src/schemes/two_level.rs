//! The two-level (ML1/ML2) schemes: the barebone OS-inspired design of
//! §IV and full TMCC (§V), selected by [`TmccToggles`].
//!
//! ML1 holds pages uncompressed at 4 KiB-frame granularity; ML2 holds
//! aggressively Deflate-compressed pages in sub-chunks. A single 8-byte
//! page-level CTE per page maps physical pages to either. Differences
//! between the two schemes:
//!
//! | | OS-inspired (§IV) | TMCC (§V) |
//! |---|---|---|
//! | CTE miss for ML1 data | serial CTE fetch → data fetch (Fig. 8a) | speculative **parallel** fetch using the CTE embedded in the walked PTB, verified against the real CTE (Fig. 8b/c) |
//! | ML2 codec latency | IBM general-purpose ASIC Deflate | memory-specialized ASIC Deflate (4× faster) |
//!
//! Both share the ML1 free list, the ML2 super-chunk free lists, the
//! sampled recency list, the migration machinery with its 8-page buffer,
//! and the eviction thresholds of §VI.
//!
//! # Capacity-pressure resilience
//!
//! The scheme also carries the runtime fault machinery: a budget shock
//! ([`FaultKind::ShrinkBudget`]) retires free frames immediately and books
//! the shortfall as *reclaim debt* that maintenance pays off by retiring
//! the frames eviction frees; while debt is outstanding or the free list
//! sits below the critical watermark the scheme runs in *degraded mode*
//! (emergency eviction bursts, raw-storage fallback when a page's exact
//! size class cannot be carved). [`Scheme::validate`] audits frame
//! conservation and CTE/placement consistency at any point.

use super::{cte_dram_addr, FlipPageContext, MemRequest, Scheme, SchemePressure};
use crate::config::{BitFlip, FaultKind, FlipShape, FlipTarget, SchemeKind, TmccToggles};
use crate::error::TmccError;
use crate::free_list::{Ml1FreeList, Ml2FreeLists};
use crate::page_meta::{PageInfo, PageMetaStore, Placement};
use crate::page_slab::PageId;
use crate::recency::RecencyList;
use crate::size_model::SizeModel;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use tmcc_deflate::{DeflateParams, DeflateScratch, DeflateTiming, IbmDeflateModel, MemDeflate};
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::{CteBuffer, CteBufferEntry, CteCache, CteCacheConfig, PageTable};
use tmcc_types::addr::{BlockAddr, DramAddr, Ppn, BLOCKS_PER_PAGE, PAGE_SIZE};
use tmcc_types::bitvec::BitVec;
use tmcc_types::cte::{Cte, MemoryLevel, TruncatedCte};
use tmcc_types::ptb::{CompressedPtb, PtbGeometry};
use tmcc_types::pte::{PageTableBlock, PTES_PER_PTB};

/// Entries in the MC's page-migration buffer (§VI: "a 32KB buffer (i.e.,
/// eight 4KB entries)").
const MIGRATION_BUFFER_ENTRIES: usize = 8;

/// Probability a writeback re-draws a page's compressibility.
const DIRTY_REDRAW_PROBABILITY: f64 = 0.02;

/// Evictions per maintenance slot in normal operation (§VI: migrations
/// are lower priority than LLC accesses and must not monopolize DRAM).
const NORMAL_EVICTION_BURST: u32 = 4;

/// Evictions per maintenance slot in degraded mode: free-frame production
/// outweighs bandwidth fairness when the free list is critically low or
/// reclaim debt is outstanding.
const EMERGENCY_EVICTION_BURST: u32 = 32;

/// Free frames a budget shrink always leaves behind: carving any ML2
/// super-chunk needs at most 8 contiguous chunks, so draining below this
/// floor would leave eviction unable to grow ML2 and the debt unpayable.
const CARVE_RESERVE: usize = 8;

/// Cost of refilling one scrubbed CTE-cache line from the in-DRAM table:
/// a single uncached 64 B read at closed-row latency.
const CTE_SCRUB_REFILL_NS: f64 = 60.0;

/// Per-frame cost of rebuilding the ML1 free map from the authoritative
/// page-placement metadata after the conservation audit flags it: a
/// sequential sweep touching one packed word per frame.
const FREE_MAP_REBUILD_NS_PER_FRAME: f64 = 0.5;

/// Present bit of a [`PtbEmbeddings`] word; the low 28 bits hold the
/// truncated CTE's frame.
const EMBED_PRESENT: u32 = 1 << 31;

/// The CTEs physically embedded in every compressed PTB (§V-A1), stored
/// densely by PTB position in the table region: one word per PTE slot.
///
/// Table pages are allocated sequentially from the table-region base (the
/// layout [`PageMetaStore`] relies on too), so a PTB's position is its
/// block address minus the region's first block — a PTB fetch reads its
/// eight words without hashing.
#[derive(Default)]
struct PtbEmbeddings {
    /// First block address of the table region.
    base_block: u64,
    /// `PTES_PER_PTB` words per PTB: [`EMBED_PRESENT`] | frame, or 0 for
    /// a slot with no embedded CTE.
    words: Vec<u32>,
    /// Per PTB: whether its encoding compressed, i.e. has room for
    /// embedded CTEs at all. A repair never writes into a PTB without it.
    compressed: BitVec,
}

impl PtbEmbeddings {
    /// A store covering every PTB of `page_table`, none embedded yet.
    fn new(page_table: &PageTable) -> Self {
        let ptbs = page_table.table_page_count() * BLOCKS_PER_PAGE;
        Self {
            base_block: page_table.table_region_base() * BLOCKS_PER_PAGE as u64,
            words: vec![0; ptbs * PTES_PER_PTB],
            compressed: BitVec::with_len(ptbs),
        }
    }

    /// Position of the PTB at `block`; `None` outside the table region.
    fn position(&self, block: BlockAddr) -> Option<usize> {
        let pos = block.raw().checked_sub(self.base_block)?;
        (pos < self.compressed.len() as u64).then_some(pos as usize)
    }

    /// The embedded CTE of each PTE slot of the PTB at `pos`.
    fn ctes(&self, pos: usize) -> impl Iterator<Item = Option<TruncatedCte>> + '_ {
        self.words[pos * PTES_PER_PTB..(pos + 1) * PTES_PER_PTB]
            .iter()
            .map(|&w| (w & EMBED_PRESENT != 0).then(|| TruncatedCte::new(w & !EMBED_PRESENT)))
    }

    /// Records a fresh encoding of the PTB at `pos`: `Some(slots)` when it
    /// compressed, `None` when it did not (and so embeds nothing).
    fn store(&mut self, pos: usize, slots: Option<[Option<TruncatedCte>; PTES_PER_PTB]>) {
        self.compressed.set_to(pos, slots.is_some());
        let words = &mut self.words[pos * PTES_PER_PTB..(pos + 1) * PTES_PER_PTB];
        for (word, cte) in words.iter_mut().zip(slots.unwrap_or_default()) {
            *word = cte.map_or(0, |t| EMBED_PRESENT | t.frame());
        }
    }

    /// The lazy repair of §V-A2: overwrites one slot of a compressed PTB
    /// with the verified CTE.
    fn repair(&mut self, block: BlockAddr, slot: usize, correct: TruncatedCte) {
        if let Some(pos) = self.position(block).filter(|&pos| self.compressed.get(pos)) {
            self.words[pos * PTES_PER_PTB + slot] = EMBED_PRESENT | correct.frame();
        }
    }
}

/// The shared two-level scheme.
pub struct TwoLevelScheme {
    toggles: TmccToggles,
    /// Per-page state, packed one word per page and indexed
    /// arithmetically by the dense PPN layout — steady-state accesses
    /// derive a [`PageId`] once per request and never hash (see
    /// [`crate::page_meta`]). The CTE is not stored: it is derived from
    /// the placement on demand (see [`Self::cte_of`]).
    pages: PageMetaStore,
    ml1_free: Ml1FreeList,
    ml2: Ml2FreeLists,
    recency: RecencyList,
    cte_cache: CteCache,
    cte_buffer: CteBuffer,
    /// Modelled embedded CTEs per PTB (what is physically stored in the
    /// compressed PTB encodings in DRAM); empty without embedded CTEs.
    ptb_embed: PtbEmbeddings,
    size_model: SizeModel,
    timing: DeflateTiming,
    ibm: IbmDeflateModel,
    /// Low-water mark: start evicting (paper's 4000-chunk threshold,
    /// scaled).
    evict_lo: usize,
    /// Eviction target (hysteresis).
    evict_hi: usize,
    /// Critical mark: ML2 reads yield to evictions (paper's 3000-chunk
    /// flip).
    evict_crit: usize,
    /// Completion times of in-flight page migrations (≤ `migration_cap`).
    migration_buffer: VecDeque<f64>,
    /// Live migration-buffer capacity (a fault can shrink it below
    /// [`MIGRATION_BUFFER_ENTRIES`]).
    migration_cap: usize,
    /// Pages evicted to ML2 awaiting cache-hierarchy flush by the system.
    evicted_pages: Vec<Ppn>,
    total_frames: u32,
    /// Frames the budget no longer covers but eviction has not yet
    /// reclaimed (a ballooning shrink larger than the free list).
    reclaim_debt: u64,
    /// First frame id never handed out, so budget growth can mint fresh
    /// frames without colliding with live ones.
    next_frame_id: u32,
    /// Whether the scheme is in degraded mode (see module docs).
    degraded: bool,
    /// Last simulated instant degraded time was accounted up to.
    degraded_mark_ns: f64,
    /// Percent inflation applied to compressed sizes at eviction (a
    /// content-profile shift fault).
    size_inflation_pct: u32,
    /// Embedded-CTE lookups left to forcibly treat as stale (fault).
    force_stale: u64,
    rng: SmallRng,
}

impl TwoLevelScheme {
    /// Builds the scheme and performs initial placement.
    ///
    /// `budget_frames` 4 KiB frames of DRAM are available. Page-table
    /// pages are pinned into ML1 first; data pages (hottest first — their
    /// index order) fill ML1 until only the eviction reserve remains, and
    /// the rest are compressed into ML2.
    ///
    /// # Panics
    ///
    /// Panics if the budget cannot hold the workload even with every
    /// overflow page compressed into ML2 (use
    /// [`try_new`](Self::try_new) for a fallible build, or
    /// [`min_budget_frames`](Self::min_budget_frames) to pick feasible
    /// budgets).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        toggles: TmccToggles,
        cte_cfg: CteCacheConfig,
        size_model: SizeModel,
        page_table: &PageTable,
        data_pages: u64,
        budget_frames: u32,
        seed: u64,
        recency_sample: f64,
    ) -> Self {
        match Self::try_new(
            toggles,
            cte_cfg,
            size_model,
            page_table,
            data_pages,
            budget_frames,
            seed,
            recency_sample,
        ) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the scheme and performs initial placement, returning
    /// [`TmccError::InfeasibleBudget`] when the budget cannot hold the
    /// workload even with every overflow page compressed into ML2, and
    /// [`TmccError::TableRegionOverlap`] when the data pages reach into
    /// the page table's region.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        toggles: TmccToggles,
        cte_cfg: CteCacheConfig,
        size_model: SizeModel,
        page_table: &PageTable,
        data_pages: u64,
        budget_frames: u32,
        seed: u64,
        recency_sample: f64,
    ) -> Result<Self, TmccError> {
        let table_region_base = page_table.table_region_base();
        if data_pages > table_region_base {
            return Err(TmccError::TableRegionOverlap { data_pages, table_region_base });
        }
        let evict_lo = ((budget_frames as usize) / 64).max(24);
        let mut s = Self {
            toggles,
            pages: PageMetaStore::new(table_region_base),
            ml1_free: Ml1FreeList::with_chunks(budget_frames),
            ml2: Ml2FreeLists::paper_classes(),
            recency: RecencyList::with_probability(seed, recency_sample),
            cte_cache: CteCache::new(cte_cfg),
            cte_buffer: CteBuffer::paper_default(),
            ptb_embed: if toggles.embedded_ctes {
                PtbEmbeddings::new(page_table)
            } else {
                PtbEmbeddings::default()
            },
            size_model,
            timing: DeflateTiming::default(),
            ibm: IbmDeflateModel::default(),
            evict_lo,
            evict_hi: evict_lo + evict_lo / 2,
            evict_crit: (evict_lo * 3) / 4,
            migration_buffer: VecDeque::new(),
            migration_cap: MIGRATION_BUFFER_ENTRIES,
            evicted_pages: Vec::new(),
            total_frames: budget_frames,
            reclaim_debt: 0,
            next_frame_id: budget_frames,
            degraded: false,
            degraded_mark_ns: 0.0,
            size_inflation_pct: 0,
            force_stale: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x2_1E5E1),
        };
        // Pin page-table pages in ML1.
        let table_pages = page_table.table_page_count() as u64;
        for ppn in page_table.table_ppns() {
            let frame = s.ml1_free.pop().ok_or(TmccError::InfeasibleBudget {
                budget_frames: budget_frames as u64,
                required_frames: table_pages,
                stage: "page-table pinning",
            })?;
            s.pages.insert(
                ppn,
                PageInfo {
                    place: Placement::Ml1 { frame },
                    dirty_epoch: 0,
                    pinned: true,
                    incompressible: false,
                },
            );
        }
        // Place data pages, hottest (lowest index) first. Choose the split
        // point k so that pages 0..k live in ML1 and k.. fit into ML2
        // within the remaining budget (plus the eviction reserve). The
        // candidate k runs from data_pages down to 0 while the suffix sum
        // of class-rounded ML2 sizes accumulates in lockstep, so the
        // search streams in O(1) extra space — no per-page arrays, which
        // would dominate host memory at TB-scale footprints.
        let avail = s.ml1_free.len() as u64;
        let reserve = s.evict_hi as u64 + 8;
        // ML2 bytes needed if pages k.. go to ML2 (the suffix sum at the
        // loop variable's current value).
        let mut suffix_bytes = 0u64;
        let mut split = None;
        for k in (0..=data_pages).rev() {
            // ML2 frames with ~3% carving slack.
            let ml2_frames = (suffix_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64);
            if k + ml2_frames + reserve <= avail {
                split = Some(k);
                break;
            }
            if k > 0 {
                suffix_bytes += s.ml2_rounded_bytes(k - 1);
            }
        }
        // When no k fits, the loop ran to k = 0, so `suffix_bytes` holds
        // the all-ML2 total for the error report.
        let split = split.ok_or_else(|| TmccError::InfeasibleBudget {
            budget_frames: budget_frames as u64,
            required_frames: table_pages
                + (suffix_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64)
                + reserve,
            stage: "ML1/ML2 data placement",
        })?;
        // Walk pages coldest-first so the recency list ends up ordered
        // with the hottest (lowest-index) pages at the hot end.
        for idx in (0..data_pages).rev() {
            let ppn = Ppn::new(idx);
            if idx < split {
                let frame = s.ml1_free.pop().ok_or(TmccError::InfeasibleBudget {
                    budget_frames: budget_frames as u64,
                    required_frames: table_pages + split + reserve,
                    stage: "ML1 fill",
                })?;
                s.pages.insert(
                    idx,
                    PageInfo {
                        place: Placement::Ml1 { frame },
                        dirty_epoch: 0,
                        pinned: false,
                        incompressible: false,
                    },
                );
                s.recency.insert_hot(ppn);
            } else {
                let sizes = s.size_model.sizes_of(idx, 0);
                let comp = sizes.deflate_bytes.min(PAGE_SIZE);
                let sub = s.ml2.try_allocate(comp, &mut s.ml1_free).map_err(|_| {
                    TmccError::InfeasibleBudget {
                        budget_frames: budget_frames as u64,
                        required_frames: table_pages
                            + split
                            + (suffix_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64)
                            + reserve,
                        stage: "ML2 placement",
                    }
                })?;
                s.pages.insert(
                    idx,
                    PageInfo {
                        place: Placement::Ml2 { sub, comp_bytes: comp as u32 },
                        dirty_epoch: 0,
                        pinned: false,
                        incompressible: false,
                    },
                );
            }
        }
        // Warm the embedded CTEs in every compressible PTB (§VI: "warm up
        // ML1, ML2, and embedded CTEs in compressed PTBs").
        if toggles.embedded_ctes {
            let geometry = PtbGeometry::paper_default();
            for (block, ptb) in page_table.ptbs() {
                s.refresh_ptb_embedding(block, &ptb, geometry);
            }
        }
        Ok(s)
    }

    /// Smallest feasible budget (in frames) for a workload: the page
    /// table pinned uncompressed, every data page in ML2, plus the
    /// eviction reserve.
    pub fn min_budget_frames(size_model: &SizeModel, table_pages: u64, data_pages: u64) -> u32 {
        // Mirror the placement logic: class-rounded ML2 sizes plus ~3%
        // carving slack.
        let classes = Ml2FreeLists::paper_classes();
        let mut ml2_bytes = 0u64;
        for idx in 0..data_pages {
            let comp = size_model.sizes_of(idx, 0).deflate_bytes.min(PAGE_SIZE);
            let rounded = classes
                .class_for(comp)
                .map(|c| classes.class_size(c) as u64)
                .unwrap_or(PAGE_SIZE as u64);
            ml2_bytes += rounded;
        }
        let ml2_frames = (ml2_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64) as u32;
        let reserve = ((table_pages + data_pages) as u32 / 40).max(64);
        table_pages as u32 + ml2_frames + reserve + 8
    }

    /// Whether the scheme is currently in degraded mode (free list below
    /// the critical watermark, or reclaim debt outstanding).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Outstanding reclaim debt in frames (non-zero only after a budget
    /// shrink larger than the free list).
    pub fn reclaim_debt(&self) -> u64 {
        self.reclaim_debt
    }

    /// Class-rounded ML2 bytes data page `idx` would occupy if placed
    /// compressed (4 KiB when it fits no class).
    fn ml2_rounded_bytes(&self, idx: u64) -> u64 {
        let comp = self.size_model.sizes_of(idx, 0).deflate_bytes.min(PAGE_SIZE);
        self.ml2.class_for(comp).map(|c| self.ml2.class_size(c) as u64).unwrap_or(PAGE_SIZE as u64)
    }

    /// Derives a page's CTE from its placement. The schemes never
    /// populate the pair vector and [`Cte::set_frame`] writes exactly the
    /// frame and level, so reconstruction is bit-identical to the CTE the
    /// scheme used to keep stored and mutate in lockstep.
    fn cte_of(&self, info: &PageInfo) -> Result<Cte, TmccError> {
        let (frame, level) = match info.place {
            Placement::Ml1 { frame } => (frame, MemoryLevel::Ml1),
            Placement::Ml2 { sub, .. } => {
                ((self.ml2.try_addr_of(sub)? / PAGE_SIZE as u64) as u32, MemoryLevel::Ml2)
            }
        };
        let mut cte = Cte::new(frame, level);
        cte.set_incompressible(info.incompressible);
        Ok(cte)
    }

    fn refresh_ptb_embedding(&mut self, block: BlockAddr, ptb: &PageTableBlock, g: PtbGeometry) {
        let Some(pos) = self.ptb_embed.position(block) else {
            return;
        };
        let Ok(mut compressed) = CompressedPtb::compress(ptb, g) else {
            self.ptb_embed.store(pos, None);
            return;
        };
        let mut slots = [None; PTES_PER_PTB];
        for (i, slot) in slots.iter_mut().enumerate() {
            let pte = ptb.entry(i);
            if !pte.is_present() {
                continue;
            }
            if let Some(info) = self.pages.get(pte.ppn().raw()) {
                let Ok(cte) = self.cte_of(&info) else {
                    continue;
                };
                let t = cte.truncated();
                if compressed.embed_cte(i, t) {
                    *slot = Some(t);
                }
            }
        }
        self.ptb_embed.store(pos, Some(slots));
    }

    /// Re-derives the eviction watermarks after the budget changed.
    fn rescale_watermarks(&mut self) {
        let lo = ((self.total_frames as usize) / 64).max(24);
        self.evict_lo = lo;
        self.evict_hi = lo + lo / 2;
        self.evict_crit = (lo * 3) / 4;
    }

    /// Accounts degraded time and flips the degraded flag on pressure
    /// changes. Entry: free list below the emergency watermark (half the
    /// critical mark — ordinary pressure transients stay in normal
    /// operation) or unpaid reclaim debt. Exit (with hysteresis): debt
    /// paid *and* free list back above the low watermark.
    fn update_degradation(&mut self, now_ns: f64, stats: &mut SimStats) {
        if self.degraded {
            stats.degraded_ns += (now_ns - self.degraded_mark_ns).max(0.0);
            self.degraded_mark_ns = now_ns;
            if self.reclaim_debt == 0 && self.ml1_free.len() >= self.evict_lo {
                self.degraded = false;
                stats.recoveries = stats.recoveries.saturating_add(1);
            }
        } else if self.reclaim_debt > 0 || self.ml1_free.len() < self.evict_crit / 2 {
            self.degraded = true;
            self.degraded_mark_ns = now_ns;
        }
    }

    /// Retires one frame whose contents are beyond recovery: the ladder's
    /// terminal rung. The frame leaves the budget permanently — taken off
    /// the free list when one can be spared, otherwise booked as reclaim
    /// debt exactly like a budget shrink — so a poisoned frame can never
    /// be handed out again.
    fn poison_frame(&mut self, now_ns: f64, stats: &mut SimStats) {
        if self.ml1_free.len() > CARVE_RESERVE && self.ml1_free.pop().is_some() {
            // Quarantined straight off the free list.
        } else {
            self.reclaim_debt += 1;
        }
        self.total_frames = self.total_frames.saturating_sub(1);
        self.rescale_watermarks();
        stats.frames_poisoned = stats.frames_poisoned.saturating_add(1);
        self.update_degradation(now_ns, stats);
    }

    /// Compressed size of a page at eviction time, after any
    /// content-profile-shift inflation.
    fn eviction_comp_bytes(&self, deflate_bytes: usize) -> usize {
        deflate_bytes + deflate_bytes * self.size_inflation_pct as usize / 100
    }

    /// The authoritative DRAM byte address of a request's block.
    fn data_addr(&self, info: &PageInfo, req: &MemRequest) -> Result<u64, TmccError> {
        match info.place {
            Placement::Ml1 { frame } => {
                Ok(frame as u64 * PAGE_SIZE as u64 + (req.block.index_in_page() * 64) as u64)
            }
            Placement::Ml2 { sub, .. } => self.ml2.try_addr_of(sub),
        }
    }

    /// Derives the dense slab handle for a request's page — arithmetic
    /// only; the per-access paths below reuse it for every state lookup.
    #[inline]
    fn page_id(&self, ppn: Ppn) -> Result<PageId, TmccError> {
        self.pages.id_of(ppn.raw()).ok_or(TmccError::UnplacedPage { ppn: ppn.raw() })
    }

    /// Physical→DRAM translation + data fetch for an LLC-miss read.
    #[allow(clippy::too_many_arguments)]
    fn serve_translated_read(
        &mut self,
        req: &MemRequest,
        id: PageId,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
        count_stats: bool,
    ) -> Result<f64, TmccError> {
        let key = req.ppn.raw();
        let info = self.pages.get_id(id).ok_or(TmccError::UnplacedPage { ppn: key })?;
        let in_ml1 = matches!(info.place, Placement::Ml1 { .. });
        let addr = self.data_addr(&info, req)?;
        if self.cte_cache.access(req.ppn) {
            if count_stats {
                stats.cte_hits = stats.cte_hits.saturating_add(1);
                if in_ml1 {
                    stats.ml1_cte_hit = stats.ml1_cte_hit.saturating_add(1);
                }
            }
            return Ok(dram.access(now_ns, DramAddr::new(addr), req.write));
        }
        if count_stats {
            stats.cte_misses = stats.cte_misses.saturating_add(1);
            if req.after_tlb_miss {
                stats.cte_misses_after_tlb_miss = stats.cte_misses_after_tlb_miss.saturating_add(1);
            }
        }
        let cte_addr = DramAddr::new(cte_dram_addr(req.ppn));
        let correct = self.cte_of(&info)?;
        let done = if self.toggles.embedded_ctes {
            match self.cte_buffer.lookup(req.ppn).and_then(|e| e.cte) {
                Some(embedded) => {
                    // Speculative parallel access (Fig. 8b): fetch the CTE
                    // and the data (at the embedded CTE's frame) at once.
                    let spec_addr = embedded.frame() as u64 * PAGE_SIZE as u64
                        + (req.block.index_in_page() * 64) as u64;
                    let cte_done = dram.access(now_ns, cte_addr, false);
                    let spec_done = dram.access(now_ns, DramAddr::new(spec_addr), req.write);
                    let both = cte_done.max(spec_done);
                    let forced_stale = if self.force_stale > 0 {
                        self.force_stale -= 1;
                        true
                    } else {
                        false
                    };
                    if embedded.matches(&correct) && !forced_stale {
                        if count_stats && in_ml1 {
                            stats.ml1_parallel_correct =
                                stats.ml1_parallel_correct.saturating_add(1);
                        }
                        both
                    } else {
                        // Stale embedding: re-access with the correct CTE
                        // (Fig. 8c) and lazily repair the PTB (§V-A2).
                        if count_stats && in_ml1 {
                            stats.ml1_parallel_mismatch =
                                stats.ml1_parallel_mismatch.saturating_add(1);
                        }
                        self.repair_embedding(req.ppn, correct.truncated());
                        dram.access(both, DramAddr::new(addr), req.write)
                    }
                }
                None => {
                    // No embedded CTE: serial, as in prior work (Fig. 8a).
                    if count_stats && in_ml1 {
                        stats.ml1_serial = stats.ml1_serial.saturating_add(1);
                    }
                    self.repair_embedding(req.ppn, correct.truncated());
                    let cte_done = dram.access(now_ns, cte_addr, false);
                    dram.access(cte_done, DramAddr::new(addr), req.write)
                }
            }
        } else {
            if count_stats && in_ml1 {
                stats.ml1_serial = stats.ml1_serial.saturating_add(1);
            }
            let cte_done = dram.access(now_ns, cte_addr, false);
            dram.access(cte_done, DramAddr::new(addr), req.write)
        };
        // The MC always caches the CTE it fetched (§VII).
        self.cte_cache.fill(req.ppn);
        Ok(done)
    }

    /// Reconcile the CTE buffer and the stored PTB embedding with the
    /// verified CTE (the lazy update of §V-A2/3).
    fn repair_embedding(&mut self, ppn: Ppn, correct: TruncatedCte) {
        if let Some((block, slot)) = self.cte_buffer.reconcile(ppn, correct) {
            self.ptb_embed.repair(block, slot, correct);
        }
    }

    /// Serves an access to a page currently in ML2: decompress the needed
    /// block, respond, and migrate the page to ML1 in the background.
    #[allow(clippy::too_many_arguments)]
    fn serve_ml2(
        &mut self,
        req: &MemRequest,
        id: PageId,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
        count_stats: bool,
    ) -> Result<f64, TmccError> {
        stats.ml2_reads = stats.ml2_reads.saturating_add(1);
        let key = req.ppn.raw();
        let info = self.pages.get_id(id).ok_or(TmccError::UnplacedPage { ppn: key })?;
        let (sub, comp_bytes) = match info.place {
            Placement::Ml2 { sub, comp_bytes } => (sub, comp_bytes as usize),
            Placement::Ml1 { .. } => {
                return Err(TmccError::InvariantViolation {
                    detail: format!("serve_ml2 called for ML1-resident page {key:#x}"),
                })
            }
        };
        // Translation + first burst of the compressed page.
        let first = self.serve_translated_read(req, id, now_ns, dram, stats, count_stats)?;
        // Stream the remaining compressed bursts (they pipeline into the
        // decompressor; their bus time matters, their latency does not).
        let sub_addr = self.ml2.try_addr_of(sub)?;
        for k in 1..comp_bytes.div_ceil(64) {
            let _ = dram.access_background(first, DramAddr::new(sub_addr + (k * 64) as u64), false);
        }
        // Needed-block decompression latency: the ML2-codec difference
        // between TMCC and the barebone design (Fig. 20's ML2 opt).
        let dec_ns = if self.toggles.fast_deflate {
            self.timing.half_page_latency(comp_bytes * 8, PAGE_SIZE).ns
        } else {
            self.ibm.half_page_decompress_ns(PAGE_SIZE)
        };
        let mut done = first + dec_ns;
        // Migration buffer (§VI): stall when all entries are busy. A
        // fault can shrink the live capacity mid-run, in which case the
        // drain below is a bounded retry — one stall per excess entry.
        while let Some(&head) = self.migration_buffer.front() {
            if head <= now_ns {
                self.migration_buffer.pop_front();
            } else {
                break;
            }
        }
        while self.migration_buffer.len() >= self.migration_cap {
            let Some(head) = self.migration_buffer.pop_front() else {
                break;
            };
            let stall = (head - now_ns).max(0.0);
            stats.migration_stall_ns += stall;
            done += stall;
        }
        // Under critical free-list pressure, evictions preempt ML2 reads
        // (§VI: priorities flip below the lower threshold).
        if self.ml1_free.len() < self.evict_crit {
            stats.ml2_crit_penalties = stats.ml2_crit_penalties.saturating_add(1);
            let full_dec = if self.toggles.fast_deflate {
                self.timing.decompress_latency(comp_bytes * 8, PAGE_SIZE).ns
            } else {
                self.ibm.decompress_latency_ns(PAGE_SIZE)
            };
            done += full_dec * 0.5;
        }
        // Background migration ML2 -> ML1.
        if let Some(frame) = self.ml1_free.pop() {
            stats.ml2_to_ml1_migrations = stats.ml2_to_ml1_migrations.saturating_add(1);
            self.ml2.try_free(sub, &mut self.ml1_free)?;
            if !self.pages.set_place(id, Placement::Ml1 { frame }) {
                return Err(TmccError::UnplacedPage { ppn: key });
            }
            self.recency.insert_hot(req.ppn);
            // Write the decompressed page into its new frame (background,
            // via the rank-scoped write mode of §VI).
            let base = frame as u64 * PAGE_SIZE as u64;
            let mut t = done;
            for b in 0..(PAGE_SIZE / 64) {
                t = dram.access_background(t, DramAddr::new(base + (b * 64) as u64), true);
            }
            self.migration_buffer.push_back(t);
        }
        Ok(done)
    }
}

impl Scheme for TwoLevelScheme {
    fn kind(&self) -> SchemeKind {
        if self.toggles.embedded_ctes && self.toggles.fast_deflate {
            SchemeKind::Tmcc
        } else {
            SchemeKind::OsInspired
        }
    }

    fn access(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<f64, TmccError> {
        let key = req.ppn.raw();
        let id = self.page_id(req.ppn)?;
        let info = self.pages.get_id(id).ok_or(TmccError::UnplacedPage { ppn: key })?;
        let done = match info.place {
            Placement::Ml1 { .. } => {
                let done = self.serve_translated_read(req, id, now_ns, dram, stats, true)?;
                if !info.pinned {
                    self.recency.on_access(req.ppn);
                }
                stats.ml1_latency_sum_ns += done - now_ns;
                done
            }
            Placement::Ml2 { .. } => {
                let done = self.serve_ml2(req, id, now_ns, dram, stats, true)?;
                stats.ml2_latency_sum_ns += done - now_ns;
                done
            }
        };
        Ok(done - now_ns)
    }

    fn writeback(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        let key = req.ppn.raw();
        let Ok(id) = self.page_id(req.ppn) else {
            return Ok(());
        };
        let Some(info) = self.pages.get_id(id) else {
            return Ok(());
        };
        match info.place {
            Placement::Ml1 { .. } => {
                // Lazy write drain: translate via the CTE cache (no stats)
                // and write in the background.
                let _ = self.cte_cache.access(req.ppn);
                let addr = self.data_addr(&info, req)?;
                let _ = dram.access_background(now_ns, DramAddr::new(addr), true);
                if info.incompressible && self.recency.on_incompressible_writeback(req.ppn) {
                    // Re-entered the recency list; it may be evicted again.
                }
                if self.rng.gen::<f64>() < DIRTY_REDRAW_PROBABILITY
                    && !self.pages.bump_dirty_epoch(id)
                {
                    return Err(TmccError::UnplacedPage { ppn: key });
                }
            }
            Placement::Ml2 { .. } => {
                // A store to a compressed page pulls it back to ML1.
                let _ = self.serve_ml2(req, id, now_ns, dram, stats, false)?;
            }
        }
        Ok(())
    }

    fn on_ptb_fetched(&mut self, block: BlockAddr, ptb: &PageTableBlock) {
        if !self.toggles.embedded_ctes {
            return;
        }
        let Some(pos) = self.ptb_embed.position(block) else {
            return;
        };
        for (slot, cte) in self.ptb_embed.ctes(pos).enumerate() {
            let pte = ptb.entry(slot);
            if pte.is_present() {
                self.cte_buffer.insert(pte.ppn(), CteBufferEntry { cte, ptb_block: block, slot });
            }
        }
    }

    fn maintain(
        &mut self,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        self.update_degradation(now_ns, stats);
        if self.ml1_free.len() >= self.evict_lo && self.reclaim_debt == 0 {
            return Ok(());
        }
        // Grow the free list by evicting cold pages towards the target, a
        // few pages per maintenance slot so migrations never monopolize
        // the memory system (they are lower priority than LLC accesses,
        // §VI). Degraded mode lifts the per-slot budget: producing free
        // frames (and paying reclaim debt) beats bandwidth fairness.
        let burst = if self.degraded { EMERGENCY_EVICTION_BURST } else { NORMAL_EVICTION_BURST };
        let mut evictions_left = burst;
        let mut performed = 0u32;
        while (self.ml1_free.len() < self.evict_hi || self.reclaim_debt > 0) && evictions_left > 0 {
            evictions_left -= 1;
            let Some(victim) = self.recency.pop_coldest() else {
                break;
            };
            let key = victim.raw();
            let Some(vid) = self.pages.id_of(key) else {
                continue;
            };
            let Some(info) = self.pages.get_id(vid) else {
                continue;
            };
            let Placement::Ml1 { frame } = info.place else {
                continue; // already migrated by a racing path
            };
            if info.pinned {
                continue;
            }
            let sizes = self.size_model.sizes_of(key, info.dirty_epoch);
            let comp = self.eviction_comp_bytes(sizes.deflate_bytes);
            if sizes.ml2_incompressible() || self.ml2.class_for(comp).is_none() {
                // Keep it in ML1, flag it, and stop retrying (§IV-B).
                stats.incompressible_evictions = stats.incompressible_evictions.saturating_add(1);
                if !self.pages.set_incompressible(vid, true) {
                    return Err(TmccError::UnplacedPage { ppn: key });
                }
                continue;
            }
            let mut donated = false;
            let (sub, stored_bytes) = match self.ml2.try_allocate(comp, &mut self.ml1_free) {
                Ok(sub) => (sub, comp),
                Err(TmccError::FreeListExhausted { .. }) if !self.degraded => {
                    break; // no room to grow ML2 right now; retry next slot
                }
                Err(TmccError::FreeListExhausted { .. }) => {
                    // Graceful degradation, step 1: donate the victim's
                    // own frame (the page is staged in the migration
                    // buffer while compression runs) and retry once.
                    self.ml1_free.push(frame);
                    donated = true;
                    match self.ml2.try_allocate(comp, &mut self.ml1_free) {
                        Ok(sub) => (sub, comp),
                        // Step 2: the exact class still cannot be carved,
                        // so store the page raw (4 KiB class, one chunk)
                        // to keep evictions making forward progress.
                        Err(_) => match self.ml2.try_allocate(PAGE_SIZE, &mut self.ml1_free) {
                            Ok(sub) => {
                                stats.raw_fallbacks = stats.raw_fallbacks.saturating_add(1);
                                (sub, PAGE_SIZE)
                            }
                            Err(_) => {
                                // Unreachable by construction (the donated
                                // frame satisfies the one-chunk carve);
                                // reaching it means the free list lost
                                // frames mid-eviction.
                                return Err(TmccError::InvariantViolation {
                                    detail: format!(
                                        "donated frame {frame} vanished during the \
                                         raw-fallback carve for page {key:#x}"
                                    ),
                                });
                            }
                        },
                    }
                }
                Err(e) => return Err(e),
            };
            performed += 1;
            if performed > NORMAL_EVICTION_BURST {
                stats.emergency_evictions = stats.emergency_evictions.saturating_add(1);
            }
            stats.ml1_to_ml2_migrations = stats.ml1_to_ml2_migrations.saturating_add(1);
            // Read the page, compress (background), write the sub-chunk.
            let base = frame as u64 * PAGE_SIZE as u64;
            let mut t = now_ns;
            for b in 0..(PAGE_SIZE / 64) {
                t = dram.access_background(t, DramAddr::new(base + (b * 64) as u64), false);
            }
            let sub_addr = self.ml2.try_addr_of(sub)?;
            for k in 0..stored_bytes.div_ceil(64) {
                t = dram.access_background(t, DramAddr::new(sub_addr + (k * 64) as u64), true);
            }
            if !self.pages.set_place(vid, Placement::Ml2 { sub, comp_bytes: stored_bytes as u32 }) {
                return Err(TmccError::UnplacedPage { ppn: key });
            }
            if !donated {
                self.ml1_free.push(frame);
            }
            // Pay reclaim debt from free-list surplus: retire frames down
            // to the carve reserve so a ballooning shrink converges while
            // ML2 can still grow.
            while self.reclaim_debt > 0 && self.ml1_free.len() > CARVE_RESERVE {
                if self.ml1_free.pop().is_some() {
                    self.reclaim_debt -= 1;
                } else {
                    break;
                }
            }
            self.evicted_pages.push(victim);
        }
        self.update_degradation(now_ns, stats);
        Ok(())
    }

    fn apply_fault(
        &mut self,
        fault: FaultKind,
        now_ns: f64,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        match fault {
            FaultKind::ShrinkBudget { frames } => {
                let frames = frames.min(self.total_frames);
                let mut removed = 0u32;
                while removed < frames && self.ml1_free.len() > CARVE_RESERVE {
                    if self.ml1_free.pop().is_some() {
                        removed += 1;
                    } else {
                        break;
                    }
                }
                // Whatever the free list could not cover becomes reclaim
                // debt: maintenance retires frames eviction frees until
                // the books balance again.
                self.reclaim_debt += (frames - removed) as u64;
                self.total_frames -= frames;
                self.rescale_watermarks();
            }
            FaultKind::GrowBudget { frames } => {
                let pay = (frames as u64).min(self.reclaim_debt) as u32;
                self.reclaim_debt -= pay as u64;
                for _ in 0..frames - pay {
                    self.ml1_free.push(self.next_frame_id);
                    self.next_frame_id += 1;
                }
                self.total_frames += frames;
                self.rescale_watermarks();
            }
            FaultKind::CteFlushStorm => {
                self.cte_cache.flush();
                self.cte_buffer.clear();
            }
            FaultKind::StaleEmbeddings { count } => {
                self.force_stale += count;
            }
            FaultKind::ShrinkMigrationBuffer { entries } => {
                self.migration_cap = entries.max(1);
            }
            FaultKind::RestoreMigrationBuffer => {
                self.migration_cap = MIGRATION_BUFFER_ENTRIES;
            }
            FaultKind::ContentShift { percent } => {
                self.size_inflation_pct = percent;
            }
        }
        stats.faults_injected = stats.faults_injected.saturating_add(1);
        self.update_degradation(now_ns, stats);
        Ok(())
    }

    /// The detect → recover → poison ladder over one injected upset.
    ///
    /// Every event books `flips_injected` exactly once and exactly one of
    /// `corruptions_detected` / `sdc_escapes`; a detected event books
    /// exactly one of `corruptions_corrected` / `corruptions_uncorrectable`
    /// — the audit invariants of [`SimStats`] hold per event, not just in
    /// aggregate. The end-to-end Ml2 path runs the *real* codec and seal:
    /// the page's bytes are compressed, bits are flipped in the stored
    /// payload (or the seal, for incompressible-to-nothing zero pages),
    /// and [`MemDeflate::try_decompress_sealed`] renders the verdict.
    fn apply_bit_flip(
        &mut self,
        flip: BitFlip,
        entropy: u64,
        page: Option<FlipPageContext<'_>>,
        now_ns: f64,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        stats.flips_injected = stats.flips_injected.saturating_add(1);
        match flip.target {
            FlipTarget::Ml2Payload => {
                let Some(ctx) = page else {
                    // No page content was delivered: nothing to exercise,
                    // and nothing detected the upset.
                    stats.sdc_escapes += 1;
                    return Ok(());
                };
                let codec = MemDeflate::new(DeflateParams::new());
                let mut comp = codec.compress_page(ctx.bytes);
                let mut seal = comp.seal(0);
                let payload_bits = comp.payload().len() * 8;
                // Land the upset: Single = 1 bit, Burst = 4 adjacent bits,
                // RowHammer = 16 bits sprayed across the payload plus one
                // in the seal words. A zero page stores no payload, so its
                // flips can only land in the seal/metadata.
                let flips: u32 = match flip.shape {
                    FlipShape::Single => 1,
                    FlipShape::Burst => 4,
                    FlipShape::RowHammer => 16,
                };
                if payload_bits == 0 {
                    for i in 0..flips {
                        seal.flip_bit((entropy >> (7 * (i % 8))) as u32 + 11 * i);
                    }
                } else {
                    let base = (entropy % payload_bits as u64) as usize;
                    for i in 0..flips as usize {
                        let bit = match flip.shape {
                            // Adjacent bits of one word, like a real burst.
                            FlipShape::Single | FlipShape::Burst => (base + i) % payload_bits,
                            // Spread across victim rows.
                            FlipShape::RowHammer => {
                                (base + i * (payload_bits / 17 + 1)) % payload_bits
                            }
                        };
                        comp.payload_mut()[bit / 8] ^= 1 << (bit % 8);
                    }
                    if flip.shape == FlipShape::RowHammer {
                        // The aggressor row also clips the seal metadata.
                        seal.flip_bit(entropy as u32);
                    }
                }
                // Detect: the sealed decode is the only read path.
                let mut scratch = DeflateScratch::new();
                let mut out = Vec::with_capacity(PAGE_SIZE);
                let verdict = codec.try_decompress_sealed(&comp, &seal, 0, &mut scratch, &mut out);
                let Err(err) = verdict else {
                    // Distinct-bit flips cannot cancel, so a passing seal
                    // means the upset was absorbed by dead payload space —
                    // book it as an escape rather than claim credit.
                    stats.sdc_escapes += 1;
                    return Ok(());
                };
                stats.corruptions_detected += 1;
                if err.is_metadata() {
                    stats.metadata_corruptions_detected += 1;
                }
                // The failed decode attempt is the detection cost.
                let mut recovery =
                    self.timing.decompress_latency(payload_bits.max(8), PAGE_SIZE).ns;
                if !ctx.dirty {
                    // Clean page: regenerate from the content source and
                    // recompress — a full repair.
                    let rebuilt = codec.compress_page(ctx.bytes);
                    recovery += self
                        .timing
                        .compress_latency(
                            ctx.bytes.len(),
                            rebuilt.lz_stats(),
                            rebuilt.lz_len(),
                            rebuilt.payload_bits(),
                        )
                        .ns;
                    stats.corruptions_corrected += 1;
                } else {
                    match flip.shape {
                        FlipShape::RowHammer => {
                            // Divergent content, multi-bit spray across the
                            // row: the raw copy sits in the same blast
                            // radius, so nothing authoritative remains.
                            stats.corruptions_uncorrectable += 1;
                            self.poison_frame(now_ns, stats);
                        }
                        _ => {
                            // Divergent page: restore from the raw-storage
                            // copy (a plain 4 KiB read, no decompression).
                            recovery += self.timing.decompress_latency(PAGE_SIZE * 8, PAGE_SIZE).ns;
                            stats.corruptions_corrected += 1;
                            stats.raw_fallbacks += 1;
                        }
                    }
                }
                stats.recovery_ns += recovery;
            }
            FlipTarget::Ml1Data => {
                // ML1 frames hold raw uncompressed data with no seal or
                // parity over them — the defining hole in the coverage
                // story, measured rather than hidden.
                stats.sdc_escapes += 1;
            }
            FlipTarget::CteSlot => {
                let line = (entropy >> 24) as usize;
                let bit = entropy as u32;
                match flip.shape {
                    // One stored bit: odd weight, parity always fires.
                    FlipShape::Single => self.cte_cache.corrupt_slot_bit(line, bit),
                    // Two adjacent bits of one line: even weight — the
                    // per-line parity's blind spot.
                    FlipShape::Burst => {
                        self.cte_cache.corrupt_slot_bit(line, bit);
                        self.cte_cache.corrupt_slot_bit(line, bit + 1);
                    }
                    // One bit in each of three victim lines: every line
                    // trips its own parity.
                    FlipShape::RowHammer => {
                        for i in 0..3usize {
                            self.cte_cache.corrupt_slot_bit(line + i, bit.wrapping_add(i as u32));
                        }
                    }
                }
                let violating = self.cte_cache.audit_parity();
                if violating > 0 {
                    stats.corruptions_detected += 1;
                    stats.metadata_corruptions_detected += 1;
                    // Scrub drops the poisoned translations; later walks
                    // refill them from the authoritative in-DRAM table, so
                    // the event is fully corrected.
                    let dropped = self.cte_cache.scrub();
                    stats.corruptions_corrected += 1;
                    stats.recovery_ns += dropped as f64 * CTE_SCRUB_REFILL_NS;
                } else {
                    // An even-weight burst slipped past the parity: a
                    // forged translation is now live.
                    stats.sdc_escapes += 1;
                }
            }
            FlipTarget::FreeListBitmap => {
                // The free map is covered by the frame-conservation audit
                // ([`Scheme::validate`]): a flipped free bit makes the
                // free/owned/resident books disagree with the budget, so
                // detection is certain and the map is rebuilt from the
                // page-placement metadata (which stayed intact).
                stats.corruptions_detected += 1;
                stats.metadata_corruptions_detected += 1;
                match flip.shape {
                    FlipShape::Single | FlipShape::Burst => {
                        stats.corruptions_corrected += 1;
                        stats.recovery_ns +=
                            self.total_frames as f64 * FREE_MAP_REBUILD_NS_PER_FRAME;
                    }
                    FlipShape::RowHammer => {
                        // The spray straddles the map *and* the frame it
                        // describes: rebuild cannot vouch for the frame's
                        // contents, so it leaves service.
                        stats.corruptions_uncorrectable += 1;
                        self.poison_frame(now_ns, stats);
                    }
                }
            }
        }
        self.update_degradation(now_ns, stats);
        Ok(())
    }

    fn validate(&self) -> Result<(), TmccError> {
        // The CTE is derived from the placement (see `cte_of`), so the
        // old CTE↔placement lockstep checks hold by construction; what
        // remains auditable is the placement itself.
        let mut ml1_resident = 0usize;
        let mut frames_seen = BitVec::with_len(self.next_frame_id as usize);
        for (ppn, info) in self.pages.iter() {
            match info.place {
                Placement::Ml1 { frame } => {
                    ml1_resident += 1;
                    if frame >= self.next_frame_id {
                        return Err(TmccError::InvariantViolation {
                            detail: format!(
                                "page {ppn:#x}: ML1 frame {frame} was never minted \
                                 (next id {})",
                                self.next_frame_id
                            ),
                        });
                    }
                    if !frames_seen.set(frame as usize) {
                        return Err(TmccError::InvariantViolation {
                            detail: format!("frame {frame} backs more than one ML1 page"),
                        });
                    }
                }
                Placement::Ml2 { sub, comp_bytes } => {
                    // A dangling sub-chunk surfaces as a typed error here.
                    let _addr = self.ml2.try_addr_of(sub)?;
                    if comp_bytes as usize > self.ml2.class_size(sub.class) {
                        return Err(TmccError::InvariantViolation {
                            detail: format!(
                                "page {ppn:#x}: {comp_bytes} compressed bytes overflow \
                                 its {}-byte class",
                                self.ml2.class_size(sub.class)
                            ),
                        });
                    }
                }
            }
        }
        // Frame conservation: every frame the budget covers (plus the
        // ones a shrink has yet to reclaim) is free, owned by ML2, or
        // backing exactly one resident ML1 page.
        let held = self.ml1_free.len() + self.ml2.owned_chunks() + ml1_resident;
        let budgeted = self.total_frames as usize + self.reclaim_debt as usize;
        if held != budgeted {
            return Err(TmccError::InvariantViolation {
                detail: format!(
                    "frame conservation broken: {} free + {} ML2-owned + {ml1_resident} \
                     ML1-resident = {held}, budget covers {budgeted} ({} total + {} debt)",
                    self.ml1_free.len(),
                    self.ml2.owned_chunks(),
                    self.total_frames,
                    self.reclaim_debt
                ),
            });
        }
        Ok(())
    }

    fn drain_evicted_pages(&mut self, out: &mut Vec<Ppn>) {
        out.append(&mut self.evicted_pages);
    }

    fn pressure(&self) -> SchemePressure {
        SchemePressure { degraded: self.degraded, reclaim_debt_frames: self.reclaim_debt }
    }

    fn dram_used_bytes(&self) -> u64 {
        // Frames awaiting reclaim are still physically occupied, so they
        // count towards use until eviction retires them.
        let frames_in_use =
            self.total_frames as u64 + self.reclaim_debt - self.ml1_free.len() as u64;
        let cte_table = self.pages.len() as u64 * Cte::SIZE_IN_DRAM as u64;
        let recency = RecencyList::dram_overhead_bytes(self.pages.len() as u64);
        frames_in_use * PAGE_SIZE as u64 + cte_table + recency
    }

    fn metadata_heap_bytes(&self) -> usize {
        self.pages.heap_bytes()
            + self.ml1_free.heap_bytes()
            + self.ml2.heap_bytes()
            + self.recency.heap_bytes()
            + self.cte_cache.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_model::PageSizes;
    use tmcc_sim_dram::InterleavePolicy;
    use tmcc_sim_mem::page_table::WalkStep;
    use tmcc_sim_mem::PageTableConfig;
    use tmcc_types::addr::Vpn;
    use tmcc_types::pte::PteFlags;

    fn identity_table(data_pages: u64) -> PageTable {
        PageTable::identity(PageTableConfig::default(), data_pages)
    }

    fn build_on(
        toggles: TmccToggles,
        pt: &PageTable,
        data_pages: u64,
        budget_frames: u32,
    ) -> Result<TwoLevelScheme, TmccError> {
        let model =
            SizeModel::from_samples(vec![PageSizes { deflate_bytes: 1200, block_bytes: 3000 }]);
        TwoLevelScheme::try_new(
            toggles,
            CteCacheConfig::tmcc(),
            model,
            pt,
            data_pages,
            budget_frames,
            7,
            0.15,
        )
    }

    fn build(
        toggles: TmccToggles,
        data_pages: u64,
        budget_frames: u32,
    ) -> (TwoLevelScheme, PageTable) {
        let pt = identity_table(data_pages);
        let s = build_on(toggles, &pt, data_pages, budget_frames).expect("feasible budget");
        (s, pt)
    }

    /// The leaf walk step for `vpn` and the PTB it fetches.
    fn leaf_ptb(pt: &PageTable, vpn: u64) -> (WalkStep, PageTableBlock) {
        let step = *pt.walk_path(Vpn::new(vpn)).unwrap().last().unwrap();
        (step, pt.ptb_at(step.ptb_block).unwrap())
    }

    fn dram() -> DramSim {
        DramSim::new(Default::default(), InterleavePolicy::coarse_mc())
    }

    fn read_req(ppn: u64, after_tlb: bool) -> MemRequest {
        MemRequest {
            ppn: Ppn::new(ppn),
            block: Ppn::new(ppn).block(0),
            write: false,
            is_ptb: false,
            after_tlb_miss: after_tlb,
        }
    }

    #[test]
    fn placement_respects_budget() {
        let (s, _pt) = build(TmccToggles::full(), 2000, 1200);
        assert!(s.dram_used_bytes() <= 1200 * 4096 + 2100 * 24);
        // Some pages must have landed in ML2.
        let ml2_pages =
            s.pages.iter().filter(|(_, p)| matches!(p.place, Placement::Ml2 { .. })).count();
        assert!(ml2_pages > 0, "budget pressure must push pages to ML2");
    }

    #[test]
    fn infeasible_budget_is_a_typed_error() {
        let pt = identity_table(2000);
        let model =
            SizeModel::from_samples(vec![PageSizes { deflate_bytes: 1200, block_bytes: 3000 }]);
        let err = TwoLevelScheme::try_new(
            TmccToggles::full(),
            CteCacheConfig::tmcc(),
            model,
            &pt,
            2000,
            100, // far below min_budget_frames
            7,
            0.15,
        )
        .map(|_| ())
        .expect_err("budget must be rejected");
        assert!(matches!(err, TmccError::InfeasibleBudget { .. }), "got {err:?}");
    }

    #[test]
    fn fresh_scheme_passes_validation() {
        let (s, _pt) = build(TmccToggles::full(), 2000, 1200);
        s.validate().expect("fresh placement is consistent");
    }

    #[test]
    fn ml1_hit_after_cte_cached_is_single_dram_trip() {
        let (mut s, _pt) = build(TmccToggles::full(), 100, 400);
        let mut d = dram();
        let mut stats = SimStats::default();
        let cold = s.access(&read_req(0, true), 0.0, &mut d, &mut stats).unwrap();
        let warm = s.access(&read_req(0, false), 10_000.0, &mut d, &mut stats).unwrap();
        assert!(warm < cold || stats.cte_hits > 0);
        assert_eq!(stats.cte_hits, 1);
    }

    #[test]
    fn embedded_cte_enables_parallel_access() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        // Deliver the PTB for page 5 (as the walker would).
        let step = *pt.walk_path(Vpn::new(5)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_correct, 1, "{stats:?}");
        assert_eq!(stats.ml1_serial, 0);
    }

    #[test]
    fn barebone_never_goes_parallel() {
        let (mut s, pt) = build(TmccToggles::none(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let step = *pt.walk_path(Vpn::new(5)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_correct, 0);
        assert_eq!(stats.ml1_serial, 1);
    }

    #[test]
    fn stale_embedding_detected_and_repaired() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let step = *pt.walk_path(Vpn::new(5)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.on_ptb_fetched(step.ptb_block, &ptb);
        // Secretly migrate page 5 to a different frame.
        let new_frame = s.ml1_free.pop().unwrap();
        let id = s.pages.id_of(5).unwrap();
        assert!(s.pages.set_place(id, Placement::Ml1 { frame: new_frame }));
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_mismatch, 1);
        // The embedding has been lazily repaired: next fetch+access is
        // parallel-correct.
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.cte_cache.invalidate(Ppn::new(5));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let _ = s.access(&read_req(5, true), 1_000_000.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_correct, 1, "{stats:?}");
    }

    #[test]
    fn repair_lands_in_the_harvested_slot_only() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let (step, ptb) = leaf_ptb(&pt, 5);
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let before = s.ptb_embed.words.clone();
        // Migrate page 5 behind the embedding's back.
        let new_frame = s.ml1_free.pop().unwrap();
        let id = s.pages.id_of(5).unwrap();
        assert!(s.pages.set_place(id, Placement::Ml1 { frame: new_frame }));
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_mismatch, 1, "{stats:?}");
        // Exactly one word of the whole store changed: the PTE's slot.
        let pos = s.ptb_embed.position(step.ptb_block).unwrap();
        let repaired = pos * PTES_PER_PTB + step.slot;
        let changed: Vec<usize> =
            (0..before.len()).filter(|&i| before[i] != s.ptb_embed.words[i]).collect();
        assert_eq!(changed, vec![repaired]);
        assert_eq!(s.ptb_embed.words[repaired], EMBED_PRESENT | new_frame);
        // The next harvest of that PTB hands out the corrected CTE.
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let expected = CteBufferEntry {
            cte: Some(TruncatedCte::new(new_frame)),
            ptb_block: step.ptb_block,
            slot: step.slot,
        };
        assert_eq!(s.cte_buffer.lookup(Ppn::new(5)), Some(expected));
    }

    #[test]
    fn repair_never_embeds_into_an_uncompressed_ptb() {
        let mut pt = identity_table(3000);
        // A read-only PTE breaks its PTB's status-bit uniformity, so that
        // PTB keeps the uncompressed encoding and embeds no CTEs.
        pt.map_with_flags(Vpn::new(5), Ppn::new(5), PteFlags::new(PteFlags::PRESENT, 0));
        let mut s = build_on(TmccToggles::full(), &pt, 3000, 2000).unwrap();
        let mut d = dram();
        let mut stats = SimStats::default();
        let (step, ptb) = leaf_ptb(&pt, 5);
        let pos = s.ptb_embed.position(step.ptb_block).unwrap();
        assert!(!s.ptb_embed.compressed.get(pos));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        // Serial access; the verified CTE reconciles into the buffer entry,
        // but there is no embedding to repair.
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_serial, 1, "{stats:?}");
        assert!(!s.ptb_embed.compressed.get(pos));
        assert!(s.ptb_embed.ctes(pos).all(|cte| cte.is_none()));
        // A fresh harvest still offers no CTE for the page.
        s.cte_cache.invalidate(Ppn::new(5));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        assert_eq!(s.cte_buffer.lookup(Ppn::new(5)).unwrap().cte, None);
        let _ = s.access(&read_req(5, true), 1_000_000.0, &mut d, &mut stats).unwrap();
        assert_eq!((stats.ml1_serial, stats.ml1_parallel_correct), (2, 0), "{stats:?}");
    }

    #[test]
    fn harvest_outside_the_table_region_does_nothing() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let (step, ptb) = leaf_ptb(&pt, 5);
        let past_end = pt.table_region_base() + pt.table_page_count() as u64;
        for block in [Ppn::new(5).block(0), Ppn::new(past_end).block(0)] {
            s.on_ptb_fetched(block, &ptb);
            assert!(s.cte_buffer.is_empty(), "{block:?} is not a PTB");
        }
        s.on_ptb_fetched(step.ptb_block, &ptb);
        assert_eq!(s.cte_buffer.len(), PTES_PER_PTB);
    }

    #[test]
    fn data_pages_reaching_the_table_region_are_rejected() {
        // Table pages from PPN 1024 would alias data pages 1024..4096.
        let cfg = PageTableConfig { table_region_base: 1024, huge_pages: false };
        let pt = PageTable::identity(cfg, 4096);
        let err = build_on(TmccToggles::full(), &pt, 4096, 6000).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            TmccError::TableRegionOverlap { data_pages: 4096, table_region_base: 1024 }
        );
        let pt = identity_table(4096);
        build_on(TmccToggles::full(), &pt, 4096, 6000).unwrap().validate().unwrap();
    }

    #[test]
    fn forced_stale_fault_degrades_parallel_access() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let step = *pt.walk_path(Vpn::new(5)).unwrap().last().unwrap();
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.on_ptb_fetched(step.ptb_block, &ptb);
        s.apply_fault(FaultKind::StaleEmbeddings { count: 1 }, 0.0, &mut stats).unwrap();
        let _ = s.access(&read_req(5, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_mismatch, 1, "{stats:?}");
        assert_eq!(stats.faults_injected, 1);
        // The forced staleness is consumed; the repaired embedding then
        // goes parallel-correct again.
        let ptb = pt.ptb_at(step.ptb_block).unwrap();
        s.cte_cache.invalidate(Ppn::new(5));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let _ = s.access(&read_req(5, true), 1_000_000.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_parallel_correct, 1, "{stats:?}");
    }

    #[test]
    fn cte_flush_storm_forces_misses() {
        let (mut s, _pt) = build(TmccToggles::full(), 100, 400);
        let mut d = dram();
        let mut stats = SimStats::default();
        let _ = s.access(&read_req(0, true), 0.0, &mut d, &mut stats).unwrap();
        let _ = s.access(&read_req(0, false), 10_000.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.cte_hits, 1);
        s.apply_fault(FaultKind::CteFlushStorm, 20_000.0, &mut stats).unwrap();
        let _ = s.access(&read_req(0, false), 30_000.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.cte_hits, 1, "flushed line must miss again");
        assert_eq!(stats.cte_misses, 2);
    }

    #[test]
    fn ml2_access_migrates_page_up() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1200);
        let mut d = dram();
        let mut stats = SimStats::default();
        // The last page surely landed in ML2.
        let victim = (0..2000)
            .rev()
            .find(|i| matches!(s.pages.get(*i as u64).unwrap().place, Placement::Ml2 { .. }))
            .expect("an ML2 page exists") as u64;
        let lat = s.access(&read_req(victim, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml2_reads, 1);
        assert_eq!(stats.ml2_to_ml1_migrations, 1);
        let place = s.pages.get(victim).unwrap().place;
        assert!(matches!(place, Placement::Ml1 { .. }), "page must now be in ML1");
        // Fast-deflate latency: ~140 ns decompress + DRAM.
        assert!(lat > 100.0 && lat < 1_000.0, "latency {lat}");
    }

    #[test]
    fn slow_deflate_makes_ml2_access_slower() {
        let mk = |toggles| {
            let (mut s, _pt) = build(toggles, 2000, 1200);
            let mut d = dram();
            let mut stats = SimStats::default();
            let victim = (0..2000)
                .rev()
                .find(|i| matches!(s.pages.get(*i as u64).unwrap().place, Placement::Ml2 { .. }))
                .expect("ml2 page") as u64;
            s.access(&read_req(victim, true), 0.0, &mut d, &mut stats).unwrap()
        };
        let fast = mk(TmccToggles::full());
        let slow = mk(TmccToggles::ml1_only());
        assert!(slow > fast + 400.0, "IBM-speed ML2: {slow} vs fast {fast}");
    }

    #[test]
    fn maintain_replenishes_free_list() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1200);
        let mut d = dram();
        let mut stats = SimStats::default();
        // Drain the free list below the low-water mark.
        while s.ml1_free.len() >= s.evict_lo {
            let frame = s.ml1_free.pop().unwrap();
            s.total_frames -= 1; // keep the books balanced for validate()
            let _ = frame;
        }
        let drained = s.ml1_free.len();
        s.maintain(0.0, &mut d, &mut stats).unwrap();
        assert!(s.ml1_free.len() > drained, "eviction must free frames");
        assert!(stats.ml1_to_ml2_migrations > 0);
    }

    #[test]
    fn budget_shock_enters_degraded_and_recovers() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1400);
        let mut d = dram();
        let mut stats = SimStats::default();
        s.validate().unwrap();
        // Shrink the budget far past what the free list can cover, so
        // debt is booked and degraded mode engages.
        s.apply_fault(FaultKind::ShrinkBudget { frames: 500 }, 0.0, &mut stats).unwrap();
        s.validate().unwrap();
        assert!(s.is_degraded(), "shock must enter degraded mode");
        assert!(s.reclaim_debt() > 0, "free list cannot cover the shrink");
        let mut now = 1_000.0;
        for _ in 0..400 {
            s.maintain(now, &mut d, &mut stats).unwrap();
            s.validate().unwrap();
            now += 1_000.0;
            if !s.is_degraded() {
                break;
            }
        }
        assert!(!s.is_degraded(), "pressure must eventually pass: {stats:?}");
        assert_eq!(s.reclaim_debt(), 0);
        assert!(stats.emergency_evictions > 0, "{stats:?}");
        assert_eq!(stats.recoveries, 1, "{stats:?}");
        assert!(stats.degraded_ns > 0.0);
        s.validate().unwrap();
    }

    #[test]
    fn budget_grow_mints_fresh_frames_and_pays_debt() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1400);
        let mut stats = SimStats::default();
        s.apply_fault(FaultKind::ShrinkBudget { frames: 500 }, 0.0, &mut stats).unwrap();
        let debt = s.reclaim_debt();
        assert!(debt > 0);
        s.apply_fault(FaultKind::GrowBudget { frames: 500 }, 10.0, &mut stats).unwrap();
        s.validate().unwrap();
        assert_eq!(s.reclaim_debt(), 0, "growth pays debt first");
        assert_eq!(s.total_frames, 1400);
    }

    #[test]
    fn incompressible_pages_stay_and_are_flagged() {
        let pt = identity_table(500);
        let model = SizeModel::from_samples(vec![PageSizes {
            deflate_bytes: 4099, // cannot fit any ML2 class
            block_bytes: 4096,
        }]);
        let mut s = TwoLevelScheme::new(
            TmccToggles::full(),
            CteCacheConfig::tmcc(),
            model,
            &pt,
            500,
            600,
            7,
            0.15,
        );
        let mut d = dram();
        let mut stats = SimStats::default();
        while s.ml1_free.len() >= s.evict_lo {
            let _ = s.ml1_free.pop();
            s.total_frames -= 1;
        }
        s.maintain(0.0, &mut d, &mut stats).unwrap();
        assert!(stats.incompressible_evictions > 0);
        assert_eq!(stats.ml1_to_ml2_migrations, 0);
        let flagged = s.pages.iter().filter(|(_, p)| p.incompressible).count();
        assert!(flagged > 0);
    }

    #[test]
    fn content_shift_inflates_eviction_sizes() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1200);
        let mut stats = SimStats::default();
        // 1200-byte pages inflated 300% exceed the 4096-byte class.
        s.apply_fault(FaultKind::ContentShift { percent: 300 }, 0.0, &mut stats).unwrap();
        let mut d = dram();
        while s.ml1_free.len() >= s.evict_lo {
            let _ = s.ml1_free.pop();
            s.total_frames -= 1;
        }
        s.maintain(0.0, &mut d, &mut stats).unwrap();
        assert!(
            stats.incompressible_evictions > 0,
            "inflated pages must be flagged incompressible: {stats:?}"
        );
        assert_eq!(stats.ml1_to_ml2_migrations, 0);
    }
}
