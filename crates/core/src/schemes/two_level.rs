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

use super::{cte_dram_addr, FlipPageContext, MemRequest, Scheme, SchemePressure, CTE_BYTES};
use crate::config::{BitFlip, FaultKind, FlipShape, FlipTarget, SchemeKind, TmccToggles};
use crate::error::TmccError;
use crate::free_list::{Ml1FreeList, Ml2FreeLists};
use crate::page_index::PageIndex;
use crate::page_meta::{PageId, PageInfo, PageMetaStore, Placement};
use crate::recency::RecencyList;
use crate::size_model::SizeModel;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::VecDeque;
use tmcc_deflate::{DeflateParams, DeflateTiming, IbmDeflateModel, MemDeflate};
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::{CteBuffer, CteBufferEntry, CteCache, CteCacheConfig, PageTable};
use tmcc_types::addr::{BlockAddr, DramAddr, Ppn, BLOCKS_PER_PAGE, PAGE_SIZE};
use tmcc_types::bitvec::BitVec;
use tmcc_types::cte::TruncatedCte;
use tmcc_types::ptb::PtbGeometry;
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

/// PTEs per 4 KiB table page.
const ENTRIES_PER_TABLE: u64 = 512;

/// Present bit of a [`PtbEmbeddings`] word; the low 28 bits hold the
/// truncated CTE's frame.
const EMBED_PRESENT: u32 = 1 << 31;

/// Frames the two-level schemes can number: a CTE names its frame in
/// [`TruncatedCte::BITS`] bits, which also keeps every frame's DRAM
/// address below [`CTE_TABLE_BASE`](super::CTE_TABLE_BASE).
pub(crate) const MAX_FRAMES: u64 = 1 << TruncatedCte::BITS;

/// The error for a budget of `requested` frames, past [`MAX_FRAMES`].
pub(crate) fn frame_limit_error(requested: u64) -> TmccError {
    TmccError::ScaleLimit {
        quantity: "DRAM budget frames (28-bit CTE frame numbers)",
        requested,
        limit: MAX_FRAMES,
    }
}

/// Where each size-model sample goes if placed compressed: its ML2 class
/// and stored bytes (its Deflate size, capped at a page), and the
/// class-rounded bytes the split search and
/// [`TwoLevelScheme::min_budget_frames`] sum page by page. Computed once
/// per sample, so a page costs a table lookup.
fn ml2_placements(size_model: &SizeModel, classes: &Ml2FreeLists) -> Vec<Ml2Placement> {
    size_model
        .samples()
        .iter()
        .map(|sizes| {
            let comp = sizes.deflate_bytes.min(PAGE_SIZE);
            let class = classes.class_for(comp).expect("a 4 KiB class holds any page");
            let rounded = classes.class_size(class) as u64;
            Ml2Placement { class, comp: comp as u32, rounded }
        })
        .collect()
}

/// A size-model sample's ML2 placement (see [`ml2_placements`]).
#[derive(Clone, Copy)]
struct Ml2Placement {
    class: usize,
    comp: u32,
    rounded: u64,
}

/// The eviction watermarks `(lo, hi, crit)` for a budget of `frames`
/// frames (see the fields of [`TwoLevelScheme`]).
fn watermarks(frames: u32) -> (usize, usize, usize) {
    let lo = (frames as usize / 64).max(24);
    (lo, lo + lo / 2, lo * 3 / 4)
}

/// ML2 frames that `bytes` of class-rounded pages take, with ~3 %
/// carving slack.
fn ml2_frames(bytes: u64) -> u64 {
    (bytes * 103 / 100).div_ceil(PAGE_SIZE as u64)
}

/// The CTEs physically embedded in every compressed PTB (§V-A1), stored
/// densely by PTB position in the table region: one word per PTE slot.
///
/// Table pages are allocated sequentially from the table-region base, so
/// a PTB's position is its block address minus the region's first block —
/// a PTB fetch reads its eight words without hashing.
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

    /// Records that the PTB at `pos` compressed, embedding nothing yet.
    fn mark_compressed(&mut self, pos: usize) {
        self.compressed.set(pos);
    }

    /// Embeds `frame`'s CTE as word `word`: slot `word % 8` of the PTB at
    /// `word / 8`.
    fn embed(&mut self, word: usize, frame: u32) {
        self.words[word] = EMBED_PRESENT | TruncatedCte::new(frame).frame();
    }

    /// Heap bytes the store owns: one word per PTE slot and one bit per
    /// PTB.
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>() + self.compressed.heap_bytes()
    }

    /// The lazy repair of §V-A2: overwrites one slot of a compressed PTB
    /// with the verified CTE.
    fn repair(&mut self, block: BlockAddr, slot: usize, correct: TruncatedCte) {
        if let Some(pos) = self.position(block).filter(|&pos| self.compressed.get(pos)) {
            self.words[pos * PTES_PER_PTB + slot] = EMBED_PRESENT | correct.frame();
        }
    }
}

/// The [`PtbEmbeddings`] words of the data pages whose leaf PTB takes the
/// compressed encoding, with 4 KiB pages. A leaf PTB whose eight PTEs are
/// all present is one progression of aligned PPNs with uniform status
/// bits, so every geometry compresses it (its PPNs differ in the low three
/// bits only); one with a missing PTE has mixed status bits and does not.
/// A leaf table's 512 PTEs are 512 consecutive words, so the table's
/// position is derived once per 512 pages.
struct LeafWords<'a> {
    page_table: &'a PageTable,
    /// Pages `0..full` sit in leaf PTBs whose eight PTEs are all present.
    full: u64,
    /// The first page the cached leaf table maps, and its word.
    cached: Option<(u64, usize)>,
}

impl<'a> LeafWords<'a> {
    /// The words of `page_table`'s data pages: none unless CTEs are
    /// `embedded` and its leaves map 4 KiB pages.
    fn new(page_table: &'a PageTable, embedded: bool) -> Self {
        let streamed = embedded && page_table.leaf_level() == 1;
        let full = if streamed { page_table.mapped_pages() & !7 } else { 0 };
        Self { page_table, full, cached: None }
    }

    /// The word of the leaf PTE that maps data page `ppn`, if its PTB
    /// compresses.
    #[inline]
    fn word(&mut self, embed: &PtbEmbeddings, ppn: u64) -> Option<usize> {
        if ppn >= self.full {
            return None;
        }
        let first = ppn & !(ENTRIES_PER_TABLE - 1);
        let base = match self.cached {
            Some((cached, word)) if cached == first => word,
            _ => {
                let (block, slot) = self.page_table.leaf_pte(Ppn::new(first))?;
                let word = embed.position(block)? * PTES_PER_PTB + slot;
                self.cached = Some((first, word));
                word
            }
        };
        Some(base + (ppn - first) as usize)
    }
}

/// The shared two-level scheme.
pub struct TwoLevelScheme {
    toggles: TmccToggles,
    /// Per-page state, packed one word per page and indexed by the page's
    /// slot in the shared [`PageIndex`] — steady-state accesses derive a
    /// [`PageId`] once per request and never hash (see
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
    /// `validate`'s map of the ML1 frames it has seen, kept between calls
    /// so that an audit of a warm scheme allocates nothing. Audit scratch,
    /// not simulated metadata: `metadata_heap_bytes` leaves it out.
    audit_frames: Cell<BitVec>,
}

impl TwoLevelScheme {
    /// Builds the scheme and performs initial placement.
    ///
    /// `budget_frames` 4 KiB frames of DRAM are available. Page-table
    /// pages are pinned into ML1 first; data pages (hottest first — their
    /// index order) fill ML1 until only the eviction reserve remains, and
    /// the rest are compressed into ML2. One streaming pass writes the
    /// state, each page's packed word and embedded CTE once, with no
    /// allocation per page or per ML2 super-chunk.
    ///
    /// # Errors
    ///
    /// [`TmccError::InfeasibleBudget`] when the budget cannot hold the
    /// workload even with every overflow page compressed into ML2 (see
    /// [`min_budget_frames`](Self::min_budget_frames) to pick feasible
    /// budgets), [`TmccError::TableRegionOverlap`] when the data pages
    /// reach into the page table's region, and [`TmccError::ScaleLimit`]
    /// when the budget exceeds the 2^28 frames a CTE's 28-bit frame field
    /// names.
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
        if u64::from(budget_frames) > MAX_FRAMES {
            return Err(frame_limit_error(budget_frames.into()));
        }
        let budget = u64::from(budget_frames);
        let table_pages = page_table.table_page_count() as u64;
        let infeasible = |required_frames, stage| TmccError::InfeasibleBudget {
            budget_frames: budget,
            required_frames,
            stage,
        };
        if budget < table_pages {
            return Err(infeasible(table_pages, "page-table pinning"));
        }
        let (evict_lo, evict_hi, evict_crit) = watermarks(budget_frames);
        let ml2 = Ml2FreeLists::paper_classes();
        let placements = ml2_placements(&size_model, &ml2);
        // Choose the split point k so that pages 0..k live in ML1 and k..
        // fit into ML2 within the budget left after pinning, plus the
        // eviction reserve. The candidate k runs from data_pages down to 0
        // while the suffix sum of class-rounded ML2 sizes accumulates in
        // lockstep, so the search streams in O(1) extra space — no
        // per-page arrays, which would dominate host memory at TB-scale
        // footprints.
        let avail = budget - table_pages;
        let reserve = evict_hi as u64 + 8;
        // ML2 bytes needed if pages k.. go to ML2 (the suffix sum at the
        // loop variable's current value).
        let mut suffix_bytes = 0u64;
        let mut split = None;
        for k in (0..=data_pages).rev() {
            if k + ml2_frames(suffix_bytes) + reserve <= avail {
                split = Some(k);
                break;
            }
            if k > 0 {
                suffix_bytes += placements[size_model.sample_of(k - 1, 0)].rounded;
            }
        }
        // When no k fits, the loop ran to k = 0, so `suffix_bytes` holds
        // the all-ML2 total for the error report.
        let ml2_needed = ml2_frames(suffix_bytes);
        let split = split.ok_or_else(|| {
            infeasible(table_pages + ml2_needed + reserve, "ML1/ML2 data placement")
        })?;
        let mut index = PageIndex::default();
        index.push(0..data_pages);
        index.push(page_table.table_ppns());
        let mut s = Self {
            toggles,
            pages: PageMetaStore::with_pages(index),
            ml1_free: Ml1FreeList::with_chunks(budget_frames),
            ml2,
            recency: RecencyList::with_chain(seed, recency_sample, split, data_pages),
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
            evict_hi,
            evict_crit,
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
            audit_frames: Cell::default(),
        };
        s.place_pages(page_table, data_pages, split, &placements);
        Ok(s)
    }

    /// Initial placement in one streaming pass (§VI: "warm up ML1, ML2,
    /// and embedded CTEs in compressed PTBs"). Every frame comes from the
    /// budget's fresh run in order: the page-table pages are pinned to
    /// the first ones, then the data pages go coldest (highest index)
    /// first — pages `split..` into ML2 sub-chunks of super-chunks carved
    /// one after another, pages `..split` into one run of ML1 frames. So
    /// each page's state is arithmetic on the pass's running position:
    /// the pass writes its packed word and, in a compressed leaf PTB, its
    /// embedded CTE, and allocates nothing per page or super-chunk. It
    /// builds exactly what placing page by page through
    /// [`Ml2FreeLists::try_allocate`] and [`RecencyList::insert_hot`]
    /// builds.
    ///
    /// The caller has checked that the budget covers the table and the
    /// split: `split` ML1 frames plus ML2's class-rounded bytes with 3 %
    /// slack, plus an eviction reserve of at least 44 frames. A full
    /// super-chunk of the paper's classes wastes nothing, and the classes'
    /// open super-chunks take at most 27 frames beyond their pages' bytes
    /// (`open_super_chunks_fit_in_the_smallest_reserve`), so placement
    /// cannot run short.
    fn place_pages(
        &mut self,
        page_table: &PageTable,
        data_pages: u64,
        split: u64,
        placements: &[Ml2Placement],
    ) {
        let table_frames = self.ml1_free.take_fresh(page_table.table_page_count() as u32);
        let table_frames = table_frames.expect("the budget covers the page table");
        for (ppn, frame) in page_table.table_ppns().zip(table_frames) {
            self.pages.set_initial(ppn, Placement::Ml1 { frame }, true);
        }
        // With 4 KiB pages the leaf PTBs map the data pages one by one,
        // and the pass embeds each page's CTE as it places the page.
        let mut leaf_words = LeafWords::new(page_table, self.toggles.embedded_ctes);
        for first in (0..leaf_words.full).step_by(PTES_PER_PTB) {
            if let Some(word) = leaf_words.word(&self.ptb_embed, first) {
                self.ptb_embed.mark_compressed(word / PTES_PER_PTB);
            }
        }
        let ml2_pages = (split..data_pages).rev().map(|idx| {
            let Ml2Placement { class, comp, .. } = placements[self.size_model.sample_of(idx, 0)];
            (class, (idx, comp))
        });
        let (pages, embed) = (&mut self.pages, &mut self.ptb_embed);
        let placed =
            self.ml2.place_fresh(&mut self.ml1_free, ml2_pages, |(idx, comp), sub, frame| {
                pages.set_initial(idx, Placement::Ml2 { sub, comp_bytes: comp }, false);
                if let Some(word) = leaf_words.word(embed, idx) {
                    embed.embed(word, frame);
                }
            });
        assert!(placed, "ML2's open super-chunks outgrew the split's reserve of ≥ 44 frames");
        let frames = self.ml1_free.take_fresh(split as u32).expect("the split leaves ML1 room");
        for (idx, frame) in (0..split).rev().zip(frames) {
            self.pages.set_initial(idx, Placement::Ml1 { frame }, false);
            if let Some(word) = leaf_words.word(&self.ptb_embed, idx) {
                self.ptb_embed.embed(word, frame);
            }
        }
        // The PTBs the pass did not stream: a few per GiB above the 4 KiB
        // leaves, and every level with 2 MiB pages.
        if self.toggles.embedded_ctes {
            let streamed = page_table.leaf_level() == 1;
            for level in page_table.leaf_level() + u8::from(streamed)..=4 {
                for (block, ptb) in page_table.ptbs_at_level(level) {
                    self.refresh_ptb_embedding(block, &ptb, PtbGeometry::paper_default());
                }
            }
        }
    }

    /// Smallest feasible budget (in frames) for a workload: the page
    /// table pinned uncompressed, every data page in ML2, plus the
    /// eviction reserve.
    pub fn min_budget_frames(size_model: &SizeModel, table_pages: u64, data_pages: u64) -> u64 {
        let placements = ml2_placements(size_model, &Ml2FreeLists::paper_classes());
        let ml2_bytes: u64 =
            (0..data_pages).map(|idx| placements[size_model.sample_of(idx, 0)].rounded).sum();
        let reserve = ((table_pages + data_pages) / 40).max(64);
        table_pages + ml2_frames(ml2_bytes) + reserve + 8
    }

    /// Outstanding reclaim debt in frames (non-zero only after a budget
    /// shrink larger than the free list).
    pub fn reclaim_debt(&self) -> u64 {
        self.reclaim_debt
    }

    /// Derives the frame of a page's CTE from its placement: what a
    /// compressed PTB embeds and what the MC verifies an embedding
    /// against. The level and the `isIncompressible` bit live in the
    /// placement word itself.
    fn cte_of(&self, info: &PageInfo) -> Result<TruncatedCte, TmccError> {
        let frame = match info.place {
            Placement::Ml1 { frame } => frame,
            Placement::Ml2 { sub, .. } => (self.ml2.try_addr_of(sub)? / PAGE_SIZE as u64) as u32,
        };
        Ok(TruncatedCte::new(frame))
    }

    /// Re-encodes the PTB at `block`: when it compresses, embeds the CTE of
    /// every present PTE in the slots the geometry has room for.
    fn refresh_ptb_embedding(&mut self, block: BlockAddr, ptb: &PageTableBlock, g: PtbGeometry) {
        let Some(pos) = self.ptb_embed.position(block) else {
            return;
        };
        if g.check(ptb).is_err() {
            self.ptb_embed.store(pos, None);
            return;
        }
        let mut slots = [None; PTES_PER_PTB];
        for (i, slot) in slots.iter_mut().enumerate().take(g.embeddable_ctes()) {
            let pte = ptb.entry(i);
            if !pte.is_present() {
                continue;
            }
            if let Ok(id) = self.page_id(pte.ppn()) {
                *slot = self.cte_of(&self.pages.get_id(id)).ok();
            }
        }
        self.ptb_embed.store(pos, Some(slots));
    }

    /// Re-derives the eviction watermarks after the budget changed.
    fn rescale_watermarks(&mut self) {
        (self.evict_lo, self.evict_hi, self.evict_crit) = watermarks(self.total_frames);
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

    /// The handle of a request's page, the scheme's one page lookup that
    /// can fail; the per-access paths below reuse it for every state
    /// lookup.
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
        let info = self.pages.get_id(id);
        let in_ml1 = matches!(info.place, Placement::Ml1 { .. });
        let addr = self.data_addr(&info, req)?;
        // A miss installs the line: the MC caches every CTE it fetches
        // (§VII).
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
                    if embedded == correct && !forced_stale {
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
                        self.repair_embedding(req.ppn, correct);
                        dram.access(both, DramAddr::new(addr), req.write)
                    }
                }
                None => {
                    // No embedded CTE: serial, as in prior work (Fig. 8a).
                    if count_stats && in_ml1 {
                        stats.ml1_serial = stats.ml1_serial.saturating_add(1);
                    }
                    self.repair_embedding(req.ppn, correct);
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
        let info = self.pages.get_id(id);
        let (sub, comp_bytes) = match info.place {
            Placement::Ml2 { sub, comp_bytes } => (sub, comp_bytes as usize),
            Placement::Ml1 { .. } => {
                return Err(TmccError::InvariantViolation {
                    detail: format!("serve_ml2 called for ML1-resident page {:#x}", req.ppn.raw()),
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
            self.pages.set_place(id, Placement::Ml1 { frame });
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

    /// The checks [`Scheme::validate`] makes, with `frames_seen` as the
    /// scratch map of ML1 frames (reset here, so its storage is reused).
    fn audit_placement(&self, frames_seen: &mut BitVec) -> Result<(), TmccError> {
        // The CTE is derived from the placement (see `cte_of`), so the
        // old CTE↔placement lockstep checks hold by construction; what
        // remains auditable is the placement itself.
        let mut ml1_resident = 0usize;
        frames_seen.reset(self.next_frame_id as usize);
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
        let id = self.page_id(req.ppn)?;
        let info = self.pages.get_id(id);
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
        let Ok(id) = self.page_id(req.ppn) else {
            return Ok(());
        };
        let info = self.pages.get_id(id);
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
                if self.rng.gen::<f64>() < DIRTY_REDRAW_PROBABILITY {
                    self.pages.bump_dirty_epoch(id);
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
            let vid = self.page_id(victim)?;
            let info = self.pages.get_id(vid);
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
                self.pages.set_incompressible(vid, true);
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
            self.pages.set_place(vid, Placement::Ml2 { sub, comp_bytes: stored_bytes as u32 });
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
                let minted = u64::from(self.next_frame_id) + u64::from(frames - pay);
                if minted > MAX_FRAMES {
                    return Err(frame_limit_error(minted));
                }
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
                let mut out = Vec::with_capacity(PAGE_SIZE);
                let verdict = codec.try_decompress_sealed(&comp, &seal, 0, &mut out);
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
        let mut frames_seen = self.audit_frames.take();
        let audit = self.audit_placement(&mut frames_seen);
        self.audit_frames.set(frames_seen);
        audit
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
        let cte_table = self.pages.len() as u64 * CTE_BYTES;
        let recency = RecencyList::dram_overhead_bytes(self.pages.len() as u64);
        frames_in_use * PAGE_SIZE as u64 + cte_table + recency
    }

    fn metadata_heap_bytes(&self) -> usize {
        self.pages.heap_bytes()
            + self.ml1_free.heap_bytes()
            + self.ml2.heap_bytes()
            + self.recency.heap_bytes()
            + self.cte_cache.heap_bytes()
            + self.cte_buffer.heap_bytes()
            + self.ptb_embed.heap_bytes()
            + self.migration_buffer.capacity() * std::mem::size_of::<f64>()
            + self.evicted_pages.capacity() * std::mem::size_of::<Ppn>()
            + self.size_model.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::free_list::SubChunk;
    use crate::size_model::PageSizes;
    use tmcc_sim_dram::InterleavePolicy;
    use tmcc_sim_mem::page_table::WalkStep;
    use tmcc_sim_mem::PageTableConfig;
    use tmcc_types::addr::Vpn;

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

    fn place_of(s: &TwoLevelScheme, ppn: u64) -> Placement {
        s.pages.get_id(s.pages.id_of(ppn).expect("a placed page")).place
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
        s.pages.set_place(id, Placement::Ml1 { frame: new_frame });
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
        s.pages.set_place(id, Placement::Ml1 { frame: new_frame });
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
        // With 3003 pages the leaf PTB of pages 3000..3008 holds three
        // present PTEs and five non-present ones. Its status bits are not
        // uniform, so it keeps the uncompressed encoding and embeds no CTEs.
        let (mut s, pt) = build(TmccToggles::full(), 3003, 4000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let (step, ptb) = leaf_ptb(&pt, 3001);
        assert!(!ptb.uniform_status());
        let pos = s.ptb_embed.position(step.ptb_block).unwrap();
        assert!(!s.ptb_embed.compressed.get(pos));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        // Serial access; the verified CTE reconciles into the buffer entry,
        // but there is no embedding to repair.
        let _ = s.access(&read_req(3001, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml1_serial, 1, "{stats:?}");
        assert!(!s.ptb_embed.compressed.get(pos));
        assert!(s.ptb_embed.ctes(pos).all(|cte| cte.is_none()));
        // A fresh harvest still offers no CTE for the page.
        s.cte_cache.invalidate(Ppn::new(3001));
        s.on_ptb_fetched(step.ptb_block, &ptb);
        assert_eq!(s.cte_buffer.lookup(Ppn::new(3001)).unwrap().cte, None);
        let _ = s.access(&read_req(3001, true), 1_000_000.0, &mut d, &mut stats).unwrap();
        assert_eq!((stats.ml1_serial, stats.ml1_parallel_correct), (2, 0), "{stats:?}");
    }

    #[test]
    fn embed_respects_capacity() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let (step, ptb) = leaf_ptb(&pt, 5);
        let pos = s.ptb_embed.position(step.ptb_block).unwrap();
        assert!(s.ptb_embed.ctes(pos).all(|cte| cte.is_some()), "1 TiB per MC: 8 slots");
        // 16 TiB per MC leaves room for only 6 CTEs: the last two PTEs of a
        // compressed PTB get none (§V-A5).
        s.refresh_ptb_embedding(step.ptb_block, &ptb, PtbGeometry::from_capacities(1 << 44, 4.0));
        assert!(s.ptb_embed.compressed.get(pos));
        let present: Vec<bool> = s.ptb_embed.ctes(pos).map(|cte| cte.is_some()).collect();
        assert_eq!(present, [true, true, true, true, true, true, false, false]);
    }

    /// The §V-A3 verify is the only check on an embedded CTE: every
    /// single-bit upset of the stored word must cost exactly one slow
    /// path, never a parallel access at the wrong frame, and the lazy
    /// repair must restore the word.
    #[test]
    fn verify_catches_every_corrupted_embedding() {
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let mut d = dram();
        let mut stats = SimStats::default();
        let (step, ptb) = leaf_ptb(&pt, 5);
        s.on_ptb_fetched(step.ptb_block, &ptb);
        let word = s.ptb_embed.position(step.ptb_block).unwrap() * PTES_PER_PTB + step.slot;
        let clean = s.ptb_embed.words[word];
        assert_ne!(clean & EMBED_PRESENT, 0, "page 5's CTE is embedded");
        let mut now = 0.0;
        // The 28 frame bits and the present bit; bits 28..31 are unused.
        for bit in (0..TruncatedCte::BITS).chain([31]) {
            s.ptb_embed.words[word] ^= 1 << bit;
            s.cte_cache.invalidate(Ppn::new(5));
            s.on_ptb_fetched(step.ptb_block, &ptb);
            let before = (stats.ml1_parallel_mismatch, stats.ml1_serial);
            let _ = s.access(&read_req(5, true), now, &mut d, &mut stats).unwrap();
            now += 1_000_000.0;
            let want = if bit == 31 { (before.0, before.1 + 1) } else { (before.0 + 1, before.1) };
            assert_eq!((stats.ml1_parallel_mismatch, stats.ml1_serial), want, "bit {bit}");
            assert_eq!(stats.ml1_parallel_correct, 0, "bit {bit}: {stats:?}");
            assert_eq!(s.ptb_embed.words[word], clean, "bit {bit}: the repair restores the word");
        }
        assert_eq!((stats.ml1_parallel_mismatch, stats.ml1_serial), (28, 1));
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
    fn pages_in_neither_run_are_unplaced() {
        // Past the data pages, below the table region and past its end: an
        // LLC miss fails with `UnplacedPage`, a writeback changes nothing.
        let (mut s, pt) = build(TmccToggles::full(), 3000, 2000);
        let table = pt.table_ppns();
        let (mut d, mut stats) = (dram(), SimStats::default());
        for ppn in [3000, table.start - 1, table.end, table.end + (1 << 32)] {
            let err = s.access(&read_req(ppn, true), 0.0, &mut d, &mut stats);
            assert_eq!(err, Err(TmccError::UnplacedPage { ppn }));
            let before = (stats, d.stats(), s.rng.clone().gen::<u64>());
            let wb = MemRequest { write: true, ..read_req(ppn, false) };
            assert_eq!(s.writeback(&wb, 0.0, &mut d, &mut stats), Ok(()));
            assert_eq!((stats, d.stats(), s.rng.clone().gen::<u64>()), before, "{ppn:#x}");
        }
        assert_eq!(stats, SimStats::default());
        s.validate().unwrap();
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
            .find(|&i| matches!(place_of(&s, i), Placement::Ml2 { .. }))
            .expect("an ML2 page exists");
        let lat = s.access(&read_req(victim, true), 0.0, &mut d, &mut stats).unwrap();
        assert_eq!(stats.ml2_reads, 1);
        assert_eq!(stats.ml2_to_ml1_migrations, 1);
        assert!(matches!(place_of(&s, victim), Placement::Ml1 { .. }), "page must now be in ML1");
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
                .find(|&i| matches!(place_of(&s, i), Placement::Ml2 { .. }))
                .expect("ml2 page");
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
        assert!(s.pressure().degraded, "shock must enter degraded mode");
        assert!(s.reclaim_debt() > 0, "free list cannot cover the shrink");
        let mut now = 1_000.0;
        for _ in 0..400 {
            s.maintain(now, &mut d, &mut stats).unwrap();
            s.validate().unwrap();
            now += 1_000.0;
            if !s.pressure().degraded {
                break;
            }
        }
        assert!(!s.pressure().degraded, "pressure must eventually pass: {stats:?}");
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
    fn budget_past_the_cte_frame_limit_is_a_typed_error() {
        let pt = identity_table(100);
        let over = build_on(TmccToggles::full(), &pt, 100, (1 << 28) + 1).map(|_| ()).unwrap_err();
        assert_eq!(over, frame_limit_error((1 << 28) + 1));
        // Growth that would mint a frame a CTE cannot name is refused and
        // leaves the budget as it was.
        let mut s = build_on(TmccToggles::full(), &pt, 100, (1 << 28) - 4).unwrap();
        let mut stats = SimStats::default();
        let err = s.apply_fault(FaultKind::GrowBudget { frames: 8 }, 0.0, &mut stats).unwrap_err();
        assert_eq!(err, frame_limit_error((1 << 28) + 4));
        assert_eq!((s.total_frames, s.next_frame_id), ((1 << 28) - 4, (1 << 28) - 4));
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn incompressible_pages_stay_and_are_flagged() {
        let pt = identity_table(500);
        let model = SizeModel::from_samples(vec![PageSizes {
            deflate_bytes: 4099, // cannot fit any ML2 class
            block_bytes: 4096,
        }]);
        let mut s = TwoLevelScheme::try_new(
            TmccToggles::full(),
            CteCacheConfig::tmcc(),
            model,
            &pt,
            500,
            600,
            7,
            0.15,
        )
        .expect("feasible budget");
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

    /// Initial placement the way it was built before the streaming pass,
    /// page by page through `Ml1FreeList::pop`, `Ml2FreeLists::try_allocate`
    /// and `RecencyList::insert_hot`, each page's word written as it is
    /// placed into a store sized up front, then the embeddings warmed PTB
    /// by PTB: the oracle `try_new` must match.
    fn reference_new(
        toggles: TmccToggles,
        size_model: SizeModel,
        page_table: &PageTable,
        data_pages: u64,
        budget_frames: u32,
        seed: u64,
    ) -> Result<TwoLevelScheme, TmccError> {
        let evict_lo = ((budget_frames as usize) / 64).max(24);
        let mut index = PageIndex::default();
        index.push(0..data_pages);
        index.push(page_table.table_ppns());
        let mut s = TwoLevelScheme {
            toggles,
            pages: PageMetaStore::with_pages(index),
            ml1_free: Ml1FreeList::with_chunks(budget_frames),
            ml2: Ml2FreeLists::paper_classes(),
            recency: RecencyList::with_chain(seed, 0.15, 0, data_pages),
            cte_cache: CteCache::new(CteCacheConfig::tmcc()),
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
            audit_frames: Cell::default(),
        };
        let infeasible = |required_frames, stage| TmccError::InfeasibleBudget {
            budget_frames: budget_frames.into(),
            required_frames,
            stage,
        };
        let table_pages = page_table.table_page_count() as u64;
        for ppn in page_table.table_ppns() {
            let frame = s.ml1_free.pop().ok_or(infeasible(table_pages, "page-table pinning"))?;
            s.pages.set_initial(ppn, Placement::Ml1 { frame }, true);
        }
        let avail = s.ml1_free.len() as u64;
        let reserve = s.evict_hi as u64 + 8;
        let mut suffix_bytes = 0u64;
        let mut split = None;
        for k in (0..=data_pages).rev() {
            let ml2_frames = (suffix_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64);
            if k + ml2_frames + reserve <= avail {
                split = Some(k);
                break;
            }
            if k > 0 {
                let comp = s.size_model.sizes_of(k - 1, 0).deflate_bytes.min(PAGE_SIZE);
                let class = s.ml2.class_for(comp);
                suffix_bytes += class.map(|c| s.ml2.class_size(c) as u64).unwrap_or(4096);
            }
        }
        let ml2_frames = (suffix_bytes * 103 / 100).div_ceil(PAGE_SIZE as u64);
        let all_ml2 = table_pages + ml2_frames + reserve;
        let split = split.ok_or(infeasible(all_ml2, "ML1/ML2 data placement"))?;
        for idx in (0..data_pages).rev() {
            let place = if idx < split {
                let ml1 = table_pages + split + reserve;
                let frame = s.ml1_free.pop().ok_or(infeasible(ml1, "ML1 fill"))?;
                s.recency.insert_hot(Ppn::new(idx));
                Placement::Ml1 { frame }
            } else {
                let comp = s.size_model.sizes_of(idx, 0).deflate_bytes.min(PAGE_SIZE);
                let ml2 = table_pages + split + ml2_frames + reserve;
                let sub = s
                    .ml2
                    .try_allocate(comp, &mut s.ml1_free)
                    .map_err(|_| infeasible(ml2, "ML2 placement"))?;
                Placement::Ml2 { sub, comp_bytes: comp as u32 }
            };
            s.pages.set_initial(idx, place, false);
        }
        if toggles.embedded_ctes {
            for (block, ptb) in page_table.ptbs() {
                s.refresh_ptb_embedding(block, &ptb, PtbGeometry::paper_default());
            }
        }
        Ok(s)
    }

    /// A splitmix step: the oracle's own deterministic draws.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Builds one configuration both ways and asserts the two states, a
    /// harvest of every PTB and the next 200 free-list and recency-list
    /// operations agree.
    fn check_against_reference(
        data_pages: u64,
        samples: Vec<PageSizes>,
        toggles: TmccToggles,
        huge_pages: bool,
        budget_pick: u64,
        seed: u64,
    ) {
        let cfg = PageTableConfig { huge_pages, ..Default::default() };
        let pt = PageTable::identity(cfg, data_pages);
        let model = SizeModel::from_samples(samples);
        let table_pages = pt.table_page_count() as u64;
        let min = TwoLevelScheme::min_budget_frames(&model, table_pages, data_pages);
        let unbudgeted = data_pages + table_pages + 512;
        // Below the minimum a quarter of the time, else up to unbudgeted.
        let budget = match budget_pick % 4 {
            0 => budget_pick / 4 % min,
            _ => min + budget_pick / 4 % (unbudgeted.max(min) - min + 1),
        } as u32;
        let case = format!("{data_pages} pages, budget {budget} (min {min}), huge {huge_pages}");
        let built = TwoLevelScheme::try_new(
            toggles,
            CteCacheConfig::tmcc(),
            model.clone(),
            &pt,
            data_pages,
            budget,
            seed,
            0.15,
        );
        let reference = reference_new(toggles, model, &pt, data_pages, budget, seed);
        let (mut a, mut b) = match (built, reference) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                assert_eq!(a.map(|_| ()), b.map(|_| ()), "{case}");
                return;
            }
        };
        assert_eq!(a.pages, b.pages, "{case}");
        assert!(a.pages.iter().eq(b.pages.iter()), "{case}: page infos differ");
        assert_eq!(a.ml1_free, b.ml1_free, "{case}");
        assert_eq!(a.ml2, b.ml2, "{case}");
        assert_eq!(a.ptb_embed.words, b.ptb_embed.words, "{case}");
        assert_eq!(a.ptb_embed.compressed, b.ptb_embed.compressed, "{case}");
        assert_eq!(a.recency.len(), b.recency.len(), "{case}");
        assert_eq!(a.recency.cold_to_hot(), b.recency.cold_to_hot(), "{case}");
        a.validate().unwrap();
        for (block, ptb) in pt.ptbs() {
            a.on_ptb_fetched(block, &ptb);
            b.on_ptb_fetched(block, &ptb);
            assert_eq!(a.cte_buffer, b.cte_buffer, "{case}: harvest of {block:?}");
        }
        // The operations below drive the free lists and the recency list
        // on their own, so the pages' words go stale; only the structures
        // are compared from here on.
        let mut live: Vec<SubChunk> = (a.pages.iter())
            .filter_map(|(_, info)| match info.place {
                Placement::Ml2 { sub, .. } => Some(sub),
                Placement::Ml1 { .. } => None,
            })
            .collect();
        let mut freed = Vec::new();
        let mut state = seed;
        for step in 0..200 {
            let draw = mix(&mut state);
            match draw % 4 {
                0 => {
                    let bytes = 1 + (draw >> 8) as usize % 4200;
                    let got = a.ml2.try_allocate(bytes, &mut a.ml1_free);
                    assert_eq!(got, b.ml2.try_allocate(bytes, &mut b.ml1_free), "{case}: {step}");
                    live.extend(got.ok());
                }
                1 if !live.is_empty() => {
                    let sub = live.swap_remove((draw >> 8) as usize % live.len());
                    let got = a.ml2.try_free(sub, &mut a.ml1_free);
                    assert_eq!(got, b.ml2.try_free(sub, &mut b.ml1_free), "{case}: {step}");
                    freed.push(sub);
                }
                1 => {
                    // A double free, once every live sub-chunk is gone.
                    if let Some(&sub) = freed.last() {
                        let got = a.ml2.try_free(sub, &mut a.ml1_free);
                        assert_eq!(got, b.ml2.try_free(sub, &mut b.ml1_free), "{case}: {step}");
                    }
                }
                _ => assert_eq!(a.recency.pop_coldest(), b.recency.pop_coldest(), "{case}"),
            }
            for &sub in live.iter().rev().take(2) {
                assert_eq!(a.ml2.try_addr_of(sub), b.ml2.try_addr_of(sub), "{case}: {step}");
            }
        }
        assert_eq!(a.ml1_free, b.ml1_free, "{case}");
        assert_eq!(a.ml2, b.ml2, "{case}");
        assert_eq!(a.recency.cold_to_hot(), b.recency.cold_to_hot(), "{case}");
    }

    /// Draws a 1- to 16-sample size model, some samples incompressible.
    fn samples_from(state: &mut u64) -> Vec<PageSizes> {
        let n = 1 + mix(state) as usize % 16;
        (0..n)
            .map(|_| {
                let draw = mix(state);
                let deflate_bytes = 1 + draw as usize % 4200;
                PageSizes { deflate_bytes, block_bytes: 1 + (draw >> 20) as usize % 4096 }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The streaming construction builds exactly the page-by-page
        /// state, errors included.
        #[test]
        fn construction_matches_page_by_page_placement(
            pick in 0usize..16,
            random_pages in 0u64..(1 << 16),
            budget_pick in proptest::prelude::any::<u64>(),
            toggles_pick in 0usize..3,
            huge_pages in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            const EDGES: [u64; 8] = [0, 1, 7, 8, 511, 512, 513, 4096];
            let data_pages = EDGES.get(pick).copied().unwrap_or(random_pages);
            let toggles = [TmccToggles::full(), TmccToggles::none(), TmccToggles::ml1_only()];
            let mut state = seed;
            let samples = samples_from(&mut state);
            check_against_reference(
                data_pages,
                samples,
                toggles[toggles_pick],
                huge_pages,
                budget_pick,
                seed,
            );
        }
    }

    #[test]
    fn construction_fails_at_the_same_stage_as_page_by_page_placement() {
        // Every budget up to and past feasibility, with pages in classes
        // whose super-chunks span 3 to 7 frames, so a few pages of each
        // leave their super-chunks mostly empty. That waste stays within
        // the split's eviction reserve (at least 44 frames, against at
        // most 20 left empty across the classes' open super-chunks), so
        // placement itself never runs short: budgets fail at pinning or
        // at the split, the same way in both builders.
        let sizes = [700, 1200, 1700, 2500];
        let samples = sizes.map(|deflate_bytes| PageSizes { deflate_bytes, block_bytes: 4096 });
        let mut stages = std::collections::BTreeSet::new();
        for data_pages in [4, 30, 300] {
            for budget in 0..data_pages as u32 + 200 {
                let pt = identity_table(data_pages);
                let model = SizeModel::from_samples(samples.to_vec());
                let toggles = TmccToggles::full();
                let cte = CteCacheConfig::tmcc();
                let built = TwoLevelScheme::try_new(
                    toggles,
                    cte,
                    model.clone(),
                    &pt,
                    data_pages,
                    budget,
                    5,
                    0.15,
                );
                let reference = reference_new(toggles, model, &pt, data_pages, budget, 5);
                match (built, reference) {
                    (Ok(_), Ok(_)) => {}
                    (a, b) => {
                        let (a, b) = (a.map(|_| ()).unwrap_err(), b.map(|_| ()).unwrap_err());
                        assert_eq!(a, b, "{data_pages} pages, budget {budget}");
                        if let TmccError::InfeasibleBudget { stage, .. } = a {
                            stages.insert(stage);
                        }
                    }
                }
            }
        }
        let want = ["ML1/ML2 data placement", "page-table pinning"];
        assert_eq!(stages.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn open_super_chunks_fit_in_the_smallest_reserve() {
        // Why `place_pages` cannot run short: the split reserves
        // `evict_hi + 8` frames, at least 44, beyond ML2's class-rounded
        // bytes plus 3 %. Each paper class fills its super-chunks exactly,
        // so only the classes' open super-chunks take frames beyond their
        // pages' bytes, the most when each holds a single page.
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut open_bytes = 0;
        let mut empty_frames = 0;
        for class in 0..ml2.classes() {
            let (m, n) = ml2.geometry(class);
            let size = ml2.class_size(class);
            assert_eq!(m * PAGE_SIZE, n * size, "class {size}: a full super-chunk wastes bytes");
            open_bytes += m * PAGE_SIZE - size;
            empty_frames += (m * PAGE_SIZE - size) / PAGE_SIZE;
        }
        assert_eq!(empty_frames, 20, "frames the open super-chunks can leave wholly empty");
        let beyond = open_bytes.div_ceil(PAGE_SIZE);
        assert_eq!(beyond, 27, "frames the open super-chunks take beyond their pages' bytes");
        let smallest_evict_lo = 24;
        assert!(beyond < smallest_evict_lo + smallest_evict_lo / 2 + 8);

        // The worst case, built: one page in every class fits in its
        // bytes' frames plus that bound.
        let bytes: usize = (0..ml2.classes()).map(|c| ml2.class_size(c)).sum();
        let mut ml1 = Ml1FreeList::with_chunks((bytes.div_ceil(PAGE_SIZE) + beyond) as u32);
        let one_each = (0..ml2.classes()).map(|class| (class, ()));
        assert!(ml2.place_fresh(&mut ml1, one_each, |(), _, _| {}));
    }

    #[test]
    fn construction_matches_at_every_budget_edge() {
        // Each table-boundary count at the minimum, one frame below it,
        // and unbudgeted, with the 4 KiB table streamed and the 2 MiB one
        // warmed PTB by PTB.
        let mut state = 3;
        for data_pages in [0, 1, 7, 8, 511, 512, 513, 4096, 20_000] {
            let samples = samples_from(&mut state);
            for huge_pages in [false, true] {
                for budget_pick in [0, 1, 4, 5, 8 * (1 << 20) + 1] {
                    check_against_reference(
                        data_pages,
                        samples.clone(),
                        TmccToggles::full(),
                        huge_pages,
                        budget_pick,
                        state,
                    );
                }
            }
        }
    }

    /// A record-like page that compresses to a Huffman-coded payload, so
    /// every flip shape lands in stored payload bits.
    fn divergent_page() -> Vec<u8> {
        b"key=value; next=0x7fffaa00; flags=rw-; count=0001732; "
            .iter()
            .copied()
            .cycle()
            .take(PAGE_SIZE)
            .collect()
    }

    /// Lands one ML2-payload upset of `shape` on a dirty (divergent) page.
    fn flip_dirty_page(s: &mut TwoLevelScheme, page: &[u8], shape: FlipShape) -> SimStats {
        let mut stats = SimStats::default();
        let flip = BitFlip { target: FlipTarget::Ml2Payload, shape };
        let ctx = FlipPageContext { ppn: Ppn::new(3), bytes: page, dirty: true };
        s.apply_bit_flip(flip, 0x5EED_1234_ABCD, Some(ctx), 0.0, &mut stats).unwrap();
        assert_eq!((stats.flips_injected, stats.corruptions_detected), (1, 1), "{shape:?}");
        assert_eq!(stats.sdc_escapes, 0, "{shape:?}");
        stats
    }

    #[test]
    fn dirty_payload_flips_are_restored_from_the_raw_copy() {
        let page = divergent_page();
        let payload_bits = MemDeflate::default().compress_page(&page).payload().len() * 8;
        for shape in [FlipShape::Single, FlipShape::Burst] {
            let (mut s, _pt) = build(TmccToggles::full(), 2000, 1200);
            let frames = s.total_frames;
            let stats = flip_dirty_page(&mut s, &page, shape);
            // Regeneration cannot restore a divergent page: the raw copy
            // does, one plain 4 KiB read after the failed decode.
            assert_eq!((stats.corruptions_corrected, stats.raw_fallbacks), (1, 1), "{shape:?}");
            assert_eq!((stats.corruptions_uncorrectable, stats.frames_poisoned), (0, 0));
            let detect = s.timing.decompress_latency(payload_bits, PAGE_SIZE).ns;
            let raw_copy = s.timing.decompress_latency(PAGE_SIZE * 8, PAGE_SIZE).ns;
            assert_eq!(stats.recovery_ns, detect + raw_copy, "{shape:?}");
            assert_eq!(s.total_frames, frames, "no frame leaves service");
            s.validate().expect("a corrected upset leaves the books intact");
        }
    }

    #[test]
    fn rowhammer_on_a_dirty_page_poisons_one_frame() {
        let (mut s, _pt) = build(TmccToggles::full(), 2000, 1200);
        let frames = s.total_frames;
        let stats = flip_dirty_page(&mut s, &divergent_page(), FlipShape::RowHammer);
        // The raw copy sits in the same blast radius: nothing
        // authoritative remains, so the frame leaves service.
        assert_eq!((stats.corruptions_uncorrectable, stats.frames_poisoned), (1, 1));
        assert_eq!((stats.corruptions_corrected, stats.raw_fallbacks), (0, 0));
        assert_eq!(s.total_frames, frames - 1);
        s.validate().expect("a poisoned frame keeps frame conservation");
    }
}
