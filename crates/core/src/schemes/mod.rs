//! Memory-controller scheme models.
//!
//! A [`Scheme`] is everything behind the LLC↔MC interface: physical→DRAM
//! translation (CTEs + CTE cache), data placement (free lists, chunks,
//! ML1/ML2), migration, and the DRAM accesses those imply. The system
//! model calls into it on LLC misses, dirty writebacks and page-walker
//! PTB deliveries.

pub mod compresso;
pub mod nocomp;
pub mod two_level;

pub use compresso::CompressoScheme;
pub use nocomp::NoCompressionScheme;
pub use two_level::TwoLevelScheme;

use crate::config::{BitFlip, FaultKind, SchemeKind};
use crate::error::TmccError;
use crate::stats::SimStats;
use tmcc_sim_dram::DramSim;
use tmcc_types::addr::{BlockAddr, Ppn};
use tmcc_types::pte::PageTableBlock;

/// DRAM byte address of the CTE/metadata table region (kept disjoint from
/// data frames; the tables are small, §V-A6).
pub const CTE_TABLE_BASE: u64 = 1 << 40;

/// A cheap snapshot of a scheme's capacity-pressure state, polled by the
/// multi-tenant arbiter between scheduling rounds (see
/// [`crate::tenancy`]). Schemes without pressure machinery report the
/// default (healthy, no debt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemePressure {
    /// Whether the scheme is in degraded mode (free list below the
    /// critical watermark, or unpaid reclaim debt).
    pub degraded: bool,
    /// Frames owed to a balloon shrink that have not been reclaimed yet.
    pub reclaim_debt_frames: u64,
}

/// Page content handed to [`Scheme::apply_bit_flip`] for payload-targeted
/// flips: the real bytes (regenerated from the content seed or
/// host-resident) plus whether the page has diverged from its
/// deterministic source — a divergent page cannot be recovered by
/// regeneration, only from its raw-store copy, which bounds the ladder.
#[derive(Debug, Clone, Copy)]
pub struct FlipPageContext<'a> {
    /// The targeted physical page.
    pub ppn: Ppn,
    /// The page's current content (one full 4 KiB page).
    pub bytes: &'a [u8],
    /// Whether the content has diverged from the regenerable source.
    pub dirty: bool,
}

/// An LLC-miss request delivered to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical page of the missing block.
    pub ppn: Ppn,
    /// The missing 64 B block.
    pub block: BlockAddr,
    /// Whether the request is a store/writeback.
    pub write: bool,
    /// Whether the block is a page-table block fetched by the walker.
    pub is_ptb: bool,
    /// Whether this request is part of servicing a TLB miss (the walker's
    /// own fetches and the data access immediately after the walk) —
    /// drives the Fig. 5 statistic.
    pub after_tlb_miss: bool,
}

/// A memory-controller scheme.
///
/// The runtime methods are fallible: requests naming pages the scheme
/// never placed, exhausted free lists mid-maintenance, and corrupted
/// internal state surface as [`TmccError`] instead of panicking, so the
/// system model can abort a run with context (or a harness can record
/// the failure and move on).
///
/// `Send` is a supertrait: the multi-tenant scheduler moves whole tenant
/// [`System`](crate::System)s (scheme included) across worker threads
/// when it dispatches a round's quanta onto the work-stealing pool.
pub trait Scheme: Send {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// Services an LLC-miss read (or write-allocate). Returns the MC+DRAM
    /// service latency in ns (excluding the on-chip/NoC part, which the
    /// caller accounts).
    fn access(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<f64, TmccError>;

    /// Handles a dirty LLC writeback (background: consumes DRAM bandwidth
    /// but adds no latency to the instruction stream).
    fn writeback(
        &mut self,
        req: &MemRequest,
        now_ns: f64,
        dram: &mut DramSim,
        stats: &mut SimStats,
    ) -> Result<(), TmccError>;

    /// Notifies the scheme that the page walker fetched a PTB — TMCC
    /// harvests embedded CTEs into the CTE buffer here (§V-A3).
    fn on_ptb_fetched(&mut self, _block: BlockAddr, _ptb: &PageTableBlock) {}

    /// Periodic background maintenance (ML1 free-list replenishment via
    /// cold-page eviction, §VI; emergency bursts under critical pressure).
    fn maintain(
        &mut self,
        _now_ns: f64,
        _dram: &mut DramSim,
        _stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        Ok(())
    }

    /// Injects a runtime fault. Schemes without the relevant machinery
    /// treat faults as no-ops (a budget shock means nothing to the
    /// uncompressed baseline).
    fn apply_fault(
        &mut self,
        _fault: FaultKind,
        _now_ns: f64,
        _stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        Ok(())
    }

    /// Injects one memory upset from the configured
    /// [`BitFlipPlan`](crate::config::BitFlipPlan) and runs whatever
    /// detect/recover/poison ladder the scheme has over it, accounting
    /// the outcome into the corruption counters of [`SimStats`].
    ///
    /// `entropy` is a value drawn from the system's dedicated flip RNG
    /// (never the scheme's own, so flip-free runs draw zero numbers);
    /// every in-scheme placement decision must derive from it. `page`
    /// carries the targeted page's content for payload-targeted flips.
    ///
    /// The default implementation models a scheme with *no* integrity
    /// machinery: the upset lands as silent data corruption.
    fn apply_bit_flip(
        &mut self,
        _flip: BitFlip,
        _entropy: u64,
        _page: Option<FlipPageContext<'_>>,
        _now_ns: f64,
        stats: &mut SimStats,
    ) -> Result<(), TmccError> {
        stats.flips_injected = stats.flips_injected.saturating_add(1);
        stats.sdc_escapes = stats.sdc_escapes.saturating_add(1);
        Ok(())
    }

    /// Audits internal invariants (frame conservation, placement/CTE
    /// consistency). Cheap schemes with no internal state just return Ok.
    fn validate(&self) -> Result<(), TmccError> {
        Ok(())
    }

    /// Snapshot of the scheme's capacity-pressure state. Schemes without
    /// watermarks or reclaim debt are always healthy.
    fn pressure(&self) -> SchemePressure {
        SchemePressure::default()
    }

    /// DRAM bytes currently occupied by data + translation metadata.
    fn dram_used_bytes(&self) -> u64;

    /// *Host* heap bytes the scheme's metadata structures occupy — what
    /// the capacity/footprint experiments report per simulated GB.
    /// Schemes that don't track it report 0.
    fn metadata_heap_bytes(&self) -> usize {
        0
    }

    /// Appends the pages evicted to ML2 since the last call to `out`
    /// (caller-owned scratch, so the per-step poll allocates nothing). The
    /// system model flushes their blocks from the cache hierarchy
    /// (hardware collects a page's dirty lines when compressing it into
    /// ML2; leaving stale dirty lines behind would ping-pong the page
    /// straight back to ML1).
    fn drain_evicted_pages(&mut self, _out: &mut Vec<Ppn>) {}
}

/// Row-sized stride separating successive pages' translation entries in
/// the *simulated* DRAM address space.
///
/// In a full-scale system the CTE/metadata tables span gigabytes, so
/// demand-driven entry fetches see essentially no row-buffer locality. Our
/// scaled-down footprints would pack the whole table into a handful of
/// DRAM rows and make serial CTE fetches artificially cheap; spreading
/// entries at row granularity restores the full-scale behaviour. (The CTE
/// *cache* still operates on dense 64 B lines — this stride only affects
/// where a missing entry lands in DRAM.)
const TABLE_ROW_STRIDE: u64 = 8192;

/// DRAM address of the page-level CTE for `ppn` (8 B entries; see
/// [`TABLE_ROW_STRIDE`] for the placement rationale).
pub fn cte_dram_addr(ppn: Ppn) -> u64 {
    CTE_TABLE_BASE + (ppn.raw() / 8) * TABLE_ROW_STRIDE + (ppn.raw() % 8) * 8
}

/// DRAM address of the block-level metadata entry for `ppn` (64 B
/// entries, Compresso; one entry per simulated row, see
/// [`TABLE_ROW_STRIDE`]).
pub fn metadata_dram_addr(ppn: Ppn) -> u64 {
    CTE_TABLE_BASE + (1 << 38) + ppn.raw() * TABLE_ROW_STRIDE
}
