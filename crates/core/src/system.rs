//! The full-system model: workload → TLB/walker → caches → scheme → DRAM.
//!
//! Timing is serial latency accounting: each workload access advances
//! simulated time by its core work plus the latency of whatever the memory
//! system did for it; background traffic (writebacks, migrations) consumes
//! DRAM bus time — and therefore delays later accesses through bank/bus
//! contention — without adding latency of its own. This reproduces the
//! paper's *relative* performance effects (translation serialization,
//! decompression latency, migration pressure) without an out-of-order
//! core model; see DESIGN.md §8.
//!
//! # Fault injection and auditing
//!
//! A [`FaultPlan`](crate::config::FaultPlan) and a
//! [`BitFlipPlan`](crate::config::BitFlipPlan) on the configuration
//! schedule runtime shocks and memory upsets at absolute access counts
//! (warmup included); the system applies each event just before executing
//! that access, due faults before due flips.
//! `SystemConfig::with_audit` additionally runs the scheme's invariant
//! auditor after every maintenance interval, turning silent state
//! corruption into a typed [`TmccError::InvariantViolation`].

use crate::config::{BitFlip, FaultKind, FlipTarget, SchemeKind, SystemConfig};
use crate::error::TmccError;
use crate::handle::{RunHandle, CANCEL_CHECK_PERIOD};
use crate::latency::LatencyHistogram;
use crate::page_meta::MAX_DATA_PAGES;
use crate::schedule::Cursor;
use crate::schemes::two_level::{frame_limit_error, MAX_FRAMES};
use crate::schemes::{
    compresso, CompressoScheme, FlipPageContext, MemRequest, NoCompressionScheme, Scheme,
    TwoLevelScheme,
};
use crate::size_model::SizeModel;
use crate::stats::{RunReport, SimStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::hierarchy::NOC_LATENCY_NS;
use tmcc_sim_mem::page_table::{WalkStep, VIRTUAL_PAGES};
use tmcc_sim_mem::{CacheHierarchy, HitLevel, PageTable, PageTableConfig, PageWalker, Tlb};
use tmcc_types::addr::{Ppn, BLOCKS_PER_PAGE};
use tmcc_types::pte::PageTableBlock;
use tmcc_workloads::{AccessStream, PageStore};

/// ns per core cycle at the Table III core clock (2.8 GHz).
const CORE_NS_PER_CYCLE: f64 = 1.0 / 2.8;
/// How often (in accesses) background maintenance runs.
const MAINTENANCE_PERIOD: u64 = 32;

/// Bytes of budgeted DRAM the two-level schemes spend per page on
/// translation metadata: the CTE table (8 B) and the recency list (16 B).
const TWO_LEVEL_METADATA_BYTES: u64 = 24;

/// The DRAM budget the two-level schemes place pages into, in 4 KiB
/// frames: the configured budget less the in-DRAM metadata, or without
/// one, room for every page plus the eviction reserve. Fails with
/// [`TmccError::ScaleLimit`] past the schemes' 31-bit page handles or
/// 28-bit CTE frame numbers.
fn two_level_budget_frames(
    cfg: &SystemConfig,
    pages: u64,
    table_pages: u64,
) -> Result<u32, TmccError> {
    if pages > MAX_DATA_PAGES {
        return Err(TmccError::ScaleLimit {
            quantity: "data pages (31-bit page handles)",
            requested: pages,
            limit: MAX_DATA_PAGES,
        });
    }
    let frames = match cfg.dram_budget_bytes {
        Some(b) => b.saturating_sub((pages + table_pages) * TWO_LEVEL_METADATA_BYTES) / 4096,
        None => pages + table_pages + 512,
    };
    if frames > MAX_FRAMES {
        return Err(frame_limit_error(frames));
    }
    Ok(frames as u32)
}

/// Fails with [`TmccError::ScaleLimit`] when a run could present a key
/// past the TLB's or a cache level's tag range (a tag is a key's low 32
/// bits, and only keys below 2^(32+s) for 2^s sets are named exactly):
/// the VPNs `0..pages`, or the block addresses of the data pages and the
/// table region above them.
fn check_tag_range(
    pages: u64,
    page_table: &PageTable,
    tlb: &Tlb,
    hierarchy: &CacheHierarchy,
) -> Result<(), TmccError> {
    if pages > tlb.vpn_limit() {
        return Err(TmccError::ScaleLimit {
            quantity: "virtual pages (TLB tag range)",
            requested: pages,
            limit: tlb.vpn_limit(),
        });
    }
    let blocks = pages.max(page_table.table_ppns().end) * BLOCKS_PER_PAGE as u64;
    if blocks > hierarchy.block_limit() {
        return Err(TmccError::ScaleLimit {
            quantity: "block addresses (cache tag range)",
            requested: blocks,
            limit: hierarchy.block_limit(),
        });
    }
    Ok(())
}

/// A complete simulated system.
pub struct System {
    cfg: SystemConfig,
    tlb: Tlb,
    walker: PageWalker,
    page_table: PageTable,
    hierarchy: CacheHierarchy,
    dram: DramSim,
    scheme: Box<dyn Scheme>,
    streams: Vec<AccessStream>,
    next_stream: usize,
    now_ns: f64,
    stats: SimStats,
    accesses_since_maintenance: u64,
    /// The fault and bit-flip plans, fired against `total_accesses`.
    faults: Cursor<FaultKind>,
    flips: Cursor<BitFlip>,
    /// Dedicated RNG for flip placement, seeded independently of every
    /// other stream: an empty flip plan draws nothing from it, so
    /// flip-free runs are bit-identical with or without the machinery.
    flip_rng: SmallRng,
    /// Accesses executed since construction, warmup included — the clock
    /// fault events are scheduled against.
    total_accesses: u64,
    /// Simulated time at the end of warmup — the origin `elapsed_ns` is
    /// measured from (set by [`System::try_warmup`]).
    measure_start_ns: f64,
    /// Reused per-walk scratch: fetched steps with their PTBs. Keeping it
    /// on the system takes the page-walk path out of the per-access
    /// allocation profile.
    walk_buf: Vec<(WalkStep, PageTableBlock)>,
    /// Reused scratch for pages drained from the scheme's eviction queue.
    evict_buf: Vec<Ppn>,
    /// Lazy page-content source: pages materialize from the workload seed
    /// on read and are only host-resident while divergent, so simulated
    /// footprint costs no RSS (see `tmcc_workloads::store`).
    store: PageStore,
    /// Fixed-bin log-scale histogram of per-access simulated latency
    /// (translation + data, work cycles excluded) over the measurement
    /// window. Lives outside [`SimStats`] so [`RunReport`] serialization
    /// — and with it every committed golden — is unchanged; the tenancy
    /// layer reads it for fleet tail-latency percentiles.
    latency: LatencyHistogram,
    /// Cooperative cancellation token, polled every
    /// [`CANCEL_CHECK_PERIOD`] accesses when attached.
    cancel: Option<RunHandle>,
}

impl System {
    /// [`System::try_new`], panicking on its error. It is the one
    /// panicking twin the library keeps, because the benchmark's
    /// `a_drifted_copy_is_caught` test calls it and the benchmark's use of
    /// the library is frozen; everything else calls `try_new`.
    ///
    /// # Panics
    ///
    /// Panics if the configured DRAM budget cannot hold the workload even
    /// fully compressed (see [`System::min_budget_bytes`]) or the footprint
    /// exceeds what the simulator can number.
    pub fn new(cfg: SystemConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the system, returning [`TmccError::InfeasibleBudget`] when
    /// the configured DRAM budget cannot hold the workload even fully
    /// compressed, and [`TmccError::ScaleLimit`] when the footprint or
    /// budget exceeds what the simulator can number (the TLB's and the
    /// caches' tags, page handles and frame numbers for the two-level
    /// schemes, chunk numbers for Compresso).
    pub fn try_new(cfg: SystemConfig) -> Result<Self, TmccError> {
        let pages = cfg.workload.sim_pages;
        if pages > VIRTUAL_PAGES {
            return Err(TmccError::ScaleLimit {
                quantity: "data pages (48-bit virtual address space)",
                requested: pages,
                limit: VIRTUAL_PAGES,
            });
        }
        let page_table =
            PageTable::identity(PageTableConfig::for_data_pages(pages, cfg.huge_pages), pages);
        let table_pages = page_table.table_page_count() as u64;
        let tlb = Tlb::new(cfg.tlb_entries, 8);
        let hierarchy = CacheHierarchy::new(cfg.hierarchy);
        // Checked before the size model is sampled or any per-page state
        // allocated, so an out-of-range configuration fails at once.
        check_tag_range(pages, &page_table, &tlb, &hierarchy)?;
        let budget_frames = match cfg.scheme {
            SchemeKind::OsInspired | SchemeKind::Tmcc => {
                two_level_budget_frames(&cfg, pages, table_pages)?
            }
            SchemeKind::Compresso => {
                compresso::chunk_limit(pages + table_pages)?;
                0 // unused
            }
            SchemeKind::NoCompression => 0, // unused
        };
        let mut store = PageStore::new(cfg.workload.page_content(cfg.seed));
        let size_model = SizeModel::sample_via(&mut store, cfg.size_samples);

        let scheme: Box<dyn Scheme> = match cfg.scheme {
            SchemeKind::NoCompression => {
                Box::new(NoCompressionScheme::new((pages + table_pages) * 4096))
            }
            SchemeKind::Compresso => {
                // Data pages sit below the table region, so this is sorted.
                let ppns = (0..pages).chain(page_table.table_ppns()).map(Ppn::new);
                Box::new(CompressoScheme::new(cfg.cte_cache, size_model, ppns, cfg.seed))
            }
            SchemeKind::OsInspired | SchemeKind::Tmcc => Box::new(TwoLevelScheme::try_new(
                cfg.toggles,
                cfg.cte_cache,
                size_model,
                &page_table,
                pages,
                budget_frames,
                cfg.seed,
                cfg.recency_sample,
            )?),
        };

        let streams = (0..cfg.cores.max(1))
            .map(|i| cfg.workload.stream(cfg.seed.wrapping_add(i as u64 * 977)))
            .collect();

        let flip_rng = SmallRng::seed_from_u64(cfg.seed ^ 0xB17_F11B5);

        Ok(Self {
            tlb,
            walker: PageWalker::paper_default(),
            hierarchy,
            dram: DramSim::new(cfg.dram, cfg.interleave),
            scheme,
            page_table,
            streams,
            next_stream: 0,
            now_ns: 0.0,
            stats: SimStats::default(),
            accesses_since_maintenance: 0,
            faults: Cursor::new(&cfg.fault_plan),
            flips: Cursor::new(&cfg.flip_plan),
            flip_rng,
            total_accesses: 0,
            measure_start_ns: 0.0,
            walk_buf: Vec::with_capacity(4),
            evict_buf: Vec::new(),
            store,
            latency: LatencyHistogram::new(),
            cancel: None,
            cfg,
        })
    }

    /// Smallest feasible DRAM budget in bytes for a workload under the
    /// two-level schemes.
    pub fn min_budget_bytes(cfg: &SystemConfig) -> u64 {
        let pages = cfg.workload.sim_pages;
        let table_cfg = PageTableConfig::for_data_pages(pages, cfg.huge_pages);
        let table_pages = PageTable::identity(table_cfg, pages).table_page_count() as u64;
        let size_model = SizeModel::sample_via(
            &mut PageStore::new(cfg.workload.page_content(cfg.seed)),
            cfg.size_samples,
        );
        let frames = TwoLevelScheme::min_budget_frames(&size_model, table_pages, pages);
        frames * 4096 + (pages + table_pages) * TWO_LEVEL_METADATA_BYTES
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Attaches a cancellation token. The simulation loop polls it every
    /// [`CANCEL_CHECK_PERIOD`] accesses and aborts the run with
    /// [`TmccError::Cancelled`] once [`RunHandle::cancel`] has been
    /// called. Attaching replaces any previous handle.
    pub fn attach_handle(&mut self, handle: &RunHandle) {
        self.cancel = Some(handle.clone());
    }

    /// Audits the scheme's internal invariants (frame conservation,
    /// CTE/placement consistency). Cheap enough to call between
    /// maintenance intervals; `SystemConfig::with_audit` does so
    /// automatically. Debug builds additionally audit the raw counter
    /// block for saturation and cross-counter consistency, so a wrapped
    /// or mis-accounted statistic in a fault-injected long run surfaces
    /// as a typed error instead of silently corrupting figures.
    pub fn validate(&self) -> Result<(), TmccError> {
        #[cfg(debug_assertions)]
        if let Err(detail) = self.stats.audit() {
            return Err(TmccError::InvariantViolation { detail });
        }
        self.scheme.validate()
    }

    /// Applies every fault event scheduled at or before the current
    /// access count.
    fn apply_due_faults(&mut self) -> Result<(), TmccError> {
        while let Some(kind) = self.faults.pop_due(self.total_accesses) {
            self.scheme.apply_fault(kind, self.now_ns, &mut self.stats)?;
        }
        Ok(())
    }

    /// Applies every bit-flip event scheduled at or before the current
    /// access count: picks a deterministic target page where the flip
    /// needs one, reads its real content from the lazy store, and hands
    /// the upset to the scheme's detect/recover/poison ladder.
    fn apply_due_flips(&mut self) -> Result<(), TmccError> {
        while let Some(flip) = self.flips.pop_due(self.total_accesses) {
            let entropy: u64 = self.flip_rng.gen();
            let page = match flip.target {
                FlipTarget::Ml2Payload | FlipTarget::Ml1Data => {
                    let ppn = Ppn::new(entropy % self.cfg.workload.sim_pages.max(1));
                    let dirty = self.store.is_pinned(ppn.raw());
                    // Field-level borrows: the store lends the page bytes
                    // while the scheme and stats are borrowed separately.
                    Some(FlipPageContext { ppn, bytes: self.store.read(ppn.raw()), dirty })
                }
                FlipTarget::CteSlot | FlipTarget::FreeListBitmap => None,
            };
            self.scheme.apply_bit_flip(flip, entropy, page, self.now_ns, &mut self.stats)?;
        }
        Ok(())
    }

    /// Executes one workload access end to end.
    fn try_step(&mut self) -> Result<(), TmccError> {
        if self.total_accesses.is_multiple_of(CANCEL_CHECK_PERIOD) {
            if let Some(handle) = &self.cancel {
                if handle.is_cancelled() {
                    return Err(TmccError::Cancelled { at_access: self.total_accesses });
                }
            }
        }
        self.apply_due_faults()?;
        self.apply_due_flips()?;
        self.total_accesses += 1;
        let ev = self.streams[self.next_stream].next_access();
        self.next_stream = (self.next_stream + 1) % self.streams.len();
        self.now_ns += ev.work_cycles as f64 * CORE_NS_PER_CYCLE;
        self.stats.work_cycles = self.stats.work_cycles.saturating_add(ev.work_cycles as u64);
        // Everything now_ns accrues past this point is memory-system
        // latency (translation + data); the delta feeds the tail-latency
        // histogram at the end of the step.
        let mem_start_ns = self.now_ns;

        let vpn = ev.vaddr.vpn();
        let is_tmcc_ptb = matches!(self.cfg.scheme, SchemeKind::Tmcc)
            && self.cfg.toggles.embedded_ctes
            && !self.cfg.huge_pages;

        // 1. Address translation.
        let mut walked = false;
        let ppn = match self.tlb.lookup(vpn) {
            Some(p) => {
                self.stats.tlb_hits = self.stats.tlb_hits.saturating_add(1);
                p
            }
            None => {
                walked = true;
                self.stats.tlb_misses = self.stats.tlb_misses.saturating_add(1);
                // The scratch buffer keeps the walk allocation-free; the
                // walker hands back each fetched step *with* its PTB, so
                // no per-step page-table lookup is needed below.
                let mut walk_buf = std::mem::take(&mut self.walk_buf);
                let walk = self.walker.walk_into(&self.page_table, vpn, &mut walk_buf);
                let Some((walk_ppn, _pwc_hits)) = walk else {
                    return Err(TmccError::UnmappedVpn { vpn: vpn.raw() });
                };
                for &(step, ptb) in walk_buf.iter() {
                    self.stats.walker_fetches = self.stats.walker_fetches.saturating_add(1);
                    let acc = self.hierarchy.access(step.ptb_block, false, is_tmcc_ptb);
                    let mut lat = acc.latency_ns;
                    if acc.level == HitLevel::Memory {
                        self.stats.llc_miss_ptb = self.stats.llc_miss_ptb.saturating_add(1);
                        let req = MemRequest {
                            ppn: step.ptb_block.ppn(),
                            block: step.ptb_block,
                            write: false,
                            is_ptb: true,
                            after_tlb_miss: true,
                        };
                        let mlat = self.scheme.access(
                            &req,
                            self.now_ns + lat,
                            &mut self.dram,
                            &mut self.stats,
                        )?;
                        self.stats.l3_miss_latency_sum_ns += NOC_LATENCY_NS + mlat;
                        lat += mlat;
                    }
                    if let Some(wb) = acc.writeback {
                        self.handle_writeback(wb.ppn(), wb)?;
                    }
                    // The L2 receives the PTB: TMCC harvests its embedded
                    // CTEs into the CTE buffer (§V-A3).
                    self.scheme.on_ptb_fetched(step.ptb_block, &ptb);
                    self.now_ns += lat;
                }
                self.walk_buf = walk_buf;
                self.tlb.fill(vpn, walk_ppn);
                walk_ppn
            }
        };

        // 2. The data access itself.
        let block = ppn.block(ev.vaddr.page_offset() as usize / 64);
        let acc = self.hierarchy.access(block, ev.write, false);
        let mut lat = acc.latency_ns;
        if acc.level == HitLevel::Memory {
            self.stats.llc_miss_data = self.stats.llc_miss_data.saturating_add(1);
            let req =
                MemRequest { ppn, block, write: ev.write, is_ptb: false, after_tlb_miss: walked };
            let mlat =
                self.scheme.access(&req, self.now_ns + lat, &mut self.dram, &mut self.stats)?;
            self.stats.l3_miss_latency_sum_ns += NOC_LATENCY_NS + mlat;
            lat += mlat;
        }
        if let Some(wb) = acc.writeback {
            self.handle_writeback(wb.ppn(), wb)?;
        }
        self.now_ns += lat;
        self.stats.accesses = self.stats.accesses.saturating_add(1);
        self.latency.record((self.now_ns - mem_start_ns) as u64);

        // 3. Background maintenance.
        self.accesses_since_maintenance += 1;
        if self.accesses_since_maintenance >= MAINTENANCE_PERIOD {
            self.accesses_since_maintenance = 0;
            self.scheme.maintain(self.now_ns, &mut self.dram, &mut self.stats)?;
            if self.cfg.audit {
                self.scheme.validate()?;
            }
        }
        // Flush the cache hierarchy of any pages just compressed into ML2
        // (hardware collects a page's lines during the migration; stale
        // dirty copies would otherwise ping-pong the page back to ML1).
        let mut evict_buf = std::mem::take(&mut self.evict_buf);
        self.scheme.drain_evicted_pages(&mut evict_buf);
        for ppn in evict_buf.drain(..) {
            for b in 0..64 {
                self.hierarchy.invalidate(ppn.block(b));
            }
        }
        self.evict_buf = evict_buf;
        Ok(())
    }

    /// Handles a dirty LLC eviction.
    fn handle_writeback(
        &mut self,
        ppn: Ppn,
        block: tmcc_types::addr::BlockAddr,
    ) -> Result<(), TmccError> {
        self.stats.llc_writebacks = self.stats.llc_writebacks.saturating_add(1);
        let req = MemRequest { ppn, block, write: true, is_ptb: false, after_tlb_miss: false };
        self.scheme.writeback(&req, self.now_ns, &mut self.dram, &mut self.stats)
    }

    /// Runs `accesses` measured accesses (after the configured warmup) and
    /// reports, propagating any simulation error (an unmapped page, a
    /// broken invariant under auditing).
    pub fn try_run(&mut self, accesses: u64) -> Result<RunReport, TmccError> {
        self.try_warmup()?;
        self.try_run_slice(accesses)?;
        Ok(self.report())
    }

    /// Runs the configured warmup and arms the measurement window: counters
    /// reset, cache/placement state kept (the paper warms up ML1, ML2 and
    /// embedded CTEs before measuring, §VI). Called once before any
    /// [`System::try_run_slice`]; a tenant admitted mid-run warms up at
    /// admission time.
    pub fn try_warmup(&mut self) -> Result<(), TmccError> {
        for _ in 0..self.cfg.warmup_accesses {
            self.try_step()?;
        }
        self.stats = SimStats::default();
        self.dram.reset_stats();
        self.latency.reset();
        self.measure_start_ns = self.now_ns;
        Ok(())
    }

    /// Runs `accesses` measured accesses without resetting counters, so a
    /// scheduler (the multi-tenant round-robin, an incremental driver) can
    /// interleave slices of several systems and still get one coherent
    /// measurement window per system out of [`System::report`].
    pub fn try_run_slice(&mut self, accesses: u64) -> Result<(), TmccError> {
        for _ in 0..accesses {
            self.try_step()?;
        }
        Ok(())
    }

    /// Seals the measurement window opened by [`System::try_warmup`] and
    /// builds the report over every slice run since.
    pub fn report(&mut self) -> RunReport {
        self.stats.elapsed_ns = self.now_ns - self.measure_start_ns;
        self.stats.dram_used_bytes = self.scheme.dram_used_bytes();
        self.stats.footprint_bytes = self.cfg.workload.sim_pages * 4096;
        RunReport {
            workload: self.cfg.workload.name,
            scheme: self.cfg.scheme,
            stats: self.stats,
            dram: self.dram.stats(),
            peak_bandwidth_gbps: self.cfg.dram.peak_bandwidth_gbps(),
            bandwidth_utilization: self.dram.bandwidth_utilization(),
        }
    }

    /// Injects a runtime fault right now, outside any scheduled
    /// [`FaultPlan`](crate::config::FaultPlan) — the mechanism the
    /// multi-tenant capacity arbiter uses to balloon a tenant's budget
    /// (shrink/grow) while the run is in flight.
    pub fn inject_fault(&mut self, kind: FaultKind) -> Result<(), TmccError> {
        self.scheme.apply_fault(kind, self.now_ns, &mut self.stats)
    }

    /// Snapshot of the scheme's capacity-pressure state (degraded mode,
    /// outstanding reclaim debt).
    pub fn scheme_pressure(&self) -> crate::schemes::SchemePressure {
        self.scheme.pressure()
    }

    /// DRAM bytes the scheme currently occupies (data + translation
    /// metadata) — the arbiter's cross-tenant frame-leak audit reads this.
    pub fn dram_used_bytes(&self) -> u64 {
        self.scheme.dram_used_bytes()
    }

    /// The lazy page-content store backing this system's workload.
    pub fn page_store(&self) -> &PageStore {
        &self.store
    }

    /// Host heap bytes this system's scheme metadata occupies (0 for
    /// schemes that don't track it).
    pub fn metadata_heap_bytes(&self) -> usize {
        self.scheme.metadata_heap_bytes()
    }

    /// Counters accumulated in the current measurement window.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Accesses executed since construction, warmup included.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Per-access memory-latency histogram over the measurement window
    /// (reset by [`System::try_warmup`] alongside the counters).
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }
}
