//! The traced run: an outside-in copy of `System::try_new`, `try_step` and
//! `report`, built only from the layer crates' public APIs, with a span
//! around every call into a layer.
//!
//! The copy exists so the benchmark can attribute host time per layer
//! without touching the simulator. Its contract is fidelity: on the same
//! configuration and window it produces a `RunReport` byte-identical to
//! `System::try_run`'s and the same latency histogram. Every traced
//! measurement checks this on its own workload and on [`fidelity_check`]'s
//! four schemes, so a change to `System`'s step loop that the copy does
//! not follow fails the traced run. The copy is deleted once the simulator
//! carries its own spans.
//!
//! What the copy leaves out of `System::try_step`: the cancellation poll
//! and the due-fault and due-flip checks, a few compares per step that do
//! nothing when no handle or plan is set, as in every benchmark workload.
//!
//! Timing every call would distort the loop it measures, so only a
//! deterministic 1-in-16 sample of steps is timed; call counts cover every
//! step.

use crate::workload::digest;
use std::time::Instant;
use tmcc::config::SchemeKind;
use tmcc::schemes::{CompressoScheme, MemRequest, NoCompressionScheme, Scheme, TwoLevelScheme};
use tmcc::{LatencyHistogram, RunReport, SimStats, SizeModel, System, SystemConfig, TmccError};
use tmcc_sim_dram::DramSim;
use tmcc_sim_mem::hierarchy::NOC_LATENCY_NS;
use tmcc_sim_mem::page_table::WalkStep;
use tmcc_sim_mem::{CacheHierarchy, HitLevel, PageTable, PageTableConfig, PageWalker, Tlb};
use tmcc_types::addr::{BlockAddr, Ppn, Vpn};
use tmcc_types::pte::PageTableBlock;
use tmcc_workloads::{AccessStream, PageStore};

/// Mirrors `System`'s private core clock (2.8 GHz) and maintenance period;
/// the fidelity checks catch any drift.
const CORE_NS_PER_CYCLE: f64 = 1.0 / 2.8;
const MAINTENANCE_PERIOD: u64 = 32;

/// One instrumented layer boundary of the step loop.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `AccessStream::next_access`.
    Stream,
    /// `Tlb::lookup` and `Tlb::fill`.
    Tlb,
    /// `PageWalker::walk_into`.
    Walker,
    /// `CacheHierarchy::access`, for PTB and data blocks.
    Hierarchy,
    /// `Scheme::on_ptb_fetched` (TMCC harvests embedded CTEs here).
    PtbHarvest,
    /// `Scheme::access` on LLC misses: CTE translation, ML1/ML2, DRAM.
    SchemeAccess,
    /// `Scheme::writeback` for dirty LLC victims.
    SchemeWriteback,
    /// `Scheme::maintain` (and the audit, when configured).
    SchemeMaintain,
    /// `Scheme::drain_evicted_pages` plus the cache invalidations.
    HierarchyFlush,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Stream,
        Layer::Tlb,
        Layer::Walker,
        Layer::Hierarchy,
        Layer::PtbHarvest,
        Layer::SchemeAccess,
        Layer::SchemeWriteback,
        Layer::SchemeMaintain,
        Layer::HierarchyFlush,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stream => "stream",
            Layer::Tlb => "tlb",
            Layer::Walker => "walker",
            Layer::Hierarchy => "hierarchy",
            Layer::PtbHarvest => "scheme_ptb_harvest",
            Layer::SchemeAccess => "scheme_access",
            Layer::SchemeWriteback => "scheme_writeback",
            Layer::SchemeMaintain => "scheme_maintain",
            Layer::HierarchyFlush => "hierarchy_flush",
        }
    }
}

/// Calls and sampled host time per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSpan {
    /// Calls over the window (every step).
    pub calls: u64,
    /// Calls made on timed steps.
    pub timed_calls: u64,
    /// Host ns those timed calls took.
    pub timed_ns: u64,
}

/// Every span of a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Indexed like [`Layer::ALL`].
    pub layers: [LayerSpan; 9],
    /// Timed steps.
    pub timed_steps: u64,
    /// Host ns of the timed steps, end to end.
    pub timed_step_ns: u64,
}

impl Spans {
    /// Counts a call of `layer` that just returned. On a timed step
    /// (`clock` set) it also charges the layer everything since the
    /// previous lap — the call plus the few instructions of step-loop glue
    /// before it — and restarts the clock. Spans thus sit back to back and
    /// cost one clock read each.
    fn lap(&mut self, clock: &mut Option<Instant>, layer: Layer) {
        let span = &mut self.layers[layer as usize];
        span.calls += 1;
        if let Some(last) = clock {
            let now = Instant::now();
            span.timed_calls += 1;
            span.timed_ns += (now - *last).as_nanos() as u64;
            *last = now;
        }
    }

    /// Share of the timed steps' host time that some layer span covers.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.layers.iter().map(|s| s.timed_ns).sum();
        covered as f64 / self.timed_step_ns.max(1) as f64
    }

    /// A layer's share of the timed steps' host time.
    pub fn share(&self, layer: Layer) -> f64 {
        self.layers[layer as usize].timed_ns as f64 / self.timed_step_ns.max(1) as f64
    }

    /// Mean host ns per timed call of a layer (0 if never timed).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        let s = self.layers[layer as usize];
        s.timed_ns as f64 / s.timed_calls.max(1) as f64
    }
}

/// Deterministic 1-in-16 step sample. A multiplicative hash instead of
/// `n % 16` so the sample does not alias with the 32-step maintenance
/// period.
fn timed_step(n: u64) -> bool {
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 == 0
}

/// Runs `$call`, then laps `$clock` against `$layer` (see [`Spans::lap`]).
macro_rules! span {
    ($spans:expr, $clock:expr, $layer:expr, $call:expr) => {{
        let out = $call;
        $spans.lap($clock, $layer);
        out
    }};
}

/// Host seconds of each construction stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructTimes {
    /// `PageTable::new` and the `map` loop.
    pub page_table_s: f64,
    /// `PageStore::new` and `SizeModel::sample_via` (the codec's share).
    pub size_model_s: f64,
    /// Scheme construction and initial placement.
    pub scheme_s: f64,
}

/// The instrumented copy of `System`.
pub struct TracedSystem {
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
    total_accesses: u64,
    measure_start_ns: f64,
    walk_buf: Vec<(WalkStep, PageTableBlock)>,
    evict_buf: Vec<Ppn>,
    store: PageStore,
    latency: LatencyHistogram,
    /// Spans over the measurement window (reset by warmup).
    pub spans: Spans,
    /// Construction stage times.
    pub construct: ConstructTimes,
}

impl TracedSystem {
    /// `System::try_new`, stage by stage. Fault and bit-flip plans are not
    /// copied: the benchmark's workloads schedule none, and a plan here is
    /// refused rather than silently ignored.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, TmccError> {
        if !cfg.fault_plan.is_empty() || !cfg.flip_plan.is_empty() {
            return Err(TmccError::InvariantViolation {
                detail: "the traced copy does not model fault or bit-flip plans".into(),
            });
        }
        let t = Instant::now();
        let mut page_table =
            PageTable::new(PageTableConfig { huge_pages: cfg.huge_pages, ..Default::default() });
        let pages = cfg.workload.sim_pages;
        if cfg.huge_pages {
            for region in 0..pages.div_ceil(512) {
                page_table.map(Vpn::new(region * 512), Ppn::new(region * 512));
            }
        } else {
            for i in 0..pages {
                page_table.map(Vpn::new(i), Ppn::new(i));
            }
        }
        let page_table_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut store = PageStore::new(cfg.workload.page_content(cfg.seed));
        let size_model = SizeModel::sample_via(&mut store, cfg.size_samples);
        let size_model_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let table_pages = page_table.table_page_count() as u64;
        let scheme: Box<dyn Scheme> = match cfg.scheme {
            SchemeKind::NoCompression => {
                Box::new(NoCompressionScheme::new((pages + table_pages) * 4096))
            }
            SchemeKind::Compresso => {
                let mut ppns: Vec<Ppn> = (0..pages).map(Ppn::new).collect();
                for level in 1..=4u8 {
                    for (block, _) in page_table.ptbs_at_level(level) {
                        ppns.push(block.ppn());
                    }
                }
                ppns.sort_unstable_by_key(|p| p.raw());
                ppns.dedup();
                Box::new(CompressoScheme::new(cfg.cte_cache, size_model, ppns, cfg.seed))
            }
            SchemeKind::OsInspired | SchemeKind::Tmcc => {
                let metadata = (pages + table_pages) * 24;
                let budget_frames = match cfg.dram_budget_bytes {
                    Some(b) => (b.saturating_sub(metadata) / 4096) as u32,
                    None => (pages + table_pages) as u32 + 512,
                };
                Box::new(TwoLevelScheme::try_new(
                    cfg.toggles,
                    cfg.cte_cache,
                    size_model,
                    &page_table,
                    pages,
                    budget_frames,
                    cfg.seed,
                    cfg.recency_sample,
                )?)
            }
        };
        let scheme_s = t.elapsed().as_secs_f64();

        let streams = (0..cfg.cores.max(1))
            .map(|i| cfg.workload.stream(cfg.seed.wrapping_add(i as u64 * 977)))
            .collect();
        Ok(Self {
            tlb: Tlb::new(cfg.tlb_entries, 8),
            walker: PageWalker::paper_default(),
            hierarchy: CacheHierarchy::new(cfg.hierarchy),
            dram: DramSim::new(cfg.dram, cfg.interleave),
            scheme,
            page_table,
            streams,
            next_stream: 0,
            now_ns: 0.0,
            stats: SimStats::default(),
            accesses_since_maintenance: 0,
            total_accesses: 0,
            measure_start_ns: 0.0,
            walk_buf: Vec::with_capacity(4),
            evict_buf: Vec::new(),
            store,
            latency: LatencyHistogram::new(),
            spans: Spans::default(),
            construct: ConstructTimes { page_table_s, size_model_s, scheme_s },
            cfg,
        })
    }

    /// `System::try_step`, with a span around every layer call.
    fn try_step(&mut self) -> Result<(), TmccError> {
        let step_start = timed_step(self.total_accesses).then(Instant::now);
        let mut clock = step_start;
        self.total_accesses += 1;
        let ev = span!(
            self.spans,
            &mut clock,
            Layer::Stream,
            self.streams[self.next_stream].next_access()
        );
        self.next_stream = (self.next_stream + 1) % self.streams.len();
        self.now_ns += ev.work_cycles as f64 * CORE_NS_PER_CYCLE;
        self.stats.work_cycles = self.stats.work_cycles.saturating_add(ev.work_cycles as u64);
        let mem_start_ns = self.now_ns;

        let vpn = ev.vaddr.vpn();
        let is_tmcc_ptb = matches!(self.cfg.scheme, SchemeKind::Tmcc)
            && self.cfg.toggles.embedded_ctes
            && !self.cfg.huge_pages;

        let mut walked = false;
        let ppn = match span!(self.spans, &mut clock, Layer::Tlb, self.tlb.lookup(vpn)) {
            Some(p) => {
                self.stats.tlb_hits = self.stats.tlb_hits.saturating_add(1);
                p
            }
            None => {
                walked = true;
                self.stats.tlb_misses = self.stats.tlb_misses.saturating_add(1);
                let mut walk_buf = std::mem::take(&mut self.walk_buf);
                let walk = span!(
                    self.spans,
                    &mut clock,
                    Layer::Walker,
                    self.walker.walk_into(&self.page_table, vpn, &mut walk_buf)
                );
                let Some((walk_ppn, _pwc_hits)) = walk else {
                    return Err(TmccError::UnmappedVpn { vpn: vpn.raw() });
                };
                for &(step, ptb) in walk_buf.iter() {
                    self.stats.walker_fetches = self.stats.walker_fetches.saturating_add(1);
                    let acc = span!(
                        self.spans,
                        &mut clock,
                        Layer::Hierarchy,
                        self.hierarchy.access(step.ptb_block, false, is_tmcc_ptb)
                    );
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
                        let mlat = span!(
                            self.spans,
                            &mut clock,
                            Layer::SchemeAccess,
                            self.scheme.access(
                                &req,
                                self.now_ns + lat,
                                &mut self.dram,
                                &mut self.stats
                            )?
                        );
                        self.stats.l3_miss_latency_sum_ns += NOC_LATENCY_NS + mlat;
                        lat += mlat;
                    }
                    if let Some(wb) = acc.writeback {
                        self.handle_writeback(wb.ppn(), wb, &mut clock)?;
                    }
                    span!(
                        self.spans,
                        &mut clock,
                        Layer::PtbHarvest,
                        self.scheme.on_ptb_fetched(step.ptb_block, &ptb)
                    );
                    self.now_ns += lat;
                }
                self.walk_buf = walk_buf;
                span!(self.spans, &mut clock, Layer::Tlb, self.tlb.fill(vpn, walk_ppn));
                walk_ppn
            }
        };

        let block = ppn.block(ev.vaddr.page_offset() as usize / 64);
        let acc = span!(
            self.spans,
            &mut clock,
            Layer::Hierarchy,
            self.hierarchy.access(block, ev.write, false)
        );
        let mut lat = acc.latency_ns;
        if acc.level == HitLevel::Memory {
            self.stats.llc_miss_data = self.stats.llc_miss_data.saturating_add(1);
            let req =
                MemRequest { ppn, block, write: ev.write, is_ptb: false, after_tlb_miss: walked };
            let mlat = span!(
                self.spans,
                &mut clock,
                Layer::SchemeAccess,
                self.scheme.access(&req, self.now_ns + lat, &mut self.dram, &mut self.stats)?
            );
            self.stats.l3_miss_latency_sum_ns += NOC_LATENCY_NS + mlat;
            lat += mlat;
        }
        if let Some(wb) = acc.writeback {
            self.handle_writeback(wb.ppn(), wb, &mut clock)?;
        }
        self.now_ns += lat;
        self.stats.accesses = self.stats.accesses.saturating_add(1);
        self.latency.record((self.now_ns - mem_start_ns) as u64);

        self.accesses_since_maintenance += 1;
        if self.accesses_since_maintenance >= MAINTENANCE_PERIOD {
            self.accesses_since_maintenance = 0;
            span!(self.spans, &mut clock, Layer::SchemeMaintain, {
                self.scheme.maintain(self.now_ns, &mut self.dram, &mut self.stats)?;
                if self.cfg.audit {
                    self.scheme.validate()?;
                }
            });
        }
        span!(self.spans, &mut clock, Layer::HierarchyFlush, {
            let mut evict_buf = std::mem::take(&mut self.evict_buf);
            self.scheme.drain_evicted_pages(&mut evict_buf);
            for ppn in evict_buf.drain(..) {
                for b in 0..64 {
                    self.hierarchy.invalidate(ppn.block(b));
                }
            }
            self.evict_buf = evict_buf;
        });

        if let Some(start) = step_start {
            self.spans.timed_steps += 1;
            self.spans.timed_step_ns += start.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    fn handle_writeback(
        &mut self,
        ppn: Ppn,
        block: BlockAddr,
        clock: &mut Option<Instant>,
    ) -> Result<(), TmccError> {
        self.stats.llc_writebacks = self.stats.llc_writebacks.saturating_add(1);
        let req = MemRequest { ppn, block, write: true, is_ptb: false, after_tlb_miss: false };
        span!(
            self.spans,
            clock,
            Layer::SchemeWriteback,
            self.scheme.writeback(&req, self.now_ns, &mut self.dram, &mut self.stats)
        )
    }

    /// `System::try_warmup`: runs the warmup, then resets every counter
    /// (spans included) and opens the measurement window.
    pub fn try_warmup(&mut self) -> Result<(), TmccError> {
        for _ in 0..self.cfg.warmup_accesses {
            self.try_step()?;
        }
        self.stats = SimStats::default();
        self.hierarchy.reset_stats();
        self.dram.reset_stats();
        self.tlb.reset_stats();
        self.latency.reset();
        self.spans = Spans::default();
        self.measure_start_ns = self.now_ns;
        Ok(())
    }

    /// `System::try_run_slice`.
    pub fn try_run_slice(&mut self, accesses: u64) -> Result<(), TmccError> {
        for _ in 0..accesses {
            self.try_step()?;
        }
        Ok(())
    }

    /// `System::report`.
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

    /// `System::validate`.
    pub fn validate(&self) -> Result<(), TmccError> {
        #[cfg(debug_assertions)]
        if let Err(detail) = self.stats.audit() {
            return Err(TmccError::InvariantViolation { detail });
        }
        self.scheme.validate()
    }

    /// Host heap bytes of the scheme's metadata.
    pub fn metadata_heap_bytes(&self) -> usize {
        self.scheme.metadata_heap_bytes()
    }

    /// The lazy page-content store.
    pub fn page_store(&self) -> &PageStore {
        &self.store
    }

    /// Per-access memory-latency histogram over the measurement window.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }
}

/// Whether the copy's window matches `sys`'s: the same report digest and
/// the same latency histogram.
pub fn matches(copy: &mut TracedSystem, sys: &mut System) -> bool {
    digest(&copy.report()) == digest(&sys.report())
        && copy.latency_histogram().counts() == sys.latency_histogram().counts()
}

/// The schemes [`fidelity_check`] runs.
pub const FIDELITY_SCHEMES: [SchemeKind; 4] =
    [SchemeKind::NoCompression, SchemeKind::Compresso, SchemeKind::OsInspired, SchemeKind::Tmcc];

/// Runs the copy and `System` side by side on a 4096-page canneal under
/// each of [`FIDELITY_SCHEMES`] (the two-level schemes under budget
/// pressure, so migration and maintenance have work to do) and returns one
/// line per scheme whose window differs or fails.
pub fn fidelity_check() -> Vec<String> {
    let mut failures = Vec::new();
    for scheme in FIDELITY_SCHEMES {
        let Some(mut cfg) = SystemConfig::for_workload("canneal", scheme) else {
            failures.push("fidelity check: canneal is not a known workload".into());
            break;
        };
        cfg.workload.sim_pages = 4096;
        cfg.warmup_accesses = 5_000;
        cfg.size_samples = 16;
        if matches!(scheme, SchemeKind::OsInspired | SchemeKind::Tmcc) {
            cfg = cfg.with_budget(4096 * 4096 * 3 / 4);
        }
        let run = || -> Result<bool, TmccError> {
            let mut sys = System::try_new(cfg.clone())?;
            sys.try_warmup()?;
            sys.try_run_slice(20_000)?;
            sys.validate()?;
            let mut copy = TracedSystem::try_new(cfg.clone())?;
            copy.try_warmup()?;
            copy.try_run_slice(20_000)?;
            copy.validate()?;
            Ok(copy.spans.timed_steps > 0 && matches(&mut copy, &mut sys))
        };
        match run() {
            Ok(true) => {}
            Ok(false) => failures.push(format!("fidelity check: {scheme:?} copy differs")),
            Err(e) => failures.push(format!("fidelity check: {scheme:?}: {e}")),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The copy reproduces `System` exactly under every scheme.
    #[test]
    fn copy_matches_system_for_every_scheme() {
        assert_eq!(fidelity_check(), Vec::<String>::new());
    }

    /// The check sees a copy that drifts: one extra step is enough.
    #[test]
    fn a_drifted_copy_is_caught() {
        let mut cfg = SystemConfig::for_workload("canneal", SchemeKind::Tmcc).expect("known");
        cfg.workload.sim_pages = 4096;
        cfg.warmup_accesses = 1_000;
        let mut sys = System::new(cfg.clone());
        sys.try_warmup().expect("warmup");
        sys.try_run_slice(2_000).expect("runs");
        let mut copy = TracedSystem::try_new(cfg).expect("constructs");
        copy.try_warmup().expect("warmup");
        copy.try_run_slice(2_001).expect("runs");
        assert!(!matches(&mut copy, &mut sys));
    }

    #[test]
    fn sample_is_about_one_in_sixteen_and_spans_maintenance_phases() {
        let timed: Vec<u64> = (0..64_000).filter(|&n| timed_step(n)).collect();
        let share = timed.len() as f64 / 64_000.0;
        assert!((share - 1.0 / 16.0).abs() < 0.005, "sample share {share}");
        // Both maintenance and non-maintenance steps get sampled.
        assert!(timed.iter().any(|n| (n + 1) % MAINTENANCE_PERIOD == 0));
        assert!(timed.iter().any(|n| (n + 1) % MAINTENANCE_PERIOD != 0));
    }

    #[test]
    fn plans_are_refused() {
        let cfg = SystemConfig::for_workload("canneal", SchemeKind::Tmcc)
            .expect("known workload")
            .with_fault_plan(tmcc::FaultPlan::none().with(10, tmcc::FaultKind::CteFlushStorm));
        assert!(TracedSystem::try_new(cfg).is_err());
    }
}
