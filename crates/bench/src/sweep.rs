//! The shared sweep harness behind `tmcc-bench`.
//!
//! Every experiment runs through a [`SweepCtx`]: it supplies the run
//! [`Scale`], a worker pool for [`SweepCtx::par_map`] grids, the JSON
//! output directory, and per-experiment counters (accesses simulated,
//! busy time, points replayed). Determinism is by construction — each
//! config point carries its own seed, `par_map` returns results in input
//! order regardless of scheduling, and the JSON emitters consume those
//! ordered results — so `--jobs 1` and `--jobs N` produce byte-identical
//! per-figure files.
//!
//! # Failure isolation (DESIGN.md §6.2)
//!
//! A sweep point is its config: every `par_map` point runs once, inside
//! `catch_unwind`, and a panicking, erroring or timed-out point is
//! quarantined into `results/FAILURES.json` at once — its experiment
//! aborts, the rest of the fleet keeps running. Re-running a point means
//! re-running its declared config, with `--resume` or `--point`. The
//! sweep journal ([`crate::journal`]) makes completed runs replayable
//! after a crash, for any experiment that asks for the same run; the
//! watchdog ([`crate::watchdog`]) cancels points that exceed their
//! deadline through the simulator's cooperative [`RunHandle`]. Every
//! simulation run family (plain, multi-tenant, capacity) reaches journal
//! and watchdog through one private path, `SweepCtx::journaled`, whose
//! key material is the run's only identity.

use crate::failures::{FailPoint, FailureCause, FailureSink, PointFailure};
use crate::journal::{fingerprint, SweepJournal};
use crate::watchdog::{effective_budget, Watchdog};
use crate::DEFAULT_ACCESSES;
use rayon::prelude::*;
use rayon::ThreadPool;
use serde::{Deserialize, Serialize};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmcc::config::TmccToggles;
use tmcc::{
    MultiTenantConfig, MultiTenantReport, MultiTenantSystem, RunHandle, RunReport, SchemeKind,
    System, SystemConfig, TmccError,
};
use tmcc_workloads::WorkloadProfile;

/// How much work each config point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-fidelity runs (the published `results/` files).
    Full,
    /// Tiny: the golden determinism test (seconds for the whole suite).
    Test,
}

impl Scale {
    /// Display name (recorded in `BENCH_sweep.json`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Test => "test",
        }
    }

    /// Measured accesses per simulation run.
    pub fn accesses(self) -> u64 {
        match self {
            Scale::Full => DEFAULT_ACCESSES,
            Scale::Test => 1_000,
        }
    }

    /// Warmup override (`None` keeps each config's paper default).
    pub fn warmup(self) -> Option<u64> {
        match self {
            Scale::Full => None,
            Scale::Test => Some(500),
        }
    }

    /// Pages per workload image for the compression-ratio study (Fig. 15).
    pub fn content_pages(self) -> u64 {
        match self {
            Scale::Full => 384,
            Scale::Test => 16,
        }
    }

    /// Pages per workload feeding the Deflate cycle model (Table II).
    pub fn corpus_pages(self) -> u64 {
        match self {
            Scale::Full => 24,
            Scale::Test => 4,
        }
    }

    /// Cap on each workload's simulated footprint (`None` keeps the
    /// paper-scale page counts). Only the test scale shrinks footprints:
    /// system construction (page table, size-model sampling) is linear in
    /// pages and would otherwise dominate tiny runs.
    pub fn pages_cap(self) -> Option<u64> {
        match self {
            Scale::Full => None,
            Scale::Test => Some(2_048),
        }
    }

    /// Size-model codec samples per system ([`SystemConfig::size_samples`]).
    /// Sampling compresses real pages with the real codecs, a fixed
    /// ~100 ms per constructed system at the paper default of 128 — fine
    /// for paper-scale runs, dominant at the test scale.
    pub fn size_samples(self) -> usize {
        match self {
            Scale::Full => 128,
            Scale::Test => 16,
        }
    }

    /// Base watchdog budget per simulation run, before the experiment's
    /// `budget_weight` multiplier. Calibrated ~50× above observed run
    /// times at each scale — the watchdog exists to catch wedged points,
    /// not slow ones.
    pub fn point_budget(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(600),
            Scale::Test => Duration::from_secs(60),
        }
    }
}

/// Resolves a `--jobs` request: 0 means one worker per available CPU.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Panic payload thrown after a failed point was recorded in the
/// failure sink. The experiment-level `catch_unwind` in `tmcc-bench`
/// recognizes it and does not double-report.
pub struct PointAborted;

/// Panic payload thrown by `--point` replay after the selected point
/// finished: the experiment stops before aggregating or emitting partial
/// results, and `tmcc-bench` reports the replay as a success.
pub struct PointReplayDone;

/// Shared context for one sweep invocation.
///
/// The worker pool is shared (`Arc`): the `run-all` scheduler builds one
/// pool and hands it to every experiment's context, so inner `par_map`
/// grids from different experiments feed the same work-stealing deques.
/// Journal, watchdog, and failure sink are likewise shared across the
/// per-experiment contexts of a `run-all`.
pub struct SweepCtx {
    scale: Scale,
    jobs: usize,
    pool: Arc<ThreadPool>,
    out_dir: PathBuf,
    experiment: &'static str,
    budget_weight: f64,
    only_point: Option<usize>,
    journal: Arc<SweepJournal>,
    watchdog: Arc<Watchdog>,
    failures: Arc<FailureSink>,
    accesses: AtomicU64,
    /// Summed worker time spent executing this experiment's points. Under
    /// the shared `run-all` pool an experiment's *span* includes time its
    /// workers were stolen by other experiments, so span-based throughput
    /// is schedule-dependent; busy time is not.
    busy_ns: AtomicU64,
    points_replayed: AtomicU64,
}

impl SweepCtx {
    /// Builds a context over the sweep's shared worker pool and its
    /// crash-safety plumbing: completed runs are appended to `journal`
    /// (and runs already journaled are replayed instead of simulated),
    /// every run gets a `watchdog` deadline, and failed points are
    /// quarantined into `failures`. `jobs` must already be resolved
    /// (non-zero) and should match the pool's thread count.
    pub fn with_pool(
        scale: Scale,
        jobs: usize,
        out_dir: PathBuf,
        pool: Arc<ThreadPool>,
        journal: Arc<SweepJournal>,
        watchdog: Arc<Watchdog>,
        failures: Arc<FailureSink>,
    ) -> Self {
        Self {
            scale,
            jobs,
            pool,
            out_dir,
            experiment: "",
            budget_weight: 1.0,
            only_point: None,
            journal,
            watchdog,
            failures,
            accesses: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            points_replayed: AtomicU64::new(0),
        }
    }

    /// Names the experiment this context runs and sets its watchdog
    /// budget multiplier (`registry::Experiment::budget_weight`). The
    /// name labels the context's failure reports; journal records carry
    /// no experiment, so any experiment replays a run another journaled.
    pub fn for_experiment(mut self, name: &'static str, budget_weight: f64) -> Self {
        self.experiment = name;
        self.budget_weight = budget_weight;
        self
    }

    /// Restricts the sweep to one point index of the experiment's first
    /// grid (`tmcc-bench run <exp> --point <idx>`): the point runs alone
    /// through the journal and watchdog, then the experiment stops with
    /// [`PointReplayDone`] instead of emitting partial results. This is
    /// the standalone replay for a `FAILURES.json` entry.
    pub fn with_point(mut self, point: Option<usize>) -> Self {
        self.only_point = point;
        self
    }

    /// The run scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Measured accesses per simulation run at this scale.
    pub fn accesses(&self) -> u64 {
        self.scale.accesses()
    }

    /// Total accesses (warmup included) simulated through this context.
    /// Replayed runs count too — the figure they feed represents the
    /// same simulated work whether it ran now or before the crash.
    pub fn accesses_simulated(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Summed worker nanoseconds spent executing this context's points,
    /// failed ones included. Independent of how the shared pool
    /// interleaved this experiment with others, unlike its
    /// start-to-finish span.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Runs replayed from the journal instead of simulated.
    pub fn points_replayed(&self) -> u64 {
        self.points_replayed.load(Ordering::Relaxed)
    }

    /// The experiment name this context was built for.
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// Maps `f` over `items` on the worker pool; results come back in
    /// input order no matter how the workers are scheduled.
    ///
    /// Each point runs once: a panic, simulator error or watchdog
    /// timeout quarantines it, and the experiment aborts with
    /// [`PointAborted`].
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.map_points(items, f, false)
    }

    /// Like [`SweepCtx::par_map`], but runs the points one at a time on
    /// the calling thread with the worker pool *installed*, so all
    /// `--jobs` parallelism serves work *inside* the point (the
    /// multi-tenant round loop fans its tenant quanta onto the ambient
    /// pool). Fleet-scale grids use this: one thousand-tenant roster
    /// live at a time parallelizes cleanly, while running several such
    /// points concurrently just thrashes the allocator.
    pub fn seq_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.map_points(items, f, true)
    }

    fn map_points<T, R, F>(&self, items: Vec<T>, f: F, sequential: bool) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        if let Some(point) = self.only_point {
            let grid = indexed.len();
            let Some((index, item)) = indexed.into_iter().find(|&(i, _)| i == point) else {
                eprintln!("[{}] --point {point} out of range (grid has {grid})", self.experiment);
                std::panic::panic_any(PointAborted);
            };
            let _ = self.run_point(index, item, &f);
            println!("[{}] point {point} replayed successfully", self.experiment);
            std::panic::panic_any(PointReplayDone);
        }
        let run = |(index, item): (usize, T)| self.run_point(index, item, &f);
        if self.jobs <= 1 {
            return indexed.into_iter().map(run).collect();
        }
        if sequential {
            self.pool.install(|| indexed.into_iter().map(run).collect())
        } else {
            self.pool.install(|| indexed.into_par_iter().map(run).collect())
        }
    }

    /// One point, one attempt. A failure is recorded in the sink (its
    /// cause printed on stderr) and aborts the experiment with
    /// [`PointAborted`].
    fn run_point<T, R, F>(&self, index: usize, item: T, f: &F) -> R
    where
        F: Fn(T) -> R,
    {
        let injected = FailPoint::from_env().is_some_and(|fp| fp.matches(self.experiment, index));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected failure ({})", crate::failures::FAIL_POINT_ENV);
            }
            f(item)
        }));
        self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let cause = match result {
            Ok(r) => return r,
            Err(payload) => classify_failure(payload),
        };
        eprintln!("[{}] point {index} failed ({cause})", self.experiment);
        self.failures.record(PointFailure {
            experiment: self.experiment,
            index,
            cause,
            scale: self.scale.name(),
        });
        std::panic::panic_any(PointAborted);
    }

    /// Writes `results/<name>.json` under the context's output directory.
    pub fn emit<T: Serialize>(&self, name: &str, value: &T) {
        let _ = fs::create_dir_all(&self.out_dir);
        let path = self.out_dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(s) => {
                if fs::write(&path, s).is_ok() {
                    println!("\n[results written to {}]", path.display());
                }
            }
            Err(e) => eprintln!("could not serialize results: {e}"),
        }
    }

    /// Applies the scale's warmup, footprint and size-sample overrides to
    /// a config.
    pub fn tune(&self, mut cfg: SystemConfig) -> SystemConfig {
        if let Some(w) = self.scale.warmup() {
            cfg.warmup_accesses = w;
        }
        if let Some(cap) = self.scale.pages_cap() {
            cfg.workload.sim_pages = cfg.workload.sim_pages.min(cap);
        }
        cfg.size_samples = self.scale.size_samples();
        cfg
    }

    /// Runs one tuned config for `accesses` measured accesses, panicking
    /// on a simulator error so the point is quarantined.
    pub fn run(&self, cfg: SystemConfig, accesses: u64) -> RunReport {
        or_quarantine(self.try_run(cfg, accesses))
    }

    /// Fallible variant of [`SweepCtx::run`] (the robustness and
    /// integrity sweeps record the error instead of aborting), journaled
    /// under the tuned config and access count.
    pub fn try_run(&self, cfg: SystemConfig, accesses: u64) -> Result<RunReport, TmccError> {
        let cfg = self.tune(cfg);
        let counted = cfg.warmup_accesses + accesses;
        self.journaled(format!("{cfg:?}|{accesses}"), counted, |handle| {
            let mut sys = System::try_new(cfg)?;
            sys.attach_handle(handle);
            sys.try_run(accesses)
        })
    }

    /// Runs one multi-tenant scenario, panicking on error so the point
    /// is quarantined. The scenario builders in `experiments::mt` are
    /// already scale-aware, so the config runs as given. The cancellation
    /// token is wired in before construction, so admission warmups
    /// respect the deadline.
    pub fn run_mt(&self, cfg: MultiTenantConfig, accesses: u64) -> MultiTenantReport {
        let initial_warmups =
            cfg.warmup_accesses * cfg.initial_tenants.min(cfg.roster.len()) as u64;
        or_quarantine(self.journaled(
            format!("mt|{cfg:?}|{accesses}"),
            initial_warmups + accesses,
            |h| {
                MultiTenantSystem::try_new_cancellable(cfg, Some(h))
                    .and_then(|mut sys| sys.try_run(accesses))
            },
        ))
    }

    /// Runs one capacity/footprint point, panicking on error so the
    /// point is quarantined. Beside the report it returns the
    /// [`CapacityProbe`] — host-side metadata/store measurements a plain
    /// [`RunReport`] cannot express, journaled with it — and the
    /// *nondeterministic* [`HostCost`], which is `None` for replayed
    /// points and must never feed a golden-compared results file.
    pub fn run_capacity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> (RunReport, CapacityProbe, Option<HostCost>) {
        let cfg = self.tune(cfg);
        let counted = cfg.warmup_accesses + accesses;
        let mut host = None;
        let record = self.journaled(format!("cap|{cfg:?}|{accesses}"), counted, |handle| {
            let rss_before_kb = crate::hostmem::current_rss_kb();
            let construct_start = Instant::now();
            let mut sys = System::try_new(cfg)?;
            let construct_ms = construct_start.elapsed().as_secs_f64() * 1e3;
            sys.attach_handle(handle);
            let run_start = Instant::now();
            let report = sys.try_run(accesses)?;
            let run_ms = run_start.elapsed().as_secs_f64() * 1e3;
            // Audit the end state: the capacity points are the only runs at
            // footprints the test suite cannot reach.
            sys.validate()?;
            let (store_reads, store_writes, store_divergent_writes) = sys.page_store().stats();
            let probe = CapacityProbe {
                metadata_heap_bytes: sys.metadata_heap_bytes() as u64,
                store_heap_bytes: sys.page_store().heap_bytes() as u64,
                store_reads,
                store_writes,
                store_divergent_writes,
                pinned_pages: sys.page_store().pinned_pages() as u64,
            };
            host = Some(HostCost {
                construct_ms,
                run_ms,
                rss_before_kb,
                rss_after_kb: crate::hostmem::current_rss_kb(),
            });
            Ok(CapacityRecord { report, probe })
        });
        let CapacityRecord { report, probe } = or_quarantine(record);
        (report, probe, host)
    }

    /// The one journaled run path. `key_material` (the tuned config's
    /// `Debug` text plus the access count) is the run's only identity: a
    /// journal hit for it, whichever experiment wrote it, decodes the
    /// stored record — bit-exact, so downstream JSON stays
    /// byte-identical — instead of simulating; otherwise `run` builds and
    /// simulates under a watchdog deadline on its [`RunHandle`], and a
    /// completed record is appended before returning. Replays and live
    /// runs, failed ones included, are all charged `counted` accesses, so
    /// a resumed sweep reports the same simulated work as an
    /// uninterrupted one. Watchdog cancellation panics with
    /// [`FailureCause::Timeout`], so a timeout quarantines the point even
    /// from callers that handle the `Err` branch.
    fn journaled<R: Serialize + Deserialize>(
        &self,
        key_material: String,
        counted: u64,
        run: impl FnOnce(&RunHandle) -> Result<R, TmccError>,
    ) -> Result<R, TmccError> {
        let key = fingerprint(&key_material);
        if let Some(json) = self.journal.lookup(key) {
            let decoded = serde_json::from_str(json)
                .map_err(|e| e.to_string())
                .and_then(|v| R::from_value(&v));
            match decoded {
                Ok(record) => {
                    self.accesses.fetch_add(counted, Ordering::Relaxed);
                    self.points_replayed.fetch_add(1, Ordering::Relaxed);
                    return Ok(record);
                }
                Err(detail) => eprintln!(
                    "warning: [{}] journal record undecodable ({detail}); re-running",
                    self.experiment
                ),
            }
        }
        let handle = RunHandle::new();
        let _guard = self.watchdog.arm(self.point_budget(), &handle);
        let result = run(&handle);
        self.accesses.fetch_add(counted, Ordering::Relaxed);
        if result.as_ref().is_err_and(TmccError::is_cancelled) {
            let budget_ms = self.point_budget().as_millis() as u64;
            std::panic::panic_any(FailureCause::Timeout { budget_ms });
        }
        if let Ok(record) = &result {
            match serde_json::to_string(record) {
                Ok(json) => self.journal.append(key, &json),
                Err(e) => eprintln!("warning: could not journal a run: {e}"),
            }
        }
        result
    }

    /// This context's watchdog deadline per simulation run.
    fn point_budget(&self) -> Duration {
        effective_budget(self.scale.point_budget().mul_f64(self.budget_weight.max(0.1)))
    }

    /// Runs one workload under one scheme with an optional budget.
    pub fn run_scheme(
        &self,
        workload: &WorkloadProfile,
        scheme: SchemeKind,
        budget: Option<u64>,
        accesses: u64,
    ) -> RunReport {
        let mut cfg = SystemConfig::new(workload.clone(), scheme);
        cfg.dram_budget_bytes = budget;
        self.run(cfg, accesses)
    }

    /// Runs a two-level scheme with explicit toggles (Fig. 20 ablations).
    pub fn run_two_level(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        budget: u64,
        accesses: u64,
    ) -> RunReport {
        self.run(two_level_cfg(workload, toggles, budget), accesses)
    }

    /// Runs Compresso and returns `(report, dram_used)` — the iso-savings
    /// anchor of Figs. 17/18/19.
    pub fn compresso_anchor(&self, workload: &WorkloadProfile, accesses: u64) -> (RunReport, u64) {
        let r = self.run_scheme(workload, SchemeKind::Compresso, None, accesses);
        let used = r.stats.dram_used_bytes;
        (r, used)
    }

    /// Binary-searches the smallest DRAM budget at which `toggles` still
    /// delivers at least `perf_floor` accesses/µs (the Table IV
    /// methodology: "operating points where TMCC can still provide the
    /// same performance as Compresso"). Returns `(budget, report_at_budget)`.
    pub fn iso_perf_budget_search(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        perf_floor: f64,
        accesses: u64,
    ) -> (u64, RunReport) {
        self.iso_perf_budget_search_cfg(
            workload,
            |b| two_level_cfg(workload, toggles, b),
            perf_floor,
            accesses,
        )
    }

    /// Like [`SweepCtx::iso_perf_budget_search`], but with an arbitrary
    /// config factory — used by the huge-page sensitivity study, which
    /// needs extra settings on every probe.
    pub fn iso_perf_budget_search_cfg(
        &self,
        workload: &WorkloadProfile,
        make_cfg: impl Fn(u64) -> SystemConfig,
        perf_floor: f64,
        accesses: u64,
    ) -> (u64, RunReport) {
        let probe = SystemConfig::new(workload.clone(), SchemeKind::Tmcc);
        let min = System::min_budget_bytes(&probe);
        let max = workload.sim_pages * 4096 + (1 << 22);
        let mut lo = min;
        let mut hi = max;
        let mut best: Option<(u64, RunReport)> = None;
        for _ in 0..5 {
            let mid = lo + (hi - lo) / 2;
            let r = self.run(make_cfg(mid), accesses);
            if r.perf_accesses_per_us() >= perf_floor {
                best = Some((mid, r));
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        best.unwrap_or_else(|| {
            let r = self.run(make_cfg(max), accesses);
            (max, r)
        })
    }
}

/// A two-level config with explicit toggles at `budget`: full TMCC when
/// both optimizations are on, otherwise the OS-inspired design with the
/// chosen subset (Fig. 20's ablations).
fn two_level_cfg(workload: &WorkloadProfile, toggles: TmccToggles, budget: u64) -> SystemConfig {
    let kind = if toggles.embedded_ctes && toggles.fast_deflate {
        SchemeKind::Tmcc
    } else {
        SchemeKind::OsInspired
    };
    SystemConfig::new(workload.clone(), kind).with_budget(budget).with_toggles(toggles)
}

/// Unwraps a run result, panicking on a simulator error with its typed
/// [`FailureCause`] so the point is quarantined as a `sim-error`.
fn or_quarantine<R>(result: Result<R, TmccError>) -> R {
    result.unwrap_or_else(|e| std::panic::panic_any(FailureCause::Sim { error: e.to_string() }))
}

/// The typed cause of a caught panic: a [`FailureCause`] payload (a
/// simulator error or a watchdog timeout) as thrown, any other payload a
/// [`FailureCause::Panic`] with its message.
pub fn classify_failure(payload: Box<dyn std::any::Any + Send>) -> FailureCause {
    match payload.downcast::<FailureCause>() {
        Ok(cause) => *cause,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            FailureCause::Panic { message }
        }
    }
}

/// Deterministic host-side measurements of one capacity point: the
/// scheme's metadata heap and the lazy page store's activity. Everything
/// here is a pure function of the config, so it is journaled beside the
/// report and may feed golden-compared results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityProbe {
    /// Host heap bytes of the scheme's metadata structures
    /// (`System::metadata_heap_bytes`).
    pub metadata_heap_bytes: u64,
    /// Host heap bytes of the lazy page store (scratch + pinned pages).
    pub store_heap_bytes: u64,
    /// Pages materialized from the content seed.
    pub store_reads: u64,
    /// Whole-page writes verified against the seed.
    pub store_writes: u64,
    /// Writes that diverged from the seed and pinned host memory.
    pub store_divergent_writes: u64,
    /// Pages pinned (divergent) at the end of the run.
    pub pinned_pages: u64,
}

/// The journal record of one capacity point: the run's report and its
/// probe, `{"report": .., "probe": ..}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CapacityRecord {
    report: RunReport,
    probe: CapacityProbe,
}

/// Nondeterministic host costs of one *live* capacity run (wall clock,
/// RSS). `None` for journal-replayed points; only ever emitted to
/// `FOOTPRINT.json`, which the golden diffs exclude.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    /// `System::try_new` wall time, ms.
    pub construct_ms: f64,
    /// Warmup + measured accesses wall time, ms.
    pub run_ms: f64,
    /// Process RSS just before construction, kB.
    pub rss_before_kb: u64,
    /// Process RSS right after the run, kB.
    pub rss_after_kb: u64,
}

/// One experiment's entry in `BENCH_sweep.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentTiming {
    /// Registry name (also the `results/<name>.json` file stem).
    pub name: &'static str,
    /// `"ok"`, or `"failed"` when the experiment aborted on a
    /// quarantined point (see `results/FAILURES.json`).
    pub status: &'static str,
    /// Wall-clock milliseconds from the experiment's start to its finish.
    /// Under a shared `run-all` pool spans overlap and include time spent
    /// on *other* experiments' stolen work, so they sum to more than the
    /// suite wall clock and vary with scheduling order.
    pub wall_ms: f64,
    /// Summed worker milliseconds actually executing this experiment's
    /// points — schedule-independent, what `accesses_per_sec` divides by.
    pub busy_ms: f64,
    /// Total accesses (warmup included) the experiment simulated.
    pub accesses_simulated: u64,
    /// Simulation throughput per busy worker-second (falls back to the
    /// wall span for experiments that never enter the point runner).
    /// This is what `tmcc-bench perf-gate` compares: busy time makes it
    /// reproducible under the work-stealing scheduler, where span-based
    /// throughput flips by 2x+ with queue position.
    pub accesses_per_sec: f64,
    /// Runs replayed from the sweep journal instead of simulated
    /// (non-zero only under `--resume`).
    pub points_replayed: u64,
}

/// The consolidated `BENCH_sweep.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSummary {
    /// Scale the sweep ran at.
    pub scale: &'static str,
    /// Worker count.
    pub jobs: usize,
    /// Per-experiment wall clock and throughput.
    pub experiments: Vec<ExperimentTiming>,
    /// Wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
    /// Total accesses simulated across every experiment.
    pub total_accesses_simulated: u64,
    /// Aggregate simulation throughput.
    pub accesses_per_sec: f64,
    /// Peak process RSS over the whole sweep, kB (0 off-Linux). Gated
    /// one-sidedly by `tmcc-bench perf-gate` against the checked-in
    /// baseline so metadata-footprint regressions fail CI.
    pub peak_rss_kb: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_record_keeps_the_journal_format_and_round_trips() {
        let report = RunReport {
            workload: "canneal",
            scheme: SchemeKind::Tmcc,
            stats: tmcc::SimStats { accesses: 1_000, elapsed_ns: 0.1 + 0.2, ..Default::default() },
            dram: tmcc_sim_dram::DramStats::default(),
            peak_bandwidth_gbps: 25.6,
            bandwidth_utilization: 1.0 / 3.0,
        };
        let probe = CapacityProbe {
            metadata_heap_bytes: 1 << 33,
            store_heap_bytes: 12_288,
            store_reads: 7,
            store_writes: 3,
            store_divergent_writes: 1,
            pinned_pages: 1,
        };
        let record = CapacityRecord { report, probe };
        let json = serde_json::to_string(&record).expect("serializes");
        // The journal's capacity record format: both compact records,
        // side by side under fixed keys.
        let report_json = serde_json::to_string(&record.report).expect("serializes");
        let probe_json = serde_json::to_string(&probe).expect("serializes");
        assert_eq!(json, format!("{{\"report\":{report_json},\"probe\":{probe_json}}}"));
        let decoded = CapacityRecord::from_value(&serde_json::from_str(&json).expect("parses"));
        assert_eq!(decoded, Ok(record));
    }
}
