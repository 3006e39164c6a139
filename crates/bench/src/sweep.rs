//! The shared sweep harness behind `tmcc-bench` and the per-figure
//! binaries.
//!
//! Every experiment runs through a [`SweepCtx`]: it supplies the run
//! [`Scale`], a worker pool for [`SweepCtx::par_map`] grids, the JSON
//! output directory, and global counters (accesses simulated, optional
//! host-time phase profile). Determinism is by construction — each config
//! point carries its own seed, `par_map` returns results in input order
//! regardless of scheduling, and the JSON emitters consume those ordered
//! results — so `--jobs 1` and `--jobs N` produce byte-identical
//! per-figure files.
//!
//! # Failure isolation (DESIGN.md §6.2)
//!
//! Under `tmcc-bench`, every `par_map` point runs inside a
//! `catch_unwind` ring: a panicking, erroring, or timed-out point is
//! retried up to `--retries` times (each retry deterministically
//! re-seeded in [`SweepCtx::tune`]), and a point that exhausts its
//! retries is quarantined into `results/FAILURES.json` — its experiment
//! aborts, the rest of the fleet keeps running. The sweep journal
//! ([`crate::journal`]) makes completed points replayable after a crash;
//! the watchdog ([`crate::watchdog`]) cancels points that exceed their
//! deadline through the simulator's cooperative [`RunHandle`].

use crate::failures::{FailPoint, FailureCause, FailureSink, PointFailure};
use crate::journal::{fingerprint, SweepJournal};
use crate::watchdog::{effective_budget, Watchdog};
use crate::DEFAULT_ACCESSES;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmcc::config::TmccToggles;
use tmcc::{
    MultiTenantConfig, MultiTenantReport, MultiTenantSystem, PhaseProfile, RunHandle, RunReport,
    SchemeKind, System, SystemConfig, TmccError,
};
use tmcc_workloads::WorkloadProfile;

/// How much work each config point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-fidelity runs (the published `results/` files).
    Full,
    /// ~5× smaller: CI smoke runs that still exercise every phase.
    Quick,
    /// Tiny: the golden determinism test (seconds for the whole suite).
    Test,
}

impl Scale {
    /// Display name (recorded in `BENCH_sweep.json`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
            Scale::Test => "test",
        }
    }

    /// Measured accesses per simulation run.
    pub fn accesses(self) -> u64 {
        match self {
            Scale::Full => DEFAULT_ACCESSES,
            Scale::Quick => 10_000,
            Scale::Test => 1_000,
        }
    }

    /// Warmup override (`None` keeps each config's paper default).
    pub fn warmup(self) -> Option<u64> {
        match self {
            Scale::Full => None,
            Scale::Quick => Some(5_000),
            Scale::Test => Some(500),
        }
    }

    /// Pages per workload image for the compression-ratio study (Fig. 15).
    pub fn content_pages(self) -> u64 {
        match self {
            Scale::Full => 384,
            Scale::Quick => 96,
            Scale::Test => 16,
        }
    }

    /// Pages per workload feeding the Deflate cycle model (Table II).
    pub fn corpus_pages(self) -> u64 {
        match self {
            Scale::Full => 24,
            Scale::Quick => 8,
            Scale::Test => 4,
        }
    }

    /// Cap on each workload's simulated footprint (`None` keeps the
    /// paper-scale page counts). Only the test scale shrinks footprints:
    /// system construction (page table, size-model sampling) is linear in
    /// pages and would otherwise dominate tiny runs.
    pub fn pages_cap(self) -> Option<u64> {
        match self {
            Scale::Full | Scale::Quick => None,
            Scale::Test => Some(2_048),
        }
    }

    /// Size-model codec samples per system ([`SystemConfig::size_samples`]).
    /// Sampling compresses real pages with the real codecs, a fixed
    /// ~100 ms per constructed system at the paper default of 128 — fine
    /// for paper-scale runs, dominant at the test scale.
    pub fn size_samples(self) -> usize {
        match self {
            Scale::Full | Scale::Quick => 128,
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
            Scale::Quick => Duration::from_secs(120),
            Scale::Test => Duration::from_secs(60),
        }
    }
}

/// Default `--retries`: attempts per point = retries + 1.
pub const DEFAULT_RETRIES: u32 = 2;

/// Resolves a `--jobs` request: 0 means one worker per available CPU.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// A point's retry state, visible to [`SweepCtx::tune`] on the worker
/// thread executing the point.
#[derive(Debug, Clone, Copy, Default)]
struct PointState {
    attempt: u32,
    timeouts: u32,
}

thread_local! {
    /// Retry state of the point currently executing on this worker.
    static POINT_CTX: Cell<PointState> = const { Cell::new(PointState { attempt: 0, timeouts: 0 }) };
    /// Display form of the last simulator error [`SweepCtx::run`]
    /// panicked on — lets the retry ring report a typed `sim-error`
    /// cause instead of a generic panic.
    static LAST_SIM_ERROR: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Seed of the most recently tuned config on this worker, recorded
    /// into `FAILURES.json` so a quarantined point can be replayed at
    /// the exact seed of its final attempt.
    static LAST_POINT_SEED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Panic payload for a watchdog-cancelled run; [`SweepCtx::try_run`]
/// throws it so timeouts route through the same retry ring as panics,
/// even for callers that match on `Result` (the robustness sweep).
struct PointTimeout {
    budget_ms: u64,
}

/// Panic payload thrown after a point exhausts its retries and was
/// recorded in the failure sink. The experiment-level `catch_unwind` in
/// `tmcc-bench` recognizes it and does not double-report.
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
    profile_enabled: bool,
    experiment: &'static str,
    budget_weight: f64,
    retries: u32,
    only_point: Option<usize>,
    journal: Option<Arc<SweepJournal>>,
    watchdog: Option<Arc<Watchdog>>,
    failures: Option<Arc<FailureSink>>,
    accesses: AtomicU64,
    /// Summed worker time spent executing this experiment's points. Under
    /// the shared `run-all` pool an experiment's *span* includes time its
    /// workers were stolen by other experiments, so span-based throughput
    /// is schedule-dependent; busy time is not.
    busy_ns: AtomicU64,
    points_replayed: AtomicU64,
    prof_steps: AtomicU64,
    prof_workload_ns: AtomicU64,
    prof_translation_ns: AtomicU64,
    prof_data_ns: AtomicU64,
    prof_maintenance_ns: AtomicU64,
}

impl SweepCtx {
    /// Builds a context with its own pool. `jobs == 0` means one worker
    /// per available CPU.
    pub fn new(scale: Scale, jobs: usize, out_dir: PathBuf, profile: bool) -> Self {
        let jobs = resolve_jobs(jobs);
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool"));
        Self::with_pool(scale, jobs, out_dir, profile, pool)
    }

    /// Builds a context over an existing shared pool. `jobs` must already
    /// be resolved (non-zero) and should match the pool's thread count.
    pub fn with_pool(
        scale: Scale,
        jobs: usize,
        out_dir: PathBuf,
        profile: bool,
        pool: Arc<ThreadPool>,
    ) -> Self {
        Self {
            scale,
            jobs,
            pool,
            out_dir,
            profile_enabled: profile,
            experiment: "",
            budget_weight: 1.0,
            retries: DEFAULT_RETRIES,
            only_point: None,
            journal: None,
            watchdog: None,
            failures: None,
            accesses: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            points_replayed: AtomicU64::new(0),
            prof_steps: AtomicU64::new(0),
            prof_workload_ns: AtomicU64::new(0),
            prof_translation_ns: AtomicU64::new(0),
            prof_data_ns: AtomicU64::new(0),
            prof_maintenance_ns: AtomicU64::new(0),
        }
    }

    /// Context for a standalone figure binary: full scale, auto jobs,
    /// the repo `results/` directory.
    pub fn standalone() -> Self {
        Self::new(Scale::Full, 0, crate::results_dir(), false)
    }

    /// Names the experiment this context runs and sets its watchdog
    /// budget multiplier (`registry::Experiment::budget_weight`). The
    /// name keys the context's journal records and failure reports.
    pub fn for_experiment(mut self, name: &'static str, budget_weight: f64) -> Self {
        self.experiment = name;
        self.budget_weight = budget_weight;
        self
    }

    /// Attaches the shared sweep journal: completed runs are appended,
    /// and runs already journaled are replayed instead of simulated.
    pub fn with_journal(mut self, journal: Arc<SweepJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches the shared watchdog: every simulation run gets a
    /// cancellation deadline.
    pub fn with_watchdog(mut self, watchdog: Arc<Watchdog>) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Attaches the shared failure sink, enabling the per-point retry +
    /// quarantine ring in [`SweepCtx::par_map`].
    pub fn with_failures(mut self, failures: Arc<FailureSink>) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Sets the per-point retry count (attempts = retries + 1).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Restricts the sweep to one point index of the experiment's first
    /// grid (`tmcc-bench run <exp> --point <idx>`): the point runs alone
    /// through the normal retry ring, then the experiment stops with
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

    /// Summed worker nanoseconds spent executing this context's points
    /// (all attempts). Independent of how the shared pool interleaved
    /// this experiment with others, unlike its start-to-finish span.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Runs replayed from the journal instead of simulated.
    pub fn points_replayed(&self) -> u64 {
        self.points_replayed.load(Ordering::Relaxed)
    }

    /// The experiment name this context was built for ("" standalone).
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// Aggregated host-time phase profile, if profiling was requested.
    pub fn profile(&self) -> Option<PhaseProfile> {
        if !self.profile_enabled {
            return None;
        }
        Some(PhaseProfile {
            steps: self.prof_steps.load(Ordering::Relaxed),
            workload_ns: self.prof_workload_ns.load(Ordering::Relaxed),
            translation_ns: self.prof_translation_ns.load(Ordering::Relaxed),
            data_ns: self.prof_data_ns.load(Ordering::Relaxed),
            maintenance_ns: self.prof_maintenance_ns.load(Ordering::Relaxed),
        })
    }

    /// Maps `f` over `items` on the worker pool; results come back in
    /// input order no matter how the workers are scheduled.
    ///
    /// When a failure sink is attached (`tmcc-bench` runs), each point
    /// runs inside the retry ring: a panic, simulator error, or watchdog
    /// timeout is retried up to the configured `--retries` with a
    /// deterministic re-seed, and a point that exhausts its attempts is
    /// quarantined before the experiment aborts with [`PointAborted`].
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Clone,
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
        T: Send + Clone,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.map_points(items, f, true)
    }

    fn map_points<T, R, F>(&self, items: Vec<T>, f: F, sequential: bool) -> Vec<R>
    where
        T: Send + Clone,
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

    /// One point through the retry ring (or straight through when no
    /// failure sink is attached — standalone binaries keep the legacy
    /// fail-fast behavior).
    fn run_point<T, R, F>(&self, index: usize, item: T, f: &F) -> R
    where
        T: Clone,
        F: Fn(T) -> R,
    {
        let Some(sink) = &self.failures else {
            let start = Instant::now();
            let r = f(item);
            self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return r;
        };
        let attempts = self.retries + 1;
        let mut timeouts = 0u32;
        let mut last_cause = None;
        for attempt in 0..attempts {
            POINT_CTX.with(|c| c.set(PointState { attempt, timeouts }));
            LAST_SIM_ERROR.with(|c| c.borrow_mut().take());
            let injected =
                FailPoint::from_env().is_some_and(|fp| fp.matches(self.experiment, index, attempt));
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    panic!("injected failure ({})", crate::failures::FAIL_POINT_ENV);
                }
                f(item.clone())
            }));
            self.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            POINT_CTX.with(|c| c.set(PointState::default()));
            match result {
                Ok(r) => {
                    if attempt > 0 {
                        eprintln!(
                            "[{}] point {index} recovered on attempt {}",
                            self.experiment,
                            attempt + 1
                        );
                    }
                    return r;
                }
                Err(payload) => {
                    let cause = classify_failure(payload);
                    if matches!(cause, FailureCause::Timeout { .. }) {
                        timeouts += 1;
                    }
                    eprintln!(
                        "[{}] point {index} attempt {}/{attempts} failed ({})",
                        self.experiment,
                        attempt + 1,
                        cause.kind()
                    );
                    last_cause = Some(cause);
                }
            }
        }
        let cause = last_cause.unwrap_or(FailureCause::Panic { message: "unknown".into() });
        sink.record(PointFailure {
            experiment: self.experiment,
            index,
            cause,
            attempts,
            seed: LAST_POINT_SEED.with(Cell::get),
            scale: self.scale.name(),
            config_hash: crate::journal::scale_config_hash(self.scale),
        });
        std::panic::panic_any(PointAborted);
    }

    /// Writes `results/<name>.json` under the context's output directory
    /// (same bytes as the legacy per-binary `write_json`).
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

    /// Applies the scale's warmup/footprint overrides and the profile
    /// flag to a config, plus the executing point's retry adjustments:
    /// retry attempts get a deterministic seed perturbation (a flaky
    /// point re-rolls its access stream instead of replaying the exact
    /// crash), and `--quick` runs halve the footprint per prior timeout
    /// so a wedged smoke point degrades instead of timing out forever.
    pub fn tune(&self, mut cfg: SystemConfig) -> SystemConfig {
        if let Some(w) = self.scale.warmup() {
            cfg.warmup_accesses = w;
        }
        if let Some(cap) = self.scale.pages_cap() {
            cfg.workload.sim_pages = cfg.workload.sim_pages.min(cap);
        }
        cfg.size_samples = self.scale.size_samples();
        if self.profile_enabled {
            cfg.profile = true;
        }
        let point = POINT_CTX.with(Cell::get);
        if point.attempt > 0 {
            cfg.seed ^= RESEED_GOLDEN.wrapping_mul(point.attempt as u64);
        }
        if point.timeouts > 0 && self.scale == Scale::Quick {
            let shift = point.timeouts.min(8);
            cfg.workload.sim_pages = (cfg.workload.sim_pages >> shift).max(64);
        }
        LAST_POINT_SEED.with(|c| c.set(Some(cfg.seed)));
        cfg
    }

    /// Multi-tenant counterpart of [`SweepCtx::tune`]. The scenario
    /// builders in `experiments::mt` are already scale-aware (roster
    /// footprints, warmups and quanta are sized per [`Scale`]), so only
    /// the per-attempt retry re-seed applies here.
    pub fn tune_mt(&self, mut cfg: MultiTenantConfig) -> MultiTenantConfig {
        let point = POINT_CTX.with(Cell::get);
        if point.attempt > 0 {
            cfg.seed ^= RESEED_GOLDEN.wrapping_mul(point.attempt as u64);
        }
        LAST_POINT_SEED.with(|c| c.set(Some(cfg.seed)));
        cfg
    }

    /// Runs one tuned config for `accesses` measured accesses, counting
    /// the simulated work and (if enabled) the phase profile.
    pub fn run(&self, cfg: SystemConfig, accesses: u64) -> RunReport {
        match self.try_run(cfg, accesses) {
            Ok(r) => r,
            Err(e) => {
                // Leave the typed error for the retry ring's classifier;
                // the panic itself is what routes control there.
                LAST_SIM_ERROR.with(|c| *c.borrow_mut() = Some(e.to_string()));
                panic!("{e}")
            }
        }
    }

    /// Fallible variant of [`SweepCtx::run`] (robustness sweeps record
    /// the error instead of aborting).
    ///
    /// This is the journal's unit of replay: the tuned config + access
    /// count fingerprint the run, a journal hit decodes the stored
    /// report (bit-exact — downstream JSON stays byte-identical) instead
    /// of simulating, and a completed run is appended before returning.
    /// Watchdog cancellation is converted to a [`PointTimeout`] panic so
    /// timeouts reach the retry ring even from callers that handle the
    /// `Err` branch themselves.
    pub fn try_run(&self, cfg: SystemConfig, accesses: u64) -> Result<RunReport, TmccError> {
        self.try_run_keyed("", cfg, accesses)
    }

    /// Integrity-storm counterpart of [`SweepCtx::try_run`]: identical
    /// replay and journaling, but keys carry the `int|` prefix (like
    /// `mt|` and `cap|`) so storm records — whose configs differ from a
    /// plain run's only by the flip plan — live in their own key space
    /// and can never shadow or be shadowed by another family's record.
    pub fn try_run_integrity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> Result<RunReport, TmccError> {
        self.try_run_keyed("int|", cfg, accesses)
    }

    /// Runs one integrity point, panicking on error so failures route
    /// through the retry ring (the storm counterpart of [`SweepCtx::run`]).
    pub fn run_integrity(&self, cfg: SystemConfig, accesses: u64) -> RunReport {
        match self.try_run_integrity(cfg, accesses) {
            Ok(r) => r,
            Err(e) => {
                LAST_SIM_ERROR.with(|c| *c.borrow_mut() = Some(e.to_string()));
                panic!("{e}")
            }
        }
    }

    fn try_run_keyed(
        &self,
        key_prefix: &'static str,
        cfg: SystemConfig,
        accesses: u64,
    ) -> Result<RunReport, TmccError> {
        let cfg = self.tune(cfg);
        let warmup = cfg.warmup_accesses;
        let key = fingerprint(&format!("{key_prefix}{cfg:?}|{accesses}"));
        if let Some(journal) = &self.journal {
            if let Some(json) = journal.lookup(self.experiment, key) {
                match decode_report(json) {
                    Ok(report) => {
                        self.accesses.fetch_add(warmup + accesses, Ordering::Relaxed);
                        self.points_replayed.fetch_add(1, Ordering::Relaxed);
                        return Ok(report);
                    }
                    Err(detail) => eprintln!(
                        "warning: [{}] journal record undecodable ({detail}); re-running",
                        self.experiment
                    ),
                }
            }
        }
        let mut sys = System::try_new(cfg)?;
        let _guard = self.watchdog.as_ref().map(|dog| {
            let handle = RunHandle::new();
            sys.attach_handle(&handle);
            dog.arm(self.point_budget(), &handle)
        });
        let result = sys.try_run(accesses);
        // Count even failed runs: the work up to the failure was simulated.
        self.accesses.fetch_add(warmup + accesses, Ordering::Relaxed);
        let p = sys.phase_profile();
        if p.steps > 0 {
            self.prof_steps.fetch_add(p.steps, Ordering::Relaxed);
            self.prof_workload_ns.fetch_add(p.workload_ns, Ordering::Relaxed);
            self.prof_translation_ns.fetch_add(p.translation_ns, Ordering::Relaxed);
            self.prof_data_ns.fetch_add(p.data_ns, Ordering::Relaxed);
            self.prof_maintenance_ns.fetch_add(p.maintenance_ns, Ordering::Relaxed);
        }
        if let Err(e) = &result {
            if e.is_cancelled() {
                let budget_ms = self.point_budget().as_millis() as u64;
                std::panic::panic_any(PointTimeout { budget_ms });
            }
        }
        if let (Ok(report), Some(journal)) = (&result, &self.journal) {
            match serde_json::to_string(report) {
                Ok(json) => journal.append(self.experiment, key, &json),
                Err(e) => eprintln!("warning: could not journal a run: {e}"),
            }
        }
        result
    }

    /// Runs one multi-tenant scenario, panicking on error so failures
    /// route through the retry ring (the MT counterpart of
    /// [`SweepCtx::run`]).
    pub fn run_mt(&self, cfg: MultiTenantConfig, accesses: u64) -> MultiTenantReport {
        match self.try_run_mt(cfg, accesses) {
            Ok(r) => r,
            Err(e) => {
                LAST_SIM_ERROR.with(|c| *c.borrow_mut() = Some(e.to_string()));
                panic!("{e}")
            }
        }
    }

    /// Fallible multi-tenant counterpart of [`SweepCtx::try_run`]: same
    /// journal replay (keys prefixed `mt|` so they can never collide
    /// with single-system fingerprints), same watchdog arming — the
    /// cancellation token is wired in before construction so admission
    /// warmups respect the deadline — and the same timeout-to-panic
    /// conversion into the retry ring.
    pub fn try_run_mt(
        &self,
        cfg: MultiTenantConfig,
        accesses: u64,
    ) -> Result<MultiTenantReport, TmccError> {
        let cfg = self.tune_mt(cfg);
        let initial_warmups =
            cfg.warmup_accesses * cfg.initial_tenants.min(cfg.roster.len()) as u64;
        let key = fingerprint(&format!("mt|{cfg:?}|{accesses}"));
        if let Some(journal) = &self.journal {
            if let Some(json) = journal.lookup(self.experiment, key) {
                match decode_mt_report(json) {
                    Ok(report) => {
                        self.accesses.fetch_add(initial_warmups + accesses, Ordering::Relaxed);
                        self.points_replayed.fetch_add(1, Ordering::Relaxed);
                        return Ok(report);
                    }
                    Err(detail) => eprintln!(
                        "warning: [{}] journal record undecodable ({detail}); re-running",
                        self.experiment
                    ),
                }
            }
        }
        let handle = RunHandle::new();
        let _guard = self.watchdog.as_ref().map(|dog| dog.arm(self.point_budget(), &handle));
        let result = MultiTenantSystem::try_new_cancellable(cfg, Some(&handle))
            .and_then(|mut sys| sys.try_run(accesses));
        // Count even failed scenarios: the work up to the failure ran.
        self.accesses.fetch_add(initial_warmups + accesses, Ordering::Relaxed);
        if let Err(e) = &result {
            if e.is_cancelled() {
                let budget_ms = self.point_budget().as_millis() as u64;
                std::panic::panic_any(PointTimeout { budget_ms });
            }
        }
        if let (Ok(report), Some(journal)) = (&result, &self.journal) {
            match serde_json::to_string(report) {
                Ok(json) => journal.append(self.experiment, key, &json),
                Err(e) => eprintln!("warning: could not journal a run: {e}"),
            }
        }
        result
    }

    /// Runs one capacity/footprint point, panicking on error so failures
    /// route through the retry ring (the capacity counterpart of
    /// [`SweepCtx::run`]).
    pub fn run_capacity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> (RunReport, CapacityProbe, Option<HostCost>) {
        match self.try_run_capacity(cfg, accesses) {
            Ok(r) => r,
            Err(e) => {
                LAST_SIM_ERROR.with(|c| *c.borrow_mut() = Some(e.to_string()));
                panic!("{e}")
            }
        }
    }

    /// Capacity counterpart of [`SweepCtx::try_run`]: same journal replay
    /// (keys prefixed `cap|`) and watchdog arming, but the journal record
    /// carries a [`CapacityProbe`] beside the report — the host-side
    /// metadata/store measurements a plain [`RunReport`] cannot express.
    /// The returned [`HostCost`] is the *nondeterministic* wall-clock/RSS
    /// side and is `None` for replayed points; it must never feed a
    /// golden-compared results file.
    pub fn try_run_capacity(
        &self,
        cfg: SystemConfig,
        accesses: u64,
    ) -> Result<(RunReport, CapacityProbe, Option<HostCost>), TmccError> {
        let cfg = self.tune(cfg);
        let warmup = cfg.warmup_accesses;
        let key = fingerprint(&format!("cap|{cfg:?}|{accesses}"));
        if let Some(journal) = &self.journal {
            if let Some(json) = journal.lookup(self.experiment, key) {
                match decode_capacity(json) {
                    Ok((report, probe)) => {
                        self.accesses.fetch_add(warmup + accesses, Ordering::Relaxed);
                        self.points_replayed.fetch_add(1, Ordering::Relaxed);
                        return Ok((report, probe, None));
                    }
                    Err(detail) => eprintln!(
                        "warning: [{}] journal record undecodable ({detail}); re-running",
                        self.experiment
                    ),
                }
            }
        }
        let rss_before_kb = crate::hostmem::current_rss_kb();
        let construct_start = Instant::now();
        let mut sys = System::try_new(cfg)?;
        let construct_ms = construct_start.elapsed().as_secs_f64() * 1e3;
        let _guard = self.watchdog.as_ref().map(|dog| {
            let handle = RunHandle::new();
            sys.attach_handle(&handle);
            dog.arm(self.point_budget(), &handle)
        });
        let run_start = Instant::now();
        let result = sys.try_run(accesses);
        let run_ms = run_start.elapsed().as_secs_f64() * 1e3;
        self.accesses.fetch_add(warmup + accesses, Ordering::Relaxed);
        if let Err(e) = &result {
            if e.is_cancelled() {
                let budget_ms = self.point_budget().as_millis() as u64;
                std::panic::panic_any(PointTimeout { budget_ms });
            }
        }
        let report = result?;
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
        let host = HostCost {
            construct_ms,
            run_ms,
            rss_before_kb,
            rss_after_kb: crate::hostmem::current_rss_kb(),
        };
        if let Some(journal) = &self.journal {
            match (serde_json::to_string(&report), serde_json::to_string(&probe)) {
                (Ok(r), Ok(p)) => {
                    journal.append(
                        self.experiment,
                        key,
                        &format!("{{\"report\":{r},\"probe\":{p}}}"),
                    );
                }
                _ => eprintln!("warning: could not journal a capacity run"),
            }
        }
        Ok((report, probe, Some(host)))
    }

    /// This context's watchdog deadline per simulation run.
    fn point_budget(&self) -> Duration {
        effective_budget(self.scale.point_budget().mul_f64(self.budget_weight.max(0.1)))
    }

    /// [`crate::run_scheme`] through the context.
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

    /// [`crate::run_two_level`] through the context.
    pub fn run_two_level(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        budget: u64,
        accesses: u64,
    ) -> RunReport {
        let kind = if toggles.embedded_ctes && toggles.fast_deflate {
            SchemeKind::Tmcc
        } else {
            SchemeKind::OsInspired
        };
        let cfg =
            SystemConfig::new(workload.clone(), kind).with_budget(budget).with_toggles(toggles);
        self.run(cfg, accesses)
    }

    /// [`crate::compresso_anchor`] through the context.
    pub fn compresso_anchor(&self, workload: &WorkloadProfile, accesses: u64) -> (RunReport, u64) {
        let r = self.run_scheme(workload, SchemeKind::Compresso, None, accesses);
        let used = r.stats.dram_used_bytes;
        (r, used)
    }

    /// [`crate::iso_perf_budget_search`] through the context.
    pub fn iso_perf_budget_search(
        &self,
        workload: &WorkloadProfile,
        toggles: TmccToggles,
        perf_floor: f64,
        accesses: u64,
    ) -> (u64, RunReport) {
        let kind = if toggles.embedded_ctes && toggles.fast_deflate {
            SchemeKind::Tmcc
        } else {
            SchemeKind::OsInspired
        };
        self.iso_perf_budget_search_cfg(
            workload,
            |b| SystemConfig::new(workload.clone(), kind).with_budget(b).with_toggles(toggles),
            perf_floor,
            accesses,
        )
    }

    /// [`crate::iso_perf_budget_search_cfg`] through the context.
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

/// Seed-perturbation constant for retry attempts (the golden-ratio
/// multiplier also used by the workspace hasher). `seed ^ GOLDEN*attempt`
/// is deterministic — re-running a resumed sweep retries with the same
/// perturbed seeds — yet decorrelates the access stream from the attempt
/// that failed.
const RESEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Classifies a caught point panic into a typed cause, consuming the
/// thread-local simulator-error note when one was left.
fn classify_failure(payload: Box<dyn std::any::Any + Send>) -> FailureCause {
    let payload = match payload.downcast::<PointTimeout>() {
        Ok(t) => return FailureCause::Timeout { budget_ms: t.budget_ms },
        Err(p) => p,
    };
    if let Some(error) = LAST_SIM_ERROR.with(|c| c.borrow_mut().take()) {
        return FailureCause::Sim { error };
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    FailureCause::Panic { message }
}

/// Decodes a journaled compact-JSON report (see `RunReport::from_value`).
fn decode_report(json: &str) -> Result<RunReport, String> {
    let value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    RunReport::from_value(&value)
}

/// Decodes a journaled multi-tenant report.
fn decode_mt_report(json: &str) -> Result<MultiTenantReport, String> {
    let value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    MultiTenantReport::from_value(&value)
}

/// Deterministic host-side measurements of one capacity point: the
/// scheme's metadata heap and the lazy page store's activity. Everything
/// here is a pure function of the config, so it is journaled beside the
/// report and may feed golden-compared results files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

impl CapacityProbe {
    /// Decodes a probe from its journaled JSON value.
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        let mut f = serde::FieldReader::open(v, "CapacityProbe")?;
        let probe = Self {
            metadata_heap_bytes: f.u64("metadata_heap_bytes")?,
            store_heap_bytes: f.u64("store_heap_bytes")?,
            store_reads: f.u64("store_reads")?,
            store_writes: f.u64("store_writes")?,
            store_divergent_writes: f.u64("store_divergent_writes")?,
            pinned_pages: f.u64("pinned_pages")?,
        };
        f.finish()?;
        Ok(probe)
    }
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

/// Decodes a journaled capacity record (`{"report": .., "probe": ..}`).
fn decode_capacity(json: &str) -> Result<(RunReport, CapacityProbe), String> {
    let value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let mut f = serde::FieldReader::open(&value, "CapacityRecord")?;
    let report = RunReport::from_value(f.value("report")?)?;
    let probe = CapacityProbe::from_value(f.value("probe")?)?;
    f.finish()?;
    Ok((report, probe))
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
    /// Host-time phase profile (all zeros unless `--profile` was given).
    pub profile: PhaseProfile,
}
