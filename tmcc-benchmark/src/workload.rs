//! The pinned workloads and what one measured pass of each does.
//!
//! Every configuration lives here, not in the repository's experiment
//! code, so an edit to an experiment cannot silently move the benchmark.

use crate::stats;
use crate::trace::{self, Layer, TracedSystem};
use crate::yardstick::Meter;
use serde::{Serialize, Value};
use tmcc::tenancy::{ChurnKind, ChurnPlan, MultiTenantConfig, TenantSpec};
use tmcc::{
    MultiTenantSystem, QosPolicyKind, RunReport, SchemeKind, System, SystemConfig, TmccError,
};
use tmcc_workloads::WorkloadProfile;

/// The seed the pinned digests in `expected.json` were taken at.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Fig. 17's iso-savings budget for `shortestPath` at 256 MiB.
const STEADY_TMCC_BUDGET: u64 = 216_215_744;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `shortestPath` under TMCC at fig17's iso-savings budget: every
    /// step-loop layer is hot, including the TMCC-only PTB harvest,
    /// migration and maintenance.
    SteadyTmcc,
    /// The same stream under Compresso, unbudgeted: the shared layers do
    /// the same work, the scheme layer does different work.
    SteadyCompresso,
    /// `pageRank` under TMCC at a 16 GiB footprint with
    /// `capacity_cliff`'s budget rule: eager construction dominates.
    Cliff,
    /// A thousand small kv tenants over one pool: the tenancy layer
    /// (arbiter, parallel round-barrier quanta, per-round audits).
    Fleet,
}

/// How a workload is built and how long it runs.
pub enum Setup {
    /// One `System`: `accesses` measured accesses in slices of `chunk`.
    Single { cfg: Box<SystemConfig>, accesses: u64, chunk: u64 },
    /// One `MultiTenantSystem`: `accesses` measured accesses in one
    /// `try_run`.
    Fleet { cfg: MultiTenantConfig, accesses: u64 },
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::SteadyTmcc, Workload::SteadyCompresso, Workload::Cliff, Workload::Fleet];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyTmcc => "steady_tmcc",
            Workload::SteadyCompresso => "steady_compresso",
            Workload::Cliff => "cliff_16g",
            Workload::Fleet => "fleet_1k",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The configuration for `seed`. `smoke` shrinks every size so the
    /// whole set runs in seconds (tests, and a quick check that the
    /// benchmark still builds and agrees with its pins).
    pub fn setup(self, seed: u64, smoke: bool) -> Setup {
        match self {
            Workload::SteadyTmcc | Workload::SteadyCompresso => {
                let mut w = WorkloadProfile::by_name("shortestPath").expect("known workload");
                let tmcc = self == Workload::SteadyTmcc;
                let scheme = if tmcc { SchemeKind::Tmcc } else { SchemeKind::Compresso };
                if smoke {
                    w.sim_pages = 4096;
                }
                let mut cfg = SystemConfig::new(w, scheme).with_seed(seed);
                if tmcc {
                    // At smoke size, the same budget-to-footprint ratio.
                    let budget = if smoke { 4096 * 3299 } else { STEADY_TMCC_BUDGET };
                    cfg = cfg.with_budget(budget);
                }
                let (accesses, chunk) = match (smoke, tmcc) {
                    (true, _) => {
                        cfg.warmup_accesses = 2_000;
                        (8_000, 1_000)
                    }
                    (false, true) => (1_000_000, 50_000),
                    (false, false) => (2_000_000, 100_000),
                };
                Setup::Single { cfg: Box::new(cfg), accesses, chunk }
            }
            Workload::Cliff => {
                let pages = if smoke { 8192 } else { 4 << 20 };
                let mut w = WorkloadProfile::by_name("pageRank").expect("known workload");
                w.sim_pages = pages;
                let mut cfg = SystemConfig::new(w, SchemeKind::Tmcc)
                    .with_budget(pages * 4096 * 9 / 16 + pages * 32)
                    .with_seed(seed ^ pages);
                let (accesses, chunk) = if smoke {
                    cfg.warmup_accesses = 2_000;
                    (8_000, 1_000)
                } else {
                    (150_000, 5_000)
                };
                Setup::Single { cfg: Box::new(cfg), accesses, chunk }
            }
            Workload::Fleet => {
                let (tenants, accesses, warmup) =
                    if smoke { (32, 20_000, 50) } else { (1024, 5_000_000, 100) };
                let cfg = fleet_config(tenants, accesses, warmup, seed);
                Setup::Fleet { cfg, accesses }
            }
        }
    }
}

/// `mt_fleet`'s full roster shape: 64-page kv tenants cycling the three
/// kv shapes, proportional share over a pool at 60 % of the summed
/// residency, quantum 64, audits on, four late arrivals and two
/// departures.
fn fleet_config(tenants: usize, total: u64, warmup: u64, seed: u64) -> MultiTenantConfig {
    let kv = |name: &str| {
        let mut w = WorkloadProfile::by_name(name).expect("kv workload");
        w.sim_pages = 64;
        w
    };
    let resident = TenantSpec::resident_frames(&kv("kv_zipf"));
    let workloads = ["kv_zipf", "kv_cache", "kv_scan"];
    let pool = tenants as u64 * u64::from(resident) * 6 / 10;
    let late = 4.min(tenants);
    let initial = tenants - late;
    let mut churn = ChurnPlan::none();
    for (j, at) in
        [total / 4, total / 3, total / 2, 2 * total / 3].into_iter().take(late).enumerate()
    {
        churn = churn.with(at, ChurnKind::Arrive { roster: initial + j });
    }
    churn = churn
        .with(3 * total / 5, ChurnKind::Depart { roster: 0 })
        .with(4 * total / 5, ChurnKind::Depart { roster: 1 });
    let mut cfg = MultiTenantConfig::new(pool, QosPolicyKind::ProportionalShare)
        .with_initial_tenants(initial)
        .with_churn(churn)
        .with_quantum(64)
        .with_warmup(warmup)
        .with_seed(seed)
        .with_size_samples(8)
        .with_audit();
    for i in 0..tenants {
        cfg = cfg.with_tenant(
            TenantSpec::new(
                &format!("f{i:04}"),
                kv(workloads[i % workloads.len()]),
                SchemeKind::Tmcc,
                200 + (i as u64 % 10),
            )
            .with_floor(resident / 2)
            .with_demand(resident),
        );
    }
    cfg
}

/// FNV-1a 64 over a value's JSON serialization, as hex.
pub fn digest<T: Serialize>(value: &T) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serde_json::to_string(value).expect("reports serialize").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What one pass measured and checked. A pass runs in a process of its
/// own, so its peak RSS and the process-wide size-model memo belong to
/// it alone.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations tried: `try_*` calls, `validate()`, output checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Digest of the run's report, when it got that far.
    pub digest: Option<String>,
    /// Per-pass metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Ns per measured access of each timed slice of the run: scaled by
    /// the yardstick in an untraced pass, host ns in a traced one.
    pub chunks: Vec<f64>,
}

impl Pass {
    fn op<T>(&mut self, what: &str, result: Result<T, TmccError>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.failures.push(format!("{what}: {e}"))).ok()
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// One-line JSON, as a pass process prints it.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|(n, v)| (n.clone(), Value::F64(*v))).collect();
        let v = Value::Map(vec![
            ("attempted".into(), Value::U64(self.attempted)),
            (
                "failures".into(),
                Value::Seq(self.failures.iter().map(|f| Value::Str(f.clone())).collect()),
            ),
            ("digest".into(), self.digest.clone().map_or(Value::Null, Value::Str)),
            ("metrics".into(), Value::Map(metrics)),
            ("chunks".into(), Value::Seq(self.chunks.iter().map(|&c| Value::F64(c)).collect())),
        ]);
        serde_json::to_string(&v).expect("values serialize")
    }

    /// Inverse of [`Pass::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("pass result lacks {k:?}"));
        let attempted = field("attempted")?.as_u64().ok_or("attempted is not a count")?;
        let failures = field("failures")?
            .as_seq()
            .ok_or("failures is not a list")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("failure is not a string"))
            .collect::<Result<_, _>>()?;
        let digest = field("digest")?.as_str().map(str::to_string);
        let metrics = field("metrics")?
            .as_map()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(n, v)| v.as_f64().map(|x| (n.clone(), x)).ok_or("metric is not a number"))
            .collect::<Result<_, _>>()?;
        let chunks = field("chunks")?
            .as_seq()
            .ok_or("chunks is not a list")?
            .iter()
            .map(|c| c.as_f64().ok_or("chunk is not a number"))
            .collect::<Result<_, _>>()?;
        Ok(Self { attempted, failures, digest, metrics, chunks })
    }
}

/// Runs one pass of `workload`: untraced for the end-to-end metrics, or
/// traced for the per-layer ones.
pub fn run_pass(workload: Workload, seed: u64, smoke: bool, traced: bool) -> Pass {
    let mut pass = Pass::default();
    if traced {
        for name in per_layer_names() {
            pass.set(&name, 0.0);
        }
    }
    match (workload.setup(seed, smoke), traced) {
        (Setup::Single { cfg, accesses, chunk }, false) => {
            untraced_single(&mut pass, *cfg, accesses, chunk);
        }
        (Setup::Single { cfg, accesses, chunk }, true) => {
            traced_single(&mut pass, *cfg, accesses, chunk);
        }
        (Setup::Fleet { cfg, accesses }, traced) => {
            run_fleet(&mut pass, cfg, accesses, traced);
        }
    }
    pass
}

fn peak_rss_mb() -> f64 {
    tmcc_bench::hostmem::peak_rss_kb() as f64 * 1024.0 / 1e6
}

/// `accesses` split into slices of at most `chunk`.
fn slices(accesses: u64, chunk: u64) -> impl Iterator<Item = u64> {
    (0..accesses).step_by(chunk as usize).map(move |done| chunk.min(accesses - done))
}

/// Checks a finished single-system report and records its digest.
fn check_report(pass: &mut Pass, report: &RunReport, accesses: u64) {
    pass.check("report counts every measured access", report.stats.accesses == accesses);
    pass.digest = Some(digest(report));
}

/// Records the median yardstick time of a traced pass, so its host times
/// can be read against how contended the host was.
fn set_yardstick(pass: &mut Pass, meter: &Meter) {
    pass.set("host.yardstick_ms", stats::median(&meter.samples).unwrap_or(0.0) / 1e6);
}

/// Builds, warms up, runs and validates a `System`, timing each phase and
/// each measured slice (into `pass.chunks`) scaled by the yardstick.
fn untraced_single(pass: &mut Pass, cfg: SystemConfig, accesses: u64, chunk: u64) -> Option<()> {
    let mut meter = Meter::new();
    let (sys, setup) = meter.time(|| System::try_new(cfg));
    let mut sys = pass.op("System::try_new", sys)?;
    let (warmed, warmup) = meter.time(|| sys.try_warmup());
    pass.op("System::try_warmup", warmed)?;
    let mut run_s = 0.0;
    for n in slices(accesses, chunk) {
        let (ran, slice) = meter.time(|| sys.try_run_slice(n));
        pass.op("System::try_run_slice", ran)?;
        run_s += slice.scaled_s;
        pass.chunks.push(slice.scaled_s * 1e9 / n as f64);
    }
    let ((report, valid), finish) = meter.time(|| (sys.report(), sys.validate()));
    pass.op("System::validate", valid)?;
    check_report(pass, &report, accesses);
    pass.set("setup_s", setup.scaled_s);
    pass.set("wall_s", setup.scaled_s + warmup.scaled_s + run_s + finish.scaled_s);
    pass.set("acc_per_s", accesses as f64 / run_s);
    pass.set("peak_rss_mb", peak_rss_mb());
    Some(())
}

/// A traced pass of a single-system workload. The instrumented copy is
/// built first, so its construction pays the cold size-model memo as a
/// user's process does; then an untraced `System` of the same
/// configuration. The two run the window in alternating slices, so slow
/// drift in host speed cancels out of the overhead estimate, and the
/// copy's report must equal the `System`'s. Slices are kept in host ns.
fn traced_single(pass: &mut Pass, cfg: SystemConfig, accesses: u64, chunk: u64) -> Option<()> {
    let mut copy = pass.op("TracedSystem::try_new", TracedSystem::try_new(cfg.clone()))?;
    let mut sys = pass.op("System::try_new", System::try_new(cfg))?;
    pass.op("TracedSystem::try_warmup", copy.try_warmup())?;
    pass.op("System::try_warmup", sys.try_warmup())?;
    let mut meter = Meter::new();
    let mut copy_chunks = Vec::new();
    for n in slices(accesses, chunk) {
        let (ran, slice) = meter.time(|| copy.try_run_slice(n));
        pass.op("TracedSystem::try_run_slice", ran)?;
        copy_chunks.push(slice.host_s * 1e9 / n as f64);
        let (ran, slice) = meter.time(|| sys.try_run_slice(n));
        pass.op("System::try_run_slice", ran)?;
        pass.chunks.push(slice.host_s * 1e9 / n as f64);
    }
    set_yardstick(pass, &meter);
    pass.op("TracedSystem::validate", copy.validate())?;
    pass.op("System::validate", sys.validate())?;
    pass.check(
        "traced copy reproduces System's report digest and latency histogram",
        trace::matches(&mut copy, &mut sys),
    );
    let report = sys.report();
    check_report(pass, &report, accesses);

    let spans = copy.spans;
    let c = copy.construct;
    pass.set("construct.page_table_s", c.page_table_s);
    pass.set("construct.size_model_s", c.size_model_s);
    pass.set("construct.scheme_s", c.scheme_s);
    for layer in Layer::ALL {
        pass.set(&format!("{}.ns_per_call", layer.name()), spans.ns_per_call(layer));
        pass.set(&format!("{}.calls", layer.name()), spans.layers[layer as usize].calls as f64);
        pass.set(&format!("{}.share", layer.name()), spans.share(layer));
    }
    let overhead = stats::median(&copy_chunks)? / stats::median(&pass.chunks)? - 1.0;
    pass.set("trace.overhead", overhead);
    pass.set("trace.coverage", spans.coverage());
    pass.set("scheme.metadata_heap_mb", copy.metadata_heap_bytes() as f64 / 1e6);
    pass.set("store.reads", copy.page_store().stats().0 as f64);
    pass.set("store.pinned_pages", copy.page_store().pinned_pages() as f64);
    set_sim_counters(pass, &[&report]);
    Some(())
}

/// A fleet pass: one `try_run` over the whole window, as `mt_fleet` makes
/// it. `MultiTenantSystem` exposes no slice-wise run (each `try_run` seals
/// every tenant's report and audits the fleet), so the pass records the
/// whole run as its one timed slice, scaled by the yardsticks on either
/// side of it. Tenant systems are built inside the tenancy layer, so the
/// trace splits only admission, the round loop and the audit, in host
/// seconds.
fn run_fleet(pass: &mut Pass, cfg: MultiTenantConfig, accesses: u64, traced: bool) -> Option<()> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    let pool = pool.map_err(|e| pass.check(&format!("thread pool: {e}"), false)).ok()?;
    pool.install(|| {
        let mut meter = Meter::new();
        let (sys, setup) = meter.time(|| MultiTenantSystem::try_new(cfg));
        let mut sys = pass.op("MultiTenantSystem::try_new", sys)?;
        let (report, run) = meter.time(|| sys.try_run(accesses));
        let report = pass.op("MultiTenantSystem::try_run", report)?;
        let (valid, validate) = meter.time(|| sys.validate());
        pass.op("MultiTenantSystem::validate", valid)?;
        pass.check(
            "report counts every measured access and no tenant faulted",
            report.total_accesses == accesses && report.tenants.iter().all(|t| t.fault.is_none()),
        );
        pass.digest = Some(digest(&report));
        if traced {
            pass.chunks.push(run.host_s * 1e9 / accesses as f64);
            pass.set("tenancy.admit_s", setup.host_s);
            pass.set("tenancy.rounds_s", run.host_s);
            pass.set("tenancy.validate_ms", validate.host_s * 1e3);
            set_yardstick(pass, &meter);
            let reports: Vec<&RunReport> =
                report.tenants.iter().filter_map(|t| t.report.as_ref()).collect();
            set_sim_counters(pass, &reports);
        } else {
            pass.chunks.push(run.scaled_s * 1e9 / accesses as f64);
            pass.set("setup_s", setup.scaled_s);
            pass.set("wall_s", setup.scaled_s + run.scaled_s + validate.scaled_s);
            pass.set("acc_per_s", accesses as f64 / run.scaled_s);
            pass.set("peak_rss_mb", peak_rss_mb());
        }
        Some(())
    })
}

/// The simulated work counters, summed over `reports`. They are exact:
/// a change that only speeds up the simulator leaves every one identical.
fn set_sim_counters(pass: &mut Pass, reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let s = |name: &str| format!("sim.{name}");
    pass.set(&s("tlb_misses"), sum(&|r| r.stats.tlb_misses));
    pass.set(&s("walker_fetches"), sum(&|r| r.stats.walker_fetches));
    pass.set(&s("llc_miss_data"), sum(&|r| r.stats.llc_miss_data));
    pass.set(&s("llc_miss_ptb"), sum(&|r| r.stats.llc_miss_ptb));
    pass.set(&s("llc_writebacks"), sum(&|r| r.stats.llc_writebacks));
    pass.set(&s("cte_hits"), sum(&|r| r.stats.cte_hits));
    pass.set(&s("cte_misses"), sum(&|r| r.stats.cte_misses));
    pass.set(&s("ml2_reads"), sum(&|r| r.stats.ml2_reads));
    pass.set(&s("ml1_to_ml2_migrations"), sum(&|r| r.stats.ml1_to_ml2_migrations));
    pass.set(&s("ml2_to_ml1_migrations"), sum(&|r| r.stats.ml2_to_ml1_migrations));
    pass.set(&s("dram_reads"), sum(&|r| r.dram.reads));
    pass.set(&s("dram_writes"), sum(&|r| r.dram.writes));
    let row_hits = sum(&|r| r.dram.row_hits);
    let row_total = row_hits + sum(&|r| r.dram.row_misses);
    pass.set(&s("dram_row_hit_rate"), if row_total > 0.0 { row_hits / row_total } else { 0.0 });
    let accesses = sum(&|r| r.stats.accesses);
    let elapsed_us: f64 = reports.iter().map(|r| r.stats.elapsed_ns / 1e3).sum();
    pass.set(&s("perf_acc_per_us"), if elapsed_us > 0.0 { accesses / elapsed_us } else { 0.0 });
}

/// Every per-layer metric a traced pass reports, in output order. Layers
/// a workload does not exercise read 0. The aggregation over passes adds
/// `run.ns_per_acc_p50`, `run.ns_per_acc_p95` and `run.chunks`.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> =
        ["construct.page_table_s", "construct.size_model_s", "construct.scheme_s"]
            .map(String::from)
            .to_vec();
    for layer in Layer::ALL {
        for stat in ["ns_per_call", "calls", "share"] {
            names.push(format!("{}.{stat}", layer.name()));
        }
    }
    names.extend(
        [
            "tenancy.admit_s",
            "tenancy.rounds_s",
            "tenancy.validate_ms",
            "trace.overhead",
            "trace.coverage",
            "host.yardstick_ms",
            "sim.tlb_misses",
            "sim.walker_fetches",
            "sim.llc_miss_data",
            "sim.llc_miss_ptb",
            "sim.llc_writebacks",
            "sim.cte_hits",
            "sim.cte_misses",
            "sim.ml2_reads",
            "sim.ml1_to_ml2_migrations",
            "sim.ml2_to_ml1_migrations",
            "sim.dram_reads",
            "sim.dram_writes",
            "sim.dram_row_hit_rate",
            "sim.perf_acc_per_us",
            "scheme.metadata_heap_mb",
            "store.reads",
            "store.pinned_pages",
        ]
        .map(String::from),
    );
    names
}
