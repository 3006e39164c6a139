//! `tmcc-bench` — the parallel sweep driver for the whole figure suite.
//!
//! ```text
//! tmcc-bench list
//! tmcc-bench run <name>... [--jobs N] [--test] [--out DIR] [--resume]
//!                          [--point N]
//! tmcc-bench run-all       [--jobs N] [--test] [--out DIR] [--resume]
//! ```
//!
//! `run <name>` runs the named experiments, each writing its
//! `results/<name>.json`; `run-all` executes every registered experiment
//! — byte-identically at any `--jobs` count — and adds a consolidated
//! `results/BENCH_sweep.json` with wall-clock, accesses simulated and
//! accesses/sec per experiment. Per-layer host-time attribution is the
//! benchmark's job: `tmcc-benchmark --trace 1`.
//!
//! # Crash safety (DESIGN.md §6.2)
//!
//! Every completed simulation run is journaled under
//! `<out>/.journal/`, keyed by the run alone; `--resume` replays
//! journaled runs byte-identically, for whichever experiment asks for
//! them, and simulates only the remainder. A point runs once: if it
//! fails it is quarantined into `results/FAILURES.json`, which fails its
//! experiment but never the rest of the fleet, and the process exits
//! non-zero so CI notices. `--resume` (or `--point`) re-runs a
//! quarantined point at its declared config.

use rayon::ThreadPoolBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmcc_bench::failures::{FailureCause, FailureSink};
use tmcc_bench::journal::{JournalMeta, ResumeState, SweepJournal};
use tmcc_bench::perf_gate;
use tmcc_bench::registry::{self, Experiment};
use tmcc_bench::sweep::{
    classify_failure, resolve_jobs, ExperimentTiming, PointAborted, PointReplayDone, Scale,
    SweepCtx, SweepSummary,
};
use tmcc_bench::watchdog::Watchdog;

struct Options {
    jobs: usize,
    scale: Scale,
    out: PathBuf,
    resume: bool,
    point: Option<usize>,
    names: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tmcc-bench <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                 list registered experiments\n\
         \x20 run <name>...        run the named experiments\n\
         \x20 run-all              run every registered experiment\n\
         \x20 perf-gate --baseline F --current F [--tolerance-pct P]\n\
         \x20           [--rss-tolerance-pct R]\n\
         \x20                      diff two BENCH_sweep.json summaries; exit 1 on\n\
         \x20                      any acc/s regression beyond P% (default 15) or\n\
         \x20                      peak-RSS growth beyond R% (default 25)\n\
         \n\
         options:\n\
         \x20 --jobs N             worker threads (default: one per CPU)\n\
         \x20 --test               tiny runs (golden determinism scale)\n\
         \x20 --out DIR            output directory (default: repo results/)\n\
         \x20 --resume             replay completed runs from the sweep journal\n\
         \x20 --point N            (run, one experiment) replay only grid point N —\n\
         \x20                      standalone reproduction of a FAILURES.json entry"
    );
    std::process::exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        jobs: 0,
        scale: Scale::Full,
        out: tmcc_bench::results_dir(),
        resume: false,
        point: None,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--test" => opts.scale = Scale::Test,
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.out = PathBuf::from(v);
            }
            "--resume" => opts.resume = true,
            "--point" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.point = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}\n");
                usage();
            }
            name => opts.names.push(name.to_string()),
        }
    }
    opts
}

/// The shared crash-safety plumbing of one sweep invocation.
struct Harness {
    journal: Arc<SweepJournal>,
    watchdog: Arc<Watchdog>,
    failures: Arc<FailureSink>,
}

impl Harness {
    /// Opens the journal (resuming if asked), starts the watchdog.
    fn new(opts: &Options) -> Self {
        let meta = JournalMeta::current();
        let journal = if opts.resume {
            match SweepJournal::open_resume(&opts.out, &meta) {
                Ok((journal, state)) => {
                    match state {
                        ResumeState::Fresh => {
                            println!("[resume] no journal found; starting cold");
                        }
                        ResumeState::Resumed { records, dropped_tail } => {
                            println!(
                                "[resume] replaying {records} completed run(s) from {}{}",
                                journal.path().display(),
                                if dropped_tail { " (torn tail dropped)" } else { "" }
                            );
                        }
                        ResumeState::Invalidated { field } => {
                            println!(
                                "[resume] journal {field} mismatch (written by a different \
                                 build or journal format); starting cold"
                            );
                        }
                    }
                    journal
                }
                Err(e) => {
                    eprintln!("cannot resume: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            match SweepJournal::open_fresh(&opts.out, &meta) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot open sweep journal: {e}");
                    std::process::exit(1);
                }
            }
        };
        Self {
            journal: Arc::new(journal),
            watchdog: Arc::new(Watchdog::new()),
            failures: Arc::new(FailureSink::new()),
        }
    }

    /// A context wired to the shared journal/watchdog/sink for one
    /// experiment.
    fn ctx_for(
        &self,
        e: &Experiment,
        opts: &Options,
        jobs: usize,
        pool: Arc<rayon::ThreadPool>,
    ) -> SweepCtx {
        SweepCtx::with_pool(
            opts.scale,
            jobs,
            opts.out.clone(),
            pool,
            Arc::clone(&self.journal),
            Arc::clone(&self.watchdog),
            Arc::clone(&self.failures),
        )
        .for_experiment(e.name, e.budget_weight)
        .with_point(opts.point)
    }
}

/// Runs one experiment through its context, isolating panics: a point
/// quarantine ([`PointAborted`]) or any other experiment-level panic
/// marks the experiment failed without taking down the suite.
fn run_one(e: &Experiment, ctx: &SweepCtx) -> ExperimentTiming {
    println!("\n━━━ {} ━━━", e.name);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| (e.run)(ctx)));
    let wall = start.elapsed();
    let status = match outcome {
        Ok(()) => "ok",
        Err(payload) if payload.is::<PointReplayDone>() => "replayed",
        Err(payload) if payload.is::<PointAborted>() => "failed",
        Err(payload) => {
            eprintln!("[{}] experiment aborted ({})", e.name, classify_failure(payload));
            "failed"
        }
    };
    let accesses = ctx.accesses_simulated();
    // Throughput divides by summed point-execution time, not the span:
    // under the shared pool a span includes time this experiment's
    // workers spent stolen by other experiments, which makes span-based
    // acc/s flip 2x+ with scheduling order and trip the perf gate.
    let busy = ctx.busy_ns() as f64 / 1e9;
    let denom = if busy > 0.0 { busy } else { wall.as_secs_f64() };
    ExperimentTiming {
        name: e.name,
        status,
        wall_ms: wall.as_secs_f64() * 1e3,
        busy_ms: busy * 1e3,
        accesses_simulated: accesses,
        accesses_per_sec: accesses as f64 / denom.max(1e-9),
        points_replayed: ctx.points_replayed(),
    }
}

/// Runs `experiments` sequentially, one context each, timing each.
fn run_suite_serial(
    experiments: &[Experiment],
    opts: &Options,
    harness: &Harness,
) -> Vec<ExperimentTiming> {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(1).build().expect("pool"));
    let mut timings = Vec::new();
    for e in experiments {
        let ctx = harness.ctx_for(e, opts, 1, Arc::clone(&pool));
        timings.push(run_one(e, &ctx));
    }
    timings
}

/// Runs `experiments` as tasks on one shared work-stealing pool: every
/// experiment is spawned up front, each with its own context (so access
/// counters stay per-experiment) over the same pool, and the pool
/// saturates its workers across experiment boundaries — an experiment's
/// inner grid chunks fill the gaps left by another's stragglers.
///
/// Results land in per-experiment slots indexed by registry position, so
/// the summary (and every `results/*.json`) keeps registry order no
/// matter how the tasks get scheduled. Per-experiment wall clocks overlap
/// under this scheduler (idle workers take whichever task is queued), so
/// they sum to more than the suite's wall clock; a thread waiting inside
/// an experiment only helps that experiment's own tasks, so busy times
/// stay per-experiment. Panics never reach the
/// shared pool's scope join — [`run_one`] catches them at the experiment
/// boundary, so one failing experiment cannot poison the batch.
fn run_suite_parallel(
    experiments: &[Experiment],
    opts: &Options,
    harness: &Harness,
    jobs: usize,
) -> Vec<ExperimentTiming> {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(jobs).build().expect("pool"));
    let ctxs: Vec<SweepCtx> =
        experiments.iter().map(|e| harness.ctx_for(e, opts, jobs, Arc::clone(&pool))).collect();
    let slots: Vec<Mutex<Option<ExperimentTiming>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();
    pool.scope(|scope| {
        for (i, e) in experiments.iter().enumerate() {
            let ctx = &ctxs[i];
            let slot = &slots[i];
            scope.spawn(move || {
                *slot.lock().expect("timing slot") = Some(run_one(e, ctx));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("timing slot").expect("experiment ran"))
        .collect()
}

/// Runs `experiments`, timing each; returns the consolidated summary.
fn run_suite(experiments: &[Experiment], opts: &Options, harness: &Harness) -> SweepSummary {
    let jobs = resolve_jobs(opts.jobs);
    let suite_start = Instant::now();
    let timings = if jobs <= 1 {
        run_suite_serial(experiments, opts, harness)
    } else {
        run_suite_parallel(experiments, opts, harness, jobs)
    };
    let total_wall = suite_start.elapsed();
    let total_accesses: u64 = timings.iter().map(|t| t.accesses_simulated).sum();
    SweepSummary {
        scale: opts.scale.name(),
        jobs,
        experiments: timings,
        total_wall_ms: total_wall.as_secs_f64() * 1e3,
        total_accesses_simulated: total_accesses,
        accesses_per_sec: total_accesses as f64 / total_wall.as_secs_f64().max(1e-9),
        peak_rss_kb: tmcc_bench::hostmem::peak_rss_kb(),
    }
}

fn print_summary(summary: &SweepSummary) {
    println!("\n━━━ sweep summary ({} scale, {} jobs) ━━━", summary.scale, summary.jobs);
    for t in &summary.experiments {
        let replayed = if t.points_replayed > 0 {
            format!("  ({} replayed)", t.points_replayed)
        } else {
            String::new()
        };
        println!(
            "  {:<28} {:>6} {:>9.0} ms  {:>12} accesses  {:>12.0} acc/s{}",
            t.name, t.status, t.wall_ms, t.accesses_simulated, t.accesses_per_sec, replayed
        );
    }
    println!(
        "  {:<28} {:>6} {:>9.0} ms  {:>12} accesses  {:>12.0} acc/s",
        "TOTAL",
        "",
        summary.total_wall_ms,
        summary.total_accesses_simulated,
        summary.accesses_per_sec
    );
}

/// Writes `FAILURES.json` (or removes a stale one) and exits non-zero
/// when anything was quarantined.
fn finish(harness: &Harness, opts: &Options) {
    let quarantined = harness.failures.finalize(&opts.out);
    if quarantined > 0 {
        eprintln!("tmcc-bench: {}", harness.failures.summary_line());
        std::process::exit(1);
    }
}

fn main() {
    // `--point` unwinds with [`PointReplayDone`] on success, and a failed
    // point unwinds with its [`FailureCause`], then [`PointAborted`]. The
    // harness prints the cause itself, so none of them prints as a panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if !(payload.is::<PointReplayDone>()
            || payload.is::<PointAborted>()
            || payload.is::<FailureCause>())
        {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "list" => {
            for e in registry::all() {
                println!("{:<28} {}", e.name, e.title);
            }
        }
        "run" => {
            let opts = parse_options(&args[1..]);
            if opts.names.is_empty() {
                eprintln!("run: at least one experiment name required\n");
                usage();
            }
            let mut experiments = Vec::new();
            for name in &opts.names {
                match registry::find(name) {
                    Ok(e) => experiments.push(e),
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(1);
                    }
                }
            }
            if opts.point.is_some() && experiments.len() != 1 {
                eprintln!("--point replays one grid point; name exactly one experiment\n");
                usage();
            }
            let harness = Harness::new(&opts);
            let summary = run_suite(&experiments, &opts, &harness);
            print_summary(&summary);
            finish(&harness, &opts);
            if opts.point.is_some() && summary.experiments.iter().any(|t| t.status != "replayed") {
                // An out-of-range point aborts without quarantining
                // anything; the replay still failed.
                std::process::exit(1);
            }
        }
        "run-all" => {
            let opts = parse_options(&args[1..]);
            if !opts.names.is_empty() {
                eprintln!("run-all takes no experiment names\n");
                usage();
            }
            if opts.point.is_some() {
                eprintln!("--point requires `run` with a single experiment\n");
                usage();
            }
            let harness = Harness::new(&opts);
            let summary = run_suite(&registry::all(), &opts, &harness);
            print_summary(&summary);
            let _ = std::fs::create_dir_all(&opts.out);
            let path = opts.out.join("BENCH_sweep.json");
            match serde_json::to_string_pretty(&summary) {
                Ok(s) => {
                    if std::fs::write(&path, s).is_ok() {
                        println!("\n[sweep summary written to {}]", path.display());
                    }
                }
                Err(e) => eprintln!("could not serialize sweep summary: {e}"),
            }
            finish(&harness, &opts);
        }
        "perf-gate" => {
            let mut baseline = None;
            let mut current = None;
            let mut tolerance = perf_gate::DEFAULT_TOLERANCE_PCT;
            let mut rss_tolerance = perf_gate::DEFAULT_RSS_TOLERANCE_PCT;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--baseline" => baseline = it.next().map(PathBuf::from),
                    "--current" => current = it.next().map(PathBuf::from),
                    "--tolerance-pct" => {
                        let v = it.next().unwrap_or_else(|| usage());
                        tolerance = v.parse().unwrap_or_else(|_| usage());
                    }
                    "--rss-tolerance-pct" => {
                        let v = it.next().unwrap_or_else(|| usage());
                        rss_tolerance = v.parse().unwrap_or_else(|_| usage());
                    }
                    other => {
                        eprintln!("perf-gate: unknown argument {other}\n");
                        usage();
                    }
                }
            }
            let (Some(baseline), Some(current)) = (baseline, current) else {
                eprintln!("perf-gate: --baseline and --current are both required\n");
                usage();
            };
            let read = |path: &PathBuf| match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("perf-gate: cannot read {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            let outcome = match perf_gate::evaluate(
                &read(&baseline),
                &read(&current),
                tolerance,
                rss_tolerance,
            ) {
                Ok(o) => o,
                Err(msg) => {
                    eprintln!("perf-gate: {msg}");
                    std::process::exit(1);
                }
            };
            println!("━━━ perf gate (tolerance {tolerance:.0}%, RSS {rss_tolerance:.0}%) ━━━");
            for r in &outcome.rows {
                println!(
                    "  {:<28} {:>12.0} → {:>12.0} acc/s  {:>+7.1}%  {}",
                    r.name,
                    r.baseline_aps,
                    r.current_aps,
                    r.delta_pct,
                    if r.regressed { "REGRESSED" } else { "ok" }
                );
            }
            if let Some(rss) = outcome.rss {
                println!(
                    "  {:<28} {:>12} → {:>12} kB     {:>+7.1}%  {}",
                    "peak RSS",
                    rss.baseline_kb,
                    rss.current_kb,
                    rss.delta_pct,
                    if rss.regressed { "REGRESSED" } else { "ok" }
                );
            }
            for s in &outcome.skipped {
                println!("  skipped: {s}");
            }
            let regressions = outcome.regressions();
            if !regressions.is_empty() {
                eprintln!(
                    "perf-gate: {} experiment(s) regressed beyond {tolerance:.0}%: {}",
                    regressions.len(),
                    regressions.join(", ")
                );
            }
            if outcome.rss.is_some_and(|r| r.regressed) {
                eprintln!("perf-gate: peak RSS grew beyond {rss_tolerance:.0}%");
            }
            if outcome.failed() {
                std::process::exit(1);
            }
            println!("perf-gate: {} experiment(s) within tolerance", outcome.rows.len());
        }
        _ => usage(),
    }
}
