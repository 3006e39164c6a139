//! Robustness sweep: capacity shocks of increasing severity.
//!
//! For each severity, a balloon deflates mid-run (removing a fraction of
//! the DRAM frame budget), holds the pressure, then reinflates. The sweep
//! records how the two-level scheme absorbed the shock — emergency
//! eviction bursts, raw-store fallbacks, time spent in degraded mode,
//! recoveries — alongside the performance it retained, all under
//! invariant auditing. The whole sweep is seed-deterministic: rerunning
//! it produces a byte-identical `results/robustness_sweep.json`.
//!
//! The shock window scales with the run: with warmup `W` and measured
//! accesses `M`, the balloon deflates at `W + M/8` and reinflates at
//! `W + 5M/8` (the paper-scale run: 65k and 85k of a 60k+40k run).

use crate::print_table;
use crate::sweep::{Scale, SweepCtx};
use serde::Serialize;
use tmcc::{FaultKind, FaultPlan, SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

/// Shrink fractions of the frame budget, per severity.
const SEVERITIES: &[(&str, u64)] = &[
    ("none", 0),     // control: no fault, same seed
    ("mild", 8),     // budget/8 reclaimed
    ("moderate", 4), // budget/4 reclaimed
    ("severe", 2),   // budget/2 reclaimed
];

#[derive(Serialize, Default)]
struct Row {
    severity: &'static str,
    shrink_frames: u64,
    completed: bool,
    error: Option<String>,
    faults_injected: u64,
    emergency_evictions: u64,
    raw_fallbacks: u64,
    recoveries: u64,
    degraded_ns: f64,
    migration_stall_ns: f64,
    perf_accesses_per_us: f64,
    effective_ratio: f64,
}

/// The pressured configuration the robustness and integrity sweeps share:
/// canneal under TMCC with a budget halfway between the feasibility floor
/// and the uncompressed footprint, so both ML1 and ML2 hold substantial
/// state for balloon shocks and bit flips to land in.
pub(crate) fn pressured_cfg() -> SystemConfig {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 4_096;
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 2;
    cfg.with_budget(budget)
}

/// `(warmup, measured)` accesses at `scale`: the measured window is 2/5
/// of the scale's standard run (paper scale: 40k of 100k), after the
/// scale's warmup, so the robustness and integrity families stay
/// comparable.
pub(crate) fn window(scale: Scale) -> (u64, u64) {
    let measured = scale.accesses() * 2 / 5;
    let warmup = scale.warmup().unwrap_or_else(|| pressured_cfg().warmup_accesses);
    (warmup, measured)
}

pub fn run(ctx: &SweepCtx) {
    // The shock sits inside the measured window.
    let (warmup, measured) = window(ctx.scale());
    let shock_at = warmup + measured / 8;
    let relief_at = warmup + measured * 5 / 8;
    let out: Vec<Row> = ctx.par_map(SEVERITIES.to_vec(), |(severity, divisor)| {
        let cfg = pressured_cfg();
        let frames = cfg.dram_budget_bytes.expect("budget set") / 4096;
        let shrink = frames.checked_div(divisor).unwrap_or(0);
        let plan = if shrink == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::none()
                .with(shock_at, FaultKind::ShrinkBudget { frames: shrink as u32 })
                .with(relief_at, FaultKind::GrowBudget { frames: shrink as u32 })
        };
        match ctx.try_run(cfg.with_fault_plan(plan).with_audit(), measured) {
            Ok(r) => Row {
                severity,
                shrink_frames: shrink,
                completed: true,
                error: None,
                faults_injected: r.stats.faults_injected,
                emergency_evictions: r.stats.emergency_evictions,
                raw_fallbacks: r.stats.raw_fallbacks,
                recoveries: r.stats.recoveries,
                degraded_ns: r.stats.degraded_ns,
                migration_stall_ns: r.stats.migration_stall_ns,
                perf_accesses_per_us: r.perf_accesses_per_us(),
                effective_ratio: r.stats.effective_ratio(),
            },
            Err(e) => Row {
                severity,
                shrink_frames: shrink,
                error: Some(e.to_string()),
                ..Row::default()
            },
        }
    });
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|row| {
            vec![
                row.severity.to_string(),
                row.shrink_frames.to_string(),
                row.completed.to_string(),
                row.emergency_evictions.to_string(),
                row.raw_fallbacks.to_string(),
                row.recoveries.to_string(),
                format!("{:.0}", row.degraded_ns),
                format!("{:.2}", row.perf_accesses_per_us),
            ]
        })
        .collect();
    print_table(
        "Robustness sweep — balloon shocks of increasing severity (canneal, TMCC)",
        &[
            "severity",
            "shrink",
            "completed",
            "emerg evict",
            "raw fb",
            "recoveries",
            "degraded ns",
            "acc/us",
        ],
        &rows,
    );
    let control = out.first().expect("control row").perf_accesses_per_us;
    for r in out.iter().skip(1) {
        if r.completed && control > 0.0 {
            println!(
                "{:>9}: retained {:.1}% of control performance through the shock",
                r.severity,
                r.perf_accesses_per_us / control * 100.0
            );
        }
    }
    ctx.emit("robustness_sweep", &out);
}
