//! Fault drill: exercise the capacity-pressure resilience layer from the
//! public API — reject an infeasible budget as a typed error, then run a
//! balloon deflate/reinflate shock under invariant auditing and watch the
//! system degrade and recover.
//!
//! Run with: `cargo run --release --example fault_drill`

use tmcc::{FaultKind, FaultPlan, SchemeKind, System, SystemConfig, TmccError};
use tmcc_workloads::WorkloadProfile;

fn main() {
    // 1. An absurd budget is a value, not a crash.
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 4_096;
    let absurd = SystemConfig::new(w.clone(), SchemeKind::Tmcc).with_budget(1 << 22);
    match System::try_new(absurd) {
        Err(e @ TmccError::InfeasibleBudget { .. }) => {
            println!("rejected as expected: {e}");
        }
        Err(e) => println!("unexpected error kind: {e}"),
        Ok(_) => println!("BUG: absurd budget accepted"),
    }

    // 2. A feasible but pressured system survives a mid-run balloon shock.
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 2;
    let shrink = (budget / 4096 / 2) as u32;
    let plan = FaultPlan::none()
        .with(65_000, FaultKind::ShrinkBudget { frames: shrink })
        .with(85_000, FaultKind::GrowBudget { frames: shrink });
    let mut sys = System::try_new(cfg.with_budget(budget).with_fault_plan(plan).with_audit())
        .expect("half-way budget is feasible");
    match sys.try_run(40_000) {
        Ok(r) => {
            println!("\n--- balloon drill: {} frames out at 65k, back at 85k ---", shrink);
            println!("accesses retired:    {}", r.stats.accesses);
            println!("faults injected:     {}", r.stats.faults_injected);
            println!("emergency evictions: {}", r.stats.emergency_evictions);
            println!("raw fallbacks:       {}", r.stats.raw_fallbacks);
            println!("recoveries:          {}", r.stats.recoveries);
            println!("time degraded:       {:.0} ns", r.stats.degraded_ns);
            println!("perf under shock:    {:.2} accesses/us", r.perf_accesses_per_us());
        }
        Err(e) => println!("drill failed: {e}"),
    }
    sys.validate().expect("invariants hold after the drill");
    println!("post-drill audit:    OK");
}
