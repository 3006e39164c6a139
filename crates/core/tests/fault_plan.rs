//! Runtime fault injection: the system must absorb capacity shocks
//! (ballooning), degrade gracefully, recover once pressure passes, and do
//! all of it deterministically — two runs with the same seed and the same
//! fault plan are byte-identical.

use tmcc::{FaultKind, FaultPlan, SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

/// A TMCC config under moderate capacity pressure: budget halfway between
/// the feasibility floor and the uncompressed footprint.
fn pressured_cfg() -> SystemConfig {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 4_096;
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 2;
    cfg.with_budget(budget)
}

/// Balloon deflation halving the frame budget mid-run, reinflating later.
/// Fault clocks count from construction, so both events land after the
/// default 60k-access warmup, inside the measured window.
fn balloon_plan(cfg: &SystemConfig) -> FaultPlan {
    let frames = cfg.dram_budget_bytes.expect("pressured config sets a budget") / 4096;
    FaultPlan::none()
        .with(65_000, FaultKind::ShrinkBudget { frames: (frames / 2) as u32 })
        .with(85_000, FaultKind::GrowBudget { frames: (frames / 2) as u32 })
}

#[test]
fn budget_halving_degrades_gracefully_and_recovers() {
    let cfg = pressured_cfg();
    let plan = balloon_plan(&cfg);
    let mut sys = System::try_new(cfg.with_fault_plan(plan).with_audit()).expect("feasible budget");
    let r = sys.try_run(40_000).expect("a budget shock must not kill the run");
    assert_eq!(r.stats.accesses, 40_000, "system must not deadlock");
    assert_eq!(r.stats.faults_injected, 2);
    assert!(
        r.stats.emergency_evictions > 0,
        "halving the budget must trigger emergency eviction bursts"
    );
    assert!(r.stats.recoveries >= 1, "degraded mode must be exited once the balloon reinflates");
    assert!(r.stats.degraded_ns > 0.0, "time under degradation must be accounted");
    // Audit ran after every maintenance interval (with_audit); one final
    // explicit check for good measure.
    sys.validate().expect("invariants must hold after the shock");
}

#[test]
fn stale_embedding_and_flush_storms_complete() {
    // The non-balloon fault kinds must also be survivable end to end.
    let cfg = pressured_cfg();
    let plan = FaultPlan::none()
        .with(62_000, FaultKind::CteFlushStorm)
        .with(64_000, FaultKind::StaleEmbeddings { count: 2_000 })
        .with(66_000, FaultKind::ShrinkMigrationBuffer { entries: 1 })
        .with(72_000, FaultKind::RestoreMigrationBuffer)
        .with(74_000, FaultKind::ContentShift { percent: 40 })
        .with(78_000, FaultKind::ContentShift { percent: 0 });
    let mut sys = System::try_new(cfg.with_fault_plan(plan).with_audit()).expect("feasible budget");
    let r = sys.try_run(25_000).expect("fault storm must be survivable");
    assert_eq!(r.stats.accesses, 25_000);
    assert_eq!(r.stats.faults_injected, 6);
    sys.validate().expect("invariants must hold after the storm");
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let report_json = || {
        let cfg = pressured_cfg();
        let plan = balloon_plan(&cfg);
        let mut sys =
            System::try_new(cfg.with_fault_plan(plan).with_audit()).expect("feasible budget");
        serde_json::to_string(&sys.try_run(15_000).expect("run completes"))
            .expect("reports serialize")
    };
    let a = report_json();
    let b = report_json();
    assert_eq!(a, b, "same seed + same fault plan must be byte-identical");
}

#[test]
fn different_plans_actually_diverge() {
    // Guards the determinism test against vacuity: the plan must matter.
    let run = |plan: FaultPlan| {
        let cfg = pressured_cfg().with_fault_plan(plan).with_audit();
        let mut sys = System::try_new(cfg).expect("feasible budget");
        serde_json::to_string(&sys.try_run(15_000).expect("run completes"))
            .expect("reports serialize")
    };
    let quiet = run(FaultPlan::none());
    let cfg = pressured_cfg();
    let shocked = run(balloon_plan(&cfg));
    assert_ne!(quiet, shocked, "a budget shock must leave a trace in the report");
}
