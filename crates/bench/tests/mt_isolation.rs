//! Acceptance: the `mt_degradation` grid — exactly what
//! `tmcc-bench run mt_degradation` executes — demonstrates
//! isolation. Under proportional share with an adversarial neighbor,
//! every well-behaved tenant's achieved capacity stays at or above its
//! floor while the adversary enters *and* exits degraded mode, and the
//! point is deterministic (same bytes on every run, hence at any
//! `--jobs` count).

use tmcc::MultiTenantSystem;
use tmcc_bench::experiments::mt::{degradation_points, MtPoint};
use tmcc_bench::sweep::Scale;

/// The full grid's adversarial point under proportional share.
fn adversarial_point() -> MtPoint {
    degradation_points(Scale::Full)
        .into_iter()
        .find(|p| p.scenario == "adversarial" && p.cfg.policy.name() == "proportional-share")
        .expect("the grid carries an adversarial proportional-share point")
}

#[test]
fn degradation_point_isolates_the_adversary() {
    let point = adversarial_point();
    let mut sys = MultiTenantSystem::try_new(point.cfg).expect("scenario constructs");
    let report = sys.try_run(point.total).expect("scenario survives");
    sys.validate().expect("invariants clean after the run");

    for t in report.tenants.iter().filter(|t| t.name != "adversary") {
        assert!(
            t.min_alloc_frames >= t.floor_frames,
            "{} squeezed below its floor: {} < {}",
            t.name,
            t.min_alloc_frames,
            t.floor_frames
        );
        assert_eq!(t.degraded_entries, 0, "{} must stay healthy", t.name);
        assert_eq!(t.guarantee_breach_rounds, 0, "{} breached its guarantee", t.name);
    }
    let adv = report.tenants.iter().find(|t| t.name == "adversary").unwrap();
    assert!(adv.degraded_entries >= 1, "adversary never quarantined: {adv:?}");
    assert!(adv.degraded_exits >= 1, "adversary never recovered: {adv:?}");
    assert!(adv.throttled_quanta > 0, "quarantine must throttle: {adv:?}");
}

#[test]
fn degradation_point_is_deterministic() {
    let run = || {
        let point = adversarial_point();
        let mut sys = MultiTenantSystem::try_new(point.cfg).expect("scenario constructs");
        let report = sys.try_run(point.total).expect("scenario survives");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(run(), run(), "same point must serialize byte-identically");
}
