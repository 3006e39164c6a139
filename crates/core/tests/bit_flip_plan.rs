//! Bit-flip fault injection: the detect/recover/poison ladder must absorb
//! a storm of upsets without aborting the run, keep the corruption
//! counters internally consistent, and leave flip-free runs byte-identical
//! to runs with no plan at all (the empty plan draws nothing from the
//! dedicated flip RNG).

use tmcc::{BitFlip, BitFlipPlan, FlipShape, FlipTarget, SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

fn pressured_cfg() -> SystemConfig {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 4_096;
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 2;
    cfg.with_budget(budget)
}

/// Per-event ladder invariants on a report's stats.
fn assert_counters_consistent(s: &tmcc::SimStats) {
    assert!(
        s.corruptions_detected + s.sdc_escapes == s.flips_injected,
        "every flip must be detected or escape: {} + {} != {}",
        s.corruptions_detected,
        s.sdc_escapes,
        s.flips_injected
    );
    assert!(
        s.corruptions_corrected + s.corruptions_uncorrectable == s.corruptions_detected,
        "every detection must resolve: {} + {} != {}",
        s.corruptions_corrected,
        s.corruptions_uncorrectable,
        s.corruptions_detected
    );
    assert!(s.metadata_corruptions_detected <= s.corruptions_detected);
    assert_eq!(s.frames_poisoned, s.corruptions_uncorrectable, "poison is the only terminal rung");
}

#[test]
fn flip_storm_completes_without_abort() {
    // 24 events cover the full target × shape matrix twice, all landing
    // after the 60k-access warmup, inside the measured window.
    let plan = BitFlipPlan::storm(62_000, 800, 24);
    let mut sys = System::try_new(pressured_cfg().with_flip_plan(plan).with_audit())
        .expect("feasible budget");
    let r = sys.try_run(30_000).expect("a flip storm must not kill the run");
    assert_eq!(r.stats.accesses, 30_000, "system must not deadlock");
    assert_eq!(r.stats.flips_injected, 24, "every planned flip must fire");
    assert_counters_consistent(&r.stats);
    assert!(r.stats.corruptions_detected > 0, "CRC/parity must catch most of the storm");
    assert!(r.stats.recovery_ns > 0.0, "recovery work must be charged");
    sys.validate().expect("invariants must hold after the storm");
}

#[test]
fn single_payload_flips_are_always_detected_and_recovered() {
    let plan = (0..8).fold(BitFlipPlan::none(), |p, i| {
        p.with(
            61_000 + i * 500,
            BitFlip { target: FlipTarget::Ml2Payload, shape: FlipShape::Single },
        )
    });
    let mut sys = System::try_new(pressured_cfg().with_flip_plan(plan).with_audit())
        .expect("feasible budget");
    let r = sys.try_run(20_000).expect("single payload flips must be survivable");
    assert_eq!(r.stats.flips_injected, 8);
    assert_eq!(
        r.stats.corruptions_detected, 8,
        "a single payload bit flip can never slip past the CRC seal"
    );
    assert_eq!(r.stats.sdc_escapes, 0);
    assert_counters_consistent(&r.stats);
}

#[test]
fn ml1_flips_escape_silently() {
    // Uncompressed ML1 frames carry no tag: the measured coverage hole.
    let plan = (0..4).fold(BitFlipPlan::none(), |p, i| {
        p.with(61_000 + i * 500, BitFlip { target: FlipTarget::Ml1Data, shape: FlipShape::Single })
    });
    let mut sys = System::try_new(pressured_cfg().with_flip_plan(plan)).expect("feasible budget");
    let r = sys.try_run(15_000).expect("silent escapes must not abort");
    assert_eq!(r.stats.flips_injected, 4);
    assert_eq!(r.stats.sdc_escapes, 4);
    assert_eq!(r.stats.corruptions_detected, 0);
}

#[test]
fn rowhammer_on_dirty_state_can_poison_frames() {
    // A long storm of row-hammer events: the ones landing on free-map
    // rows must take frames out of service rather than pretend to repair
    // them. No run writes page bytes, so every page stays clean and each
    // ML2-payload event is repaired by regeneration: the poisoned frames
    // are exactly the six free-map events.
    let plan = (0..12).fold(BitFlipPlan::none(), |p, i| {
        let target = if i % 2 == 0 { FlipTarget::Ml2Payload } else { FlipTarget::FreeListBitmap };
        p.with(61_000 + i * 700, BitFlip { target, shape: FlipShape::RowHammer })
    });
    let mut sys = System::try_new(pressured_cfg().with_flip_plan(plan).with_audit())
        .expect("feasible budget");
    let r = sys.try_run(25_000).expect("poisoning must not abort the run");
    assert_eq!(r.stats.flips_injected, 12);
    assert_counters_consistent(&r.stats);
    let (_, writes, _) = sys.page_store().stats();
    assert_eq!((writes, sys.page_store().pinned_pages()), (0, 0), "every page stays clean");
    // Free-map row-hammer is unconditionally uncorrectable: each of the
    // 6 bitmap events poisons one frame, and nothing else does.
    assert_eq!(r.stats.corruptions_uncorrectable, 6);
    assert_eq!(r.stats.frames_poisoned, 6);
    sys.validate().expect("frame conservation must survive poisoning");
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    // The flip RNG is seeded unconditionally but an empty plan must draw
    // zero numbers from it — flip-free goldens stay byte-identical.
    let run = |cfg: SystemConfig| {
        let mut sys = System::try_new(cfg.with_audit()).expect("feasible budget");
        serde_json::to_string(&sys.try_run(12_000).expect("run completes"))
            .expect("reports serialize")
    };
    let bare = run(pressured_cfg());
    let empty = run(pressured_cfg().with_flip_plan(BitFlipPlan::none()));
    assert_eq!(bare, empty, "an empty flip plan must not perturb the run");
}

#[test]
fn same_seed_same_flip_plan_is_byte_identical() {
    let run = || {
        let cfg = pressured_cfg().with_flip_plan(BitFlipPlan::storm(62_000, 900, 16));
        let mut sys = System::try_new(cfg.with_audit()).expect("feasible budget");
        serde_json::to_string(&sys.try_run(15_000).expect("run completes"))
            .expect("reports serialize")
    };
    assert_eq!(run(), run(), "flip injection must be fully deterministic");
}

#[test]
fn flip_plans_actually_diverge_from_quiet_runs() {
    let run = |plan: BitFlipPlan| {
        let mut sys = System::try_new(pressured_cfg().with_flip_plan(plan).with_audit())
            .expect("feasible budget");
        serde_json::to_string(&sys.try_run(15_000).expect("run completes"))
            .expect("reports serialize")
    };
    let quiet = run(BitFlipPlan::none());
    let stormy = run(BitFlipPlan::storm(62_000, 900, 16));
    assert_ne!(quiet, stormy, "a flip storm must leave a trace in the report");
}
