//! Property tests on the multi-tenant arbiter: arbitrary interleavings of
//! per-tenant fault plans and churn events (arrivals, departures, demand
//! spikes, pool ballooning, injected faults) must leave every invariant
//! intact — budgets sum to at most the pool, no cross-tenant frame leaks,
//! ladder hysteresis balanced — and counters saturate instead of
//! overflowing. Tenants are allowed to *fail* (a hostile fault can evict
//! one); the scenario as a whole must survive and stay auditable.

use proptest::prelude::*;
use serde::Deserialize;
use tmcc::tenancy::{ChurnKind, ChurnPlan, MultiTenantConfig, MultiTenantSystem, TenantSpec};
use tmcc::{FaultKind, FaultPlan, MultiTenantReport, QosPolicyKind, SchemeKind};
use tmcc_workloads::WorkloadProfile;

const ROSTER: usize = 3;
const TOTAL: u64 = 3_000;

fn tiny_workload() -> WorkloadProfile {
    let mut w = WorkloadProfile::by_name("kv_zipf").expect("kv workload");
    w.sim_pages = 256;
    w
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    (0u8..5, 1u32..400, 0u32..=100, 1u32..64).prop_map(|(tag, frames, percent, count)| match tag {
        0 => FaultKind::CteFlushStorm,
        1 => FaultKind::ShrinkBudget { frames },
        2 => FaultKind::GrowBudget { frames },
        3 => FaultKind::ContentShift { percent },
        _ => FaultKind::StaleEmbeddings { count: u64::from(count) },
    })
}

fn churn_kind() -> impl Strategy<Value = ChurnKind> {
    // Roster indices deliberately range one past the end: out-of-range
    // events must be ignored, not panic.
    (0u8..6, 0..=ROSTER, 10u32..300, fault_kind(), 1u64..400).prop_map(
        |(tag, roster, percent, kind, frames)| match tag {
            0 => ChurnKind::Arrive { roster },
            1 => ChurnKind::Depart { roster },
            2 => ChurnKind::WorkingSetSpike { roster, percent },
            3 => ChurnKind::Fault { roster, kind },
            4 => ChurnKind::PoolShrink { frames },
            _ => ChurnKind::PoolGrow { frames },
        },
    )
}

fn churn_plan() -> impl Strategy<Value = ChurnPlan> {
    prop::collection::vec((0..TOTAL * 2, churn_kind()), 0..12).prop_map(|events| {
        events.into_iter().fold(ChurnPlan::none(), |plan, (at, kind)| plan.with(at, kind))
    })
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0..TOTAL, fault_kind()), 0..4).prop_map(|events| {
        events.into_iter().fold(FaultPlan::none(), |plan, (at, kind)| plan.with(at, kind))
    })
}

fn policy() -> impl Strategy<Value = QosPolicyKind> {
    (0u8..3).prop_map(|tag| match tag {
        0 => QosPolicyKind::StrictPartition,
        1 => QosPolicyKind::ProportionalShare,
        _ => QosPolicyKind::BestEffortFloors,
    })
}

fn scheme() -> impl Strategy<Value = SchemeKind> {
    (0u8..3).prop_map(|tag| match tag {
        0 => SchemeKind::Tmcc,
        1 => SchemeKind::OsInspired,
        _ => SchemeKind::NoCompression,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Every interleaving of churn and faults keeps the arbiter
    /// auditable: the run completes with per-round audits on, the final
    /// validate is clean, and the report decodes losslessly.
    #[test]
    fn churn_and_faults_never_break_invariants(
        policy in policy(),
        schemes in prop::collection::vec(scheme(), ROSTER..=ROSTER),
        plans in prop::collection::vec(fault_plan(), ROSTER..=ROSTER),
        churn in churn_plan(),
        initial in 0..=ROSTER,
        pool_frames in 500u64..1500,
        seed in 0u64..1000,
    ) {
        let resident = TenantSpec::resident_frames(&tiny_workload());
        let mut cfg = MultiTenantConfig::new(pool_frames, policy)
            .with_initial_tenants(initial)
            .with_churn(churn)
            .with_quantum(128)
            .with_warmup(200)
            .with_seed(seed)
            .with_size_samples(8)
            .with_audit();
        for (i, (scheme, plan)) in schemes.into_iter().zip(plans).enumerate() {
            cfg = cfg.with_tenant(
                TenantSpec::new(&format!("t{i}"), tiny_workload(), scheme, i as u64)
                    .with_floor(resident / 2)
                    .with_demand(resident)
                    .with_fault_plan(plan),
            );
        }
        let mut sys = MultiTenantSystem::try_new(cfg).expect("roster admission never errors");
        // Per-round audits are on: a violated invariant aborts the run.
        let report = sys.try_run(TOTAL).expect("scenario survives every interleaving");
        sys.validate().expect("final audit clean");

        // Counters saturate; sums must not overflow either.
        let mut applied = 0u64;
        for t in &report.tenants {
            applied = applied
                .checked_add(t.shrink_events)
                .and_then(|a| a.checked_add(t.grow_events))
                .and_then(|a| a.checked_add(t.degraded_entries))
                .and_then(|a| a.checked_add(t.degraded_exits))
                .expect("counter sums stay in range");
            prop_assert!(t.degraded_exits <= t.degraded_entries);
            if t.admitted && t.fault.is_none() && t.departed_at.is_none() {
                prop_assert!(t.report.is_some(), "{} must seal a report", t.name);
            }
        }
        prop_assert!(report.rounds > 0);

        // The journal decode path is lossless for every shape the
        // arbiter can produce.
        let decoded = MultiTenantReport::from_value(&serde::Serialize::to_value(&report))
            .expect("report decodes");
        prop_assert_eq!(decoded, report);
    }
}

// ---------------------------------------------------------------------------
// Incremental-ledger vs. full-recompute reference, at the event level.
//
// The system-level interleaving test above already drives the reference
// comparison transitively: debug builds run `reference_check()` after
// every batched rebalance the churn/fault machinery performs. The test
// below drives the arbiter *directly* with raw event sequences so the
// equivalence is asserted after every single event, including shapes the
// scheduler never emits (double departures, demand updates on empty
// slots, pool moves with no rebalance between them).
// ---------------------------------------------------------------------------

use tmcc::tenancy::{CapacityArbiter, TenantDemand};

/// One raw ledger event. Slot ranges deliberately cover the whole roster
/// so clears/releases can hit empty slots.
#[derive(Debug, Clone, Copy)]
enum ArbEvent {
    Set { slot: usize, demand: TenantDemand },
    Clear { slot: usize },
    Release { slot: usize },
    PoolShrink { frames: u64 },
    PoolGrow { frames: u64 },
    Rebalance,
}

const ARB_SLOTS: usize = 8;

fn tenant_demand() -> impl Strategy<Value = TenantDemand> {
    // weight 0 exercises the max(1) clamp in the weight aggregate.
    (0u32..8, 0u32..64, 0u32..32, 0u32..512).prop_map(|(weight, floor, min, demand)| TenantDemand {
        weight,
        floor_frames: floor,
        min_frames: min,
        demand_frames: demand,
    })
}

fn arb_event() -> impl Strategy<Value = ArbEvent> {
    (0u8..6, 0..ARB_SLOTS, tenant_demand(), 1u64..600).prop_map(|(tag, slot, demand, frames)| {
        match tag {
            0 => ArbEvent::Set { slot, demand },
            1 => ArbEvent::Clear { slot },
            2 => ArbEvent::Release { slot },
            3 => ArbEvent::PoolShrink { frames },
            4 => ArbEvent::PoolGrow { frames },
            _ => ArbEvent::Rebalance,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every event the incrementally maintained aggregates must
    /// equal a from-scratch recount; after every materialization the
    /// allocations must equal the retained full-recompute reference; and
    /// the final state must be history-independent (identical to a fresh
    /// arbiter built from the final demands in one shot).
    #[test]
    fn incremental_ledger_matches_reference_after_every_event(
        policy in policy(),
        pool in 200u64..4000,
        events in prop::collection::vec(arb_event(), 1..64),
    ) {
        let mut arb = CapacityArbiter::new(pool, policy, ARB_SLOTS);
        let mut model: Vec<Option<TenantDemand>> = vec![None; ARB_SLOTS];
        for event in events {
            match event {
                ArbEvent::Set { slot, demand } => {
                    arb.set_demand(slot, demand);
                    model[slot] = Some(demand);
                }
                ArbEvent::Clear { slot } => {
                    arb.clear_demand(slot);
                    model[slot] = None;
                }
                ArbEvent::Release { slot } => {
                    arb.release(slot);
                    model[slot] = None;
                }
                ArbEvent::PoolShrink { frames } => arb.shrink_pool(frames),
                ArbEvent::PoolGrow { frames } => arb.grow_pool(frames),
                ArbEvent::Rebalance => {
                    arb.rebalance();
                    // Materialized state must match the full recompute.
                    arb.reference_check().expect("incremental == reference after rebalance");
                    arb.validate().expect("ledger invariants after rebalance");
                }
            }
            // Ledger totals agree exactly after *every* event, including
            // un-materialized (dirty) ones.
            let guaranteed: u64 =
                model.iter().flatten().map(|d| d.guaranteed() as u64).sum();
            let weight: u64 = model.iter().flatten().map(|d| d.weight.max(1) as u64).sum();
            prop_assert_eq!(arb.guaranteed_total(), guaranteed);
            prop_assert_eq!(arb.weight_total(), weight);
            prop_assert_eq!(arb.active_tenants(), model.iter().flatten().count());
            // Admission is a pure read of the guarantee aggregate.
            let probe = TenantDemand {
                weight: 1,
                floor_frames: 16,
                min_frames: 8,
                demand_frames: 64,
            };
            prop_assert_eq!(
                arb.can_admit(probe),
                guaranteed + probe.guaranteed() as u64 <= arb.pool_frames()
            );
        }

        // History independence: a fresh arbiter fed only the surviving
        // demands materializes the exact same allocations.
        arb.rebalance();
        arb.reference_check().expect("final reference check");
        let mut fresh = CapacityArbiter::new(arb.pool_frames(), policy, ARB_SLOTS);
        for (slot, d) in model.iter().enumerate() {
            if let Some(d) = d {
                fresh.set_demand(slot, *d);
            }
        }
        fresh.rebalance();
        for slot in 0..ARB_SLOTS {
            prop_assert_eq!(arb.allocation(slot), fresh.allocation(slot));
        }
        prop_assert_eq!(arb.guaranteed_total(), fresh.guaranteed_total());
        prop_assert_eq!(arb.weight_total(), fresh.weight_total());
        prop_assert_eq!(arb.active_tenants(), fresh.active_tenants());
    }
}
