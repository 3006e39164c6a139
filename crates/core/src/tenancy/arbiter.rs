//! The shared-pool capacity arbiter.
//!
//! The arbiter owns the frame ledger: how many frames the pool has, which
//! roster slot holds how many, and whether a candidate tenant can be
//! admitted without pushing an incumbent below its guarantee. It never
//! touches a tenant's `System` — the
//! [`MultiTenantSystem`](super::MultiTenantSystem) translates allocation
//! deltas into balloon faults ([`FaultKind::ShrinkBudget`] /
//! [`FaultKind::GrowBudget`]) on the tenant simulators.
//!
//! # The incremental demand ledger
//!
//! At fleet scale (thousands of tenants) the old API — every caller
//! collects a fresh `Vec<(slot, TenantDemand)>` of the whole roster for
//! every churn/fault/balloon event — made each event O(n) and each round
//! O(n²). The arbiter now *owns* the demand ledger: callers push
//! single-slot deltas ([`CapacityArbiter::set_demand`] /
//! [`CapacityArbiter::clear_demand`]), which maintain the guarantee and
//! weight aggregates incrementally in O(1), and the global allocation is
//! recomputed once per batch by [`CapacityArbiter::rebalance`] — an
//! O(active) pass over arbiter-owned scratch buffers, allocation-free in
//! steady state and amortized to O(1) per tenant quantum by the round
//! barrier. Admission checks ([`CapacityArbiter::can_admit`]) read the
//! aggregate instead of re-summing the roster, so they are O(1) too.
//!
//! Debug builds cross-check every rebalance against a from-scratch
//! reference recompute ([`CapacityArbiter::reference_check`]); the
//! tenancy proptests drive the same check over random churn×fault
//! interleavings.

#[cfg(doc)]
use crate::config::FaultKind;
use crate::error::TmccError;

use super::qos::{AllocScratch, QosPolicyKind, TenantDemand};

/// Arbiter-owned working memory for [`CapacityArbiter::rebalance`].
#[derive(Debug, Default)]
struct RebalanceScratch {
    /// Active demands, densely packed in roster order.
    demands: Vec<TenantDemand>,
    /// Roster slot of each packed demand.
    slots: Vec<usize>,
    /// Allocation per packed demand (policy output).
    alloc: Vec<u32>,
    /// Policy-internal scratch (caps + waterfilling worklist).
    qos: AllocScratch,
}

/// The frame ledger for one shared compressed pool.
#[derive(Debug)]
pub struct CapacityArbiter {
    pool_frames: u64,
    policy: QosPolicyKind,
    /// Allocation per roster slot; `None` while the slot is inactive.
    allocations: Vec<Option<u32>>,
    /// Demand per roster slot; `None` while the slot is inactive. The
    /// single source of truth for rebalances — callers maintain it with
    /// [`CapacityArbiter::set_demand`] / [`CapacityArbiter::clear_demand`].
    demands: Vec<Option<TenantDemand>>,
    /// Σ `guaranteed()` over active slots (incrementally maintained).
    guaranteed_total: u64,
    /// Σ `weight.max(1)` over active slots (incrementally maintained).
    weight_total: u64,
    /// Number of active slots.
    active_count: usize,
    /// Set by ledger/pool mutations; cleared by a rebalance. A clean
    /// arbiter's `rebalance` is a no-op (no breach accounting either).
    dirty: bool,
    /// Rounds in which at least one active tenant sat below its
    /// guarantee (possible only while a pool shrink has the guarantees
    /// oversubscribed). Saturating.
    guarantee_breach_rounds: u64,
    scratch: RebalanceScratch,
}

impl CapacityArbiter {
    /// A fresh arbiter over `pool_frames` frames and `slots` roster
    /// slots, all inactive.
    pub fn new(pool_frames: u64, policy: QosPolicyKind, slots: usize) -> Self {
        Self {
            pool_frames,
            policy,
            allocations: vec![None; slots],
            demands: vec![None; slots],
            guaranteed_total: 0,
            weight_total: 0,
            active_count: 0,
            dirty: false,
            guarantee_breach_rounds: 0,
            scratch: RebalanceScratch::default(),
        }
    }

    /// Frames the pool currently holds.
    pub fn pool_frames(&self) -> u64 {
        self.pool_frames
    }

    /// The policy in force.
    pub fn policy(&self) -> QosPolicyKind {
        self.policy
    }

    /// The slot's current allocation, if active.
    pub fn allocation(&self, slot: usize) -> Option<u32> {
        self.allocations.get(slot).copied().flatten()
    }

    /// The slot's ledgered demand, if active.
    pub fn demand(&self, slot: usize) -> Option<TenantDemand> {
        self.demands.get(slot).copied().flatten()
    }

    /// Σ guarantees over the active roster (incrementally maintained).
    pub fn guaranteed_total(&self) -> u64 {
        self.guaranteed_total
    }

    /// Σ weights over the active roster (incrementally maintained).
    pub fn weight_total(&self) -> u64 {
        self.weight_total
    }

    /// Number of active slots.
    pub fn active_tenants(&self) -> usize {
        self.active_count
    }

    /// Rounds spent with some guarantee breached (pool-shrink storms).
    pub fn guarantee_breach_rounds(&self) -> u64 {
        self.guarantee_breach_rounds
    }

    /// Balloon deflation at pool scope.
    pub fn shrink_pool(&mut self, frames: u64) {
        self.pool_frames = self.pool_frames.saturating_sub(frames);
        self.dirty = true;
    }

    /// Balloon inflation at pool scope.
    pub fn grow_pool(&mut self, frames: u64) {
        self.pool_frames = self.pool_frames.saturating_add(frames);
        self.dirty = true;
    }

    /// Upserts one slot's demand, updating the guarantee/weight
    /// aggregates by delta — O(1), the per-event fast path. The slot's
    /// allocation is untouched until the next batched
    /// [`CapacityArbiter::rebalance`] (demand moves never change
    /// `guaranteed()`, so existing allocations stay invariant-clean).
    pub fn set_demand(&mut self, slot: usize, demand: TenantDemand) {
        let prev = self.demands[slot].replace(demand);
        match prev {
            Some(p) => {
                self.guaranteed_total =
                    self.guaranteed_total + demand.guaranteed() as u64 - p.guaranteed() as u64;
                self.weight_total =
                    self.weight_total + demand.weight.max(1) as u64 - p.weight.max(1) as u64;
            }
            None => {
                self.guaranteed_total += demand.guaranteed() as u64;
                self.weight_total += demand.weight.max(1) as u64;
                self.active_count += 1;
            }
        }
        self.dirty = true;
        self.debug_check_aggregates();
    }

    /// Removes one slot's demand and allocation — O(1). The freed frames
    /// rejoin the pool's unallocated reserve until the next rebalance.
    pub fn clear_demand(&mut self, slot: usize) {
        if let Some(p) = self.demands.get_mut(slot).and_then(Option::take) {
            self.guaranteed_total -= p.guaranteed() as u64;
            self.weight_total -= p.weight.max(1) as u64;
            self.active_count -= 1;
            self.dirty = true;
        }
        if let Some(a) = self.allocations.get_mut(slot) {
            *a = None;
        }
        self.debug_check_aggregates();
    }

    /// Releases a departing tenant's frames back to the pool (alias of
    /// [`CapacityArbiter::clear_demand`], kept for the departure call
    /// sites' vocabulary).
    pub fn release(&mut self, slot: usize) {
        self.clear_demand(slot);
    }

    /// Recomputes every active tenant's allocation under the policy from
    /// the demand ledger. Breach accounting advances when the pool cannot
    /// cover the sum of guarantees. A clean (non-dirty) arbiter returns
    /// immediately, so batched same-round events cost one materialization
    /// total. Steady-state calls are allocation-free (arbiter-owned
    /// scratch).
    pub fn rebalance(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        if self.guaranteed_total > self.pool_frames && self.active_count > 0 {
            self.guarantee_breach_rounds = self.guarantee_breach_rounds.saturating_add(1);
        }
        let s = &mut self.scratch;
        s.demands.clear();
        s.slots.clear();
        for (slot, d) in self.demands.iter().enumerate() {
            if let Some(d) = d {
                s.demands.push(*d);
                s.slots.push(slot);
            }
        }
        self.policy.allocate_into(self.pool_frames, &s.demands, &mut s.alloc, &mut s.qos);
        for a in self.allocations.iter_mut() {
            *a = None;
        }
        for (&slot, &frames) in s.slots.iter().zip(&s.alloc) {
            self.allocations[slot] = Some(frames);
        }
        #[cfg(debug_assertions)]
        self.reference_check().expect("incremental arbiter diverged from reference");
    }

    /// Admission check: would admitting a tenant with `candidate`'s
    /// demand leave every incumbent (and the candidate) at or above its
    /// guarantee? Pure and O(1) — reads the incrementally maintained
    /// guarantee aggregate; the ledger is only updated by the
    /// [`CapacityArbiter::set_demand`] + [`CapacityArbiter::rebalance`]
    /// the caller performs after building the tenant.
    pub fn can_admit(&self, candidate: TenantDemand) -> bool {
        self.guaranteed_total + candidate.guaranteed() as u64 <= self.pool_frames
    }

    /// Ledger invariant: the active allocations never oversubscribe the
    /// pool, allocations only exist where demands do, and the incremental
    /// aggregates match a from-scratch recount.
    pub fn validate(&self) -> Result<(), TmccError> {
        let total: u64 = self.allocations.iter().flatten().map(|&a| a as u64).sum();
        if total > self.pool_frames {
            return Err(TmccError::InvariantViolation {
                detail: format!(
                    "arbiter oversubscribed: {total} frames allocated, pool holds {}",
                    self.pool_frames
                ),
            });
        }
        for (slot, (a, d)) in self.allocations.iter().zip(&self.demands).enumerate() {
            if a.is_some() && d.is_none() {
                return Err(TmccError::InvariantViolation {
                    detail: format!("arbiter slot {slot} holds an allocation but no demand"),
                });
            }
        }
        let guaranteed: u64 = self.demands.iter().flatten().map(|d| d.guaranteed() as u64).sum();
        let weight: u64 = self.demands.iter().flatten().map(|d| d.weight.max(1) as u64).sum();
        let active = self.demands.iter().flatten().count();
        if guaranteed != self.guaranteed_total
            || weight != self.weight_total
            || active != self.active_count
        {
            return Err(TmccError::InvariantViolation {
                detail: format!(
                    "arbiter aggregates drifted: guaranteed {} (ledger {guaranteed}), \
                     weight {} (ledger {weight}), active {} (ledger {active})",
                    self.guaranteed_total, self.weight_total, self.active_count
                ),
            });
        }
        Ok(())
    }

    /// The retained full-recompute reference: rebuilds the demand list
    /// and allocation vector from scratch with a fresh policy call and
    /// compares against the incremental ledger. Debug builds run this
    /// after every rebalance; the tenancy proptests call it after every
    /// churn/fault event.
    pub fn reference_check(&self) -> Result<(), TmccError> {
        self.validate()?;
        if self.dirty {
            // Pending deltas are by definition not materialized yet; the
            // reference compares materialized states only.
            return Ok(());
        }
        let mut demands = Vec::new();
        let mut slots = Vec::new();
        for (slot, d) in self.demands.iter().enumerate() {
            if let Some(d) = d {
                demands.push(*d);
                slots.push(slot);
            }
        }
        let mut reference = Vec::new();
        self.policy.allocate_into(
            self.pool_frames,
            &demands,
            &mut reference,
            &mut AllocScratch::default(),
        );
        let mut expect = vec![None; self.allocations.len()];
        for (&slot, &frames) in slots.iter().zip(&reference) {
            expect[slot] = Some(frames);
        }
        if expect != self.allocations {
            return Err(TmccError::InvariantViolation {
                detail: format!(
                    "incremental allocations {:?} != reference {:?}",
                    self.allocations, expect
                ),
            });
        }
        Ok(())
    }

    #[inline]
    fn debug_check_aggregates(&self) {
        #[cfg(debug_assertions)]
        {
            let guaranteed: u64 =
                self.demands.iter().flatten().map(|d| d.guaranteed() as u64).sum();
            let weight: u64 = self.demands.iter().flatten().map(|d| d.weight.max(1) as u64).sum();
            debug_assert_eq!(guaranteed, self.guaranteed_total, "guarantee aggregate drifted");
            debug_assert_eq!(weight, self.weight_total, "weight aggregate drifted");
            debug_assert_eq!(
                self.demands.iter().flatten().count(),
                self.active_count,
                "active count drifted"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(weight: u32, floor: u32, demand: u32) -> TenantDemand {
        TenantDemand { weight, floor_frames: floor, min_frames: floor, demand_frames: demand }
    }

    #[test]
    fn rebalance_updates_ledger_and_validates() {
        let mut arb = CapacityArbiter::new(1000, QosPolicyKind::ProportionalShare, 3);
        arb.set_demand(0, d(1, 100, 400));
        arb.set_demand(2, d(1, 100, 400));
        arb.rebalance();
        assert!(arb.allocation(0).is_some());
        assert!(arb.allocation(1).is_none());
        assert!(arb.allocation(2).is_some());
        assert!(arb.validate().is_ok());
        assert!(arb.reference_check().is_ok());
        arb.release(0);
        assert!(arb.allocation(0).is_none());
        assert_eq!(arb.active_tenants(), 1);
    }

    #[test]
    fn admission_rejects_oversubscribed_guarantees() {
        let mut arb = CapacityArbiter::new(300, QosPolicyKind::ProportionalShare, 2);
        arb.set_demand(0, d(1, 100, 200));
        arb.rebalance();
        assert!(arb.can_admit(d(1, 150, 200)));
        assert!(!arb.can_admit(d(1, 250, 300)));
    }

    #[test]
    fn pool_ballooning_counts_breach_rounds() {
        let mut arb = CapacityArbiter::new(400, QosPolicyKind::StrictPartition, 2);
        arb.set_demand(0, d(1, 150, 200));
        arb.set_demand(1, d(1, 150, 200));
        arb.rebalance();
        assert_eq!(arb.guarantee_breach_rounds(), 0);
        arb.shrink_pool(200);
        arb.rebalance();
        assert_eq!(arb.guarantee_breach_rounds(), 1);
        assert!(arb.validate().is_ok());
        arb.grow_pool(200);
        arb.rebalance();
        assert_eq!(arb.guarantee_breach_rounds(), 1);
    }

    #[test]
    fn clean_rebalance_is_a_no_op_and_batches_breach_accounting() {
        let mut arb = CapacityArbiter::new(100, QosPolicyKind::ProportionalShare, 4);
        arb.set_demand(0, d(1, 80, 90));
        arb.set_demand(1, d(1, 80, 90));
        // Two deltas, one materialization, one breach increment.
        arb.rebalance();
        assert_eq!(arb.guarantee_breach_rounds(), 1);
        // Clean arbiter: no-op, no extra breach accounting.
        arb.rebalance();
        arb.rebalance();
        assert_eq!(arb.guarantee_breach_rounds(), 1);
        assert!(!arb.dirty);
    }

    #[test]
    fn demand_deltas_keep_aggregates_incremental() {
        let mut arb = CapacityArbiter::new(10_000, QosPolicyKind::BestEffortFloors, 8);
        for slot in 0..8 {
            arb.set_demand(slot, d(1 + slot as u32 % 3, 50, 200));
        }
        arb.rebalance();
        let before = arb.guaranteed_total();
        // A pure demand spike moves no guarantee and no weight.
        arb.set_demand(3, d(1, 50, 900));
        assert_eq!(arb.guaranteed_total(), before);
        arb.rebalance();
        assert!(arb.reference_check().is_ok());
        // Departures subtract exactly their contribution.
        arb.clear_demand(3);
        assert_eq!(arb.guaranteed_total(), before - 50);
        assert_eq!(arb.active_tenants(), 7);
        arb.rebalance();
        assert!(arb.reference_check().is_ok());
    }
}
