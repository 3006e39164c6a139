//! Deterministic tenant-churn schedules.
//!
//! A [`ChurnPlan`] is to a [`MultiTenantSystem`](super::MultiTenantSystem)
//! what a [`FaultPlan`](crate::config::FaultPlan) is to a single
//! [`System`](crate::System): the same [`Schedule`], over churn events,
//! keyed to the *global measured access count* (summed across every
//! tenant). Two runs with the same configuration and plan are
//! bit-identical, so churn storms journal and replay like any other sweep
//! point.

use crate::config::FaultKind;
use crate::schedule::Schedule;

/// What happens at a churn event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnKind {
    /// A roster tenant (by index into
    /// [`MultiTenantConfig::roster`](super::MultiTenantConfig::roster))
    /// asks to join. Admission control may reject it; arriving while
    /// already active, or naming an out-of-range slot, is a no-op.
    Arrive {
        /// Roster index of the arriving tenant.
        roster: usize,
    },
    /// A roster tenant departs, releasing its frames to the pool.
    /// Departing while not active is a no-op.
    Depart {
        /// Roster index of the departing tenant.
        roster: usize,
    },
    /// A tenant's demand spikes to `percent` of its configured demand
    /// (100 restores the baseline; 150 asks for half again as much).
    /// Ignored for inactive tenants.
    WorkingSetSpike {
        /// Roster index of the spiking tenant.
        roster: usize,
        /// New demand as a percentage of the configured demand.
        percent: u32,
    },
    /// Injects a runtime fault into one tenant's system (a
    /// [`FaultKind::ContentShift`] models its compressibility
    /// collapsing). Ignored for inactive tenants.
    Fault {
        /// Roster index of the faulted tenant.
        roster: usize,
        /// The fault to inject.
        kind: FaultKind,
    },
    /// Balloon deflation at pool scope: the host reclaims `frames` from
    /// the shared pool. Tenant budgets are rebalanced immediately.
    PoolShrink {
        /// Frames removed from the pool.
        frames: u64,
    },
    /// Balloon inflation at pool scope.
    PoolGrow {
        /// Frames returned to the pool.
        frames: u64,
    },
}

/// A deterministic schedule of churn events, keyed to the global measured
/// access count: each event applies at the start of the first scheduling
/// round whose access count has reached it, ties in insertion order.
pub type ChurnPlan = Schedule<ChurnKind>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let plan = ChurnPlan::none()
            .with(100, ChurnKind::Arrive { roster: 2 })
            .with(50, ChurnKind::PoolShrink { frames: 64 });
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].at_access, 100);
        assert!(!plan.is_empty());
        assert!(ChurnPlan::none().is_empty());
    }
}
