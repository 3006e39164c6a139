//! Fairness/QoS policies for the shared capacity pool.
//!
//! A [`QosPolicyKind`] splits the pool's frames among the active tenants
//! each time membership, demand, or the pool itself changes. All three
//! policies are pure integer functions of their inputs — same demands in,
//! same allocation out — which keeps multi-tenant runs bit-reproducible.
//!
//! Every policy honours the same two-layer contract:
//!
//! 1. **Guarantees first.** Each tenant's *guarantee* is
//!    `max(floor_frames, min_frames)` — the configured QoS floor or the
//!    scheme's feasibility minimum, whichever is larger. When the pool
//!    covers the sum of guarantees, every tenant receives at least its
//!    guarantee. When it does not (a pool-shrink storm), guarantees are
//!    scaled proportionally and the arbiter records the breach.
//! 2. **Surplus per policy.** Frames beyond the guarantees are
//!    distributed according to the policy: by weight regardless of demand
//!    (strict partition), by weight capped at demand with waterfilled
//!    redistribution (proportional share), or first-come in roster order
//!    (best effort with floors).

use serde::Serialize;

/// One active tenant's capacity requirements, as seen by the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantDemand {
    /// Relative share weight (≥ 1).
    pub weight: u32,
    /// Configured QoS floor in frames — the capacity the tenant was
    /// promised regardless of neighbours.
    pub floor_frames: u32,
    /// Feasibility minimum in frames — below this the tenant's scheme
    /// cannot hold the working set even fully compressed.
    pub min_frames: u32,
    /// Frames the tenant currently wants (demand spikes move this).
    pub demand_frames: u32,
}

impl TenantDemand {
    /// The frames this tenant must receive for its QoS contract to hold.
    pub fn guaranteed(&self) -> u32 {
        self.floor_frames.max(self.min_frames)
    }
}

/// Reusable working memory for [`QosPolicyKind::allocate_into`]. Owning it
/// in the caller (the arbiter) makes steady-state rebalances
/// allocation-free.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Per-tenant surplus caps (`u32::MAX` for "uncapped").
    caps: Vec<u32>,
    /// Still-hungry tenant indices, rebuilt per waterfilling round.
    hungry: Vec<usize>,
}

/// Lays the guarantee base layer into `alloc` (cleared first): each
/// tenant's guarantee, scaled down proportionally when the pool cannot
/// cover the sum. Returns the surplus left for the policy layer.
fn guarantee_base(pool: u64, tenants: &[TenantDemand], alloc: &mut Vec<u32>) -> u64 {
    alloc.clear();
    let total: u64 = tenants.iter().map(|t| t.guaranteed() as u64).sum();
    if total <= pool {
        alloc.extend(tenants.iter().map(TenantDemand::guaranteed));
        pool - total
    } else {
        // Breach mode: scale guarantees to fit. Flooring keeps the sum
        // ≤ pool; the dropped remainder frames stay unallocated (the
        // next rebalance after a pool-grow hands them back).
        alloc.extend(
            tenants
                .iter()
                .map(|t| ((t.guaranteed() as u64 * pool) / total).min(u32::MAX as u64) as u32),
        );
        0
    }
}

/// Distributes `surplus` frames over `tenants` by weight, with per-tenant
/// caps (`u32::MAX` for "uncapped"). Waterfills: leftover from capped
/// tenants is re-offered to the still-hungry by weight, and any final
/// sliver smaller than one round goes to the lowest roster indices, so
/// the result is deterministic and leaves frames on the table only when
/// every cap is met.
fn distribute_weighted(
    alloc: &mut [u32],
    tenants: &[TenantDemand],
    mut surplus: u64,
    caps: &[u32],
    hungry: &mut Vec<usize>,
) {
    loop {
        hungry.clear();
        hungry.extend((0..alloc.len()).filter(|&i| alloc[i] < caps[i]));
        if hungry.is_empty() || surplus == 0 {
            return;
        }
        let weight_sum: u64 = hungry.iter().map(|&i| tenants[i].weight.max(1) as u64).sum();
        if surplus < weight_sum {
            // Too few frames for a weighted round: hand them out one at a
            // time in roster order.
            for &i in hungry.iter() {
                if surplus == 0 {
                    return;
                }
                alloc[i] += 1;
                surplus -= 1;
            }
            continue;
        }
        let mut granted = 0u64;
        for &i in hungry.iter() {
            let share = surplus * tenants[i].weight.max(1) as u64 / weight_sum;
            let room = (caps[i] - alloc[i]) as u64;
            let take = share.min(room);
            alloc[i] += take as u32;
            granted += take;
        }
        if granted == 0 {
            return;
        }
        surplus -= granted;
    }
}

/// [`QosPolicyKind::StrictPartition`]'s split.
fn strict_partition(
    pool: u64,
    tenants: &[TenantDemand],
    alloc: &mut Vec<u32>,
    scratch: &mut AllocScratch,
) {
    let surplus = guarantee_base(pool, tenants, alloc);
    scratch.caps.clear();
    scratch.caps.resize(tenants.len(), u32::MAX);
    distribute_weighted(alloc, tenants, surplus, &scratch.caps, &mut scratch.hungry);
}

/// [`QosPolicyKind::ProportionalShare`]'s split.
fn proportional_share(
    pool: u64,
    tenants: &[TenantDemand],
    alloc: &mut Vec<u32>,
    scratch: &mut AllocScratch,
) {
    let surplus = guarantee_base(pool, tenants, alloc);
    scratch.caps.clear();
    scratch.caps.extend(tenants.iter().zip(alloc.iter()).map(|(t, &a)| t.demand_frames.max(a)));
    distribute_weighted(alloc, tenants, surplus, &scratch.caps, &mut scratch.hungry);
}

/// [`QosPolicyKind::BestEffortFloors`]' split.
fn best_effort_floors(pool: u64, tenants: &[TenantDemand], alloc: &mut Vec<u32>) {
    let mut surplus = guarantee_base(pool, tenants, alloc);
    for (i, t) in tenants.iter().enumerate() {
        let room = t.demand_frames.saturating_sub(alloc[i]) as u64;
        let take = room.min(surplus);
        alloc[i] += take as u32;
        surplus -= take;
    }
}

/// The capacity-partitioning policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum QosPolicyKind {
    /// Strict partitioning: the surplus is split by weight alone, ignoring
    /// demand. Unused capacity inside a partition is *not* lent out —
    /// maximal isolation, minimal utilization.
    StrictPartition,
    /// Proportional sharing: the surplus is split by weight but capped at
    /// each tenant's demand; capacity a satisfied tenant leaves behind is
    /// waterfilled to the still-hungry.
    ProportionalShare,
    /// Best effort with floors: guarantees are honoured, then the surplus
    /// fills demands greedily in roster order — early tenants feast, late
    /// tenants get whatever is left above their floor.
    BestEffortFloors,
}

impl QosPolicyKind {
    /// Splits `pool` frames among `tenants` into `alloc` (cleared and
    /// refilled; one entry per tenant). The result sums to ≤ `pool` and
    /// gives every tenant at least its guarantee whenever the pool covers
    /// the sum of guarantees. `scratch` is working memory only — no
    /// observable state crosses calls.
    pub fn allocate_into(
        self,
        pool: u64,
        tenants: &[TenantDemand],
        alloc: &mut Vec<u32>,
        scratch: &mut AllocScratch,
    ) {
        match self {
            QosPolicyKind::StrictPartition => strict_partition(pool, tenants, alloc, scratch),
            QosPolicyKind::ProportionalShare => proportional_share(pool, tenants, alloc, scratch),
            QosPolicyKind::BestEffortFloors => best_effort_floors(pool, tenants, alloc),
        }
    }

    /// Display name used in experiment output and journal keys.
    pub fn name(self) -> &'static str {
        match self {
            QosPolicyKind::StrictPartition => "strict-partition",
            QosPolicyKind::ProportionalShare => "proportional-share",
            QosPolicyKind::BestEffortFloors => "best-effort-floors",
        }
    }

    /// Inverse of [`QosPolicyKind::name`]. Used by the sweep journal's
    /// report decoder.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "strict-partition" => Some(QosPolicyKind::StrictPartition),
            "proportional-share" => Some(QosPolicyKind::ProportionalShare),
            "best-effort-floors" => Some(QosPolicyKind::BestEffortFloors),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(weight: u32, floor: u32, min: u32, demand: u32) -> TenantDemand {
        TenantDemand { weight, floor_frames: floor, min_frames: min, demand_frames: demand }
    }

    fn sum(v: &[u32]) -> u64 {
        v.iter().map(|&x| x as u64).sum()
    }

    /// `kind`'s split of `pool` over `tenants`, on fresh buffers.
    fn allocate(kind: QosPolicyKind, pool: u64, tenants: &[TenantDemand]) -> Vec<u32> {
        let mut alloc = Vec::new();
        kind.allocate_into(pool, tenants, &mut alloc, &mut AllocScratch::default());
        alloc
    }

    #[test]
    fn guarantees_hold_when_feasible() {
        let tenants = [d(1, 100, 80, 300), d(2, 50, 120, 200), d(1, 200, 10, 250)];
        for kind in [
            QosPolicyKind::StrictPartition,
            QosPolicyKind::ProportionalShare,
            QosPolicyKind::BestEffortFloors,
        ] {
            let alloc = allocate(kind, 600, &tenants);
            assert!(sum(&alloc) <= 600, "{}: oversubscribed", kind.name());
            for (a, t) in alloc.iter().zip(&tenants) {
                assert!(*a >= t.guaranteed(), "{}: guarantee broken", kind.name());
            }
        }
    }

    #[test]
    fn proportional_respects_demand_caps_and_waterfills() {
        let tenants = [d(1, 10, 10, 20), d(1, 10, 10, 1000)];
        let alloc = allocate(QosPolicyKind::ProportionalShare, 400, &tenants);
        // Tenant 0 is capped at its demand; the rest flows to tenant 1.
        assert_eq!(alloc[0], 20);
        assert_eq!(alloc[1], 380);
    }

    #[test]
    fn strict_partition_ignores_demand() {
        let tenants = [d(1, 10, 10, 20), d(1, 10, 10, 1000)];
        let alloc = allocate(QosPolicyKind::StrictPartition, 400, &tenants);
        // Equal weights split the surplus evenly even though tenant 0
        // only wants 20 frames.
        assert_eq!(alloc[0], alloc[1]);
    }

    #[test]
    fn best_effort_feasts_in_roster_order() {
        let tenants = [d(1, 10, 10, 300), d(1, 10, 10, 300)];
        let alloc = allocate(QosPolicyKind::BestEffortFloors, 320, &tenants);
        assert_eq!(alloc[0], 300);
        assert_eq!(alloc[1], 20);
    }

    #[test]
    fn infeasible_pool_scales_guarantees() {
        let tenants = [d(1, 100, 100, 100), d(1, 300, 300, 300)];
        for kind in [
            QosPolicyKind::StrictPartition,
            QosPolicyKind::ProportionalShare,
            QosPolicyKind::BestEffortFloors,
        ] {
            let alloc = allocate(kind, 200, &tenants);
            assert!(sum(&alloc) <= 200, "{}: oversubscribed", kind.name());
            // Scaling is proportional: the 3:1 ratio survives.
            assert_eq!(alloc[0], 50, "{}", kind.name());
            assert_eq!(alloc[1], 150, "{}", kind.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in [
            QosPolicyKind::StrictPartition,
            QosPolicyKind::ProportionalShare,
            QosPolicyKind::BestEffortFloors,
        ] {
            assert_eq!(QosPolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(QosPolicyKind::from_name("nope"), None);
    }
}
