//! Multi-tenant scenarios: isolation under an adversarial neighbor
//! (`mt_degradation`), guarantee pressure under demand spikes
//! (`mt_tail_latency`), and arrival/departure/ballooning storms
//! (`mt_churn_storm`). Every scenario runs a full [`tmcc::MultiTenantSystem`]
//! — per-tenant page tables, TLBs and compression state over one shared
//! [`tmcc::tenancy::CapacityArbiter`] — with per-round invariant audits
//! on, and emits the complete per-tenant report.
//!
//! The scenario builders are scale-aware (roster footprints, warmups,
//! quanta and run lengths are sized per [`Scale`]). Every parameter is
//! part of the scenario's `MultiTenantConfig`, so a journal record from
//! different scenario parameters has a different key and is never
//! replayed in place of this one.

use crate::print_table;
use crate::sweep::{Scale, SweepCtx};
use serde::Serialize;
use tmcc::tenancy::{ChurnKind, ChurnPlan, MultiTenantConfig, TenantSpec};
use tmcc::{FaultKind, MultiTenantReport, QosPolicyKind, SchemeKind};
use tmcc_workloads::WorkloadProfile;

/// Per-scale scenario sizing. The full grid's adversarial
/// proportional-share point is the one `tests/mt_isolation.rs` asserts
/// isolation on: the adversary enters *and* exits degraded mode while
/// every well-behaved floor holds.
struct MtParams {
    pages: u64,
    warmup: u64,
    quantum: u64,
    total: u64,
    size_samples: usize,
}

fn params(scale: Scale) -> MtParams {
    match scale {
        Scale::Full => {
            MtParams { pages: 2_048, warmup: 2_000, quantum: 384, total: 56_000, size_samples: 16 }
        }
        Scale::Test => {
            MtParams { pages: 512, warmup: 300, quantum: 128, total: 9_000, size_samples: 8 }
        }
    }
}

/// All three QoS policies, in registry order.
const POLICIES: [QosPolicyKind; 3] = [
    QosPolicyKind::StrictPartition,
    QosPolicyKind::ProportionalShare,
    QosPolicyKind::BestEffortFloors,
];

/// One point of a multi-tenant grid.
#[derive(Clone)]
pub struct MtPoint {
    /// Scenario label within the experiment (e.g. `adversarial`).
    pub scenario: &'static str,
    /// The full scenario configuration.
    pub cfg: MultiTenantConfig,
    /// Measured accesses for the run.
    pub total: u64,
}

/// A kv workload shrunk/grown to the scenario's page count.
fn kv(name: &str, pages: u64) -> WorkloadProfile {
    let mut w = WorkloadProfile::by_name(name).expect("kv workload");
    w.sim_pages = pages;
    w
}

/// The degradation roster: three well-behaved kv tenants plus an
/// adversary whose demand undershoots its uncompressed footprint — it
/// *needs* compression to fit, so turning its content incompressible
/// collapses its free list and trips the quarantine ladder.
fn degradation_cfg(p: &MtParams, policy: QosPolicyKind, adversarial: bool) -> MultiTenantConfig {
    let resident = TenantSpec::resident_frames(&kv("kv_zipf", p.pages));
    let well = |name: &str, workload: &str, seed: u64| {
        TenantSpec::new(name, kv(workload, p.pages), SchemeKind::Tmcc, seed)
            .with_floor(resident * 6 / 10)
            .with_demand(resident)
    };
    let adversary = TenantSpec::new("adversary", kv("kv_hostile", p.pages), SchemeKind::Tmcc, 99)
        .with_floor(resident / 2)
        .with_demand(resident * 7 / 10);
    let total = p.total;
    let churn = if adversarial {
        ChurnPlan::none()
            .with(
                total / 6,
                ChurnKind::Fault { roster: 3, kind: FaultKind::ContentShift { percent: 40 } },
            )
            .with(total / 6, ChurnKind::WorkingSetSpike { roster: 3, percent: 140 })
            .with(
                total / 2,
                ChurnKind::Fault { roster: 3, kind: FaultKind::ContentShift { percent: 0 } },
            )
            .with(total / 2, ChurnKind::WorkingSetSpike { roster: 3, percent: 100 })
    } else {
        ChurnPlan::none()
    };
    MultiTenantConfig::new((3 * resident + resident * 7 / 10) as u64, policy)
        .with_tenant(well("alpha", "kv_zipf", 11))
        .with_tenant(well("beta", "kv_cache", 22))
        .with_tenant(well("gamma", "kv_scan", 33))
        .with_tenant(adversary)
        .with_churn(churn)
        .with_quantum(p.quantum)
        .with_warmup(p.warmup)
        .with_seed(0xBEEF)
        .with_size_samples(p.size_samples)
        .with_audit()
}

/// The `mt_degradation` grid: {control, adversarial} under each policy.
pub fn degradation_points(scale: Scale) -> Vec<MtPoint> {
    let p = params(scale);
    let mut points = Vec::new();
    for policy in POLICIES {
        for (scenario, adversarial) in [("control", false), ("adversarial", true)] {
            points.push(MtPoint {
                scenario,
                cfg: degradation_cfg(&p, policy, adversarial),
                total: p.total,
            });
        }
    }
    points
}

/// The tail-latency roster: the hostile tenant never turns
/// incompressible here — it just spikes its working set mid-run, and the
/// question is how many rounds each policy lets the pressure breach
/// well-behaved guarantees before the arbiter rebalances.
fn tail_latency_cfg(p: &MtParams, policy: QosPolicyKind) -> MultiTenantConfig {
    let resident = TenantSpec::resident_frames(&kv("kv_zipf", p.pages));
    let well = |name: &str, workload: &str, seed: u64| {
        TenantSpec::new(name, kv(workload, p.pages), SchemeKind::Tmcc, seed)
            .with_floor(resident * 6 / 10)
            .with_demand(resident)
    };
    let bursty = TenantSpec::new("bursty", kv("kv_hostile", p.pages), SchemeKind::Tmcc, 77)
        .with_floor(resident / 2)
        .with_demand(resident * 7 / 10);
    let total = p.total;
    MultiTenantConfig::new((3 * resident + resident * 7 / 10) as u64, policy)
        .with_tenant(well("alpha", "kv_zipf", 41))
        .with_tenant(well("beta", "kv_cache", 42))
        .with_tenant(well("gamma", "kv_scan", 43))
        .with_tenant(bursty)
        .with_churn(
            ChurnPlan::none()
                .with(total / 3, ChurnKind::WorkingSetSpike { roster: 3, percent: 160 })
                .with(2 * total / 3, ChurnKind::WorkingSetSpike { roster: 3, percent: 100 }),
        )
        .with_quantum(p.quantum)
        .with_warmup(p.warmup)
        .with_seed(0xD00D)
        .with_size_samples(p.size_samples)
        .with_audit()
}

/// The `mt_tail_latency` grid: one spike scenario per policy.
pub fn tail_latency_points(scale: Scale) -> Vec<MtPoint> {
    let p = params(scale);
    POLICIES
        .into_iter()
        .map(|policy| MtPoint {
            scenario: "spike",
            cfg: tail_latency_cfg(&p, policy),
            total: p.total,
        })
        .collect()
}

/// The churn roster: five kv tenants over a pool that holds roughly
/// three and a half of them, so every arrival renegotiates budgets and
/// every departure returns contended frames.
fn churn_cfg(
    p: &MtParams,
    policy: QosPolicyKind,
    churn: ChurnPlan,
    seed: u64,
) -> MultiTenantConfig {
    let pages = (p.pages / 2).max(256);
    let resident = TenantSpec::resident_frames(&kv("kv_zipf", pages));
    let workloads = ["kv_zipf", "kv_cache", "kv_scan", "kv_zipf", "kv_cache"];
    let mut cfg = MultiTenantConfig::new((resident as u64) * 7 / 2, policy)
        .with_initial_tenants(3)
        .with_churn(churn)
        .with_quantum(p.quantum)
        .with_warmup(p.warmup)
        .with_seed(seed)
        .with_size_samples(p.size_samples)
        .with_audit();
    for (i, workload) in workloads.into_iter().enumerate() {
        cfg = cfg.with_tenant(
            TenantSpec::new(&format!("t{i}"), kv(workload, pages), SchemeKind::Tmcc, 50 + i as u64)
                .with_floor(resident / 2)
                .with_demand(resident),
        );
    }
    cfg
}

/// The `mt_churn_storm` grid: calm → gusty → storm, each under a
/// different policy so all three see churn coverage.
pub fn churn_storm_points(scale: Scale) -> Vec<MtPoint> {
    let p = params(scale);
    let pages = (p.pages / 2).max(256);
    let balloon = u64::from(TenantSpec::resident_frames(&kv("kv_zipf", pages))) / 6;
    let t = p.total;
    let calm = ChurnPlan::none()
        .with(t / 4, ChurnKind::Arrive { roster: 3 })
        .with(t / 2, ChurnKind::Depart { roster: 0 });
    let gusty = ChurnPlan::none()
        .with(t / 6, ChurnKind::Arrive { roster: 3 })
        .with(t / 3, ChurnKind::Arrive { roster: 4 })
        .with(t / 2, ChurnKind::Depart { roster: 1 })
        .with(2 * t / 3, ChurnKind::PoolShrink { frames: balloon })
        .with(5 * t / 6, ChurnKind::PoolGrow { frames: balloon });
    let storm = ChurnPlan::none()
        .with(t / 8, ChurnKind::Arrive { roster: 3 })
        .with(t / 6, ChurnKind::Fault { roster: 1, kind: FaultKind::CteFlushStorm })
        .with(t / 5, ChurnKind::WorkingSetSpike { roster: 2, percent: 180 })
        .with(t / 4, ChurnKind::Arrive { roster: 4 })
        .with(t / 3, ChurnKind::PoolShrink { frames: balloon })
        .with(t / 2, ChurnKind::Depart { roster: 0 })
        .with(t / 2, ChurnKind::Fault { roster: 2, kind: FaultKind::ContentShift { percent: 50 } })
        .with(2 * t / 3, ChurnKind::PoolGrow { frames: balloon })
        .with(3 * t / 4, ChurnKind::WorkingSetSpike { roster: 2, percent: 100 })
        .with(7 * t / 8, ChurnKind::Depart { roster: 3 });
    vec![
        MtPoint {
            scenario: "calm",
            cfg: churn_cfg(&p, QosPolicyKind::StrictPartition, calm, 0xCA11),
            total: p.total,
        },
        MtPoint {
            scenario: "gusty",
            cfg: churn_cfg(&p, QosPolicyKind::ProportionalShare, gusty, 0x6057),
            total: p.total,
        },
        MtPoint {
            scenario: "storm",
            cfg: churn_cfg(&p, QosPolicyKind::BestEffortFloors, storm, 0x5708),
            total: p.total,
        },
    ]
}

/// Fleet sizing: many small tenants instead of a few big ones. The
/// packed per-tenant metadata (CTE slot directory, succinct residency
/// maps, lazy page store) keeps each admitted `System` in the kilobyte
/// range, and the round-barrier scheduler runs the tenants' quanta in
/// parallel, so a thousand-tenant roster is cheaper per access than the
/// old 5-tenant scenarios were.
struct FleetParams {
    tenants: usize,
    pages: u64,
    warmup: u64,
    quantum: u64,
    total: u64,
    size_samples: usize,
}

fn fleet_params(scale: Scale) -> FleetParams {
    match scale {
        Scale::Full => FleetParams {
            tenants: 4_096,
            pages: 64,
            warmup: 100,
            quantum: 64,
            total: 800_000,
            size_samples: 8,
        },
        Scale::Test => FleetParams {
            tenants: 192,
            pages: 64,
            warmup: 50,
            quantum: 64,
            total: 24_000,
            size_samples: 8,
        },
    }
}

/// The fleet roster: `tenants` small kv tenants cycling the three kv
/// shapes over a pool that holds ~60 % of their summed residency, with
/// late arrivals and a few departures for churn coverage. Tenant content
/// seeds cycle a small set so the size-model memo amortizes sampling
/// across the fleet.
fn fleet_cfg(p: &FleetParams, policy: QosPolicyKind) -> MultiTenantConfig {
    let resident = TenantSpec::resident_frames(&kv("kv_zipf", p.pages));
    let workloads = ["kv_zipf", "kv_cache", "kv_scan"];
    let pool = (p.tenants as u64) * (resident as u64) * 6 / 10;
    let t = p.total;
    let late = 4.min(p.tenants);
    let initial = p.tenants - late;
    let mut churn = ChurnPlan::none();
    for (j, at) in [t / 4, t / 3, t / 2, 2 * t / 3].into_iter().take(late).enumerate() {
        churn = churn.with(at, ChurnKind::Arrive { roster: initial + j });
    }
    churn = churn
        .with(3 * t / 5, ChurnKind::Depart { roster: 0 })
        .with(4 * t / 5, ChurnKind::Depart { roster: 1 });
    let mut cfg = MultiTenantConfig::new(pool, policy)
        .with_initial_tenants(initial)
        .with_churn(churn)
        .with_quantum(p.quantum)
        .with_warmup(p.warmup)
        .with_seed(0xF1EE7)
        .with_size_samples(p.size_samples)
        .with_audit();
    for i in 0..p.tenants {
        let workload = workloads[i % workloads.len()];
        cfg = cfg.with_tenant(
            TenantSpec::new(
                &format!("f{i:03}"),
                kv(workload, p.pages),
                SchemeKind::Tmcc,
                200 + (i as u64 % 10),
            )
            .with_floor(resident / 2)
            .with_demand(resident),
        );
    }
    cfg
}

/// Pool sizings for the capacity-overcommit frontier, as a percentage
/// of the roster's summed steady demand. The report's `overcommit_x100`
/// is the inverse (pool at 60 % of demand ⇒ overcommit 166 = 1.66×).
const FRONTIER_POOL_PCT: [(u64, &str); 5] = [
    (100, "frontier-1.0x"),
    (80, "frontier-1.2x"),
    (60, "frontier-1.7x"),
    (45, "frontier-2.2x"),
    (35, "frontier-2.9x"),
];

/// One overcommit-frontier point: a quarter-size steady fleet over a
/// pool holding `pool_pct` % of the summed demand, with one mid-run
/// balloon shrink/recover cycle so the breach-rate axis is exercised —
/// the deeper the overcommit, the longer the shrink keeps guarantees
/// underwater.
fn frontier_cfg(p: &FleetParams, pool_pct: u64) -> MultiTenantConfig {
    let tenants = (p.tenants / 4).max(16);
    let resident = TenantSpec::resident_frames(&kv("kv_zipf", p.pages));
    let workloads = ["kv_zipf", "kv_cache", "kv_scan"];
    let demand_total = tenants as u64 * resident as u64;
    let pool = (demand_total * pool_pct / 100).max(u64::from(resident));
    let t = p.total / 4;
    let balloon = pool / 5;
    let churn = ChurnPlan::none()
        .with(t / 3, ChurnKind::PoolShrink { frames: balloon })
        .with(2 * t / 3, ChurnKind::PoolGrow { frames: balloon });
    let mut cfg = MultiTenantConfig::new(pool, QosPolicyKind::ProportionalShare)
        .with_initial_tenants(tenants)
        .with_churn(churn)
        .with_quantum(p.quantum)
        .with_warmup(p.warmup)
        .with_seed(0xF407)
        .with_size_samples(p.size_samples)
        .with_audit();
    for i in 0..tenants {
        let workload = workloads[i % workloads.len()];
        cfg = cfg.with_tenant(
            TenantSpec::new(
                &format!("o{i:03}"),
                kv(workload, p.pages),
                SchemeKind::Tmcc,
                300 + (i as u64 % 10),
            )
            .with_floor(resident / 2)
            .with_demand(resident),
        );
    }
    cfg
}

/// The `mt_fleet` grid: the full roster once under each policy, then the
/// overcommit-frontier sweep (quarter-size roster, proportional share,
/// pool swept from fully provisioned to 2.9× overcommitted).
pub fn fleet_points(scale: Scale) -> Vec<MtPoint> {
    let p = fleet_params(scale);
    let mut points: Vec<MtPoint> = POLICIES
        .into_iter()
        .map(|policy| MtPoint { scenario: "fleet", cfg: fleet_cfg(&p, policy), total: p.total })
        .collect();
    for (pool_pct, scenario) in FRONTIER_POOL_PCT {
        points.push(MtPoint { scenario, cfg: frontier_cfg(&p, pool_pct), total: p.total / 4 });
    }
    points
}

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    policy: &'static str,
    total_accesses: u64,
    report: MultiTenantReport,
}

/// Fleet-scale emission: a thousand-tenant roster's full per-tenant
/// report list would put ~8 MiB per sweep into the golden files, so the
/// emitted row carries the fleet-wide aggregates, a deterministic
/// every-[`FLEET_SAMPLE_STRIDE`]th tenant sample in cleartext, and an
/// order-sensitive FNV-1a digest over *every* per-tenant report — the
/// golden byte-identity checks across `--jobs` counts and kill-and-resume
/// still cover each tenant's full report through the digest.
#[derive(Serialize)]
struct FleetRow {
    scenario: &'static str,
    policy: &'static str,
    total_accesses: u64,
    /// Roster size before sampling (the emitted report's tenant list is
    /// the sample, not the roster).
    roster_tenants: usize,
    /// FNV-1a 64 over the serialized per-tenant reports in roster order.
    tenant_digest: String,
    report: MultiTenantReport,
}

const FLEET_SAMPLE_STRIDE: usize = 128;

fn fleet_row(
    scenario: &'static str,
    total_accesses: u64,
    mut report: MultiTenantReport,
) -> FleetRow {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest = FNV_OFFSET;
    for tenant in &report.tenants {
        let bytes = serde_json::to_string(tenant).unwrap_or_default();
        for b in bytes.bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(FNV_PRIME);
        }
    }
    let roster_tenants = report.tenants.len();
    let mut keep = 0;
    report.tenants.retain(|_| {
        let sampled = keep % FLEET_SAMPLE_STRIDE == 0;
        keep += 1;
        sampled
    });
    FleetRow {
        scenario,
        policy: report.policy,
        total_accesses,
        roster_tenants,
        tenant_digest: format!("{digest:016x}"),
        report,
    }
}

fn run_grid(ctx: &SweepCtx, title: &str, stem: &str, points: Vec<MtPoint>) {
    // Points run sequentially; --jobs parallelism runs the tenants'
    // quanta *within* each point (see `SweepCtx::seq_map`).
    let out: Vec<Row> = ctx.seq_map(points, |p| {
        let policy = p.cfg.policy.name();
        let report = ctx.run_mt(p.cfg, p.total);
        Row { scenario: p.scenario, policy, total_accesses: p.total, report }
    });
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|row| {
            let r = &row.report;
            let degraded: u64 = r.tenants.iter().map(|t| t.degraded_entries).sum();
            let throttled: u64 = r.tenants.iter().map(|t| t.throttled_quanta).sum();
            vec![
                row.scenario.to_string(),
                row.policy.to_string(),
                r.rounds.to_string(),
                r.churn_events_applied.to_string(),
                r.admission_rejections.to_string(),
                degraded.to_string(),
                throttled.to_string(),
                r.guarantee_breach_rounds.to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &["scenario", "policy", "rounds", "churn", "rejected", "degraded", "throttled", "breaches"],
        &rows,
    );
    ctx.emit(stem, &out);
}

/// `mt_degradation`: adversarial-neighbor isolation under each policy.
pub fn run_degradation(ctx: &SweepCtx) {
    run_grid(
        ctx,
        "Multi-tenant degradation — adversarial neighbor vs control, per QoS policy",
        "mt_degradation",
        degradation_points(ctx.scale()),
    );
}

/// `mt_tail_latency`: guarantee pressure under mid-run demand spikes.
pub fn run_tail_latency(ctx: &SweepCtx) {
    run_grid(
        ctx,
        "Multi-tenant tail pressure — working-set spikes, per QoS policy",
        "mt_tail_latency",
        tail_latency_points(ctx.scale()),
    );
}

/// `mt_churn_storm`: arrival/departure/ballooning storms of rising
/// intensity.
pub fn run_churn_storm(ctx: &SweepCtx) {
    run_grid(
        ctx,
        "Multi-tenant churn — calm, gusty and storm arrival/departure mixes",
        "mt_churn_storm",
        churn_storm_points(ctx.scale()),
    );
}

/// `mt_fleet`: a thousand-tenant roster per policy plus the overcommit
/// frontier — the fleet-scale figures (merged latency percentiles and
/// the achieved-footprint / breach-rate curve).
pub fn run_fleet(ctx: &SweepCtx) {
    let out: Vec<FleetRow> = ctx.seq_map(fleet_points(ctx.scale()), |p| {
        let report = ctx.run_mt(p.cfg, p.total);
        fleet_row(p.scenario, p.total, report)
    });
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|row| {
            let r = &row.report;
            vec![
                row.scenario.to_string(),
                row.policy.to_string(),
                row.roster_tenants.to_string(),
                r.rounds.to_string(),
                r.admission_rejections.to_string(),
                r.fleet_lat_p50_ns.to_string(),
                r.fleet_lat_p95_ns.to_string(),
                r.fleet_lat_p99_ns.to_string(),
                r.fleet_lat_p999_ns.to_string(),
                format!("{}.{:02}x", r.overcommit_x100 / 100, r.overcommit_x100 % 100),
                (r.achieved_footprint_bytes >> 20).to_string(),
                r.breach_rate_ppm.to_string(),
            ]
        })
        .collect();
    print_table(
        "Multi-tenant fleet — latency percentiles and the capacity-overcommit frontier",
        &[
            "scenario",
            "policy",
            "tenants",
            "rounds",
            "rejected",
            "p50ns",
            "p95ns",
            "p99ns",
            "p999ns",
            "overcommit",
            "footprint-MiB",
            "breach-ppm",
        ],
        &rows,
    );
    ctx.emit("mt_fleet", &out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fleet acceptance floor: ≥4096 tenants at full scale, with the
    /// main fleet rosters' floors admissible within the pool (the
    /// frontier points deliberately oversubscribe).
    #[test]
    fn fleet_rosters_are_fleet_sized_and_admissible() {
        for point in fleet_points(Scale::Full).iter().filter(|p| p.scenario == "fleet") {
            assert!(
                point.cfg.roster.len() >= 4_096,
                "full fleet roster has only {} tenants (need 4096)",
                point.cfg.roster.len()
            );
            let floors: u64 = point.cfg.roster.iter().map(|t| u64::from(t.floor_frames)).sum();
            assert!(floors <= point.cfg.pool_frames, "fleet floors exceed the pool");
        }
        for point in fleet_points(Scale::Test).iter().filter(|p| p.scenario == "fleet") {
            assert!(point.cfg.roster.len() >= 128, "test fleet still exercises many tenants");
        }
    }

    /// The frontier sweep spans strictly increasing overcommit: the
    /// summed roster demand is fixed while the pool shrinks point to
    /// point, and every pool still covers at least one tenant.
    #[test]
    fn frontier_points_sweep_overcommit_monotonically() {
        for scale in [Scale::Full, Scale::Test] {
            let points = fleet_points(scale);
            let frontier: Vec<_> =
                points.iter().filter(|p| p.scenario.starts_with("frontier")).collect();
            assert_eq!(frontier.len(), FRONTIER_POOL_PCT.len());
            let mut last_pool = u64::MAX;
            for point in &frontier {
                assert!(point.cfg.pool_frames < last_pool, "frontier pools must shrink");
                last_pool = point.cfg.pool_frames;
                assert!(point.cfg.roster.len() >= 16);
            }
        }
    }
}
