//! The multi-tenant system: per-tenant simulators over a shared pool.
//!
//! A [`MultiTenantSystem`] shards the simulator into per-tenant address
//! spaces — each admitted tenant owns a full [`System`] (its own page
//! table, TLB, caches, CTE state and DRAM model) — while a
//! [`CapacityArbiter`] divides one shared frame pool among them under a
//! [`QosPolicyKind`] policy. Tenants execute round-robin in fixed-size
//! access quanta; churn (arrivals, departures, spikes, pool ballooning)
//! follows a deterministic [`ChurnPlan`], so a scenario is a pure
//! function of its configuration and replays bit-identically.
//!
//! # The degradation ladder
//!
//! Tenant capacity grants are enforced through balloon faults: when the
//! arbiter rebalances, each tenant's budget shrinks or grows via
//! [`FaultKind::ShrinkBudget`] / [`FaultKind::GrowBudget`] on its own
//! scheme. A tenant whose scheme reports sustained pressure
//! ([`SchemePressure::degraded`](crate::schemes::SchemePressure) for
//! [`ENTER_ROUNDS`] consecutive rounds — typically one whose content
//! turned incompressible) is **quarantined**: its demand is clamped to
//! its guarantee (squeezing it back toward its floor and returning the
//! surplus to neighbours) and its scheduling quantum drops to ¼ (bounded
//! stalls). It recovers after [`EXIT_ROUNDS`] consecutive healthy rounds
//! — the exit threshold exceeds the entry threshold, so the ladder has
//! hysteresis and cannot flap. A tenant whose simulation *fails* outright
//! is evicted with its error recorded; neighbours keep running.
//!
//! # Fleet-scale scheduling
//!
//! Each round runs in three phases so thousand-tenant rosters use the
//! whole machine without giving up byte-reproducibility:
//!
//! 1. **Plan** (serial, slot order): pick each active tenant's quantum,
//!    capped by the remaining measured-access budget — the only
//!    order-dependent part of quantum sizing.
//! 2. **Execute** (parallel): the planned slices dispatch onto the
//!    ambient work-stealing pool. Tenant systems are fully independent
//!    between round barriers (the shared arbiter is never touched here),
//!    so slices race only against the clock, never against each other.
//! 3. **Commit** (serial, slot order): counters, the global access
//!    clock, and failure-eviction all replay in slot order, so results
//!    are byte-identical at any `--jobs` count — the same discipline the
//!    sweep harness uses across points, applied within one point.
//!
//! With no ambient pool installed (the sweep's `--jobs 1`), phase 2 runs
//! inline on the calling thread — the serial baseline, with identical
//! results. Arbiter work follows the incremental-ledger design described
//! in [`CapacityArbiter`]: events push O(1) demand deltas, and one batched
//! rebalance per barrier materializes allocations.

use crate::config::{FaultKind, SchemeKind, SystemConfig};
use crate::error::TmccError;
use crate::handle::RunHandle;
use crate::latency::LatencyHistogram;
use crate::schedule::Cursor;
use crate::stats::RunReport;
use crate::system::System;
use rayon::prelude::*;
use tmcc_workloads::WorkloadProfile;

use super::arbiter::CapacityArbiter;
use super::churn::{ChurnKind, ChurnPlan};
use super::qos::{QosPolicyKind, TenantDemand};
use super::report::{MultiTenantReport, TenantReport};

/// Builds a tenant's system and runs its warmup, polling `cancel` from
/// the first access on.
fn build_tenant(cfg: SystemConfig, cancel: Option<&RunHandle>) -> Result<System, TmccError> {
    let mut sys = System::try_new(cfg)?;
    if let Some(h) = cancel {
        sys.attach_handle(h);
    }
    sys.try_warmup()?;
    Ok(sys)
}

/// Consecutive degraded rounds before a tenant is quarantined.
pub const ENTER_ROUNDS: u32 = 2;
/// Consecutive healthy rounds before a quarantined tenant is restored.
/// Strictly greater than [`ENTER_ROUNDS`]: the ladder's hysteresis.
pub const EXIT_ROUNDS: u32 = 4;

/// One tenant's static description: who it is, what it runs, and what
/// the QoS contract promises it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (unique within a roster).
    pub name: String,
    /// The workload the tenant runs.
    pub workload: WorkloadProfile,
    /// The compression scheme of the tenant's memory controller.
    pub scheme: SchemeKind,
    /// Per-tenant seed salt (combined with the scenario seed).
    pub seed: u64,
    /// Relative share weight (≥ 1).
    pub weight: u32,
    /// QoS floor in frames — capacity the tenant keeps regardless of
    /// neighbours (as long as the pool itself can cover all floors).
    pub floor_frames: u32,
    /// Steady-state demand in frames.
    pub demand_frames: u32,
    /// Tenant-local fault plan, scheduled on the tenant's own access
    /// clock (warmup included) — composes with pool-level churn.
    pub fault_plan: crate::config::FaultPlan,
}

impl TenantSpec {
    /// A spec with contract defaults: weight 1, demand sized to hold the
    /// workload uncompressed (footprint + page tables + a small reserve),
    /// floor at half the demand — so a compressing tenant normally lives
    /// between "needs compression to fit" and "fully resident".
    pub fn new(name: &str, workload: WorkloadProfile, scheme: SchemeKind, seed: u64) -> Self {
        let demand = Self::resident_frames(&workload);
        Self {
            name: name.to_string(),
            workload,
            scheme,
            seed,
            weight: 1,
            floor_frames: (demand / 2).max(1),
            demand_frames: demand,
            fault_plan: crate::config::FaultPlan::none(),
        }
    }

    /// Frames that hold the workload fully uncompressed: data pages,
    /// a page-table upper bound, and a small reserve.
    pub fn resident_frames(workload: &WorkloadProfile) -> u32 {
        let pages = workload.sim_pages;
        (pages + pages.div_ceil(512) + 16 + 64).min(u32::MAX as u64) as u32
    }

    /// Sets the QoS floor (builder style).
    pub fn with_floor(mut self, frames: u32) -> Self {
        self.floor_frames = frames;
        self
    }

    /// Sets the steady-state demand (builder style).
    pub fn with_demand(mut self, frames: u32) -> Self {
        self.demand_frames = frames.max(1);
        self
    }

    /// Sets the tenant-local fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: crate::config::FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Full configuration of one multi-tenant scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantConfig {
    /// Shared pool size, 4 KiB frames.
    pub pool_frames: u64,
    /// Fairness policy.
    pub policy: QosPolicyKind,
    /// Every tenant that may ever run, in slot order. Slots beyond
    /// `initial_tenants` join only through [`ChurnKind::Arrive`].
    pub roster: Vec<TenantSpec>,
    /// Roster prefix admitted at construction (clamped to the roster).
    pub initial_tenants: usize,
    /// The churn schedule.
    pub churn: ChurnPlan,
    /// Scheduling quantum, accesses per tenant per round.
    pub quantum: u64,
    /// Warmup accesses each tenant runs at admission, before its
    /// measured window opens.
    pub warmup_accesses: u64,
    /// Scenario seed (combined with each tenant's seed salt).
    pub seed: u64,
    /// Size-model samples per tenant (see
    /// [`SystemConfig::size_samples`]).
    pub size_samples: usize,
    /// Audit arbiter + scheme invariants after every round.
    pub audit: bool,
}

impl MultiTenantConfig {
    /// A scenario over `pool_frames` under `policy`, with an empty
    /// roster and paper-default knobs.
    pub fn new(pool_frames: u64, policy: QosPolicyKind) -> Self {
        Self {
            pool_frames,
            policy,
            roster: Vec::new(),
            initial_tenants: usize::MAX,
            churn: ChurnPlan::none(),
            quantum: 512,
            warmup_accesses: 20_000,
            seed: 0xC0FFEE,
            size_samples: 128,
            audit: false,
        }
    }

    /// Appends a tenant to the roster (builder style).
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.roster.push(spec);
        self
    }

    /// Sets how many roster slots are admitted at construction (builder
    /// style). Defaults to the whole roster.
    pub fn with_initial_tenants(mut self, n: usize) -> Self {
        self.initial_tenants = n;
        self
    }

    /// Sets the churn schedule (builder style).
    pub fn with_churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the scheduling quantum (builder style).
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum.max(1);
        self
    }

    /// Sets the per-tenant warmup (builder style).
    pub fn with_warmup(mut self, accesses: u64) -> Self {
        self.warmup_accesses = accesses;
        self
    }

    /// Sets the scenario seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the size-model sample count (builder style).
    pub fn with_size_samples(mut self, samples: usize) -> Self {
        self.size_samples = samples;
        self
    }

    /// Enables per-round invariant auditing (builder style).
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// The [`SystemConfig`] a tenant runs under, given its current frame
    /// grant.
    fn tenant_config(&self, spec: &TenantSpec, alloc_frames: u32) -> SystemConfig {
        let mut cfg = SystemConfig::new(spec.workload.clone(), spec.scheme)
            .with_seed(self.seed ^ spec.seed.rotate_left(17))
            .with_fault_plan(spec.fault_plan.clone())
            .with_size_samples(self.size_samples);
        cfg.warmup_accesses = self.warmup_accesses;
        if matches!(spec.scheme, SchemeKind::OsInspired | SchemeKind::Tmcc) {
            cfg.dram_budget_bytes = Some(alloc_frames as u64 * 4096);
        }
        if self.audit {
            cfg.audit = true;
        }
        cfg
    }
}

/// Saturating per-tenant counters that outlive the tenant's `System`.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    rejections: u64,
    quanta: u64,
    throttled_quanta: u64,
    degraded_entries: u64,
    degraded_exits: u64,
    shrink_events: u64,
    grow_events: u64,
    guarantee_breach_rounds: u64,
    measured_accesses: u64,
    /// Smallest allocation ever held while active; `u32::MAX` until the
    /// first grant.
    min_alloc_frames: u32,
}

/// The live half of an admitted tenant.
struct ActiveTenant {
    sys: Box<System>,
    alloc_frames: u32,
    /// Demand spike as a percentage of the configured demand (100 =
    /// baseline).
    spike_percent: u32,
    quarantined: bool,
    degraded_rounds: u32,
    healthy_rounds: u32,
    /// `stats.degraded_ns` at the previous health check; a round counts
    /// as degraded if any degraded time accrued during it, so transient
    /// pressure spikes inside a quantum are not missed by point sampling.
    last_degraded_ns: f64,
}

/// One roster slot: the spec plus whatever state the tenant accumulated.
struct TenantSlot {
    spec: TenantSpec,
    /// Cached feasibility minimum (frames), computed at first admission
    /// attempt.
    min_frames: Option<u32>,
    active: Option<ActiveTenant>,
    counters: TenantCounters,
    admitted: bool,
    arrived_at: Option<u64>,
    departed_at: Option<u64>,
    fault: Option<String>,
    /// Report sealed at departure/eviction (still-active tenants seal at
    /// the end of the run).
    final_report: Option<RunReport>,
    final_alloc: u32,
    /// Latency histogram sealed alongside `final_report`; feeds the
    /// per-tenant percentiles and the fleet-wide merge.
    final_latency: Option<LatencyHistogram>,
}

impl TenantSlot {
    fn new(spec: TenantSpec) -> Self {
        Self {
            spec,
            min_frames: None,
            active: None,
            counters: TenantCounters { min_alloc_frames: u32::MAX, ..Default::default() },
            admitted: false,
            arrived_at: None,
            departed_at: None,
            fault: None,
            final_report: None,
            final_alloc: 0,
            final_latency: None,
        }
    }

    /// The demand the arbiter should currently see for this tenant.
    fn effective_demand(&self) -> Option<TenantDemand> {
        let t = self.active.as_ref()?;
        let min = self.min_frames.unwrap_or(1);
        let spec = &self.spec;
        let spiked = ((spec.demand_frames as u64 * t.spike_percent as u64) / 100)
            .clamp(1, u32::MAX as u64) as u32;
        let demand = if t.quarantined {
            // Quarantine squeezes the tenant back to its guarantee: the
            // surplus it was holding returns to the neighbours.
            spec.floor_frames.max(min)
        } else {
            spiked
        };
        Some(TenantDemand {
            weight: spec.weight.max(1),
            floor_frames: spec.floor_frames,
            min_frames: min,
            demand_frames: demand,
        })
    }
}

/// A shared compressed pool serving several tenant simulators.
///
/// See the module docs for the model; [`MultiTenantSystem::try_run`] is
/// the entry point.
pub struct MultiTenantSystem {
    cfg: MultiTenantConfig,
    arbiter: CapacityArbiter,
    slots: Vec<TenantSlot>,
    /// The churn plan, fired against `global_accesses`.
    churn: Cursor<ChurnKind>,
    /// Measured accesses executed across all tenants — the churn clock.
    global_accesses: u64,
    rounds: u64,
    cancel: Option<RunHandle>,
}

impl MultiTenantSystem {
    /// Builds the scenario and admits the initial roster prefix. Tenants
    /// the arbiter turns down at construction are recorded as rejected,
    /// not errors — admission control is part of the model.
    pub fn try_new(cfg: MultiTenantConfig) -> Result<Self, TmccError> {
        Self::try_new_cancellable(cfg, None)
    }

    /// [`MultiTenantSystem::try_new`] with a cancellation token wired in
    /// *before* the initial roster is admitted, so even the admission
    /// warmups respect an external deadline (the bench watchdog).
    pub fn try_new_cancellable(
        cfg: MultiTenantConfig,
        handle: Option<&RunHandle>,
    ) -> Result<Self, TmccError> {
        let arbiter = CapacityArbiter::new(cfg.pool_frames, cfg.policy, cfg.roster.len());
        let slots = cfg.roster.iter().cloned().map(TenantSlot::new).collect();
        let mut sys = Self {
            arbiter,
            slots,
            churn: Cursor::new(&cfg.churn),
            global_accesses: 0,
            rounds: 0,
            cancel: handle.cloned(),
            cfg,
        };
        sys.admit_initial_roster()?;
        if sys.cfg.audit {
            sys.validate()?;
        }
        Ok(sys)
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiTenantConfig {
        &self.cfg
    }

    /// Measured accesses executed so far across all tenants.
    pub fn global_accesses(&self) -> u64 {
        self.global_accesses
    }

    /// The feasibility minimum for a slot, cached after first
    /// computation (it samples the tenant's size model).
    fn min_frames(&mut self, slot: usize) -> u32 {
        if let Some(m) = self.slots[slot].min_frames {
            return m;
        }
        let spec = &self.slots[slot].spec;
        let min = match spec.scheme {
            SchemeKind::OsInspired | SchemeKind::Tmcc => {
                let cfg = self.cfg.tenant_config(spec, 0);
                (System::min_budget_bytes(&cfg).div_ceil(4096) + 1).min(u32::MAX as u64) as u32
            }
            // Budget-blind schemes occupy their full footprint no matter
            // what the arbiter grants; the grant must cover it.
            SchemeKind::NoCompression | SchemeKind::Compresso => {
                TenantSpec::resident_frames(&spec.workload)
            }
        };
        self.slots[slot].min_frames = Some(min);
        min
    }

    /// Admission demand for a slot about to (re)join: baseline spike, not
    /// quarantined.
    fn admission_demand(&mut self, slot: usize) -> TenantDemand {
        let min = self.min_frames(slot);
        let spec = &self.slots[slot].spec;
        TenantDemand {
            weight: spec.weight.max(1),
            floor_frames: spec.floor_frames,
            min_frames: min,
            demand_frames: spec.demand_frames.max(1),
        }
    }

    /// Pushes one slot's current effective demand into the arbiter's
    /// ledger — the O(1) per-event path (spikes, quarantine moves).
    fn sync_demand(&mut self, slot: usize) {
        if let Some(d) = self.slots[slot].effective_demand() {
            self.arbiter.set_demand(slot, d);
        }
    }

    /// Admits the initial roster prefix as one batch. Admission checks
    /// and demand-ledger updates run serially in slot order (each
    /// candidate sees its predecessors' guarantees), then a single
    /// rebalance fixes every newcomer's grant, and the — mutually
    /// independent — tenant builds and warmups fan out onto the ambient
    /// work-stealing pool. Commit replays in slot order, so the roster is
    /// byte-identical to the serial fallback at any worker count.
    fn admit_initial_roster(&mut self) -> Result<(), TmccError> {
        let initial = self.cfg.initial_tenants.min(self.slots.len());
        let mut admitted: Vec<usize> = Vec::with_capacity(initial);
        for slot in 0..initial {
            let candidate = self.admission_demand(slot);
            if self.arbiter.can_admit(candidate) {
                self.arbiter.set_demand(slot, candidate);
                admitted.push(slot);
            } else {
                self.reject(slot);
            }
        }
        self.arbiter.rebalance();
        let work: Vec<(usize, u32, SystemConfig)> = admitted
            .into_iter()
            .map(|slot| {
                let grant = self.arbiter.allocation(slot).unwrap_or(0);
                (slot, grant, self.cfg.tenant_config(&self.slots[slot].spec, grant))
            })
            .collect();
        let cancel = self.cancel.as_ref();
        let build = |(slot, grant, cfg)| (slot, grant, build_tenant(cfg, cancel));
        let built: Vec<(usize, u32, Result<System, TmccError>)> =
            work.into_par_iter().map(build).collect();
        for (slot, grant, result) in built {
            self.install(slot, grant, result)?;
        }
        // One settle moves every survivor to its final grant (a no-op
        // when no build failed — the batch rebalance above already
        // granted final allocations).
        self.settle()
    }

    /// Attempts to admit roster slot `slot` mid-run. A rejected admission
    /// (the pool cannot cover everyone's guarantees, or the grant turns
    /// out infeasible for the tenant's scheme) counts against the slot.
    /// Arriving while active is a no-op. The incumbents' balloon deltas
    /// apply before this returns.
    fn admit(&mut self, slot: usize) -> Result<(), TmccError> {
        if slot >= self.slots.len() || self.slots[slot].active.is_some() {
            return Ok(());
        }
        let candidate = self.admission_demand(slot);
        // O(1): the arbiter tracks the incumbents' guarantee sum.
        if !self.arbiter.can_admit(candidate) {
            self.reject(slot);
            return Ok(());
        }
        // Ledger the newcomer, materialize the rebalanced allocation
        // (incumbents shrink to make room), then build + warm up the
        // newcomer under its grant.
        self.arbiter.set_demand(slot, candidate);
        self.arbiter.rebalance();
        let grant = self.arbiter.allocation(slot).unwrap_or(0);
        let tenant_cfg = self.cfg.tenant_config(&self.slots[slot].spec, grant);
        let built = build_tenant(tenant_cfg, self.cancel.as_ref());
        self.install(slot, grant, built)?;
        // Incumbent budgets move to their rebalanced grants. After a
        // roll-back — same demands, same pool — the rebalance restores
        // their previous allocations exactly.
        self.settle()
    }

    /// Installs a freshly built tenant under `grant`. A failed build (the
    /// grant was infeasible for the tenant's scheme, or its warmup
    /// failed) instead rolls the slot back out of the ledger and counts a
    /// rejection; the caller's settle lets the others split the frames.
    fn install(
        &mut self,
        slot: usize,
        grant: u32,
        built: Result<System, TmccError>,
    ) -> Result<(), TmccError> {
        match built {
            Ok(sys) => {
                let s = &mut self.slots[slot];
                s.active = Some(ActiveTenant {
                    sys: Box::new(sys),
                    alloc_frames: grant,
                    spike_percent: 100,
                    quarantined: false,
                    degraded_rounds: 0,
                    healthy_rounds: 0,
                    last_degraded_ns: 0.0,
                });
                s.admitted = true;
                s.arrived_at = Some(self.global_accesses);
                s.departed_at = None;
                s.counters.min_alloc_frames = s.counters.min_alloc_frames.min(grant);
            }
            Err(e) if e.is_cancelled() => return Err(e),
            Err(_) => {
                self.arbiter.clear_demand(slot);
                self.reject(slot);
            }
        }
        Ok(())
    }

    /// Counts a turned-down admission against a slot.
    fn reject(&mut self, slot: usize) {
        let counters = &mut self.slots[slot].counters;
        counters.rejections = counters.rejections.saturating_add(1);
    }

    /// Seals and removes an active tenant, releasing its frames back to
    /// the ledger. The caller settles the batch afterwards; until then
    /// the freed frames sit in the pool's unallocated reserve.
    fn retire(&mut self, slot: usize, fault: Option<String>) {
        let s = &mut self.slots[slot];
        if let Some(mut t) = s.active.take() {
            if t.quarantined {
                // Departure ends the quarantine episode; keep the ladder
                // counters balanced for a possible re-admission.
                s.counters.degraded_exits = s.counters.degraded_exits.saturating_add(1);
            }
            s.final_report = Some(t.sys.report());
            s.final_latency = Some(t.sys.latency_histogram().clone());
            s.final_alloc = t.alloc_frames;
            s.departed_at = Some(self.global_accesses);
            if fault.is_some() {
                s.fault = fault;
            }
            self.arbiter.release(slot);
        }
    }

    /// Materializes pending ledger deltas (one batched rebalance) and
    /// pushes the allocations into the tenant systems as balloon faults.
    /// A tenant whose scheme fails while ballooning is evicted (fault
    /// recorded) and the rebalance retried without it.
    fn settle(&mut self) -> Result<(), TmccError> {
        loop {
            self.arbiter.rebalance();
            let mut failed: Option<(usize, TmccError)> = None;
            for i in 0..self.slots.len() {
                let Some(target) = self.arbiter.allocation(i) else { continue };
                let s = &mut self.slots[i];
                let Some(t) = s.active.as_mut() else { continue };
                let old = t.alloc_frames;
                let result = if target < old {
                    s.counters.shrink_events = s.counters.shrink_events.saturating_add(1);
                    t.sys.inject_fault(FaultKind::ShrinkBudget { frames: old - target })
                } else if target > old {
                    s.counters.grow_events = s.counters.grow_events.saturating_add(1);
                    t.sys.inject_fault(FaultKind::GrowBudget { frames: target - old })
                } else {
                    Ok(())
                };
                match result {
                    Ok(()) => {
                        t.alloc_frames = target;
                        s.counters.min_alloc_frames = s.counters.min_alloc_frames.min(target);
                    }
                    Err(e) if e.is_cancelled() => return Err(e),
                    Err(e) => {
                        failed = Some((i, e));
                        break;
                    }
                }
            }
            match failed {
                None => return Ok(()),
                Some((slot, e)) => self.retire(slot, Some(e.to_string())),
            }
        }
    }

    /// Applies every churn event due at the current global access count.
    /// Events ledger their demand deltas in O(1) each; the whole batch is
    /// materialized by a single rebalance + balloon pass at the end.
    fn apply_due_churn(&mut self) -> Result<(), TmccError> {
        let mut batched = false;
        while let Some(kind) = self.churn.pop_due(self.global_accesses) {
            match kind {
                ChurnKind::Arrive { roster } => {
                    // Admission settles inline: the newcomer's warmup and
                    // the incumbents' squeeze are one atomic step, and
                    // any same-round follow-up events see the post-
                    // admission ledger.
                    self.admit(roster)?;
                }
                ChurnKind::Depart { roster } => {
                    if roster < self.slots.len() && self.slots[roster].active.is_some() {
                        self.retire(roster, None);
                        batched = true;
                    }
                }
                ChurnKind::WorkingSetSpike { roster, percent } => {
                    let spiked = self
                        .slots
                        .get_mut(roster)
                        .and_then(|s| s.active.as_mut())
                        .map(|t| t.spike_percent = percent.max(1))
                        .is_some();
                    if spiked {
                        self.sync_demand(roster);
                        batched = true;
                    }
                }
                ChurnKind::Fault { roster, kind } => {
                    let result = self
                        .slots
                        .get_mut(roster)
                        .and_then(|s| s.active.as_mut())
                        .map(|t| t.sys.inject_fault(kind));
                    match result {
                        None | Some(Ok(())) => {}
                        Some(Err(e)) if e.is_cancelled() => return Err(e),
                        Some(Err(e)) => {
                            self.retire(roster, Some(e.to_string()));
                            batched = true;
                        }
                    }
                }
                ChurnKind::PoolShrink { frames } => {
                    self.arbiter.shrink_pool(frames);
                    batched = true;
                }
                ChurnKind::PoolGrow { frames } => {
                    self.arbiter.grow_pool(frames);
                    batched = true;
                }
            }
        }
        if batched {
            self.settle()?;
        }
        Ok(())
    }

    /// Advances the degradation ladder one round and counts guarantee
    /// breaches.
    fn update_health(&mut self) -> Result<(), TmccError> {
        let mut transitioned = false;
        for i in 0..self.slots.len() {
            let s = &mut self.slots[i];
            let Some(t) = s.active.as_mut() else { continue };
            let pressure = t.sys.scheme_pressure();
            let degraded_ns = t.sys.stats().degraded_ns;
            let degraded_this_round = pressure.degraded || degraded_ns > t.last_degraded_ns;
            t.last_degraded_ns = degraded_ns;
            if degraded_this_round {
                t.degraded_rounds = t.degraded_rounds.saturating_add(1);
                t.healthy_rounds = 0;
            } else {
                t.healthy_rounds = t.healthy_rounds.saturating_add(1);
                t.degraded_rounds = 0;
            }
            let mut moved = false;
            if !t.quarantined && t.degraded_rounds >= ENTER_ROUNDS {
                t.quarantined = true;
                t.degraded_rounds = 0;
                s.counters.degraded_entries = s.counters.degraded_entries.saturating_add(1);
                moved = true;
            } else if t.quarantined && t.healthy_rounds >= EXIT_ROUNDS {
                t.quarantined = false;
                t.healthy_rounds = 0;
                s.counters.degraded_exits = s.counters.degraded_exits.saturating_add(1);
                moved = true;
            }
            let guaranteed = s.spec.floor_frames.max(s.min_frames.unwrap_or(1));
            if t.alloc_frames < guaranteed {
                s.counters.guarantee_breach_rounds =
                    s.counters.guarantee_breach_rounds.saturating_add(1);
            }
            if moved {
                // O(1) ledger delta; all of this round's transitions
                // materialize in one batched rebalance below.
                self.sync_demand(i);
                transitioned = true;
            }
        }
        if transitioned {
            self.settle()?;
        }
        Ok(())
    }

    /// Audits the whole stack: the arbiter ledger, ledger↔tenant
    /// consistency, cross-tenant frame leaks, degradation-ladder
    /// hysteresis, counter saturation, and every tenant scheme's own
    /// invariants.
    pub fn validate(&self) -> Result<(), TmccError> {
        self.arbiter.validate()?;
        for (i, s) in self.slots.iter().enumerate() {
            let Some(t) = s.active.as_ref() else {
                if self.arbiter.allocation(i).is_some() {
                    return Err(TmccError::InvariantViolation {
                        detail: format!("slot {i} inactive but holds an allocation"),
                    });
                }
                continue;
            };
            if self.arbiter.allocation(i) != Some(t.alloc_frames) {
                return Err(TmccError::InvariantViolation {
                    detail: format!(
                        "slot {i} allocation mismatch: ledger {:?}, tenant {}",
                        self.arbiter.allocation(i),
                        t.alloc_frames
                    ),
                });
            }
            if self.arbiter.demand(i) != s.effective_demand() {
                return Err(TmccError::InvariantViolation {
                    detail: format!(
                        "slot {i} demand ledger stale: arbiter {:?}, tenant {:?}",
                        self.arbiter.demand(i),
                        s.effective_demand()
                    ),
                });
            }
            // Frame-leak audit: a two-level tenant may not occupy more
            // DRAM than its grant plus frames a shrink has yet to
            // reclaim (metadata lives inside the grant; see
            // DESIGN.md §7).
            if matches!(s.spec.scheme, SchemeKind::OsInspired | SchemeKind::Tmcc) {
                let pressure = t.sys.scheme_pressure();
                let bound = (t.alloc_frames as u64 + pressure.reclaim_debt_frames) * 4096;
                let used = t.sys.dram_used_bytes();
                if used > bound {
                    return Err(TmccError::InvariantViolation {
                        detail: format!(
                            "tenant {} leaks frames: uses {used} bytes, grant covers {bound}",
                            s.spec.name
                        ),
                    });
                }
            }
            if t.degraded_rounds > 0 && t.healthy_rounds > 0 {
                return Err(TmccError::InvariantViolation {
                    detail: format!("tenant {} hysteresis counters both non-zero", s.spec.name),
                });
            }
            let expected_gap = u64::from(t.quarantined);
            if s.counters.degraded_entries != s.counters.degraded_exits + expected_gap {
                return Err(TmccError::InvariantViolation {
                    detail: format!(
                        "tenant {} ladder out of balance: {} entries, {} exits, quarantined={}",
                        s.spec.name,
                        s.counters.degraded_entries,
                        s.counters.degraded_exits,
                        t.quarantined
                    ),
                });
            }
            t.sys.validate()?;
        }
        Ok(())
    }

    /// Runs the scenario until `total_accesses` measured accesses have
    /// executed across all tenants, then reports. Tenant simulation
    /// failures evict the offender and keep the scenario alive; only
    /// cancellation and (under `audit`) invariant violations abort.
    pub fn try_run(&mut self, total_accesses: u64) -> Result<MultiTenantReport, TmccError> {
        // Reused per-round scratch: the quantum plan and its outcomes.
        let mut plan: Vec<(usize, u64, bool)> = Vec::new();
        while self.global_accesses < total_accesses {
            if let Some(h) = &self.cancel {
                if h.is_cancelled() {
                    return Err(TmccError::Cancelled { at_access: self.global_accesses });
                }
            }
            self.rounds = self.rounds.saturating_add(1);
            self.apply_due_churn()?;

            // Plan (serial, slot order): quantum sizing consumes the
            // remaining measured-access budget in roster order, the one
            // order-dependent input to the round.
            plan.clear();
            let mut remaining = total_accesses - self.global_accesses;
            for (i, s) in self.slots.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                let Some(t) = s.active.as_ref() else { continue };
                let quantum =
                    if t.quarantined { (self.cfg.quantum / 4).max(1) } else { self.cfg.quantum };
                let n = quantum.min(remaining);
                remaining -= n;
                plan.push((i, n, t.quarantined));
            }

            // Execute (parallel): tenant systems are independent between
            // round barriers, so the planned slices fan out onto the
            // ambient work-stealing pool; outcomes come back in plan
            // order. With no ambient pool (or `--jobs 1`) this degenerates
            // to the same loop run inline — byte-identical either way.
            let outcomes: Vec<Result<(), TmccError>> = {
                let mut work: Vec<(&mut System, u64)> = Vec::with_capacity(plan.len());
                let mut planned = plan.iter();
                let mut next = planned.next();
                for (i, s) in self.slots.iter_mut().enumerate() {
                    let Some(&(slot, n, _)) = next else { break };
                    if i == slot {
                        let t = s.active.as_mut().expect("planned slot is active");
                        work.push((&mut *t.sys, n));
                        next = planned.next();
                    }
                }
                work.into_par_iter().map(|(sys, n)| sys.try_run_slice(n)).collect()
            };

            // Commit (serial, slot order): counters, the global clock and
            // failure evictions replay deterministically.
            let mut ran = 0u64;
            let mut retired = false;
            for (&(i, n, quarantined), result) in plan.iter().zip(outcomes) {
                match result {
                    Ok(()) => {
                        let s = &mut self.slots[i];
                        s.counters.quanta = s.counters.quanta.saturating_add(1);
                        if quarantined {
                            s.counters.throttled_quanta =
                                s.counters.throttled_quanta.saturating_add(1);
                        }
                        s.counters.measured_accesses =
                            s.counters.measured_accesses.saturating_add(n);
                        self.global_accesses += n;
                        ran += n;
                    }
                    Err(e) if e.is_cancelled() => return Err(e),
                    Err(e) => {
                        self.retire(i, Some(e.to_string()));
                        retired = true;
                    }
                }
            }
            if retired {
                self.settle()?;
            }
            self.update_health()?;
            if self.cfg.audit {
                self.validate()?;
            }
            if ran == 0 {
                // Nothing is running: fast-forward the churn clock to the
                // next event, or end the scenario.
                match self.churn.next_at() {
                    Some(at) => self.global_accesses = self.global_accesses.max(at),
                    None => break,
                }
            }
        }
        // Seal still-active tenants without departing them (the scenario
        // simply ended).
        for s in &mut self.slots {
            if let Some(t) = s.active.as_mut() {
                s.final_report = Some(t.sys.report());
                s.final_latency = Some(t.sys.latency_histogram().clone());
                s.final_alloc = t.alloc_frames;
            }
        }
        self.validate()?;
        Ok(self.build_report(total_accesses))
    }

    fn build_report(&self, total_accesses: u64) -> MultiTenantReport {
        // Fleet-wide tail latency: merge every tenant's fixed-bin
        // histogram (element-wise addition — order-independent, so the
        // percentiles are byte-stable at any --jobs count).
        let mut fleet = LatencyHistogram::new();
        for s in &self.slots {
            if let Some(h) = &s.final_latency {
                fleet.merge(h);
            }
        }
        let tenants = self
            .slots
            .iter()
            .map(|s| {
                let lat = s.final_latency.as_ref();
                TenantReport {
                    name: s.spec.name.clone(),
                    admitted: s.admitted,
                    rejections: s.counters.rejections,
                    arrived_at: s.arrived_at,
                    departed_at: s.departed_at,
                    fault: s.fault.clone(),
                    weight: s.spec.weight,
                    floor_frames: s.spec.floor_frames,
                    demand_frames: s.spec.demand_frames,
                    alloc_frames: s.active.as_ref().map_or(0, |t| t.alloc_frames),
                    min_alloc_frames: if s.counters.min_alloc_frames == u32::MAX {
                        0
                    } else {
                        s.counters.min_alloc_frames
                    },
                    quanta: s.counters.quanta,
                    throttled_quanta: s.counters.throttled_quanta,
                    degraded_entries: s.counters.degraded_entries,
                    degraded_exits: s.counters.degraded_exits,
                    shrink_events: s.counters.shrink_events,
                    grow_events: s.counters.grow_events,
                    guarantee_breach_rounds: s.counters.guarantee_breach_rounds,
                    flips_injected: s.final_report.as_ref().map_or(0, |r| r.stats.flips_injected),
                    corruptions_detected: s
                        .final_report
                        .as_ref()
                        .map_or(0, |r| r.stats.corruptions_detected),
                    corruptions_corrected: s
                        .final_report
                        .as_ref()
                        .map_or(0, |r| r.stats.corruptions_corrected),
                    corruptions_uncorrectable: s
                        .final_report
                        .as_ref()
                        .map_or(0, |r| r.stats.corruptions_uncorrectable),
                    sdc_escapes: s.final_report.as_ref().map_or(0, |r| r.stats.sdc_escapes),
                    frames_poisoned: s.final_report.as_ref().map_or(0, |r| r.stats.frames_poisoned),
                    measured_accesses: s.counters.measured_accesses,
                    lat_p50_ns: lat.map_or(0, |h| h.percentile_ns(500)),
                    lat_p95_ns: lat.map_or(0, |h| h.percentile_ns(950)),
                    lat_p99_ns: lat.map_or(0, |h| h.percentile_ns(990)),
                    lat_p999_ns: lat.map_or(0, |h| h.percentile_ns(999)),
                    report: s.final_report.clone(),
                }
            })
            .collect();
        // Capacity-overcommit frontier coordinates: how far the roster's
        // steady demand oversubscribes the configured pool, the footprint
        // the fleet actually achieved, and how often guarantees broke.
        let demand_total: u64 = self.cfg.roster.iter().map(|s| s.demand_frames as u64).sum();
        let overcommit_x100 = (demand_total * 100).checked_div(self.cfg.pool_frames).unwrap_or(0);
        let achieved_footprint_bytes: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.active.as_ref())
            .map(|t| t.sys.dram_used_bytes())
            .sum();
        let tenant_breach_rounds: u64 =
            self.slots.iter().map(|s| s.counters.guarantee_breach_rounds).sum();
        let tenant_rounds = self.rounds.saturating_mul(self.slots.len() as u64);
        let breach_rate_ppm = if tenant_rounds == 0 {
            0
        } else {
            ((tenant_breach_rounds as u128 * 1_000_000) / tenant_rounds as u128) as u64
        };
        MultiTenantReport {
            policy: self.cfg.policy.name(),
            pool_frames: self.arbiter.pool_frames(),
            quantum: self.cfg.quantum,
            total_accesses,
            rounds: self.rounds,
            churn_events_applied: self.churn.consumed(),
            admission_rejections: self.slots.iter().map(|s| s.counters.rejections).sum(),
            guarantee_breach_rounds: self.arbiter.guarantee_breach_rounds(),
            fleet_lat_p50_ns: fleet.percentile_ns(500),
            fleet_lat_p95_ns: fleet.percentile_ns(950),
            fleet_lat_p99_ns: fleet.percentile_ns(990),
            fleet_lat_p999_ns: fleet.percentile_ns(999),
            overcommit_x100,
            achieved_footprint_bytes,
            breach_rate_ppm,
            tenants,
        }
    }
}
