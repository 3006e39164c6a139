//! Multi-tenant sharing of one compressed memory pool.
//!
//! The single-system model ([`crate::System`]) simulates one address
//! space; production means many tenants hammering one shared ML1/ML2
//! pool. This module shards the simulator per tenant and arbitrates the
//! shared capacity between them:
//!
//! * [`MultiTenantSystem`] — per-tenant [`System`](crate::System)s (own
//!   page table, TLB, CTE state) scheduled round-robin in access quanta;
//! * [`CapacityArbiter`] — the frame ledger, with admission control and
//!   capacity ballooning;
//! * [`QosPolicyKind`] — strict partitioning, proportional share, and
//!   best-effort-with-floors fairness;
//! * [`ChurnPlan`] — deterministic arrivals, departures, demand spikes,
//!   per-tenant faults and pool ballooning: the same
//!   [`Schedule`](crate::Schedule) as [`FaultPlan`](crate::config::FaultPlan),
//!   over churn events;
//! * [`MultiTenantReport`] — per-tenant outcome counters and a nested
//!   [`RunReport`](crate::RunReport) each, journal-round-trippable.
//!
//! Degradation is graceful and contained: see the [`multi`] module docs
//! for the quarantine ladder, and [`MultiTenantSystem::validate`] for
//! the arbiter-level invariants (budgets sum ≤ pool, no cross-tenant
//! frame leaks, ladder hysteresis).

pub mod arbiter;
pub mod churn;
pub mod multi;
pub mod qos;
pub mod report;

pub use arbiter::CapacityArbiter;
pub use churn::{ChurnKind, ChurnPlan};
pub use multi::{MultiTenantConfig, MultiTenantSystem, TenantSpec, ENTER_ROUNDS, EXIT_ROUNDS};
pub use qos::{QosPolicyKind, TenantDemand};
pub use report::{MultiTenantReport, TenantReport};
