//! TMCC — Translation-optimized Memory Compression for Capacity.
//!
//! This is the reproduction's core crate: the full-system model that wires
//! the synthetic workloads ([`tmcc_workloads`]) through a TLB, page walker
//! and cache hierarchy ([`tmcc_sim_mem`]) to a memory controller
//! implementing one of four hardware memory-compression schemes, backed by
//! the DDR4 timing model ([`tmcc_sim_dram`]):
//!
//! * [`SchemeKind::NoCompression`] — a conventional memory system;
//! * [`SchemeKind::Compresso`] — the block-level state of the art the
//!   paper compares against (§III, reference \[6\]);
//! * [`SchemeKind::OsInspired`] — the barebone two-level (ML1/ML2) design
//!   of §IV: page-level CTEs, free lists, recency list, but *serial* CTE
//!   fetches and IBM-speed Deflate;
//! * [`SchemeKind::Tmcc`] — the paper's design: OS-inspired structure plus
//!   compressed PTBs with embedded CTEs for speculative parallel DRAM
//!   access (§V-A) and the memory-specialized Deflate for ML2 (§V-B).
//!
//! The top-level entry point is [`System`]: build one with a
//! [`SystemConfig`], run it, and read a [`RunReport`] whose counters map
//! one-to-one onto the paper's figures. The `tmcc-bench` crate runs every
//! table/figure through one entry point, `tmcc-bench run <name>`.
//!
//! # Examples
//!
//! ```no_run
//! use tmcc::{SchemeKind, System, SystemConfig};
//!
//! let cfg = SystemConfig::for_workload("canneal", SchemeKind::Tmcc)
//!     .expect("known workload");
//! let mut sys = System::try_new(cfg)?;
//! let report = sys.try_run(200_000)?;
//! println!("perf proxy: {:.3} accesses/us", report.perf_accesses_per_us());
//! # Ok::<(), tmcc::TmccError>(())
//! ```

pub mod config;
pub mod error;
pub mod free_list;
pub mod handle;
pub mod latency;
pub mod page_index;
pub mod page_meta;
pub mod recency;
pub mod schedule;
pub mod schemes;
pub mod size_model;
pub mod stats;
pub mod system;
pub mod tenancy;

pub use config::{
    BitFlip, BitFlipPlan, FaultKind, FaultPlan, FlipShape, FlipTarget, SchemeKind, SystemConfig,
};
pub use error::TmccError;
pub use free_list::{CompressoFreeList, Ml1FreeList, Ml2FreeLists};
pub use handle::RunHandle;
pub use latency::{LatencyHistogram, LATENCY_BINS};
pub use page_index::PageIndex;
pub use page_meta::{PageId, PageInfo, PageMetaStore, Placement};
pub use recency::RecencyList;
pub use schedule::{Schedule, Scheduled};
pub use size_model::{PageSizes, SizeModel};
pub use stats::{RunReport, SimStats};
pub use system::System;
pub use tenancy::{
    ChurnKind, ChurnPlan, MultiTenantConfig, MultiTenantReport, MultiTenantSystem, QosPolicyKind,
    TenantReport, TenantSpec,
};
