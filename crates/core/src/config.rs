//! System configuration.

use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use tmcc_sim_dram::{DramConfig, InterleavePolicy};
use tmcc_sim_mem::{CteCacheConfig, HierarchyConfig};
use tmcc_workloads::WorkloadProfile;

/// Which memory-compression scheme the memory controller implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// A conventional memory system (no compression, no CTEs).
    NoCompression,
    /// Compresso-style block-level compression for capacity (§III).
    Compresso,
    /// The barebone OS-inspired two-level design of §IV: page-level CTEs,
    /// serial CTE fetches, IBM-speed ML2 Deflate.
    OsInspired,
    /// Full TMCC (§V): embedded CTEs + memory-specialized Deflate.
    Tmcc,
}

impl SchemeKind {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::NoCompression => "no-compression",
            SchemeKind::Compresso => "compresso",
            SchemeKind::OsInspired => "os-inspired",
            SchemeKind::Tmcc => "tmcc",
        }
    }
}

/// Optimization toggles separating TMCC from the barebone OS-inspired
/// design — the split the paper quantifies in Fig. 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmccToggles {
    /// §V-A: compressed PTBs with embedded CTEs and speculative parallel
    /// DRAM access (the ML1 optimization).
    pub embedded_ctes: bool,
    /// §V-B: memory-specialized Deflate instead of IBM-speed Deflate for
    /// ML2 (the ML2 optimization).
    pub fast_deflate: bool,
}

impl TmccToggles {
    /// Both optimizations on (full TMCC).
    pub fn full() -> Self {
        Self { embedded_ctes: true, fast_deflate: true }
    }

    /// Both off (barebone OS-inspired design).
    pub fn none() -> Self {
        Self { embedded_ctes: false, fast_deflate: false }
    }

    /// Only the ML1 optimization (Fig. 20's "ML1 opt").
    pub fn ml1_only() -> Self {
        Self { embedded_ctes: true, fast_deflate: false }
    }

    /// Only the ML2 optimization (Fig. 20's "ML2 opt").
    pub fn ml2_only() -> Self {
        Self { embedded_ctes: false, fast_deflate: true }
    }
}

/// A runtime fault to inject, scheduled by access count.
///
/// Faults model operational shocks a deployed compressed-memory system
/// must survive: ballooning (the hypervisor reclaiming or returning DRAM
/// mid-run), metadata-cache flush storms (e.g. after a context-switch
/// flood), stale-translation storms, a degraded migration engine, and
/// content shifts that spike incompressibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Balloon deflation: permanently remove `frames` 4 KiB frames from
    /// the scheme's DRAM budget. Frames that are not free at injection
    /// time become *reclaim debt* the scheme pays down through
    /// (emergency) evictions.
    ShrinkBudget {
        /// Frames to remove.
        frames: u32,
    },
    /// Balloon inflation: return `frames` fresh 4 KiB frames to the
    /// budget (paying down any outstanding reclaim debt first).
    GrowBudget {
        /// Frames to add.
        frames: u32,
    },
    /// Flush the CTE cache and CTE buffer (every cached translation is
    /// lost at once).
    CteFlushStorm,
    /// Treat the next `count` embedded-CTE lookups as stale, forcing the
    /// verify-and-reaccess path (Fig. 8c) regardless of actual state.
    StaleEmbeddings {
        /// Number of lookups to poison.
        count: u64,
    },
    /// Shrink the migration buffer to `entries` in-flight migrations
    /// (min 1); models a degraded migration engine.
    ShrinkMigrationBuffer {
        /// New capacity.
        entries: usize,
    },
    /// Restore the migration buffer to its hardware capacity.
    RestoreMigrationBuffer,
    /// Content shift: inflate every future compressed-size estimate by
    /// `percent` (0 restores the original profile). Spikes
    /// incompressibility, starving ML2 of viable victims.
    ContentShift {
        /// Inflation percentage applied to compressed sizes.
        percent: u32,
    },
}

/// A deterministic, seed-independent schedule of runtime faults, keyed to
/// the system's access count (warmup included): each fault is injected
/// just before the access its count names.
///
/// The plan is part of [`SystemConfig`]; two runs with the same seed and
/// the same plan are bit-identical.
pub type FaultPlan = Schedule<FaultKind>;

/// Which stored structure a scheduled bit flip lands in.
///
/// Targets are chosen by *what protection covers them*, so a sweep over
/// targets measures the coverage map of the integrity ladder: CRC-sealed
/// compressed payloads, parity-protected translation metadata, the
/// conservation-audited free list, and unprotected uncompressed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlipTarget {
    /// A compressed (ML2) page payload — covered by the per-page CRC seal.
    Ml2Payload,
    /// An uncompressed (ML1) data frame — no tag covers it; flips here are
    /// the scheme's irreducible silent-data-corruption exposure.
    Ml1Data,
    /// A CTE-cache slot (tag/valid/rank) — covered by per-line parity.
    CteSlot,
    /// A free-list bitmap word — covered by the frame-conservation audit.
    FreeListBitmap,
}

impl FlipTarget {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            FlipTarget::Ml2Payload => "ml2-payload",
            FlipTarget::Ml1Data => "ml1-data",
            FlipTarget::CteSlot => "cte-slot",
            FlipTarget::FreeListBitmap => "free-bitmap",
        }
    }

    /// All targets, in sweep order.
    pub const ALL: [FlipTarget; 4] = [
        FlipTarget::Ml2Payload,
        FlipTarget::Ml1Data,
        FlipTarget::CteSlot,
        FlipTarget::FreeListBitmap,
    ];
}

/// Spatial shape of one upset event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlipShape {
    /// One flipped bit (the classic particle-strike SEU).
    Single,
    /// A short burst of adjacent flipped bits within one word.
    Burst,
    /// A row-hammer-shaped event: many flips spread across the structure,
    /// beyond what single-structure recovery can absorb.
    RowHammer,
}

impl FlipShape {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            FlipShape::Single => "single",
            FlipShape::Burst => "burst",
            FlipShape::RowHammer => "row-hammer",
        }
    }
}

/// One memory upset: where it lands and how it is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Which structure it lands in.
    pub target: FlipTarget,
    /// How many bits, and how spread out.
    pub shape: FlipShape,
}

/// A deterministic schedule of memory upsets, the integrity-layer
/// counterpart of [`FaultPlan`] on the same access clock: where a fault
/// plan models *operational* shocks (ballooning, flush storms), a flip
/// plan models *physical* ones.
///
/// The plan is part of [`SystemConfig`]; two runs with the same seed and
/// the same plan are bit-identical, and an empty plan draws zero random
/// numbers — so every flip-free golden stays byte-identical.
pub type BitFlipPlan = Schedule<BitFlip>;

impl BitFlipPlan {
    /// A deterministic storm: `count` flips starting at `start`, one every
    /// `period` accesses, cycling round-robin through every target and,
    /// more slowly, through the shapes — so any prefix of the storm
    /// already covers the full target × shape matrix roughly uniformly.
    pub fn storm(start: u64, period: u64, count: u64) -> Self {
        let shapes = [FlipShape::Single, FlipShape::Burst, FlipShape::RowHammer];
        (0..count).fold(Self::none(), |plan, i| {
            plan.with(
                start + i * period.max(1),
                BitFlip {
                    target: FlipTarget::ALL[(i % 4) as usize],
                    shape: shapes[((i / 4) % 3) as usize],
                },
            )
        })
    }
}

/// Full configuration of one simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The workload to run.
    pub workload: WorkloadProfile,
    /// The compression scheme.
    pub scheme: SchemeKind,
    /// Optimization toggles for the two-level schemes (ignored by
    /// NoCompression / Compresso). Derived from `scheme` by default.
    pub toggles: TmccToggles,
    /// RNG seed for the run.
    pub seed: u64,
    /// DRAM the workload's data may occupy, bytes. `None` sizes DRAM to
    /// the uncompressed footprint (no capacity pressure). Two-level
    /// schemes migrate pages to ML2 until they fit.
    pub dram_budget_bytes: Option<u64>,
    /// TLB entries (Table III: 2048).
    pub tlb_entries: usize,
    /// CTE cache geometry; defaults per scheme (Table III).
    pub cte_cache: CteCacheConfig,
    /// Map 2 MiB huge pages (§VIII sensitivity).
    pub huge_pages: bool,
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Interleaving policy.
    pub interleave: InterleavePolicy,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Number of interleaved logical access streams (threads).
    pub cores: usize,
    /// Accesses used to warm caches/TLB/placement before measuring.
    pub warmup_accesses: u64,
    /// Recency-list sampling probability. The hardware value is 1 %
    /// (§IV-B) over billions of accesses; scaled simulations default to
    /// 15 % so the list accumulates a comparable number of samples per
    /// resident page within the simulated window.
    pub recency_sample: f64,
    /// Runtime faults to inject, scheduled by access count. Empty by
    /// default.
    pub fault_plan: FaultPlan,
    /// Memory upsets (bit flips) to inject, scheduled by access count.
    /// Empty by default; an empty plan draws zero random numbers.
    pub flip_plan: BitFlipPlan,
    /// Run the invariant auditor ([`crate::System::validate`]) after
    /// every maintenance interval, aborting the run with
    /// [`crate::TmccError::InvariantViolation`] on the first
    /// inconsistency. Off by default (it walks every resident page).
    pub audit: bool,
    /// Pages compressed with the real codecs to build the empirical
    /// [`crate::SizeModel`] at construction. The paper-scale default is
    /// 128; tiny harness scales shrink it because the codec sampling
    /// otherwise dominates short runs.
    pub size_samples: usize,
}

impl SystemConfig {
    /// A paper-default configuration for the named workload under the
    /// given scheme. Returns `None` for unknown workload names.
    pub fn for_workload(name: &str, scheme: SchemeKind) -> Option<Self> {
        let workload = WorkloadProfile::by_name(name)?;
        Some(Self::new(workload, scheme))
    }

    /// A paper-default configuration for a workload profile.
    pub fn new(workload: WorkloadProfile, scheme: SchemeKind) -> Self {
        let cte_cache = match scheme {
            SchemeKind::Compresso => CteCacheConfig::compresso(),
            _ => CteCacheConfig::tmcc(),
        };
        let toggles = match scheme {
            SchemeKind::Tmcc => TmccToggles::full(),
            _ => TmccToggles::none(),
        };
        Self {
            workload,
            scheme,
            toggles,
            seed: 0xC0FFEE,
            dram_budget_bytes: None,
            tlb_entries: 2048,
            cte_cache,
            huge_pages: false,
            dram: DramConfig::default(),
            interleave: InterleavePolicy::coarse_mc(),
            hierarchy: HierarchyConfig::default(),
            cores: 4,
            warmup_accesses: 60_000,
            recency_sample: 0.15,
            fault_plan: FaultPlan::none(),
            flip_plan: BitFlipPlan::none(),
            audit: false,
            size_samples: 128,
        }
    }

    /// Sets the DRAM budget (builder style).
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.dram_budget_bytes = Some(bytes);
        self
    }

    /// Sets the optimization toggles (builder style).
    pub fn with_toggles(mut self, toggles: TmccToggles) -> Self {
        self.toggles = toggles;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the bit-flip plan (builder style).
    pub fn with_flip_plan(mut self, plan: BitFlipPlan) -> Self {
        self.flip_plan = plan;
        self
    }

    /// Enables the per-maintenance-interval invariant audit (builder
    /// style).
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Sets the size-model sample count (builder style).
    pub fn with_size_samples(mut self, samples: usize) -> Self {
        self.size_samples = samples;
        self
    }

    /// The workload's uncompressed footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.workload.sim_pages * 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_defaults() {
        let c = SystemConfig::for_workload("mcf", SchemeKind::Compresso).unwrap();
        assert_eq!(c.cte_cache.pages_per_line, 1);
        let t = SystemConfig::for_workload("mcf", SchemeKind::Tmcc).unwrap();
        assert_eq!(t.cte_cache.pages_per_line, 8);
        assert!(t.toggles.embedded_ctes && t.toggles.fast_deflate);
        let b = SystemConfig::for_workload("mcf", SchemeKind::OsInspired).unwrap();
        assert!(!b.toggles.embedded_ctes && !b.toggles.fast_deflate);
    }

    #[test]
    fn storm_plan_covers_target_shape_matrix() {
        let plan = BitFlipPlan::storm(1_000, 50, 24);
        assert_eq!(plan.events.len(), 24);
        assert_eq!(plan.events[0].at_access, 1_000);
        assert_eq!(plan.events[23].at_access, 1_000 + 23 * 50);
        for target in FlipTarget::ALL {
            for shape in [FlipShape::Single, FlipShape::Burst] {
                assert!(
                    plan.events.iter().any(|e| e.event == BitFlip { target, shape }),
                    "storm misses {} x {}",
                    target.name(),
                    shape.name()
                );
            }
        }
        assert!(BitFlipPlan::none().is_empty());
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(SystemConfig::for_workload("nope", SchemeKind::Tmcc).is_none());
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::for_workload("bfs", SchemeKind::Tmcc)
            .unwrap()
            .with_budget(1 << 27)
            .with_seed(9);
        assert_eq!(c.dram_budget_bytes, Some(1 << 27));
        assert_eq!(c.seed, 9);
    }
}
