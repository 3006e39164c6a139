//! End-to-end system tests: every scheme runs a real (scaled-down)
//! workload and the global invariants the paper relies on hold.

use tmcc::config::TmccToggles;
use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

/// A small, fast config for integration testing: shrink the footprint so
/// placement and warmup stay quick, but keep it far beyond TLB reach.
fn test_config(scheme: SchemeKind) -> SystemConfig {
    // Full-size canneal: 72 MiB footprint, far beyond the TLB's reach and
    // both CTE caches' reach, like the paper's configurations.
    let w = WorkloadProfile::by_name("canneal").expect("known workload");
    let mut cfg = SystemConfig::new(w, scheme);
    cfg.warmup_accesses = 30_000;
    cfg
}

#[test]
fn no_compression_runs_and_counts() {
    let mut sys = System::new(test_config(SchemeKind::NoCompression));
    let r = sys.run(40_000);
    assert_eq!(r.stats.accesses, 40_000);
    assert!(r.stats.elapsed_ns > 0.0);
    assert!(r.stats.tlb_misses > 0, "large irregular workload must miss TLB");
    assert!(r.stats.llc_misses() > 0);
    assert_eq!(r.stats.cte_misses, 0, "no CTEs without compression");
    assert!(r.perf_accesses_per_us() > 0.0);
}

#[test]
fn compresso_pays_serial_translation() {
    let mut nc = System::new(test_config(SchemeKind::NoCompression));
    let mut cp = System::new(test_config(SchemeKind::Compresso));
    let rn = nc.run(40_000);
    let rc = cp.run(40_000);
    assert!(rc.stats.cte_misses > 0, "CTE misses must occur");
    // Fig. 18 shape: Compresso's average L3-miss latency exceeds the
    // uncompressed system's.
    assert!(
        rc.stats.avg_l3_miss_latency_ns() > rn.stats.avg_l3_miss_latency_ns(),
        "compresso {:.1} vs nocomp {:.1}",
        rc.stats.avg_l3_miss_latency_ns(),
        rn.stats.avg_l3_miss_latency_ns()
    );
    // Compresso saves DRAM (block compression).
    assert!(rc.stats.effective_ratio() > 1.0);
}

#[test]
fn tmcc_beats_compresso_latency_at_same_savings() {
    let mut cp = System::new(test_config(SchemeKind::Compresso));
    let rc = cp.run(60_000);
    // Run TMCC at the same DRAM usage Compresso achieved (Fig. 17's
    // iso-savings comparison), clamped to TMCC's feasibility floor.
    let budget =
        rc.stats.dram_used_bytes.max(System::min_budget_bytes(&test_config(SchemeKind::Tmcc)));
    let cfg = test_config(SchemeKind::Tmcc).with_budget(budget);
    let mut tm = System::new(cfg);
    let rt = tm.run(60_000);
    assert!(
        rt.stats.avg_l3_miss_latency_ns() < rc.stats.avg_l3_miss_latency_ns(),
        "tmcc {:.1} vs compresso {:.1}",
        rt.stats.avg_l3_miss_latency_ns(),
        rc.stats.avg_l3_miss_latency_ns()
    );
    assert!(
        rt.stats.dram_used_bytes <= budget + (budget / 20),
        "tmcc must respect the iso-savings budget: {} vs {}",
        rt.stats.dram_used_bytes,
        budget
    );
    // Fig. 19: some parallel accesses must have happened.
    assert!(rt.stats.ml1_parallel_correct > 0);
}

#[test]
fn tmcc_beats_barebone_at_same_budget() {
    let base = test_config(SchemeKind::Tmcc);
    // Midway between "fully compressed" and "everything fits": real
    // capacity pressure, so pages actually live in ML2.
    let min = System::min_budget_bytes(&base);
    let footprint = base.footprint_bytes();
    let budget = min + (footprint.saturating_sub(min)) / 3;
    let mut tmcc = System::new(test_config(SchemeKind::Tmcc).with_budget(budget));
    let mut bare = System::new(
        test_config(SchemeKind::OsInspired).with_budget(budget).with_toggles(TmccToggles::none()),
    );
    let rt = tmcc.run(60_000);
    let rb = bare.run(60_000);
    assert!(
        rt.perf_accesses_per_us() > rb.perf_accesses_per_us(),
        "tmcc {:.2} vs barebone {:.2} accesses/us",
        rt.perf_accesses_per_us(),
        rb.perf_accesses_per_us()
    );
    // Both migrate pages through ML2.
    assert!(rt.stats.ml2_reads > 0);
    assert!(rb.stats.ml2_reads > 0);
}

#[test]
fn cte_misses_mostly_follow_tlb_misses() {
    // Fig. 5: with page-level CTEs, CTE misses cluster behind TLB misses.
    let cfg = test_config(SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let footprint = cfg.footprint_bytes();
    let mut sys = System::new(cfg.with_budget(min + footprint.saturating_sub(min) / 3));
    let r = sys.run(60_000);
    assert!(r.stats.cte_misses > 0);
    let frac = r.stats.cte_miss_after_tlb_fraction();
    assert!(frac > 0.5, "Fig. 5 fraction too low: {frac}");
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let mut sys = System::new(test_config(SchemeKind::Tmcc));
        let r = sys.run(20_000);
        (r.stats.elapsed_ns, r.stats.llc_misses(), r.stats.cte_misses)
    };
    assert_eq!(run(), run(), "simulation must be deterministic under a fixed seed");
}

#[test]
fn huge_pages_mode_runs() {
    let mut cfg = test_config(SchemeKind::Tmcc);
    cfg.huge_pages = true;
    let mut sys = System::new(cfg);
    let r = sys.run(30_000);
    assert_eq!(r.stats.accesses, 30_000);
    // Embedded CTEs are ineffective under huge pages (§VIII): everything
    // is serial or CTE-cache hit.
    assert_eq!(r.stats.ml1_parallel_correct, 0);
}

#[test]
fn effective_ratio_accounting_is_consistent() {
    let cfg = test_config(SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let footprint = cfg.footprint_bytes();
    let budget = min + footprint.saturating_sub(min) / 4;
    assert!(budget < footprint, "test premise: budget must apply pressure");
    let mut sys = System::new(cfg.with_budget(budget));
    let r = sys.run(30_000);
    let ratio = r.stats.effective_ratio();
    assert!(ratio > 1.0, "budget pressure must produce savings: {ratio}");
    assert!(ratio < 5.0, "ratio implausibly high: {ratio}");
    assert!(r.stats.dram_used_bytes <= budget + 64 * 4096);
}

#[test]
fn min_budget_is_feasible_and_smaller_with_huge_pages() {
    for name in ["shortestPath", "mcf", "canneal", "pageRank"] {
        let w = WorkloadProfile::by_name(name).expect("known workload");
        let mut per_page_size = Vec::new();
        for huge_pages in [false, true] {
            let mut cfg = SystemConfig::new(w.clone(), SchemeKind::Tmcc);
            cfg.huge_pages = huge_pages;
            let min = System::min_budget_bytes(&cfg);
            let sys = System::try_new(cfg.with_budget(min));
            assert!(sys.is_ok(), "{name} (huge {huge_pages}) at its minimum {min}");
            per_page_size.push(min);
        }
        // 2 MiB pages need a 512th of the leaf tables pinned.
        assert!(per_page_size[1] < per_page_size[0], "{name}: {per_page_size:?}");
    }
}

#[test]
fn min_budget_bytes_are_pinned_for_the_large_suite_and_kv_profiles() {
    // The minimum feasible budget with 4 KiB pages, which every budget
    // search of the figure suite starts from.
    let got: Vec<(&str, u64)> = WorkloadProfile::large_suite()
        .into_iter()
        .chain(WorkloadProfile::kv_suite())
        .map(|w| (w.name, System::min_budget_bytes(&SystemConfig::new(w, SchemeKind::Tmcc))))
        .collect();
    let graph = 115_252_296;
    let want = [
        ("pageRank", graph),
        ("graphColoring", graph),
        ("connComp", graph),
        ("degCentr", graph),
        ("shortestPath", graph),
        ("bfs", graph),
        ("dfs", graph),
        ("kcore", graph),
        ("triangleCount", graph),
        ("mcf", 52_815_048),
        ("omnetpp", 33_203_016),
        ("canneal", 50_672_552),
        ("kv_zipf", 10_842_472),
        ("kv_cache", 12_476_776),
        ("kv_scan", 13_234_536),
        ("kv_hostile", 16_920_936),
    ];
    assert_eq!(got, want);
}
