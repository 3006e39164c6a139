//! Failure-injection tests: the system must degrade gracefully when its
//! resources run out — incompressible content, saturated migration
//! buffers, exhausted free lists, stale embeddings en masse.

use std::time::{Duration, Instant};
use tmcc::config::TmccToggles;
use tmcc::{SchemeKind, System, SystemConfig, TmccError};
use tmcc_workloads::{ContentProfile, PageTemplate, WorkloadProfile};

fn incompressible_workload() -> WorkloadProfile {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 6_000;
    // Every page is pure noise: ML2 can never win.
    w.content = ContentProfile::new(vec![(PageTemplate::Random, 1.0)]);
    w
}

#[test]
fn all_incompressible_content_survives_budget_pressure() {
    let w = incompressible_workload();
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    // The minimum budget for incompressible content is ~the footprint.
    let min = System::min_budget_bytes(&cfg);
    assert!(
        min as f64 >= cfg.footprint_bytes() as f64 * 0.95,
        "incompressible content cannot be squeezed: min {min}"
    );
    let mut sys = System::try_new(cfg.with_budget(min + (1 << 22))).expect("feasible budget");
    let r = sys.try_run(40_000).expect("run completes");
    assert_eq!(r.stats.accesses, 40_000);
    // Whatever was evicted must have been found incompressible or stored
    // raw; either way the system keeps running and data stays addressable.
    assert!(r.stats.effective_ratio() <= 1.1);
}

#[test]
fn migration_buffer_saturation_stalls_but_recovers() {
    // A tail-heavy workload hammers ML2: the 8-entry migration buffer
    // must throttle (stall) rather than lose migrations.
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 8_192;
    w.pattern.tail_fraction = 0.5; // pathological: half the cold draws are frozen-data touches
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 4;
    let mut sys = System::try_new(cfg.with_budget(budget)).expect("feasible budget");
    let r = sys.try_run(30_000).expect("run completes");
    assert!(r.stats.ml2_reads > 500, "tail hammering must reach ML2");
    // Every ML2 read that found a frame migrated; none vanished.
    assert!(r.stats.ml2_to_ml1_migrations <= r.stats.ml2_reads);
    assert!(r.stats.accesses == 30_000, "system must not deadlock");
}

#[test]
fn barebone_with_slow_deflate_is_much_slower_under_ml2_pressure() {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 8_192;
    w.pattern.tail_fraction = 0.2;
    let mk = |toggles| {
        let cfg = SystemConfig::new(w.clone(), SchemeKind::OsInspired).with_toggles(toggles);
        let min = System::min_budget_bytes(&cfg);
        let budget = min + (cfg.footprint_bytes().saturating_sub(min)) / 4;
        System::try_new(cfg.with_budget(budget))
            .expect("feasible budget")
            .try_run(30_000)
            .expect("run completes")
    };
    let slow = mk(TmccToggles::none());
    let fast = mk(TmccToggles::ml2_only());
    assert!(
        fast.perf_accesses_per_us() > slow.perf_accesses_per_us() * 1.05,
        "fast deflate must matter under ML2 pressure: {:.2} vs {:.2}",
        fast.perf_accesses_per_us(),
        slow.perf_accesses_per_us()
    );
}

#[test]
fn zero_budget_headroom_is_a_typed_error() {
    let w = incompressible_workload();
    let cfg = SystemConfig::new(w, SchemeKind::Tmcc).with_budget(1 << 22); // 4 MiB: absurd
    let err = System::try_new(cfg).map(|_| ()).expect_err("infeasible budgets must be rejected");
    assert!(
        matches!(err, TmccError::InfeasibleBudget { .. }),
        "expected InfeasibleBudget, got: {err}"
    );
    // The message must name the numbers an operator needs.
    let msg = err.to_string();
    assert!(msg.contains("budget"), "unhelpful message: {msg}");
}

/// A TB-scale configuration for `scheme` with `pages` data pages.
fn tb_scale(pages: u64, scheme: SchemeKind) -> SystemConfig {
    let mut w = WorkloadProfile::by_name("pageRank").expect("known workload");
    w.sim_pages = pages;
    SystemConfig::new(w, scheme)
}

/// Builds `cfg`, which must fail, and returns the error and how long the
/// rejection took.
fn rejection(cfg: SystemConfig) -> (TmccError, Duration) {
    let start = Instant::now();
    let err = System::try_new(cfg).map(|_| ()).expect_err("out-of-range config must be rejected");
    (err, start.elapsed())
}

#[test]
fn footprint_past_the_page_handle_limit_is_a_typed_error() {
    // 16 TiB is 2^32 data pages; the two-level schemes' page handles hold
    // 31 bits. The identity page table costs O(1) at any footprint, so the
    // limit is found before anything sized by the footprint is built.
    for scheme in [SchemeKind::Tmcc, SchemeKind::OsInspired] {
        let (err, took) = rejection(tb_scale(1 << 32, scheme));
        assert!(
            matches!(err, TmccError::ScaleLimit { requested, limit, .. }
                if requested == 1 << 32 && limit == 1 << 31),
            "got: {err}"
        );
        assert!(err.to_string().contains("31-bit page handles"), "{err}");
        assert!(took < Duration::from_secs(1), "rejection took {took:?}");
    }
}

#[test]
fn budget_past_the_frame_number_limit_is_a_typed_error() {
    // A 17 TiB budget over a 4 TiB footprint is more 4 KiB frames than the
    // 28-bit CTE frame numbers can name; it used to wrap silently.
    let cfg = tb_scale(1 << 30, SchemeKind::Tmcc).with_budget(17 << 40);
    let (err, took) = rejection(cfg);
    assert!(
        matches!(err, TmccError::ScaleLimit { requested, limit, .. }
            if requested > u64::from(u32::MAX) && limit == 1 << 28),
        "got: {err}"
    );
    assert!(err.to_string().contains("28-bit CTE frame numbers"), "{err}");
    assert!(took < Duration::from_secs(1), "rejection took {took:?}");
}

#[test]
fn footprint_past_the_cte_frame_limit_is_a_typed_error() {
    // 2 TiB with no budget asks for a frame per page: 2^29 frames, more
    // than a 28-bit CTE frame field names. The rejection comes before any
    // per-page state is allocated.
    for scheme in [SchemeKind::Tmcc, SchemeKind::OsInspired] {
        let (err, took) = rejection(tb_scale(1 << 29, scheme));
        assert!(
            matches!(err, TmccError::ScaleLimit { requested, limit, .. }
                if requested > 1 << 29 && limit == 1 << 28),
            "got: {err}"
        );
        assert!(err.to_string().contains("28-bit CTE frame numbers"), "{err}");
        assert!(took < Duration::from_secs(1), "rejection took {took:?}");
    }
}

#[test]
fn compresso_chunk_numbers_past_u32_are_a_typed_error() {
    // 4 TiB is 2^30 pages; at up to eight 512 B chunks a page, their
    // chunk numbers could pass 32 bits and would wrap. The worst case is
    // O(1) arithmetic, so the rejection comes before the size model is
    // sampled or any per-page state allocated.
    let (err, took) = rejection(tb_scale(1 << 30, SchemeKind::Compresso));
    assert!(
        matches!(err, TmccError::ScaleLimit { requested, limit, .. }
            if requested > 8 << 30 && limit == u64::from(u32::MAX)),
        "got: {err}"
    );
    assert!(err.to_string().contains("Compresso chunks (32-bit chunk numbers)"), "{err}");
    assert!(took < Duration::from_secs(1), "rejection took {took:?}");
}

#[test]
fn footprint_past_the_cache_tag_range_is_a_typed_error() {
    // A cache tag is a block address's low 32 bits, so the default 128-set
    // L1 names 2^39 blocks (32 TiB) exactly. A 32 TiB NoCompression
    // footprint (2^33 pages) puts its table region past that; the schemes
    // that compress stop at their own limits first.
    let (err, took) = rejection(tb_scale(1 << 33, SchemeKind::NoCompression));
    assert!(
        matches!(err, TmccError::ScaleLimit { requested, limit, .. }
            if requested > 1 << 39 && limit == 1 << 39),
        "got: {err}"
    );
    assert!(err.to_string().contains("block addresses (cache tag range)"), "{err}");
    assert!(took < Duration::from_secs(1), "rejection took {took:?}");
}

#[test]
fn vpns_past_the_tlb_tag_range_are_a_typed_error() {
    // An 8-entry, 8-way TLB has one set, so its tags name 2^32 VPNs.
    let mut cfg = tb_scale((1 << 32) + 1, SchemeKind::NoCompression);
    cfg.tlb_entries = 8;
    let (err, took) = rejection(cfg);
    assert!(
        matches!(err, TmccError::ScaleLimit { requested, limit, .. }
            if requested == (1 << 32) + 1 && limit == 1 << 32),
        "got: {err}"
    );
    assert!(err.to_string().contains("virtual pages (TLB tag range)"), "{err}");
    assert!(took < Duration::from_secs(1), "rejection took {took:?}");
}

#[test]
fn the_largest_footprint_the_tags_name_runs() {
    // 2^33 - 2^25 data pages and their table region end below PPN 2^33,
    // so every block stays below the L1's 2^39: the system builds in
    // O(1) and runs, page walks into the top of the table region
    // included, with no tag assert firing.
    let pages = (1u64 << 33) - (1 << 25);
    let mut sys = System::try_new(tb_scale(pages, SchemeKind::NoCompression)).expect("in range");
    let r = sys.try_run(10_000).expect("run completes");
    assert_eq!(r.stats.accesses, 10_000);
    assert!(r.stats.walker_fetches > 0, "the run walks the table region");
}
