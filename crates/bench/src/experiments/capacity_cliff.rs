//! `capacity_cliff` — simulated-footprint scaling up to 1 TiB.
//!
//! The storage stack materializes page contents lazily from the
//! workload's content seed (`tmcc_workloads::PageStore`) and keeps hot
//! metadata in succinct structures, so the host cost of a simulated
//! footprint is metadata only — tens of MiB per simulated GiB instead of
//! the 1:1 ratio eager 4 KiB buffers would force. This family sweeps the
//! footprint across orders of magnitude under a fixed compression
//! pressure (DRAM budget = 9/16 of the footprint) and reports both sides
//! of the ledger:
//!
//! - `capacity_cliff.json` (golden, byte-identical at any `--jobs`):
//!   simulated performance, DRAM occupancy, the scheme's metadata heap,
//!   and the page store's generate/verify counters.
//! - `FOOTPRINT.json` (non-golden): wall-clock construction/run time and
//!   host RSS per point — nondeterministic by nature, excluded from the
//!   golden diffs exactly like `BENCH_sweep.json`.

use crate::print_table;
use crate::sweep::{HostCost, Scale, SweepCtx};
use serde::Serialize;
use tmcc::{SchemeKind, SystemConfig};
use tmcc_workloads::WorkloadProfile;

const GIB: u64 = 1 << 30;
const PAGE: u64 = 4096;

/// Simulated footprints in pages, per scale. Quick tops out at 100 GiB —
/// the CI `footprint-smoke` acceptance point, which must fit under a
/// 4 GiB host ceiling — and Full at 1 TiB.
pub fn grid_pages(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Full => vec![16 * GIB / PAGE, 64 * GIB / PAGE, 256 * GIB / PAGE, 1024 * GIB / PAGE],
        Scale::Quick => vec![GIB / PAGE, 16 * GIB / PAGE, 100 * GIB / PAGE],
        Scale::Test => vec![1024, 2048],
    }
}

/// One footprint point: TMCC over `pages` with the budget tight enough
/// (9/16 of the uncompressed footprint, plus the translation-metadata
/// allowance) that a large slice of the footprint must live compressed
/// in ML2.
fn point_cfg(pages: u64) -> SystemConfig {
    let mut workload = WorkloadProfile::by_name("pageRank").expect("known workload");
    workload.sim_pages = pages;
    let mut cfg = SystemConfig::new(workload, SchemeKind::Tmcc)
        .with_budget(pages * PAGE * 9 / 16 + pages * 32);
    cfg.seed = 0xF007_0000 ^ pages;
    cfg
}

/// Golden per-point row: deterministic metrics only.
///
/// The two heap columns sum heap *capacity*, which is deterministic, not
/// resident memory. Construction allocates the dirty epochs and recency
/// slots zeroed, and they become resident only where the run writes
/// them, so about half of the counted capacity is never resident: at
/// 1 TiB, `footprint_probe 1024` counts 6 483 MiB of metadata heap in a
/// process that peaks at 3 342 MiB. `FOOTPRINT.json`'s RSS columns are
/// the resident cost.
#[derive(Serialize)]
struct Row {
    sim_pages: u64,
    simulated_gib: f64,
    budget_bytes: u64,
    perf_accesses_per_us: f64,
    dram_used_bytes: u64,
    /// Heap capacity of the scheme's metadata (see above).
    metadata_heap_bytes: u64,
    store_heap_bytes: u64,
    /// Host metadata bytes per simulated GiB — the succinct-layer figure
    /// of merit (an eager page array would sit at 1 GiB per GiB here);
    /// capacity, so an upper bound on what is resident.
    host_metadata_bytes_per_sim_gib: f64,
    store_reads: u64,
    store_writes: u64,
    store_divergent_writes: u64,
    pinned_pages: u64,
}

/// Non-golden per-point row: host wall clock and RSS.
#[derive(Serialize)]
struct FootprintRow {
    sim_pages: u64,
    simulated_gib: f64,
    /// `"live"` for measured points, `"replayed"` for journal replays
    /// (whose host costs are zero — they did not run).
    source: &'static str,
    construct_ms: f64,
    run_ms: f64,
    rss_before_kb: u64,
    rss_after_kb: u64,
    /// Process-wide peak RSS at point completion, kB (monotonic across
    /// the whole process; meaningful when the experiment runs alone, as
    /// in the CI `footprint-smoke` job).
    peak_rss_kb: u64,
}

pub fn run(ctx: &SweepCtx) {
    let accesses = ctx.accesses();
    let out: Vec<(Row, FootprintRow)> = ctx.par_map(grid_pages(ctx.scale()), |pages| {
        let cfg = point_cfg(pages);
        let budget_bytes = cfg.dram_budget_bytes.unwrap_or(0);
        let (report, probe, host) = ctx.run_capacity(cfg, accesses);
        let gib = (pages * PAGE) as f64 / GIB as f64;
        let row = Row {
            sim_pages: pages,
            simulated_gib: gib,
            budget_bytes,
            perf_accesses_per_us: report.perf_accesses_per_us(),
            dram_used_bytes: report.stats.dram_used_bytes,
            metadata_heap_bytes: probe.metadata_heap_bytes,
            store_heap_bytes: probe.store_heap_bytes,
            host_metadata_bytes_per_sim_gib: (probe.metadata_heap_bytes + probe.store_heap_bytes)
                as f64
                / gib,
            store_reads: probe.store_reads,
            store_writes: probe.store_writes,
            store_divergent_writes: probe.store_divergent_writes,
            pinned_pages: probe.pinned_pages,
        };
        let host = host.unwrap_or(HostCost {
            construct_ms: 0.0,
            run_ms: 0.0,
            rss_before_kb: 0,
            rss_after_kb: 0,
        });
        let footprint = FootprintRow {
            sim_pages: pages,
            simulated_gib: gib,
            source: if host.construct_ms > 0.0 { "live" } else { "replayed" },
            construct_ms: host.construct_ms,
            run_ms: host.run_ms,
            rss_before_kb: host.rss_before_kb,
            rss_after_kb: host.rss_after_kb,
            peak_rss_kb: crate::hostmem::peak_rss_kb(),
        };
        (row, footprint)
    });
    let (rows, footprint): (Vec<Row>, Vec<FootprintRow>) = out.into_iter().unzip();
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(&footprint)
        .map(|(r, f)| {
            vec![
                format!("{:.2} GiB", r.simulated_gib),
                format!("{:.2}", r.perf_accesses_per_us),
                format!("{} MiB", r.dram_used_bytes >> 20),
                format!("{} MiB", (r.metadata_heap_bytes + r.store_heap_bytes) >> 20),
                format!("{:.1} MiB/GiB", r.host_metadata_bytes_per_sim_gib / (1 << 20) as f64),
                format!("{}", r.pinned_pages),
                format!("{:.0} ms", f.construct_ms),
                format!("{} MiB", f.rss_after_kb >> 10),
            ]
        })
        .collect();
    print_table(
        "Capacity cliff — footprint scaling under lazy materialization",
        &[
            "simulated",
            "acc/us",
            "sim DRAM",
            "meta heap",
            "host/GiB",
            "pinned",
            "construct",
            "host RSS",
        ],
        &table,
    );
    ctx.emit("capacity_cliff", &rows);
    ctx.emit("FOOTPRINT", &footprint);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_scale_and_quick_reaches_100_gib() {
        let quick = grid_pages(Scale::Quick);
        assert!(quick.iter().any(|&p| p * PAGE >= 100 * GIB), "quick must reach 100 GiB");
        let full = grid_pages(Scale::Full);
        assert!(full.iter().any(|&p| p * PAGE >= 1024 * GIB), "full must reach 1 TiB");
        assert!(grid_pages(Scale::Test).iter().all(|&p| p <= 2048), "test points stay tiny");
    }

    #[test]
    fn budgets_force_compression_pressure() {
        for pages in grid_pages(Scale::Quick) {
            let cfg = point_cfg(pages);
            let budget = cfg.dram_budget_bytes.expect("budgeted");
            assert!(budget < pages * PAGE, "budget must undercut the footprint");
            assert!(budget > pages * PAGE / 2, "budget must stay feasible");
        }
    }
}
