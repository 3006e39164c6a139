//! Run a pageRank-like graph-analytics workload through three memory
//! systems — no compression, Compresso, and TMCC at the same DRAM savings
//! as Compresso — and compare performance and translation behaviour.
//!
//! Run with: `cargo run --release --example graph_analytics`

use tmcc::{SchemeKind, System, SystemConfig, TmccError};
use tmcc_workloads::WorkloadProfile;

const ACCESSES: u64 = 120_000;

fn main() -> Result<(), TmccError> {
    let mut workload = WorkloadProfile::by_name("pageRank").expect("known workload");
    // Shrink a little so the example runs in seconds.
    workload.sim_pages = 32_768; // 128 MiB

    println!("workload: {} ({} MiB footprint)\n", workload.name, workload.sim_pages * 4 / 1024);

    // 1. Conventional memory.
    let mut nocomp =
        System::try_new(SystemConfig::new(workload.clone(), SchemeKind::NoCompression))?;
    let rn = nocomp.try_run(ACCESSES)?;

    // 2. Compresso.
    let mut compresso =
        System::try_new(SystemConfig::new(workload.clone(), SchemeKind::Compresso))?;
    let rc = compresso.try_run(ACCESSES)?;

    // 3. TMCC at Compresso's DRAM usage.
    let budget = rc
        .stats
        .dram_used_bytes
        .max(System::min_budget_bytes(&SystemConfig::new(workload.clone(), SchemeKind::Tmcc)));
    let mut tmcc =
        System::try_new(SystemConfig::new(workload.clone(), SchemeKind::Tmcc).with_budget(budget))?;
    let rt = tmcc.try_run(ACCESSES)?;

    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>10}",
        "scheme", "perf acc/us", "L3 miss (ns)", "CTE miss", "DRAM used"
    );
    for r in [&rn, &rc, &rt] {
        println!(
            "{:<16} {:>12.2} {:>14.1} {:>11.1}% {:>8} MB",
            r.scheme.name(),
            r.perf_accesses_per_us(),
            r.stats.avg_l3_miss_latency_ns(),
            r.stats.cte_miss_per_llc_miss() * 100.0,
            r.stats.dram_used_bytes >> 20,
        );
    }
    println!(
        "\nTMCC vs Compresso at equal savings: {:+.1}% performance",
        (rt.perf_accesses_per_us() / rc.perf_accesses_per_us() - 1.0) * 100.0
    );
    println!(
        "TMCC translation: {:.0}% of ML1 reads hit the CTE cache, {:.0}% went parallel",
        rt.stats.ml1_cte_hit as f64
            / (rt.stats.ml1_cte_hit
                + rt.stats.ml1_parallel_correct
                + rt.stats.ml1_parallel_mismatch
                + rt.stats.ml1_serial)
                .max(1) as f64
            * 100.0,
        rt.stats.ml1_parallel_correct as f64
            / (rt.stats.ml1_cte_hit
                + rt.stats.ml1_parallel_correct
                + rt.stats.ml1_parallel_mismatch
                + rt.stats.ml1_serial)
                .max(1) as f64
            * 100.0,
    );
    Ok(())
}
