//! Capacity planner: sweep the DRAM budget for a workload and report the
//! performance at each effective-capacity point — the user-facing version
//! of the paper's Table IV methodology.
//!
//! Run with: `cargo run --release --example capacity_planner [workload]`

use tmcc::{SchemeKind, System, SystemConfig, TmccError};
use tmcc_workloads::WorkloadProfile;

const ACCESSES: u64 = 100_000;

fn main() -> Result<(), TmccError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".to_string());
    let Some(mut workload) = WorkloadProfile::by_name(&name) else {
        eprintln!("unknown workload '{name}'; try mcf, pageRank, canneal, omnetpp …");
        std::process::exit(1);
    };
    workload.sim_pages = workload.sim_pages.min(24_576);
    let footprint = workload.sim_pages * 4096;

    // Reference: uncompressed performance.
    let mut nocomp =
        System::try_new(SystemConfig::new(workload.clone(), SchemeKind::NoCompression))?;
    let base = nocomp.try_run(ACCESSES)?.perf_accesses_per_us();

    let min = System::min_budget_bytes(&SystemConfig::new(workload.clone(), SchemeKind::Tmcc));
    println!(
        "workload: {} — footprint {} MiB, fully-compressed floor {} MiB\n",
        workload.name,
        footprint >> 20,
        min >> 20
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "DRAM (MB)", "eff. ratio", "perf acc/us", "vs uncomp", "ML2 rate"
    );
    for step in 0..=6 {
        let budget = min + (footprint.saturating_sub(min)) * step / 6;
        let cfg = SystemConfig::new(workload.clone(), SchemeKind::Tmcc).with_budget(budget);
        let r = System::try_new(cfg)?.try_run(ACCESSES)?;
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>11.1}% {:>9.2}%",
            budget >> 20,
            r.stats.effective_ratio(),
            r.perf_accesses_per_us(),
            (r.perf_accesses_per_us() / base - 1.0) * 100.0,
            r.stats.ml2_access_rate() * 100.0,
        );
    }
    println!(
        "\nReading the table: pick the smallest DRAM budget whose performance\n\
         penalty you can tolerate; the effective ratio column is the capacity\n\
         multiplier TMCC provides at that point."
    );
    Ok(())
}
