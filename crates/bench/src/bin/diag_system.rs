//! Diagnostics: a compact per-scheme breakdown of one workload, useful
//! when calibrating the workload profiles or investigating a figure
//! binary's output. Not part of the experiment suite.
//!
//! Usage: `cargo run --release -p tmcc-bench --bin diag_system [workload]`

use tmcc::{SchemeKind, System, SystemConfig, TmccError};
use tmcc_workloads::WorkloadProfile;

fn main() -> Result<(), TmccError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bfs".to_string());
    let Some(mut w) = WorkloadProfile::by_name(&name) else {
        eprintln!("unknown workload '{name}'");
        std::process::exit(1);
    };
    for arg in std::env::args().skip(2) {
        match arg.as_str() {
            "--no-seq" => w.pattern.p_seq = 0.0,
            "--no-tail" => w.pattern.tail_fraction = 0.0,
            "--no-hot" => w.pattern.p_hot = 0.0,
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    println!("workload {} — {} pages\n", w.name, w.sim_pages);

    let rc =
        System::try_new(SystemConfig::new(w.clone(), SchemeKind::Compresso))?.try_run(100_000)?;
    println!(
        "compresso: perf={:.2} used={}MB l3lat={:.1} cte_miss/llc={:.2} tlb_miss/llc={:.2}",
        rc.perf_accesses_per_us(),
        rc.stats.dram_used_bytes >> 20,
        rc.stats.avg_l3_miss_latency_ns(),
        rc.stats.cte_miss_per_llc_miss(),
        rc.stats.tlb_miss_per_llc_miss(),
    );

    let min = System::min_budget_bytes(&SystemConfig::new(w.clone(), SchemeKind::Tmcc));
    let budget = rc.stats.dram_used_bytes.max(min);
    let rt = System::try_new(SystemConfig::new(w.clone(), SchemeKind::Tmcc).with_budget(budget))?
        .try_run(100_000)?;
    let s = rt.stats;
    let ml1 = s.ml1_cte_hit + s.ml1_parallel_correct + s.ml1_parallel_mismatch + s.ml1_serial;
    println!(
        "tmcc:      perf={:.2} used={}MB l3lat={:.1} cte_hit={:.2} ml2/miss={:.3}",
        rt.perf_accesses_per_us(),
        s.dram_used_bytes >> 20,
        s.avg_l3_miss_latency_ns(),
        s.cte_hit_rate(),
        s.ml2_reads as f64 / s.llc_misses().max(1) as f64,
    );
    println!(
        "  ml1: avg {:.1} ns over {} reads (hit {} / par {} / stale {} / serial {})",
        s.ml1_latency_sum_ns / ml1.max(1) as f64,
        ml1,
        s.ml1_cte_hit,
        s.ml1_parallel_correct,
        s.ml1_parallel_mismatch,
        s.ml1_serial
    );
    println!(
        "  ml2: avg {:.1} ns over {} reads; migrations up {} / down {}; stalls {:.0} ns; crit {}",
        s.ml2_latency_sum_ns / s.ml2_reads.max(1) as f64,
        s.ml2_reads,
        s.ml2_to_ml1_migrations,
        s.ml1_to_ml2_migrations,
        s.migration_stall_ns,
        s.ml2_crit_penalties
    );
    println!(
        "  perf vs compresso: {:+.1}%",
        (rt.perf_accesses_per_us() / rc.perf_accesses_per_us() - 1.0) * 100.0
    );
    Ok(())
}
