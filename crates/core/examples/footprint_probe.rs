//! Probe host cost of a TB-scale simulated footprint.
//!
//! Constructs a system over `N` GiB of simulated memory (default 100) and
//! reports construction/run wall time, host RSS, and the scheme's
//! metadata heap — the numbers behind the `capacity_cliff` experiment's
//! sizing. The scheme is TMCC at `capacity_cliff`'s budget rule, or with
//! a second argument `compresso`, Compresso unbudgeted. Page contents are
//! lazily materialized from the workload seed, so RSS tracks metadata
//! only, never the footprint.
//!
//! ```sh
//! cargo run --release -p tmcc --example footprint_probe -- 100
//! cargo run --release -p tmcc --example footprint_probe -- 100 compresso
//! ```

use std::time::Instant;
use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

/// A field of `/proc/self/status` in kB (0 off-Linux).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn main() {
    let gib: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(100);
    let scheme = match std::env::args().nth(2).as_deref() {
        None | Some("tmcc") => SchemeKind::Tmcc,
        Some("compresso") => SchemeKind::Compresso,
        Some(other) => panic!("unknown scheme {other:?}: tmcc or compresso"),
    };
    let pages = gib << 30 >> 12;
    let mut workload = WorkloadProfile::by_name("pageRank").expect("known workload");
    workload.sim_pages = pages;
    let mut cfg = SystemConfig::new(workload, scheme);
    if scheme == SchemeKind::Tmcc {
        cfg.dram_budget_bytes = Some(pages * 4096 * 9 / 16 + pages * 32);
    }
    cfg.warmup_accesses = 5_000;
    cfg.size_samples = 64;

    let t = Instant::now();
    let mut sys = System::try_new(cfg).expect("feasible budget");
    println!(
        "construct {gib} GiB ({pages} pages) under {}: {:.1?}  rss {} MiB",
        scheme.name(),
        t.elapsed(),
        status_kb("VmRSS") / 1024
    );

    let t = Instant::now();
    let report = sys.try_run(10_000).expect("run");
    let (reads, writes, divergent) = sys.page_store().stats();
    println!(
        "run 10k accesses: {:.1?}  perf {:.2} acc/us  dram used {} MiB",
        t.elapsed(),
        report.perf_accesses_per_us(),
        report.stats.dram_used_bytes >> 20
    );
    println!(
        "metadata heap {} MiB  store reads/writes/divergent {reads}/{writes}/{divergent}  \
         peak rss {} MiB ({:.1} MiB host per simulated GiB)",
        sys.metadata_heap_bytes() >> 20,
        status_kb("VmHWM") / 1024,
        status_kb("VmHWM") as f64 / 1024.0 / gib as f64
    );
}
