//! The experiment suite behind `tmcc-bench`.
//!
//! Every table and figure of the paper's evaluation is one registered
//! experiment (see [`registry`] and DESIGN.md §4), run with
//! `tmcc-bench run <name>` or `tmcc-bench run-all`. They share the sweep
//! harness ([`sweep::SweepCtx`]: run helpers, iso-perf search, JSON
//! emission under `results/`) and this module's table printing and
//! summary statistics.

pub mod experiments;
pub mod failures;
pub mod hostmem;
pub mod journal;
pub mod perf_gate;
pub mod registry;
pub mod sweep;
pub mod watchdog;

use std::path::PathBuf;
use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

/// Default measured accesses per run. Large enough to stabilize miss
/// rates on every workload, small enough that a full figure regenerates
/// in minutes.
pub const DEFAULT_ACCESSES: u64 = 100_000;

/// Prints a two-column-plus table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The repo-level `results/` directory (the default sweep output).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env_root()).join("results")
}

fn env_root() -> String {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".to_string())
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The feasible TMCC budget nearest `target` (clamped to the minimum
/// feasible budget for the workload).
pub fn feasible_budget(workload: &WorkloadProfile, target: u64) -> u64 {
    let cfg = SystemConfig::new(workload.clone(), SchemeKind::Tmcc);
    let min = System::min_budget_bytes(&cfg);
    target.max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
