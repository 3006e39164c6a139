//! The experiment registry: every figure/table of the evaluation,
//! registered by name so `tmcc-bench` (and the golden determinism test)
//! can enumerate and run them uniformly.
//!
//! Names double as the `results/<name>.json` file stems; one experiment
//! runs with `tmcc-bench run <name>`.

use crate::experiments;
use crate::sweep::SweepCtx;

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Registry name == `results/<name>.json` stem.
    pub name: &'static str,
    /// Watchdog budget multiplier over `Scale::point_budget`, calibrated
    /// to the experiment's sequential runs per sweep point: 1.0 for one
    /// run per point, up to 4.0 for the iso-perf binary searches (each
    /// point chains several simulation runs that must share a deadline
    /// class without tripping it).
    pub budget_weight: f64,
    /// One-line description shown by `tmcc-bench list`.
    pub title: &'static str,
    /// Executes the config grid through the context and emits the JSON.
    pub run: fn(&SweepCtx),
}

/// Every registered experiment, in suite order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig01_tlb_cte_misses",
            budget_weight: 1.0,
            title: "Fig. 1 — TLB and CTE misses per LLC miss (Compresso CTEs)",
            run: experiments::fig01::run,
        },
        Experiment {
            name: "fig02_cte_hit_rates",
            budget_weight: 1.0,
            title: "Fig. 2 — CTE hits under a 4x CTE cache + LLC victim caching",
            run: experiments::fig02::run,
        },
        Experiment {
            name: "fig05_cte_after_tlb",
            budget_weight: 1.0,
            title: "Fig. 5 — CTE misses that follow TLB misses (8B page-level CTEs)",
            run: experiments::fig05::run,
        },
        Experiment {
            name: "fig06_ptb_status_bits",
            budget_weight: 1.0,
            title: "Fig. 6 — PTBs with identical status bits across all 8 PTEs",
            run: experiments::fig06::run,
        },
        Experiment {
            name: "fig15_compression_ratio",
            budget_weight: 1.0,
            title: "Fig. 15 — Compression ratio per workload image",
            run: experiments::fig15::run,
        },
        Experiment {
            name: "fig16_mem_characterization",
            budget_weight: 1.0,
            title: "Fig. 16 — Memory characterization (no compression)",
            run: experiments::fig16::run,
        },
        Experiment {
            name: "fig17_perf_vs_compresso",
            budget_weight: 2.0,
            title: "Fig. 17 — TMCC performance normalized to Compresso (iso-savings)",
            run: experiments::fig17::run,
        },
        Experiment {
            name: "fig18_l3_miss_latency",
            budget_weight: 2.0,
            title: "Fig. 18 — Average L3-miss latency",
            run: experiments::fig18::run,
        },
        Experiment {
            name: "fig19_ml1_access_split",
            budget_weight: 2.0,
            title: "Fig. 19 — Distribution of ML1 read accesses (TMCC)",
            run: experiments::fig19::run,
        },
        Experiment {
            name: "fig20_vs_barebone",
            budget_weight: 2.0,
            title: "Fig. 20 — Speedup over barebone OS-inspired compression",
            run: experiments::fig20::run,
        },
        Experiment {
            name: "fig21_ml2_access_rate",
            budget_weight: 2.0,
            title: "Fig. 21 — ML2 accesses per (LLC miss + writeback)",
            run: experiments::fig21::run,
        },
        Experiment {
            name: "fig22_interleaving",
            budget_weight: 2.0,
            title: "Fig. 22 — TMCC-compatible interleaving vs sub-page baseline",
            run: experiments::fig22::run,
        },
        Experiment {
            name: "table1_asic_synthesis",
            budget_weight: 1.0,
            title: "Table I — ASIC Deflate synthesis (7nm model)",
            run: experiments::table1::run,
        },
        Experiment {
            name: "table2_deflate_perf",
            budget_weight: 1.0,
            title: "Table II — Deflate performance for 4 KiB memory pages",
            run: experiments::table2::run,
        },
        Experiment {
            name: "table4_iso_perf_ratio",
            budget_weight: 4.0,
            title: "Table IV — Iso-performance compression ratio vs Compresso",
            run: experiments::table4::run,
        },
        Experiment {
            name: "sens_huge_pages",
            budget_weight: 4.0,
            title: "§VIII — Huge pages: TMCC vs Compresso",
            run: experiments::sens_huge_pages::run,
        },
        Experiment {
            name: "sens_small_workloads",
            budget_weight: 2.0,
            title: "§VII — Small/regular workloads: TMCC vs Compresso",
            run: experiments::sens_small_workloads::run,
        },
        Experiment {
            name: "robustness_sweep",
            budget_weight: 2.0,
            title: "Robustness sweep — balloon shocks of increasing severity",
            run: experiments::robustness::run,
        },
        Experiment {
            name: "integrity_storm",
            budget_weight: 2.0,
            title: "Integrity storm — flip rate vs. detection coverage and SDC escapes",
            run: experiments::integrity::run,
        },
        Experiment {
            name: "capacity_cliff",
            budget_weight: 2.0,
            title: "Capacity cliff — TB-scale footprints under lazy materialization",
            run: experiments::capacity_cliff::run,
        },
        Experiment {
            name: "mt_degradation",
            budget_weight: 3.0,
            title: "Multi-tenant — adversarial-neighbor isolation per QoS policy",
            run: experiments::mt::run_degradation,
        },
        Experiment {
            name: "mt_tail_latency",
            budget_weight: 3.0,
            title: "Multi-tenant — guarantee pressure under working-set spikes",
            run: experiments::mt::run_tail_latency,
        },
        Experiment {
            name: "mt_churn_storm",
            budget_weight: 3.0,
            title: "Multi-tenant — arrival/departure/ballooning churn storms",
            run: experiments::mt::run_churn_storm,
        },
        Experiment {
            name: "mt_fleet",
            budget_weight: 3.0,
            title: "Multi-tenant — thousand-tenant fleet and overcommit frontier",
            run: experiments::mt::run_fleet,
        },
    ]
}

/// Looks an experiment up by exact name, or by unique prefix (so
/// `tmcc-bench run fig17` works).
pub fn find(name: &str) -> Result<Experiment, String> {
    let everything = all();
    if let Some(e) = everything.iter().find(|e| e.name == name) {
        return Ok(*e);
    }
    let matches: Vec<&Experiment> =
        everything.iter().filter(|e| e.name.starts_with(name)).collect();
    match matches.len() {
        1 => Ok(*matches[0]),
        0 => Err(format!("no experiment named '{name}' (see `tmcc-bench list`)")),
        _ => Err(format!(
            "'{name}' is ambiguous: {}",
            matches.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
        )),
    }
}
