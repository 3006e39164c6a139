//! Per-workload calibrated profiles.
//!
//! One [`WorkloadProfile`] per paper workload, combining:
//!
//! * the **paper footprint** (Table IV col A) and a **scaled simulated
//!   footprint** — scaled so simulations finish on a laptop while every
//!   footprint still exceeds the TLB's 8 MiB and the CTE caches' reach by
//!   a large factor, preserving miss-rate relationships;
//! * an [`AccessPattern`] tuned per workload: `shortestPath` and `canneal`
//!   are the most memory-intensive and CTE-cache-hostile (they gain most
//!   in Fig. 17), `kcore` and `triangleCount` have hot working sets that
//!   fit the CTE cache (they gain least);
//! * a [`ContentProfile`] whose real compressibility matches the
//!   workload's Table IV / Fig. 15 compression ratios.

use crate::access::{AccessPattern, AccessStream};
use crate::content::{ContentProfile, PageContent};

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// IBM GraphBIG kernels over the datagen-8_5-fb-like graph.
    GraphBig,
    /// SPEC CPU2017 (mcf, omnetpp — single-threaded, run as 4 instances).
    Spec,
    /// PARSEC 3.0.
    Parsec,
    /// The §VII "smaller workloads" sensitivity suite.
    Small,
    /// The §VIII bandwidth-intensive interleaving suite.
    Bandwidth,
    /// Synthetic key-value serving tenants (Zipf-skewed key popularity)
    /// for the multi-tenant scenarios.
    KeyValue,
}

/// A fully calibrated synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Paper name of the workload.
    pub name: &'static str,
    /// Suite.
    pub class: WorkloadClass,
    /// Paper memory footprint in GB (Table IV col A; approximate for the
    /// small suite).
    pub paper_footprint_gb: f64,
    /// Simulated footprint in 4 KiB pages.
    pub sim_pages: u64,
    /// Access-stream parameters.
    pub pattern: AccessPattern,
    /// Page-content mixture.
    pub content: ContentProfile,
}

impl WorkloadProfile {
    /// The twelve large/irregular workloads of Figs. 1/2/16/17 and
    /// Table IV, in the paper's order.
    pub fn large_suite() -> Vec<Self> {
        let graph = |name: &'static str, pattern: AccessPattern| WorkloadProfile {
            name,
            class: WorkloadClass::GraphBig,
            paper_footprint_gb: 106.0,
            sim_pages: 65_536, // 256 MiB
            pattern,
            content: ContentProfile::graph_analytics(),
        };
        // Baseline irregular graph pattern.
        let base = AccessPattern::irregular();
        // Hot-set-friendly kernels (low CTE miss rate, Fig. 2):
        let local = AccessPattern {
            p_hot: 0.72,
            hot_fraction: 0.018, // ~1.2K hot pages: inside CTE$ reach
            p_seq: 0.16,
            warm_fraction: 0.12,
            tail_fraction: 0.01,
            mean_work_cycles: 10,
            ..base
        };
        // Bandwidth-hungry, cache-hostile kernels:
        let hostile = AccessPattern {
            p_hot: 0.18,
            p_seq: 0.18,
            hot_fraction: 0.01,
            mean_work_cycles: 3,
            ..base
        };
        vec![
            graph("pageRank", AccessPattern { mean_work_cycles: 5, ..base }),
            graph("graphColoring", base),
            graph("connComp", base),
            graph("degCentr", AccessPattern { p_seq: 0.35, ..base }),
            graph("shortestPath", hostile),
            graph("bfs", AccessPattern { p_hot: 0.3, ..base }),
            graph("dfs", AccessPattern { p_hot: 0.28, p_seq: 0.2, ..base }),
            graph("kcore", local),
            graph("triangleCount", AccessPattern { hot_fraction: 0.022, ..local }),
            WorkloadProfile {
                name: "mcf",
                class: WorkloadClass::Spec,
                paper_footprint_gb: 15.0,
                sim_pages: 24_576, // 96 MiB
                pattern: AccessPattern {
                    p_seq: 0.12,
                    p_hot: 0.30,
                    hot_fraction: 0.015,
                    seq_run_blocks: 8,
                    write_fraction: 0.22,
                    warm_fraction: 0.15,
                    tail_fraction: 0.02,
                    mean_work_cycles: 6,
                    zipf_theta: 0.0,
                },
                content: ContentProfile::mcf(),
            },
            WorkloadProfile {
                name: "omnetpp",
                class: WorkloadClass::Spec,
                paper_footprint_gb: 1.0,
                sim_pages: 16_384, // 64 MiB
                pattern: AccessPattern {
                    p_seq: 0.22,
                    p_hot: 0.42,
                    hot_fraction: 0.03,
                    seq_run_blocks: 12,
                    write_fraction: 0.3,
                    // omnetpp's simulation working set is small relative
                    // to its footprint; at iso-savings budgets most of the
                    // footprint must be ML2-resident without thrash.
                    warm_fraction: 0.15,
                    tail_fraction: 0.015,
                    mean_work_cycles: 8,
                    zipf_theta: 0.0,
                },
                content: ContentProfile::omnetpp(),
            },
            WorkloadProfile {
                name: "canneal",
                class: WorkloadClass::Parsec,
                paper_footprint_gb: 1.1,
                sim_pages: 18_432, // 72 MiB
                pattern: AccessPattern {
                    p_seq: 0.08,
                    p_hot: 0.15,
                    hot_fraction: 0.01,
                    seq_run_blocks: 4,
                    write_fraction: 0.35,
                    warm_fraction: 0.25,
                    tail_fraction: 0.03,
                    mean_work_cycles: 3,
                    zipf_theta: 0.0,
                },
                content: ContentProfile::canneal(),
            },
        ]
    }

    /// The §VII small-workload suite (remaining PARSEC + RocksDB).
    pub fn small_suite() -> Vec<Self> {
        let small =
            |name: &'static str, content: ContentProfile, pattern: AccessPattern| WorkloadProfile {
                name,
                class: WorkloadClass::Small,
                paper_footprint_gb: 0.3,
                sim_pages: 6_144, // 24 MiB: "small and regular"
                pattern,
                content,
            };
        let regular = AccessPattern { warm_fraction: 0.28, ..AccessPattern::streaming() };
        vec![
            small("blackscholes", ContentProfile::highly_compressible(), regular),
            small("bodytrack", ContentProfile::omnetpp(), AccessPattern { p_seq: 0.7, ..regular }),
            small(
                "freqmine",
                ContentProfile::graph_analytics(),
                AccessPattern { p_hot: 0.4, hot_fraction: 0.08, ..regular },
            ),
            small("swaptions", ContentProfile::highly_compressible(), regular),
            small("streamcluster", ContentProfile::mcf(), AccessPattern { p_seq: 0.85, ..regular }),
            small(
                "rocksdb",
                ContentProfile::mcf(),
                AccessPattern {
                    p_seq: 0.4,
                    p_hot: 0.35,
                    hot_fraction: 0.05,
                    seq_run_blocks: 24,
                    write_fraction: 0.3,
                    warm_fraction: 0.4,
                    tail_fraction: 0.015,
                    mean_work_cycles: 6,
                    zipf_theta: 0.0,
                },
            ),
        ]
    }

    /// The §VIII bandwidth-intensive suite used for the interleaving study
    /// (workloads from the paper's reference \[60\]).
    pub fn bandwidth_suite() -> Vec<Self> {
        let bw = |name: &'static str, p_seq: f64, work: u32| WorkloadProfile {
            name,
            class: WorkloadClass::Bandwidth,
            paper_footprint_gb: 4.0,
            sim_pages: 32_768,
            pattern: AccessPattern {
                p_seq,
                p_hot: 0.1,
                hot_fraction: 0.02,
                seq_run_blocks: 64,
                write_fraction: 0.35,
                warm_fraction: 0.5,
                tail_fraction: 0.01,
                mean_work_cycles: work,
                zipf_theta: 0.0,
            },
            content: ContentProfile::graph_analytics(),
        };
        vec![
            bw("stream", 0.95, 1),
            bw("sp_D", 0.25, 1),
            bw("hpcg", 0.55, 2),
            bw("lulesh", 0.7, 2),
            bw("miniFE", 0.6, 2),
            bw("gups", 0.05, 1),
        ]
    }

    /// The key-value serving tenants used by the multi-tenant (`mt_*`)
    /// scenarios: Zipf-skewed point lookups shaped like a memcached/LSM
    /// serving tier, not drawn from the paper (which never measured
    /// contention).
    pub fn kv_suite() -> Vec<Self> {
        let kv = |name: &'static str,
                  content: ContentProfile,
                  pattern: AccessPattern|
         -> WorkloadProfile {
            WorkloadProfile {
                name,
                class: WorkloadClass::KeyValue,
                paper_footprint_gb: 0.0, // not a paper workload
                sim_pages: 6_144,        // 24 MiB per tenant
                pattern,
                content,
            }
        };
        vec![
            // The common case: skewed point lookups over compressible
            // serving data.
            kv("kv_zipf", ContentProfile::graph_analytics(), AccessPattern::zipfian_kv(0.8)),
            // A cache-tier tenant: most traffic pinned to a hot tier.
            kv(
                "kv_cache",
                ContentProfile::omnetpp(),
                AccessPattern { p_hot: 0.55, hot_fraction: 0.03, ..AccessPattern::zipfian_kv(0.7) },
            ),
            // A scan-heavy analytical tenant (range queries).
            kv(
                "kv_scan",
                ContentProfile::mcf(),
                AccessPattern { p_seq: 0.5, seq_run_blocks: 32, ..AccessPattern::zipfian_kv(0.6) },
            ),
            // The adversary: near-uniform churn over poorly compressible
            // values, write-heavy, barely any compute between requests.
            kv(
                "kv_hostile",
                ContentProfile::canneal(),
                AccessPattern {
                    p_seq: 0.04,
                    p_hot: 0.10,
                    warm_fraction: 0.55,
                    tail_fraction: 0.05,
                    write_fraction: 0.45,
                    mean_work_cycles: 3,
                    ..AccessPattern::zipfian_kv(0.2)
                },
            ),
        ]
    }

    /// Finds a workload by paper name across every suite.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::large_suite()
            .into_iter()
            .chain(Self::small_suite())
            .chain(Self::bandwidth_suite())
            .chain(Self::kv_suite())
            .find(|w| w.name == name)
    }

    /// Instantiates the access stream for this workload.
    pub fn stream(&self, seed: u64) -> AccessStream {
        AccessStream::new(self.pattern, self.sim_pages, seed)
    }

    /// Instantiates the page-content source for this workload.
    pub fn page_content(&self, seed: u64) -> PageContent {
        PageContent::new(self.content.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_large_workloads_in_paper_order() {
        let names: Vec<&str> = WorkloadProfile::large_suite().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "pageRank",
                "graphColoring",
                "connComp",
                "degCentr",
                "shortestPath",
                "bfs",
                "dfs",
                "kcore",
                "triangleCount",
                "mcf",
                "omnetpp",
                "canneal"
            ]
        );
    }

    /// graphColoring, connComp and bfs are one configuration under three
    /// names (bfs's `p_hot: 0.3` is the irregular base value), so every
    /// 12-workload average counts that stream three times (EXPERIMENTS.md
    /// note 8). The list may only shrink, and should shrink to empty.
    #[test]
    fn only_the_known_large_suite_profiles_are_equal_but_for_name() {
        let suite = WorkloadProfile::large_suite();
        let same = |a: &WorkloadProfile, b: &WorkloadProfile| {
            WorkloadProfile { name: b.name, ..a.clone() } == *b
        };
        let duplicates: Vec<&WorkloadProfile> =
            suite.iter().filter(|a| suite.iter().any(|b| a.name != b.name && same(a, b))).collect();
        let names: Vec<&str> = duplicates.iter().map(|w| w.name).collect();
        assert_eq!(names, ["graphColoring", "connComp", "bfs"]);
        for w in &duplicates {
            assert!(same(duplicates[0], w), "{} is not {}'s twin", w.name, duplicates[0].name);
            assert_eq!(w.pattern, AccessPattern::irregular(), "{}", w.name);
        }
    }

    #[test]
    fn footprints_exceed_tlb_and_cte_reach() {
        // TLB: 2048 pages. TMCC CTE$: 8192 pages. Compresso CTE$: 2048.
        // The *warm* (actively touched) region must exceed the TLB's and
        // Compresso's reach so translation misses occur; the footprint
        // must exceed TMCC's CTE reach.
        for w in WorkloadProfile::large_suite() {
            let warm = (w.sim_pages as f64 * w.pattern.warm_fraction) as u64;
            assert!(warm > 2048, "{} warm set {warm} within TLB/CTE reach", w.name);
            assert!(
                w.sim_pages > 8192,
                "{} footprint {} within TMCC CTE$ reach",
                w.name,
                w.sim_pages
            );
        }
    }

    #[test]
    fn hot_sets_of_local_kernels_fit_cte_cache() {
        let kcore = WorkloadProfile::by_name("kcore").unwrap();
        let hot_pages = (kcore.sim_pages as f64 * kcore.pattern.hot_fraction) as u64;
        assert!(hot_pages < 8192, "kcore hot set must fit TMCC CTE$");
    }

    #[test]
    fn by_name_finds_all_suites() {
        assert!(WorkloadProfile::by_name("shortestPath").is_some());
        assert!(WorkloadProfile::by_name("rocksdb").is_some());
        assert!(WorkloadProfile::by_name("hpcg").is_some());
        assert!(WorkloadProfile::by_name("kv_zipf").is_some());
        assert!(WorkloadProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn kv_suite_is_zipf_skewed_except_the_adversary() {
        let suite = WorkloadProfile::kv_suite();
        assert_eq!(suite.len(), 4);
        for w in &suite {
            assert_eq!(w.class, WorkloadClass::KeyValue);
            assert!(w.pattern.zipf_theta > 0.0, "{} must be zipfian", w.name);
        }
        let theta = |n: &str| suite.iter().find(|w| w.name == n).unwrap().pattern.zipf_theta;
        // The hostile tenant spreads its traffic nearly uniformly.
        assert!(theta("kv_hostile") < theta("kv_zipf"));
    }

    #[test]
    fn streams_are_reproducible() {
        let w = WorkloadProfile::by_name("pageRank").unwrap();
        let mut a = w.stream(1);
        let mut b = w.stream(1);
        for _ in 0..64 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn memory_intensity_ordering_matches_fig16() {
        // shortestPath and canneal are the most access-intensive.
        let suite = WorkloadProfile::large_suite();
        let work = |n: &str| {
            suite
                .iter()
                .find(|w| w.name == n)
                .map(|w| w.pattern.mean_work_cycles)
                .expect("workload present")
        };
        assert!(work("shortestPath") <= work("pageRank"));
        assert!(work("canneal") <= work("kcore"));
    }
}
