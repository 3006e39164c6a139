//! Simulation counters and the per-run report.
//!
//! Every figure in the paper's evaluation reads off one or more of these
//! counters; the field docs say which.
//!
//! [`SimStats`] and [`RunReport`] derive their decode from the same field
//! list as their serialization: the derived `Deserialize::from_value` is
//! the decode half of the sweep journal's crash-safe replay. It is
//! *exact* (integers and float bit patterns round trip) and *strict*
//! (every field required, unknown keys rejected), so a new counter is one
//! line here and a journal record from another layout fails loudly
//! instead of replaying stale zeros after a resume.

use crate::config::SchemeKind;
use serde::{Deserialize, Serialize, Value};
use tmcc_sim_dram::DramStats;

/// How an LLC-miss read to an ML1 page was served under TMCC (Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ml1ReadOutcome {
    /// The CTE was in the CTE cache.
    CteCacheHit,
    /// Speculative parallel access with a correct embedded CTE.
    ParallelCorrect,
    /// Speculative parallel access whose embedded CTE was stale
    /// (re-accessed serially, Fig. 8c).
    ParallelMismatch,
    /// No embedded CTE available: serial CTE fetch then data fetch.
    SerialNoCte,
}

/// Raw counters accumulated during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Workload accesses executed (the performance work unit).
    pub accesses: u64,
    /// Core compute cycles between accesses.
    pub work_cycles: u64,
    /// Wall-clock simulated time, ns.
    pub elapsed_ns: f64,

    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (each triggers a page walk).
    pub tlb_misses: u64,
    /// PTB fetches issued by the page walker (post-PWC).
    pub walker_fetches: u64,

    /// LLC misses for data/instruction blocks (Fig. 1 denominator).
    pub llc_miss_data: u64,
    /// LLC misses for page-walker PTB blocks.
    pub llc_miss_ptb: u64,
    /// Dirty LLC writebacks sent to the MC.
    pub llc_writebacks: u64,
    /// Sum of L3-miss service latencies (NoC + MC + DRAM), ns (Fig. 18).
    pub l3_miss_latency_sum_ns: f64,

    /// CTE cache hits on LLC-miss requests.
    pub cte_hits: u64,
    /// CTE cache misses on LLC-miss requests (Fig. 1).
    pub cte_misses: u64,
    /// CTE misses on requests related to a TLB miss (walker fetches and
    /// the data access right after a walk) — Fig. 5's numerator.
    pub cte_misses_after_tlb_miss: u64,

    /// Fig. 19: ML1 reads served with a CTE-cache hit.
    pub ml1_cte_hit: u64,
    /// Fig. 19: ML1 reads served by a correct speculative parallel access.
    pub ml1_parallel_correct: u64,
    /// Fig. 19: parallel accesses whose embedded CTE was stale.
    pub ml1_parallel_mismatch: u64,
    /// Fig. 19: ML1 reads with no embedded CTE (serial).
    pub ml1_serial: u64,

    /// LLC misses served from ML2 (Fig. 21 numerator).
    pub ml2_reads: u64,
    /// Sum of MC+DRAM service latencies for ML1-resident demand reads, ns.
    pub ml1_latency_sum_ns: f64,
    /// Sum of MC+DRAM service latencies for ML2-resident demand reads, ns.
    pub ml2_latency_sum_ns: f64,
    /// Pages migrated ML2 → ML1.
    pub ml2_to_ml1_migrations: u64,
    /// Pages migrated ML1 → ML2 (evictions).
    pub ml1_to_ml2_migrations: u64,
    /// Pages found incompressible at eviction.
    pub incompressible_evictions: u64,
    /// ns spent stalled on the full migration buffer.
    pub migration_stall_ns: f64,
    /// ML2 reads that had to yield to critical-pressure evictions (§VI's
    /// priority flip below the lower free-list threshold).
    pub ml2_crit_penalties: u64,

    /// Compresso page-overflow events (block writeback grew the page).
    pub page_overflows: u64,

    /// Runtime faults injected from the configured
    /// [`FaultPlan`](crate::config::FaultPlan).
    pub faults_injected: u64,
    /// Evictions performed above the normal per-slot budget while the
    /// free list sat below the critical watermark or reclaim debt was
    /// outstanding.
    pub emergency_evictions: u64,
    /// Evictions that fell back to storing the page raw (uncompressed
    /// 4 KiB class) because its exact size class could not be carved.
    pub raw_fallbacks: u64,
    /// Simulated ns spent in degraded mode (free list below the critical
    /// watermark or unpaid reclaim debt).
    pub degraded_ns: f64,
    /// Times the scheme exited degraded mode (pressure fully relieved).
    pub recoveries: u64,

    /// Bit-flip events injected from the configured
    /// [`BitFlipPlan`](crate::config::BitFlipPlan).
    pub flips_injected: u64,
    /// Flips caught by an integrity check (payload CRC, metadata tag or
    /// parity, conservation audit) before the corrupted value was used.
    pub corruptions_detected: u64,
    /// Detected corruptions repaired in place (content regenerated from
    /// the page source, raw-store fallback, directory scrub + refill).
    pub corruptions_corrected: u64,
    /// Detected corruptions the ladder could not repair; the affected
    /// frame was poisoned and quarantined.
    pub corruptions_uncorrectable: u64,
    /// Flips no check covers (or that defeated their check, e.g. an
    /// even-weight burst under parity): silent data corruption escapes.
    pub sdc_escapes: u64,
    /// Subset of detections caught by a *metadata* check (seal tag, CTE
    /// parity, free-list audit) rather than the payload CRC.
    pub metadata_corruptions_detected: u64,
    /// Frames permanently removed from the budget by poisoning.
    pub frames_poisoned: u64,
    /// Simulated ns spent in detect/recover work (decode attempts,
    /// recompression, scrubs) attributable to injected flips.
    pub recovery_ns: f64,

    /// Final DRAM bytes used by data + metadata.
    pub dram_used_bytes: u64,
    /// Uncompressed footprint bytes.
    pub footprint_bytes: u64,
}

impl SimStats {
    /// Total LLC misses (data + PTB) — the denominator of Figs. 1/2/5.
    pub fn llc_misses(&self) -> u64 {
        self.llc_miss_data + self.llc_miss_ptb
    }

    /// TLB misses per LLC miss (Fig. 1, left bars).
    pub fn tlb_miss_per_llc_miss(&self) -> f64 {
        ratio(self.tlb_misses, self.llc_misses())
    }

    /// CTE misses per LLC miss (Fig. 1, right bars).
    pub fn cte_miss_per_llc_miss(&self) -> f64 {
        ratio(self.cte_misses, self.llc_misses())
    }

    /// CTE cache hit rate over LLC-miss requests (Fig. 2 / Fig. 19).
    pub fn cte_hit_rate(&self) -> f64 {
        ratio(self.cte_hits, self.cte_hits + self.cte_misses)
    }

    /// Fraction of CTE misses that immediately follow TLB misses (Fig. 5).
    pub fn cte_miss_after_tlb_fraction(&self) -> f64 {
        ratio(self.cte_misses_after_tlb_miss, self.cte_misses)
    }

    /// Average L3-miss service latency, ns (Fig. 18).
    pub fn avg_l3_miss_latency_ns(&self) -> f64 {
        if self.llc_misses() == 0 {
            0.0
        } else {
            self.l3_miss_latency_sum_ns / self.llc_misses() as f64
        }
    }

    /// ML2 accesses per (LLC miss + writeback) — Fig. 21's metric.
    pub fn ml2_access_rate(&self) -> f64 {
        ratio(self.ml2_reads, self.llc_misses() + self.llc_writebacks)
    }

    /// Fraction of injected flips an integrity check caught (detected or
    /// landed harmlessly); 1 − this is the SDC escape rate.
    pub fn detection_coverage(&self) -> f64 {
        ratio(self.corruptions_detected, self.flips_injected)
    }

    /// Fraction of injected flips that escaped every check silently.
    pub fn sdc_escape_rate(&self) -> f64 {
        ratio(self.sdc_escapes, self.flips_injected)
    }

    /// Fraction of detected corruptions the ladder repaired in place.
    pub fn recovery_rate(&self) -> f64 {
        ratio(self.corruptions_corrected, self.corruptions_detected)
    }

    /// Effective capacity ratio: footprint / DRAM used.
    pub fn effective_ratio(&self) -> f64 {
        if self.dram_used_bytes == 0 {
            1.0
        } else {
            self.footprint_bytes as f64 / self.dram_used_bytes as f64
        }
    }

    /// Cross-counter consistency audit, run from `System::validate` in
    /// debug builds. Catches saturated counters (the hot loops use
    /// `saturating_add`, so a wrapped counter shows up as `u64::MAX`
    /// here instead of as garbage ratios downstream), violated
    /// subset relations, and non-finite time accumulators.
    pub fn audit(&self) -> Result<(), String> {
        let counters = [
            ("accesses", self.accesses),
            ("work_cycles", self.work_cycles),
            ("tlb_hits", self.tlb_hits),
            ("tlb_misses", self.tlb_misses),
            ("walker_fetches", self.walker_fetches),
            ("llc_miss_data", self.llc_miss_data),
            ("llc_miss_ptb", self.llc_miss_ptb),
            ("llc_writebacks", self.llc_writebacks),
            ("cte_hits", self.cte_hits),
            ("cte_misses", self.cte_misses),
            ("dram_used_bytes", self.dram_used_bytes),
        ];
        for (name, value) in counters {
            if value == u64::MAX {
                return Err(format!("stats counter {name} saturated at u64::MAX"));
            }
        }
        if self.cte_misses_after_tlb_miss > self.cte_misses {
            return Err(format!(
                "cte_misses_after_tlb_miss ({}) exceeds cte_misses ({})",
                self.cte_misses_after_tlb_miss, self.cte_misses
            ));
        }
        if self.corruptions_corrected + self.corruptions_uncorrectable > self.corruptions_detected {
            return Err(format!(
                "corruption ladder outcomes ({} corrected + {} uncorrectable) exceed \
                 detections ({})",
                self.corruptions_corrected,
                self.corruptions_uncorrectable,
                self.corruptions_detected
            ));
        }
        if self.corruptions_detected + self.sdc_escapes > self.flips_injected {
            return Err(format!(
                "corruption outcomes ({} detected + {} escaped) exceed flips injected ({})",
                self.corruptions_detected, self.sdc_escapes, self.flips_injected
            ));
        }
        if self.metadata_corruptions_detected > self.corruptions_detected {
            return Err(format!(
                "metadata_corruptions_detected ({}) exceeds corruptions_detected ({})",
                self.metadata_corruptions_detected, self.corruptions_detected
            ));
        }
        let times = [
            ("elapsed_ns", self.elapsed_ns),
            ("l3_miss_latency_sum_ns", self.l3_miss_latency_sum_ns),
            ("ml1_latency_sum_ns", self.ml1_latency_sum_ns),
            ("ml2_latency_sum_ns", self.ml2_latency_sum_ns),
            ("migration_stall_ns", self.migration_stall_ns),
            ("degraded_ns", self.degraded_ns),
            ("recovery_ns", self.recovery_ns),
        ];
        for (name, value) in times {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "stats accumulator {name} is {value} (not a finite non-negative time)"
                ));
            }
        }
        Ok(())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a finished run reports.
///
/// Serializes deterministically: two runs with the same seed and fault
/// plan produce byte-identical JSON (the determinism regression tests
/// rely on this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    #[serde(deserialize_with = "intern_workload")]
    pub workload: &'static str,
    /// Scheme simulated.
    pub scheme: SchemeKind,
    /// Simulation counters (post-warmup).
    pub stats: SimStats,
    /// DRAM-level counters (post-warmup).
    pub dram: DramStats,
    /// Peak DRAM bandwidth of the configuration, GB/s.
    pub peak_bandwidth_gbps: f64,
    /// Bus utilization between first and last DRAM access.
    pub bandwidth_utilization: f64,
}

impl RunReport {
    /// The performance proxy: workload accesses retired per microsecond.
    /// The paper reports store instructions per cycle; both are linear in
    /// retirement rate, so normalized comparisons are identical.
    pub fn perf_accesses_per_us(&self) -> f64 {
        if self.stats.elapsed_ns == 0.0 {
            0.0
        } else {
            self.stats.accesses as f64 / (self.stats.elapsed_ns / 1000.0)
        }
    }
}

/// Decodes a report's workload name. Reports carry `&'static str` names:
/// known names are interned through the profile table, and only names no
/// registered profile owns (e.g. future journal versions) are leaked.
fn intern_workload(v: &Value) -> Result<&'static str, String> {
    let name = String::from_value(v)?;
    Ok(match tmcc_workloads::WorkloadProfile::by_name(&name) {
        Some(profile) => profile.name,
        None => Box::leak(name.into_boxed_str()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            accesses: 100,
            elapsed_ns: 50_000.0,
            tlb_misses: 30,
            llc_miss_data: 80,
            llc_miss_ptb: 20,
            cte_hits: 66,
            cte_misses: 34,
            cte_misses_after_tlb_miss: 30,
            l3_miss_latency_sum_ns: 5_300.0,
            ml2_reads: 4,
            llc_writebacks: 0,
            dram_used_bytes: 50,
            footprint_bytes: 100,
            ..Default::default()
        };
        assert!((s.tlb_miss_per_llc_miss() - 0.30).abs() < 1e-12);
        assert!((s.cte_miss_per_llc_miss() - 0.34).abs() < 1e-12);
        assert!((s.cte_hit_rate() - 0.66).abs() < 1e-12);
        assert!((s.cte_miss_after_tlb_fraction() - 30.0 / 34.0).abs() < 1e-12);
        assert!((s.avg_l3_miss_latency_ns() - 53.0).abs() < 1e-12);
        assert!((s.ml2_access_rate() - 0.04).abs() < 1e-12);
        assert!((s.effective_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.tlb_miss_per_llc_miss(), 0.0);
        assert_eq!(s.cte_hit_rate(), 0.0);
        assert_eq!(s.avg_l3_miss_latency_ns(), 0.0);
        assert_eq!(s.effective_ratio(), 1.0);
    }

    #[test]
    fn audit_flags_saturation_and_subset_violations() {
        assert!(SimStats::default().audit().is_ok());

        let saturated = SimStats { tlb_misses: u64::MAX, ..Default::default() };
        assert!(saturated.audit().unwrap_err().contains("tlb_misses"));

        let inverted =
            SimStats { cte_misses: 3, cte_misses_after_tlb_miss: 4, ..Default::default() };
        assert!(inverted.audit().unwrap_err().contains("cte_misses_after_tlb_miss"));

        let nan_time = SimStats { elapsed_ns: f64::NAN, ..Default::default() };
        assert!(nan_time.audit().unwrap_err().contains("elapsed_ns"));

        let over_resolved = SimStats {
            flips_injected: 5,
            corruptions_detected: 2,
            corruptions_corrected: 2,
            corruptions_uncorrectable: 1,
            ..Default::default()
        };
        assert!(over_resolved.audit().unwrap_err().contains("ladder outcomes"));

        let over_detected = SimStats {
            flips_injected: 1,
            corruptions_detected: 1,
            sdc_escapes: 1,
            ..Default::default()
        };
        assert!(over_detected.audit().unwrap_err().contains("exceed flips injected"));
    }

    #[test]
    fn integrity_metrics_derive_from_counters() {
        let s = SimStats {
            flips_injected: 10,
            corruptions_detected: 8,
            corruptions_corrected: 6,
            corruptions_uncorrectable: 2,
            sdc_escapes: 2,
            metadata_corruptions_detected: 3,
            frames_poisoned: 2,
            recovery_ns: 420.0,
            ..Default::default()
        };
        assert!(s.audit().is_ok());
        assert!((s.detection_coverage() - 0.8).abs() < 1e-12);
        assert!((s.sdc_escape_rate() - 0.2).abs() < 1e-12);
        assert!((s.recovery_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SimStats::default().detection_coverage(), 0.0);
    }

    #[test]
    fn report_round_trips_exactly_through_value() {
        let report = RunReport {
            workload: "canneal",
            scheme: SchemeKind::Tmcc,
            stats: SimStats {
                accesses: 12_345,
                elapsed_ns: 6_789.125,
                tlb_hits: 11_000,
                tlb_misses: 1_345,
                cte_hits: 7,
                cte_misses: 9,
                cte_misses_after_tlb_miss: 5,
                l3_miss_latency_sum_ns: 0.1 + 0.2, // deliberately non-round bits
                dram_used_bytes: 1 << 30,
                footprint_bytes: 3 << 30,
                ..Default::default()
            },
            dram: DramStats::default(),
            peak_bandwidth_gbps: 102.4,
            bandwidth_utilization: 0.312_499_999_9,
        };
        let value = report.to_value();
        let decoded = RunReport::from_value(&value).expect("strict decode");
        assert_eq!(decoded.to_value(), value);
        // The workload name must be interned, not leaked, for known
        // profiles.
        assert!(std::ptr::eq(decoded.workload, report.workload) || decoded.workload == "canneal");

        // Strictness: a perturbed map must be rejected, not ignored.
        let mut entries = match &value {
            Value::Map(entries) => entries.clone(),
            _ => unreachable!(),
        };
        entries.push(("extra".to_string(), Value::Null));
        assert!(RunReport::from_value(&Value::Map(entries)).is_err());
    }
}
