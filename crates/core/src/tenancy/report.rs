//! Multi-tenant run reports.
//!
//! One [`TenantReport`] per roster slot (whether or not the tenant was
//! ever admitted) rolled up into a [`MultiTenantReport`]. Like
//! [`RunReport`], both types derive a strict, exact decode beside their
//! serialization — the half the sweep journal uses to replay finished
//! multi-tenant points after a crash.

use crate::stats::RunReport;
use serde::{Deserialize, Serialize, Value};

use super::qos::QosPolicyKind;

/// Outcome and counters for one roster slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name (unique within the roster).
    pub name: String,
    /// Whether the tenant was ever admitted.
    pub admitted: bool,
    /// Admission attempts the arbiter turned down.
    pub rejections: u64,
    /// Global access count at (last) admission.
    pub arrived_at: Option<u64>,
    /// Global access count at departure, if the tenant left.
    pub departed_at: Option<u64>,
    /// Simulation error that forced the tenant out, if any. A faulted
    /// tenant is evicted and its neighbours keep running — the error is
    /// recorded here instead of failing the scenario.
    pub fault: Option<String>,
    /// Share weight.
    pub weight: u32,
    /// Configured QoS floor, frames.
    pub floor_frames: u32,
    /// Configured steady-state demand, frames.
    pub demand_frames: u32,
    /// Allocation when the run ended (0 if inactive).
    pub alloc_frames: u32,
    /// Smallest allocation the tenant ever held while active (0 if it
    /// never held one) — the acceptance check for "achieved capacity
    /// never fell below the floor".
    pub min_alloc_frames: u32,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Quanta executed at the quarantine-throttled (¼) rate.
    pub throttled_quanta: u64,
    /// Times the degradation ladder moved the tenant into quarantine.
    pub degraded_entries: u64,
    /// Times the tenant recovered and left quarantine.
    pub degraded_exits: u64,
    /// Balloon-shrink faults the arbiter injected into this tenant.
    pub shrink_events: u64,
    /// Balloon-grow faults the arbiter injected into this tenant.
    pub grow_events: u64,
    /// Rounds this tenant spent below its guarantee (pool-shrink storms).
    pub guarantee_breach_rounds: u64,
    /// Bit flips injected into this tenant's memory system — the blast
    /// radius of an integrity storm is per-tenant by construction (each
    /// tenant owns its frames, seals and CTE directory), and these
    /// counters prove it: a neighbour's flips never appear here.
    pub flips_injected: u64,
    /// Flips the tenant's seals/parity caught.
    pub corruptions_detected: u64,
    /// Detected flips repaired (regeneration, raw fallback, scrub).
    pub corruptions_corrected: u64,
    /// Detected flips beyond repair (frame poisoned).
    pub corruptions_uncorrectable: u64,
    /// Flips that escaped detection — silent data corruption.
    pub sdc_escapes: u64,
    /// Frames the poison rung took out of this tenant's budget.
    pub frames_poisoned: u64,
    /// Measured accesses the tenant executed.
    pub measured_accesses: u64,
    /// Median per-access memory latency (fixed-bin log₂ histogram upper
    /// bound, ns) over the tenant's measured window; 0 if never admitted.
    pub lat_p50_ns: u64,
    /// 95th-percentile per-access memory latency (bin upper bound, ns).
    pub lat_p95_ns: u64,
    /// 99th-percentile per-access memory latency (bin upper bound, ns).
    pub lat_p99_ns: u64,
    /// 99.9th-percentile per-access memory latency (bin upper bound, ns).
    pub lat_p999_ns: u64,
    /// The tenant's own simulation report over its measured window
    /// (`None` if never admitted; present even for departed/faulted
    /// tenants, sealed at departure).
    pub report: Option<RunReport>,
}

/// The rolled-up result of one multi-tenant scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantReport {
    /// QoS policy display name.
    #[serde(deserialize_with = "policy_name")]
    pub policy: &'static str,
    /// Pool size when the run ended, frames (churn ballooning moves it).
    pub pool_frames: u64,
    /// Scheduling quantum, accesses.
    pub quantum: u64,
    /// Measured accesses executed across all tenants.
    pub total_accesses: u64,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Churn events applied.
    pub churn_events_applied: u64,
    /// Admissions the arbiter rejected (roster-wide).
    pub admission_rejections: u64,
    /// Rounds with some guarantee breached (arbiter-wide).
    pub guarantee_breach_rounds: u64,
    /// Fleet-wide median per-access memory latency: every tenant's
    /// fixed-bin histogram merged, then read at permille 500 (bin upper
    /// bound, ns).
    pub fleet_lat_p50_ns: u64,
    /// Fleet-wide 95th-percentile latency (bin upper bound, ns).
    pub fleet_lat_p95_ns: u64,
    /// Fleet-wide 99th-percentile latency (bin upper bound, ns).
    pub fleet_lat_p99_ns: u64,
    /// Fleet-wide 99.9th-percentile latency (bin upper bound, ns).
    pub fleet_lat_p999_ns: u64,
    /// Roster steady-demand oversubscription of the configured pool,
    /// ×100 (150 = demands sum to 1.5× the pool) — the frontier curve's
    /// x-coordinate.
    pub overcommit_x100: u64,
    /// DRAM bytes the still-active tenants occupied when the run ended —
    /// the frontier curve's achieved-footprint coordinate.
    pub achieved_footprint_bytes: u64,
    /// Tenant-rounds spent below guarantee, in parts per million of all
    /// tenant-rounds — the frontier curve's breach-rate coordinate.
    pub breach_rate_ppm: u64,
    /// One report per roster slot, in roster order.
    pub tenants: Vec<TenantReport>,
}

/// Decodes a report's policy display name, which must name a
/// [`QosPolicyKind`] (interned as that policy's `&'static str`).
fn policy_name(v: &Value) -> Result<&'static str, String> {
    let name = String::from_value(v)?;
    QosPolicyKind::from_name(&name)
        .map(QosPolicyKind::name)
        .ok_or_else(|| format!("unknown policy {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::stats::SimStats;
    use tmcc_sim_dram::DramStats;

    fn tenant() -> TenantReport {
        TenantReport {
            name: "t0".into(),
            admitted: true,
            rejections: 0,
            arrived_at: Some(0),
            departed_at: None,
            fault: None,
            weight: 1,
            floor_frames: 100,
            demand_frames: 200,
            alloc_frames: 180,
            min_alloc_frames: 120,
            quanta: 8,
            throttled_quanta: 2,
            degraded_entries: 1,
            degraded_exits: 1,
            shrink_events: 1,
            grow_events: 1,
            guarantee_breach_rounds: 0,
            flips_injected: 6,
            corruptions_detected: 5,
            corruptions_corrected: 4,
            corruptions_uncorrectable: 1,
            sdc_escapes: 1,
            frames_poisoned: 1,
            measured_accesses: 4096,
            lat_p50_ns: 128,
            lat_p95_ns: 512,
            lat_p99_ns: 2048,
            lat_p999_ns: 8192,
            report: None,
        }
    }

    #[test]
    fn reports_round_trip() {
        let mt = MultiTenantReport {
            policy: QosPolicyKind::ProportionalShare.name(),
            pool_frames: 1000,
            quantum: 512,
            total_accesses: 8192,
            rounds: 16,
            churn_events_applied: 3,
            admission_rejections: 1,
            guarantee_breach_rounds: 0,
            fleet_lat_p50_ns: 128,
            fleet_lat_p95_ns: 1024,
            fleet_lat_p99_ns: 4096,
            fleet_lat_p999_ns: 16384,
            overcommit_x100: 150,
            achieved_footprint_bytes: 4096 * 900,
            breach_rate_ppm: 1250,
            tenants: vec![
                tenant(),
                TenantReport { departed_at: Some(5000), fault: Some("boom".into()), ..tenant() },
            ],
        };
        let decoded = MultiTenantReport::from_value(&mt.to_value()).expect("round trip");
        assert_eq!(decoded, mt);
    }

    #[test]
    fn unknown_policy_is_rejected() {
        let mut v = MultiTenantReport {
            policy: "proportional-share",
            pool_frames: 1,
            quantum: 1,
            total_accesses: 0,
            rounds: 0,
            churn_events_applied: 0,
            admission_rejections: 0,
            guarantee_breach_rounds: 0,
            fleet_lat_p50_ns: 0,
            fleet_lat_p95_ns: 0,
            fleet_lat_p99_ns: 0,
            fleet_lat_p999_ns: 0,
            overcommit_x100: 0,
            achieved_footprint_bytes: 0,
            breach_rate_ppm: 0,
            tenants: vec![],
        }
        .to_value();
        if let Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "policy" {
                    *val = Value::Str("mystery".into());
                }
            }
        }
        assert!(MultiTenantReport::from_value(&v).is_err());
    }

    /// A report whose floats have non-round bit patterns.
    fn run_report() -> RunReport {
        RunReport {
            workload: "canneal",
            scheme: SchemeKind::Tmcc,
            stats: SimStats {
                accesses: 12_345,
                elapsed_ns: 0.1 + 0.2,
                tlb_hits: 11_000,
                tlb_misses: 1_345,
                l3_miss_latency_sum_ns: 1.0 / 3.0,
                degraded_ns: 1e-300,
                dram_used_bytes: 1 << 30,
                footprint_bytes: 3 << 30,
                ..Default::default()
            },
            dram: DramStats {
                reads: 7,
                writes: 3,
                row_hits: 6,
                row_misses: 4,
                bus_busy_ns: 2f64.sqrt(),
            },
            peak_bandwidth_gbps: 102.4,
            bandwidth_utilization: 0.312_499_999_9,
        }
    }

    /// Sets (`Some`) or removes (`None`) one key of a serialized struct.
    fn with_key(mut v: Value, key: &str, new: Option<Value>) -> Value {
        let Value::Map(entries) = &mut v else { panic!("structs serialize to objects") };
        match (entries.iter().position(|(k, _)| k == key), new) {
            (Some(i), Some(x)) => entries[i].1 = x,
            (Some(i), None) => drop(entries.remove(i)),
            (None, Some(x)) => entries.push((key.to_string(), x)),
            (None, None) => panic!("no key {key:?} to remove"),
        }
        v
    }

    /// The sweep journal's replay path — serialize to JSON text, parse,
    /// decode — must give back the same value and the same bytes.
    fn journal_round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(x: &T) {
        let json = serde_json::to_string(x).expect("serializes");
        let decoded = T::from_value(&serde_json::from_str(&json).expect("parses"));
        assert_eq!(decoded.as_ref(), Ok(x));
        assert_eq!(serde_json::to_string(&decoded.expect("decodes")).expect("serializes"), json);
    }

    #[test]
    fn derived_decoders_round_trip_exactly_and_reject_bad_records() {
        let report = run_report();
        let admitted = TenantReport { report: Some(report.clone()), ..tenant() };
        let mt = MultiTenantReport {
            policy: QosPolicyKind::ProportionalShare.name(),
            pool_frames: 1000,
            quantum: 512,
            total_accesses: 8192,
            rounds: 16,
            churn_events_applied: 3,
            admission_rejections: 1,
            guarantee_breach_rounds: 0,
            fleet_lat_p50_ns: 128,
            fleet_lat_p95_ns: 1024,
            fleet_lat_p99_ns: 4096,
            fleet_lat_p999_ns: 16384,
            overcommit_x100: 150,
            achieved_footprint_bytes: 4096 * 900,
            breach_rate_ppm: 1250,
            tenants: vec![admitted.clone(), tenant()],
        };
        journal_round_trip(&report.stats);
        journal_round_trip(&report.dram);
        journal_round_trip(&report);
        journal_round_trip(&admitted);
        journal_round_trip(&mt);
        for scheme in [
            SchemeKind::NoCompression,
            SchemeKind::Compresso,
            SchemeKind::OsInspired,
            SchemeKind::Tmcc,
        ] {
            journal_round_trip(&scheme);
        }

        type Decode = fn(&Value) -> Result<(), String>;
        let run: Decode = |v| RunReport::from_value(v).map(drop);
        let one: Decode = |v| TenantReport::from_value(v).map(drop);
        let fleet: Decode = |v| MultiTenantReport::from_value(v).map(drop);
        let (r, t) = (report.to_value(), admitted.to_value());
        let too_big = Value::U64(u64::from(u32::MAX) + 6);
        // (case, record, decoder, a word the error must name)
        let cases: [(&str, Value, Decode, &str); 6] = [
            ("missing field", with_key(t.clone(), "quanta", None), one, "quanta"),
            ("unknown key", with_key(r.clone(), "extra", Some(Value::Null)), run, "extra"),
            (
                "wrong JSON type",
                with_key(t.clone(), "admitted", Some(Value::U64(1))),
                one,
                "admitted",
            ),
            ("u32 out of range", with_key(t, "weight", Some(too_big)), one, "weight"),
            (
                "unknown scheme",
                with_key(r, "scheme", Some(Value::Str("Mystery".into()))),
                run,
                "Mystery",
            ),
            (
                "unknown policy",
                with_key(mt.to_value(), "policy", Some(Value::Str("mystery".into()))),
                fleet,
                "mystery",
            ),
        ];
        for (case, value, decode, names) in cases {
            let err = decode(&value).expect_err(case);
            assert!(err.contains(names), "{case}: error {err:?} does not name {names:?}");
        }
    }
}
