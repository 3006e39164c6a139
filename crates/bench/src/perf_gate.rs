//! CI performance-regression gate: diffs the per-experiment `acc/s`
//! throughput of two `BENCH_sweep.json` summaries (the checked-in pin,
//! `results/BENCH_baseline.json`, vs the current full sweep) and fails
//! when any shared experiment regressed beyond the tolerance.
//!
//! Only experiments that completed (`status == "ok"`) in *both* sweeps
//! are compared; experiments present on one side only are listed as
//! skipped, never silently dropped. Speedups always pass — the gate is
//! one-sided.
//!
//! The gate also compares the sweeps' `peak_rss_kb` (peak host RSS over
//! the whole suite), one-sided the other way: using *less* memory always
//! passes, growing beyond the RSS tolerance fails. Summaries written
//! before the field existed are skipped, not failed.

use serde::Value;

/// Default regression tolerance, percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 15.0;

/// Default one-sided peak-RSS growth tolerance, percent. Wider than the
/// throughput tolerance: RSS depends on allocator behaviour and worker
/// scheduling, and the gate exists to catch metadata-footprint blowups
/// (2x-class), not page-level noise.
pub const DEFAULT_RSS_TOLERANCE_PCT: f64 = 25.0;

/// One compared experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Registry name.
    pub name: String,
    /// Baseline throughput, accesses/second.
    pub baseline_aps: f64,
    /// Current throughput, accesses/second.
    pub current_aps: f64,
    /// Relative change, percent (negative = slower than baseline).
    pub delta_pct: f64,
    /// Whether the slowdown exceeds the tolerance.
    pub regressed: bool,
}

/// The compared peak-RSS of two sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssGate {
    /// Baseline peak RSS, kB.
    pub baseline_kb: u64,
    /// Current peak RSS, kB.
    pub current_kb: u64,
    /// Relative change, percent (positive = more memory than baseline).
    pub delta_pct: f64,
    /// Whether the growth exceeds the RSS tolerance.
    pub regressed: bool,
}

/// The gate's verdict over two sweep summaries.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Experiments compared, in baseline order.
    pub rows: Vec<GateRow>,
    /// Peak-RSS comparison; `None` when either summary predates the
    /// `peak_rss_kb` field (reported under `skipped`).
    pub rss: Option<RssGate>,
    /// Experiments skipped (missing or not `ok` on one side), with the
    /// reason.
    pub skipped: Vec<String>,
}

impl GateOutcome {
    /// Names of the experiments that regressed beyond tolerance.
    pub fn regressions(&self) -> Vec<&str> {
        self.rows.iter().filter(|r| r.regressed).map(|r| r.name.as_str()).collect()
    }

    /// Whether the gate fails overall (throughput or RSS).
    pub fn failed(&self) -> bool {
        !self.regressions().is_empty() || self.rss.is_some_and(|r| r.regressed)
    }
}

/// The top-level `peak_rss_kb` of one sweep summary, if recorded with a
/// meaningful (non-zero) value.
fn peak_rss_kb(json: &str, label: &str) -> Result<Option<u64>, String> {
    let value = serde_json::from_str(json).map_err(|e| format!("{label}: unparsable: {e}"))?;
    let parsed: Value = value;
    Ok(parsed.get("peak_rss_kb").and_then(Value::as_u64).filter(|&kb| kb > 0))
}

/// Per-experiment `(name, status, accesses_per_sec)` out of one
/// `BENCH_sweep.json` text.
fn experiments(json: &str, label: &str) -> Result<Vec<(String, String, f64)>, String> {
    let value = serde_json::from_str(json).map_err(|e| format!("{label}: unparsable: {e}"))?;
    let entries = value
        .get("experiments")
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{label}: no `experiments` array"))?;
    let mut out = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{label}: experiment #{i} has no name"))?;
        let status = e.get("status").and_then(Value::as_str).unwrap_or("unknown");
        let aps = e
            .get("accesses_per_sec")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{label}: {name} has no accesses_per_sec"))?;
        out.push((name.to_string(), status.to_string(), aps));
    }
    Ok(out)
}

/// Compares two sweep summaries: per-experiment throughput under
/// `tolerance_pct`, whole-sweep peak RSS under `rss_tolerance_pct`.
pub fn evaluate(
    baseline_json: &str,
    current_json: &str,
    tolerance_pct: f64,
    rss_tolerance_pct: f64,
) -> Result<GateOutcome, String> {
    let baseline = experiments(baseline_json, "baseline")?;
    let current = experiments(current_json, "current")?;
    let mut outcome = GateOutcome::default();
    match (peak_rss_kb(baseline_json, "baseline")?, peak_rss_kb(current_json, "current")?) {
        (Some(baseline_kb), Some(current_kb)) => {
            let delta_pct = (current_kb as f64 - baseline_kb as f64) / baseline_kb as f64 * 100.0;
            outcome.rss = Some(RssGate {
                baseline_kb,
                current_kb,
                delta_pct,
                regressed: current_kb as f64
                    > baseline_kb as f64 * (1.0 + rss_tolerance_pct / 100.0),
            });
        }
        (missing_baseline, _) => {
            let side = if missing_baseline.is_none() { "baseline" } else { "current" };
            outcome.skipped.push(format!("peak_rss_kb: missing from {side} (pre-RSS sweep?)"));
        }
    }
    for (name, status, baseline_aps) in &baseline {
        if status != "ok" {
            outcome.skipped.push(format!("{name}: baseline status {status}"));
            continue;
        }
        let Some((_, cur_status, current_aps)) = current.iter().find(|(n, _, _)| n == name) else {
            outcome.skipped.push(format!("{name}: missing from current sweep"));
            continue;
        };
        if cur_status != "ok" {
            outcome.skipped.push(format!("{name}: current status {cur_status}"));
            continue;
        }
        let delta_pct = if *baseline_aps > 0.0 {
            (current_aps - baseline_aps) / baseline_aps * 100.0
        } else {
            0.0
        };
        outcome.rows.push(GateRow {
            name: name.clone(),
            baseline_aps: *baseline_aps,
            current_aps: *current_aps,
            delta_pct,
            regressed: *current_aps < baseline_aps * (1.0 - tolerance_pct / 100.0),
        });
    }
    for (name, _, _) in &current {
        if !baseline.iter().any(|(n, _, _)| n == name) {
            outcome.skipped.push(format!("{name}: missing from baseline (new experiment?)"));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(entries: &[(&str, &str, f64)]) -> String {
        sweep_with_rss(entries, 0)
    }

    fn sweep_with_rss(entries: &[(&str, &str, f64)], peak_rss_kb: u64) -> String {
        let rows: Vec<String> = entries
            .iter()
            .map(|(name, status, aps)| {
                format!(
                    "{{\"name\":\"{name}\",\"status\":\"{status}\",\"accesses_per_sec\":{aps}}}"
                )
            })
            .collect();
        format!("{{\"peak_rss_kb\":{peak_rss_kb},\"experiments\":[{}]}}", rows.join(","))
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let baseline = sweep(&[("fig01", "ok", 1000.0), ("fig02", "ok", 2000.0)]);
        let current = sweep(&[("fig01", "ok", 900.0), ("fig02", "ok", 1500.0)]);
        let outcome =
            evaluate(&baseline, &current, 15.0, DEFAULT_RSS_TOLERANCE_PCT).expect("evaluates");
        assert_eq!(outcome.rows.len(), 2);
        assert!(!outcome.rows[0].regressed, "-10% is within a 15% tolerance");
        assert!(outcome.rows[1].regressed, "-25% must trip the gate");
        assert_eq!(outcome.regressions(), vec!["fig02"]);
        assert!(outcome.failed());
    }

    #[test]
    fn speedups_and_exact_boundary_pass() {
        let baseline = sweep(&[("a", "ok", 1000.0), ("b", "ok", 1000.0)]);
        let current = sweep(&[("a", "ok", 5000.0), ("b", "ok", 850.0)]);
        let outcome =
            evaluate(&baseline, &current, 15.0, DEFAULT_RSS_TOLERANCE_PCT).expect("evaluates");
        assert!(outcome.regressions().is_empty(), "exactly -15% is tolerated");
        assert!(!outcome.failed());
    }

    #[test]
    fn non_ok_and_missing_experiments_are_skipped_not_failed() {
        let baseline = sweep(&[("a", "ok", 1000.0), ("b", "failed", 10.0), ("c", "ok", 500.0)]);
        let current = sweep(&[("a", "failed", 1.0), ("c", "ok", 490.0), ("d", "ok", 100.0)]);
        let outcome =
            evaluate(&baseline, &current, 15.0, DEFAULT_RSS_TOLERANCE_PCT).expect("evaluates");
        assert_eq!(outcome.rows.len(), 1, "only c is comparable");
        assert!(outcome.regressions().is_empty());
        let perf_skips = outcome.skipped.iter().filter(|s| !s.starts_with("peak_rss_kb")).count();
        assert_eq!(perf_skips, 3, "a, b and d all reported: {:?}", outcome.skipped);
    }

    #[test]
    fn garbage_input_is_a_typed_error() {
        assert!(evaluate("not json", "{}", 15.0, 25.0).is_err());
        assert!(evaluate("{\"experiments\":[]}", "{}", 15.0, 25.0).is_err());
    }

    #[test]
    fn rss_growth_beyond_tolerance_fails_and_shrink_passes() {
        let entries = [("a", "ok", 1000.0)];
        let baseline = sweep_with_rss(&entries, 1_000_000);
        let grown = sweep_with_rss(&entries, 1_300_000);
        let outcome = evaluate(&baseline, &grown, 15.0, 25.0).expect("evaluates");
        let rss = outcome.rss.expect("both sides carry peak_rss_kb");
        assert!(rss.regressed, "+30% must trip a 25% RSS gate");
        assert!(outcome.failed());
        assert!(outcome.regressions().is_empty(), "throughput alone is clean");

        let shrunk = sweep_with_rss(&entries, 200_000);
        let outcome = evaluate(&baseline, &shrunk, 15.0, 25.0).expect("evaluates");
        assert!(!outcome.rss.expect("compared").regressed, "using less memory always passes");
        assert!(!outcome.failed());

        let boundary = sweep_with_rss(&entries, 1_250_000);
        let outcome = evaluate(&baseline, &boundary, 15.0, 25.0).expect("evaluates");
        assert!(!outcome.rss.expect("compared").regressed, "exactly +25% is tolerated");
    }

    #[test]
    fn missing_rss_field_is_skipped_not_failed() {
        let entries = [("a", "ok", 1000.0)];
        let pre_rss = sweep(&entries);
        let with_rss = sweep_with_rss(&entries, 500_000);
        let outcome = evaluate(&pre_rss, &with_rss, 15.0, 25.0).expect("evaluates");
        assert!(outcome.rss.is_none());
        assert!(!outcome.failed());
        assert!(
            outcome.skipped.iter().any(|s| s.contains("peak_rss_kb") && s.contains("baseline")),
            "skip reason names the missing side: {:?}",
            outcome.skipped
        );
    }
}
