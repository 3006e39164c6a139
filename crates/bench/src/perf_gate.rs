//! CI performance-regression gate: diffs the per-experiment `acc/s`
//! throughput of two `BENCH_sweep.json` summaries (the checked-in pin,
//! `results/BENCH_baseline.json`, vs the current full sweep) and fails
//! when any shared experiment regressed beyond the tolerance.
//!
//! Only experiments that completed (`status == "ok"`) in *both* sweeps
//! are compared; experiments present on one side only are listed as
//! skipped, never silently dropped, and so are experiments whose baseline
//! simulates no accesses (0 acc/s), which acc/s cannot judge. Speedups
//! always pass — the gate is one-sided.
//!
//! A current sweep that replayed journaled points (`points_replayed > 0`,
//! a `--resume`) fails the gate outright: a replay adds its accesses but
//! almost none of their busy time, so its acc/s reads high whatever the
//! code's speed.
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
    /// Experiments skipped (missing or not `ok` on one side, or with no
    /// accesses in the baseline), with the reason.
    pub skipped: Vec<String>,
    /// Experiments of the current sweep that replayed journaled points,
    /// with how many; any of them fails the gate.
    pub replayed: Vec<(String, u64)>,
}

impl GateOutcome {
    /// Names of the experiments that regressed beyond tolerance.
    pub fn regressions(&self) -> Vec<&str> {
        self.rows.iter().filter(|r| r.regressed).map(|r| r.name.as_str()).collect()
    }

    /// Whether the gate fails overall (throughput, RSS, or a resumed
    /// current sweep).
    pub fn failed(&self) -> bool {
        !self.regressions().is_empty()
            || self.rss.is_some_and(|r| r.regressed)
            || !self.replayed.is_empty()
    }
}

/// The top-level `peak_rss_kb` of one sweep summary, if recorded with a
/// meaningful (non-zero) value.
fn peak_rss_kb(json: &str, label: &str) -> Result<Option<u64>, String> {
    let value = serde_json::from_str(json).map_err(|e| format!("{label}: unparsable: {e}"))?;
    let parsed: Value = value;
    Ok(parsed.get("peak_rss_kb").and_then(Value::as_u64).filter(|&kb| kb > 0))
}

/// One experiment's row of a sweep summary.
struct Entry {
    name: String,
    status: String,
    aps: f64,
    /// Journaled points replayed rather than simulated (0 when absent).
    replayed: u64,
}

/// Per-experiment entries out of one `BENCH_sweep.json` text.
fn experiments(json: &str, label: &str) -> Result<Vec<Entry>, String> {
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
        let replayed = e.get("points_replayed").and_then(Value::as_u64).unwrap_or(0);
        out.push(Entry { name: name.to_string(), status: status.to_string(), aps, replayed });
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
    outcome.replayed =
        current.iter().filter(|e| e.replayed > 0).map(|e| (e.name.clone(), e.replayed)).collect();
    for Entry { name, status, aps: baseline_aps, .. } in &baseline {
        if status != "ok" {
            outcome.skipped.push(format!("{name}: baseline status {status}"));
            continue;
        }
        let Some(cur) = current.iter().find(|e| &e.name == name) else {
            outcome.skipped.push(format!("{name}: missing from current sweep"));
            continue;
        };
        if cur.status != "ok" {
            outcome.skipped.push(format!("{name}: current status {}", cur.status));
            continue;
        }
        if *baseline_aps <= 0.0 {
            outcome.skipped.push(format!("{name}: simulates no accesses (0 acc/s in baseline)"));
            continue;
        }
        if cur.replayed > 0 {
            continue; // listed in `replayed`, which fails the gate
        }
        outcome.rows.push(GateRow {
            name: name.clone(),
            baseline_aps: *baseline_aps,
            current_aps: cur.aps,
            delta_pct: (cur.aps - baseline_aps) / baseline_aps * 100.0,
            regressed: cur.aps < baseline_aps * (1.0 - tolerance_pct / 100.0),
        });
    }
    for e in &current {
        if !baseline.iter().any(|b| b.name == e.name) {
            outcome.skipped.push(format!("{}: missing from baseline (new experiment?)", e.name));
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
    fn zero_access_experiments_are_skipped_not_judged() {
        // fig06-style rows: 0 acc/s on both sides can never regress, so
        // they are listed as skipped instead of reading "ok".
        let baseline = sweep(&[("fig06", "ok", 0.0), ("fig15", "ok", 0.0), ("a", "ok", 1000.0)]);
        let current = sweep(&[("fig06", "ok", 0.0), ("fig15", "ok", 0.0), ("a", "ok", 990.0)]);
        let outcome =
            evaluate(&baseline, &current, 15.0, DEFAULT_RSS_TOLERANCE_PCT).expect("evaluates");
        let judged: Vec<&str> = outcome.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(judged, vec!["a"], "only the experiment with accesses is judged");
        for name in ["fig06", "fig15"] {
            assert!(
                outcome.skipped.iter().any(|s| s.starts_with(name) && s.contains("no accesses")),
                "{name} is skipped with its reason: {:?}",
                outcome.skipped
            );
        }
        assert!(!outcome.failed());
    }

    #[test]
    fn a_resumed_current_sweep_fails_and_names_the_replays() {
        let row = |name: &str, aps: f64, replayed: u64| {
            format!(
                "{{\"name\":\"{name}\",\"status\":\"ok\",\"accesses_per_sec\":{aps},\
                 \"points_replayed\":{replayed}}}"
            )
        };
        let baseline =
            format!("{{\"experiments\":[{},{}]}}", row("fig01", 2.4e6, 0), row("fig02", 2.5e6, 0));
        // fig01's replayed points inflate its acc/s to 35 M: never a pass.
        let current = format!(
            "{{\"experiments\":[{},{}]}}",
            row("fig01", 35.2e6, 11),
            row("fig02", 2.5e6, 0)
        );
        let outcome = evaluate(&baseline, &current, 15.0, 25.0).expect("evaluates");
        assert_eq!(outcome.replayed, vec![("fig01".to_string(), 11)]);
        assert!(outcome.regressions().is_empty(), "fig02 is within tolerance");
        assert!(outcome.rows.iter().all(|r| r.name != "fig01"), "a replayed row is not judged");
        assert!(outcome.failed(), "a resumed sweep cannot pass the gate");
        // The same sweep without replays passes.
        let fresh =
            format!("{{\"experiments\":[{},{}]}}", row("fig01", 2.4e6, 0), row("fig02", 2.5e6, 0));
        let outcome = evaluate(&baseline, &fresh, 15.0, 25.0).expect("evaluates");
        assert!(outcome.replayed.is_empty() && !outcome.failed());
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
