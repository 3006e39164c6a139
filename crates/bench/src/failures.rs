//! Point-failure quarantine: typed records for sweep points that failed
//! their one attempt, collected across the whole `run-all` fleet and
//! written to `results/FAILURES.json`.

use serde::{Serialize, Value};
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

/// File name under the sweep output directory.
pub const FAILURES_FILE: &str = "FAILURES.json";

/// Test hook: `TMCC_BENCH_FAIL_POINT="experiment:index"` makes the
/// matching sweep point panic. The failure-isolation integration test
/// injects crashes with it.
pub const FAIL_POINT_ENV: &str = "TMCC_BENCH_FAIL_POINT";

/// Why a point failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The point closure panicked.
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The simulator returned a typed error.
    Sim {
        /// The error's display form.
        error: String,
    },
    /// The watchdog cancelled the point at its deadline.
    Timeout {
        /// The budget that expired, milliseconds.
        budget_ms: u64,
    },
}

impl FailureCause {
    /// Short tag used in summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            FailureCause::Panic { .. } => "panic",
            FailureCause::Sim { .. } => "sim-error",
            FailureCause::Timeout { .. } => "timeout",
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic { message } => write!(f, "panic: {message}"),
            FailureCause::Sim { error } => write!(f, "sim-error: {error}"),
            FailureCause::Timeout { budget_ms } => write!(f, "timeout after {budget_ms} ms"),
        }
    }
}

// The derive stand-in only handles fieldless enums; FailureCause carries
// payloads, so its serialization is spelled out.
impl Serialize for FailureCause {
    fn to_value(&self) -> Value {
        let mut entries = vec![("kind".to_string(), Value::Str(self.kind().to_string()))];
        match self {
            FailureCause::Panic { message } => {
                entries.push(("message".to_string(), Value::Str(message.clone())));
            }
            FailureCause::Sim { error } => {
                entries.push(("error".to_string(), Value::Str(error.clone())));
            }
            FailureCause::Timeout { budget_ms } => {
                entries.push(("budget_ms".to_string(), Value::U64(*budget_ms)));
            }
        }
        Value::Map(entries)
    }
}

/// One quarantined point.
#[derive(Debug, Clone, Serialize)]
pub struct PointFailure {
    /// Registry name of the experiment the point belongs to.
    pub experiment: &'static str,
    /// The point's index in its experiment's grid.
    pub index: usize,
    /// Why the point failed.
    pub cause: FailureCause,
    /// Name of the [`crate::sweep::Scale`] the sweep ran at — with the
    /// experiment and index, enough to replay the point at its declared
    /// config via `tmcc-bench run <experiment> --point <index>`.
    pub scale: &'static str,
}

/// Thread-safe failure collector shared by every experiment context.
#[derive(Default)]
pub struct FailureSink {
    failures: Mutex<Vec<PointFailure>>,
}

impl FailureSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one quarantined point.
    pub fn record(&self, failure: PointFailure) {
        self.failures.lock().expect("failure sink").push(failure);
    }

    /// Snapshot of everything recorded so far, in a stable order.
    pub fn snapshot(&self) -> Vec<PointFailure> {
        let mut all = self.failures.lock().expect("failure sink").clone();
        all.sort_by(|a, b| (a.experiment, a.index).cmp(&(b.experiment, b.index)));
        all
    }

    /// Recorded failure count.
    pub fn len(&self) -> usize {
        self.failures.lock().expect("failure sink").len()
    }

    /// Whether nothing failed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes `FAILURES.json` under `out_dir` when anything failed,
    /// removes a stale one when nothing did. Returns the failure count.
    pub fn finalize(&self, out_dir: &Path) -> usize {
        let all = self.snapshot();
        let path = out_dir.join(FAILURES_FILE);
        if all.is_empty() {
            let _ = std::fs::remove_file(&path);
            return 0;
        }
        let _ = std::fs::create_dir_all(out_dir);
        match serde_json::to_string_pretty(&all) {
            Ok(s) => {
                if std::fs::write(&path, s).is_ok() {
                    eprintln!("[{} quarantined point(s) written to {}]", all.len(), path.display());
                }
            }
            Err(e) => eprintln!("could not serialize failures: {e}"),
        }
        all.len()
    }

    /// One-line summary for the exit message.
    pub fn summary_line(&self) -> String {
        let all = self.snapshot();
        let mut parts: Vec<String> = Vec::new();
        for f in &all {
            parts.push(format!("{}#{} ({})", f.experiment, f.index, f.cause.kind()));
        }
        format!("{} point(s) quarantined: {}", all.len(), parts.join(", "))
    }
}

/// A parsed [`FAIL_POINT_ENV`] injection target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailPoint {
    /// Experiment the injection applies to (registry name).
    pub experiment_hash: u64,
    /// Point index within the experiment.
    pub index: usize,
}

impl FailPoint {
    /// Reads and parses the environment hook once.
    pub fn from_env() -> Option<Self> {
        static PARSED: std::sync::OnceLock<Option<FailPoint>> = std::sync::OnceLock::new();
        *PARSED.get_or_init(|| {
            let raw = std::env::var(FAIL_POINT_ENV).ok()?;
            let (experiment, index) = raw.split_once(':')?;
            let index: usize = index.parse().ok()?;
            Some(FailPoint { experiment_hash: crate::journal::fingerprint(experiment), index })
        })
    }

    /// Whether point `index` of `experiment` should be made to fail.
    pub fn matches(&self, experiment: &str, index: usize) -> bool {
        self.experiment_hash == crate::journal::fingerprint(experiment) && self.index == index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_serializes_with_kind_tag() {
        let v = FailureCause::Timeout { budget_ms: 1500 }.to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("timeout"));
        assert_eq!(v.get("budget_ms").and_then(Value::as_u64), Some(1500));

        let v = FailureCause::Panic { message: "boom".into() }.to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("panic"));
        assert_eq!(v.get("message").and_then(Value::as_str), Some("boom"));
    }

    #[test]
    fn finalize_writes_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("tmcc-failures-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(FAILURES_FILE);

        let sink = FailureSink::new();
        sink.record(PointFailure {
            experiment: "fig01_tlb_cte_misses",
            index: 3,
            cause: FailureCause::Sim { error: "capacity exhausted".into() },
            scale: "test",
        });
        assert_eq!(sink.finalize(&dir), 1);
        assert!(path.exists());
        let text = std::fs::read_to_string(&path).expect("read failures");
        assert!(text.contains("fig01_tlb_cte_misses"));
        assert!(text.contains("sim-error"));
        assert!(sink.summary_line().contains("fig01_tlb_cte_misses#3"));

        let empty = FailureSink::new();
        assert_eq!(empty.finalize(&dir), 0);
        assert!(!path.exists(), "stale FAILURES.json must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
