//! `tmcc-benchmark` — the pinned host-performance benchmark of the TMCC
//! simulator: four workloads, end-to-end metrics measured with tracing
//! off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! tmcc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     Measures one workload for S seconds: repeated passes, each in a
//!     process of its own, reduced to one value per metric (see
//!     `aggregate`); end-to-end times are scaled by a host-speed
//!     yardstick (see `yardstick.rs`). The last stdout line is the
//!     result object {correct, attempted, failed, metrics}; the exit code
//!     is 1 when any check failed.
//! tmcc-benchmark run [--seed N] [--runs R] [--seconds S] [--trace]
//!                    [--smoke] [--out DIR]
//!     Measures every workload, one process at a time, R times over;
//!     prints every metric with its unit and writes one JSON file per
//!     (workload, run) into DIR.
//! tmcc-benchmark agree DIR_A DIR_B
//!     Compares two sets of `run --out` results against BENCHMARK.json's
//!     bounds: medians, quartiles, pairwise win fraction and a verdict per
//!     (workload, end-to-end metric). Exit code 0 only when all agree.
//! ```
//!
//! See README.md for the workloads, metrics and bounds.

mod stats;
mod trace;
mod workload;
mod yardstick;

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Pass, Workload, DEFAULT_SEED};

/// The metric catalogue, units, directions and bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");
/// Report digests of every workload at [`DEFAULT_SEED`].
const EXPECTED: &str = include_str!("../expected.json");

/// Passes of one measurement end within this, whatever `--seconds` asks,
/// so a measurement ends well inside the 180 s it may take.
const PASS_DEADLINE: Duration = Duration::from_secs(150);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("agree") => cmd_agree(&args[1..]),
        Some("pass") => cmd_pass(&args[1..]),
        _ => cmd_measure(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("tmcc-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// One metric of BENCHMARK.json.
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

struct Spec {
    run_seconds: u64,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn spec() -> Result<Spec, String> {
    let v = serde_json::from_str(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        v.get(key)
            .and_then(Value::as_seq)
            .ok_or(format!("BENCHMARK.json: no {key} list"))?
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                Ok(MetricSpec {
                    name: text("name").ok_or("BENCHMARK.json: metric without a name")?,
                    unit: text("unit").ok_or("BENCHMARK.json: metric without a unit")?,
                    lower_is_better: text("better").as_deref() == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The pinned digest of `workload` at [`DEFAULT_SEED`], if one is pinned.
fn pinned_digest(workload: Workload, smoke: bool) -> Result<Option<String>, String> {
    let v = serde_json::from_str(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    Ok(v.get(if smoke { "smoke" } else { "full" })
        .and_then(|set| set.get(workload.name()))
        .and_then(Value::as_str)
        .map(str::to_string))
}

/// `--key value` options, bare `--switch`es and positional arguments.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags { values: BTreeMap::new(), switches: vec![], positional: vec![] };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if switches.contains(&key) => flags.switches.push(key.to_string()),
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.values.insert(key.to_string(), value.clone());
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or(format!("--{key} is required"))
    }

    fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.require("workload")?;
        Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))
    }

    /// `--seed`, decimal or `0x` hex.
    fn seed(&self) -> Result<Option<u64>, String> {
        self.get("seed")
            .map(|s| {
                match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                }
                .map_err(|_| format!("bad --seed {s:?}"))
            })
            .transpose()
    }

    fn count(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => match s.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("--{key} must be a whole number ≥ 1, not {s:?}")),
            },
        }
    }

    /// `--trace 0|1`.
    fn trace(&self) -> Result<bool, String> {
        match self.require("trace")? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace must be 0 or 1, not {other:?}")),
        }
    }
}

/// Runs this executable with `args`, waits for it, and returns its exit
/// success and the last non-empty line of its stdout.
fn run_self(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    Ok((out.status.success(), last.to_string()))
}

/// `pass`: one pass in this process, printed as one JSON line.
fn cmd_pass(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["smoke"])?;
    let seed = f.seed()?.ok_or("--seed is required")?;
    let pass = workload::run_pass(f.workload()?, seed, f.switch("smoke"), f.trace()?);
    println!("{}", pass.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The default mode: measure one workload for `--seconds`.
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec()?;
    let f = Flags::parse(args, &["smoke"])?;
    let workload = f.workload()?;
    let seed = f.seed()?.ok_or("--seed is required")?;
    let seconds = Duration::from_secs(f.count("seconds", spec.run_seconds)?);
    let traced = f.trace()?;
    let smoke = f.switch("smoke");

    let mut pass_args: Vec<String> =
        ["pass", "--workload", workload.name(), "--seed"].map(String::from).to_vec();
    pass_args.extend([seed.to_string(), "--trace".into(), u8::from(traced).to_string()]);
    if smoke {
        pass_args.push("--smoke".into());
    }

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    if traced {
        // The per-layer numbers mean something only while the copy still
        // follows `System`'s step loop.
        attempted += trace::FIDELITY_SCHEMES.len() as u64;
        failures.extend(trace::fidelity_check());
    }

    // Passes run until the next one, if it took as long as the longest so
    // far, would end past the budget, so a measurement takes about
    // `seconds` however slow the host is.
    let budget = seconds.min(PASS_DEADLINE);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let pass = run_self(&pass_args).and_then(|(ok, line)| {
            let pass = Pass::from_json(&line)?;
            if ok {
                Ok(pass)
            } else {
                Err("pass process failed".into())
            }
        });
        match pass {
            Ok(p) => passes.push(p),
            Err(e) => {
                attempted += 1;
                failures.push(format!("pass {}: {e}", passes.len()));
                break;
            }
        }
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            break;
        }
    }

    for p in &passes {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
    }
    // Every pass runs the same inputs, so every digest must be the same,
    // and at the default seed it must be the pinned one.
    let digests: Vec<&str> = passes.iter().filter_map(|p| p.digest.as_deref()).collect();
    if let Some(&first) = digests.first() {
        for (i, &d) in digests.iter().enumerate().skip(1) {
            attempted += 1;
            if d != first {
                failures.push(format!("pass {i} digest {d} differs from pass 0's {first}"));
            }
        }
        if seed == DEFAULT_SEED {
            attempted += 1;
            let pin = pinned_digest(workload, smoke)?;
            if pin.as_deref() != Some(first) {
                failures.push(format!("report digest {first} does not match the pin {pin:?}"));
            }
        }
    }

    let values = aggregate(&passes, traced);
    let wanted = if traced { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for m in wanted {
        match values.get(&m.name) {
            Some(&v) => metrics.push((m, v)),
            None if failures.is_empty() => {
                attempted += 1;
                failures.push(format!("no value for metric {}", m.name));
            }
            None => {}
        }
    }

    eprintln!(
        "{}: {} passes in {:.1} s, {} chunks, seed {seed}",
        workload.name(),
        passes.len(),
        start.elapsed().as_secs_f64(),
        passes.iter().map(|p| p.chunks.len()).sum::<usize>()
    );
    for (m, v) in &metrics {
        eprintln!("  {:<32} {v:>18.6} {}", m.name, m.unit);
    }
    for e in &failures {
        eprintln!("  FAILED: {e}");
    }

    let correct = failures.is_empty();
    let metric_values = metrics
        .iter()
        .map(|(m, v)| {
            let entry = vec![
                ("value".to_string(), Value::F64(*v)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (m.name.clone(), Value::Map(entry))
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failures.len() as u64)),
        ("metrics".into(), Value::Map(metric_values)),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// One value per metric from a measurement's passes: the median over
/// passes, and `ns_per_acc_p50` the median over every timed slice of every
/// pass. The time metrics of an untraced pass are already scaled by the
/// yardstick (see `yardstick.rs`). Traced runs add the median, the 95th
/// percentile and the count of the untraced slices, in host ns.
fn aggregate(passes: &[Pass], traced: bool) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (name, v) in &p.metrics {
            by_name.entry(name.clone()).or_default().push(*v);
        }
    }
    let mut out: BTreeMap<String, f64> =
        by_name.into_iter().filter_map(|(name, vs)| Some((name, stats::median(&vs)?))).collect();
    let chunks: Vec<f64> = passes.iter().flat_map(|p| p.chunks.iter().copied()).collect();
    if chunks.is_empty() {
        return out;
    }
    if traced {
        out.insert("run.ns_per_acc_p50".into(), stats::median(&chunks).unwrap_or(0.0));
        out.insert("run.ns_per_acc_p95".into(), stats::percentile(&chunks, 95.0).unwrap_or(0.0));
        out.insert("run.chunks".into(), chunks.len() as f64);
    } else {
        out.insert("ns_per_acc_p50".into(), stats::median(&chunks).unwrap_or(0.0));
    }
    out
}

/// `run`: every workload, one measurement process at a time.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec()?;
    let f = Flags::parse(args, &["trace", "smoke"])?;
    let seed = f.seed()?.unwrap_or(DEFAULT_SEED);
    let runs = f.count("runs", 1)?;
    let seconds = f.count("seconds", spec.run_seconds)?;
    let traced = f.switch("trace");
    let out_dir = f.get("out").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let mut all_correct = true;
    for run in 0..runs {
        for w in Workload::ALL {
            let mut args: Vec<String> =
                ["--workload", w.name(), "--seed"].map(String::from).to_vec();
            args.extend([seed.to_string(), "--seconds".into(), seconds.to_string()]);
            args.extend(["--trace".into(), u8::from(traced).to_string()]);
            if f.switch("smoke") {
                args.push("--smoke".into());
            }
            let (_, line) = run_self(&args)?;
            let result = serde_json::from_str(&line)
                .map_err(|e| format!("{} run {run}: unreadable result ({e}): {line}", w.name()))?;
            let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
            let count = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(0);
            all_correct &= correct;
            println!(
                "{} run {run}: correct={correct} attempted={} failed={} error_rate={}",
                w.name(),
                count("attempted"),
                count("failed"),
                count("failed") as f64 / count("attempted").max(1) as f64
            );
            for (name, m) in result.get("metrics").and_then(Value::as_map).unwrap_or_default() {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                println!("  {:<18} {name:<32} {value:>18.6} {unit}", w.name());
            }
            if let Some(dir) = &out_dir {
                let record = Value::Map(vec![
                    ("workload".into(), Value::Str(w.name().into())),
                    ("seed".into(), Value::U64(seed)),
                    ("run".into(), Value::U64(run)),
                    ("trace".into(), Value::Bool(traced)),
                    ("result".into(), result),
                ]);
                let tag = if traced { "trace." } else { "" };
                let path = dir.join(format!("{}.{tag}run{run}.json", w.name()));
                let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Untraced metric values of a result directory, by workload then metric.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = record.get("workload").and_then(Value::as_str).unwrap_or_default();
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_map)
            .ok_or(format!("{}: no metrics", path.display()))?;
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// `v` with five significant digits.
fn significant(v: f64) -> String {
    let magnitude = if v == 0.0 { 0 } else { v.abs().log10().floor() as i32 };
    format!("{v:.*}", (4 - magnitude).max(0) as usize)
}

/// Fraction of all (a, b) pairs in which `b` is better; ties count for
/// neither side.
fn win_fraction(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| if lower_is_better { y < x } else { y > x })
        .count();
    wins as f64 / (a.len() * b.len()).max(1) as f64
}

/// `agree`: do two result sets of the same commit agree within the bounds?
fn cmd_agree(args: &[String]) -> Result<ExitCode, String> {
    let spec = spec()?;
    let f = Flags::parse(args, &[])?;
    let [dir_a, dir_b] = f.positional.as_slice() else {
        return Err("usage: tmcc-benchmark agree DIR_A DIR_B".into());
    };
    let (a, b) = (load_set(Path::new(dir_a))?, load_set(Path::new(dir_b))?);
    println!(
        "{:<18} {:<15} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "change", "bound", "B-win"
    );
    let mut all_agree = true;
    let mut rows = 0;
    for w in Workload::ALL.map(Workload::name) {
        let (Some(ma), Some(mb)) = (a.get(w), b.get(w)) else { continue };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (ma.get(&m.name), mb.get(&m.name)) else {
                println!("{w:<18} {:<15} missing from one set", m.name);
                all_agree = false;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            let (Some(med_a), Some(med_b)) = (med_a, med_b) else { continue };
            let (iqr_a, iqr_b) =
                (stats::relative_iqr(va).unwrap_or(0.0), stats::relative_iqr(vb).unwrap_or(0.0));
            let change = (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
            let verdict = if iqr_a.max(iqr_b) > bound {
                "unresolved"
            } else if change.abs() <= bound {
                "agree"
            } else {
                "differ"
            };
            all_agree &= verdict == "agree";
            rows += 1;
            println!(
                "{w:<18} {:<15} {:>12} {:>6.1}% {:>12} {:>6.1}% {:>7.2}% {:>5.1}% {:>6.2}  {verdict}",
                m.name,
                significant(med_a),
                iqr_a * 100.0,
                significant(med_b),
                iqr_b * 100.0,
                change * 100.0,
                bound * 100.0,
                win_fraction(va, vb, m.lower_is_better),
            );
        }
        println!(
            "{w:<18} ({} runs in A, {} in B)",
            ma.values().next().map_or(0, Vec::len),
            mb.values().next().map_or(0, Vec::len)
        );
    }
    if rows == 0 {
        return Err("no (workload, metric) pair is in both sets".into());
    }
    Ok(if all_agree { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the metrics the benchmark produces.
    #[test]
    fn spec_lists_exactly_the_produced_metrics() {
        let spec = spec().expect("BENCHMARK.json parses");
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, ["setup_s", "wall_s", "acc_per_s", "ns_per_acc_p50", "peak_rss_mb"]);
        let mut layers = workload::per_layer_names();
        layers.extend(["run.ns_per_acc_p50", "run.ns_per_acc_p95", "run.chunks"].map(String::from));
        let listed: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(listed, layers);
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(bound <= setup.bound.expect("bound"), "setup_s has the largest bound");
        }
    }

    /// Every workload runs at smoke size, passes every check, reproduces
    /// its pinned digest, and its traced copy agrees with `System`.
    #[test]
    fn smoke_passes_match_their_pins() {
        for w in Workload::ALL {
            let pin = pinned_digest(w, true).expect("expected.json parses");
            let plain = workload::run_pass(w, DEFAULT_SEED, true, false);
            assert!(plain.failures.is_empty(), "{}: {:?}", w.name(), plain.failures);
            assert_eq!(plain.digest, pin, "{}", w.name());
            let traced = workload::run_pass(w, DEFAULT_SEED, true, true);
            assert!(traced.failures.is_empty(), "{}: {:?}", w.name(), traced.failures);
            assert_eq!(traced.digest, plain.digest, "{}", w.name());
            let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, workload::per_layer_names(), "{}", w.name());
            let untraced = aggregate(&[plain], false);
            for m in ["setup_s", "wall_s", "acc_per_s", "ns_per_acc_p50", "peak_rss_mb"] {
                assert!(untraced.get(m).is_some_and(|&v| v > 0.0), "{}: {m}", w.name());
            }
        }
    }

    #[test]
    fn pass_results_round_trip_through_json() {
        let pass = Pass {
            attempted: 7,
            failures: vec!["x \"quoted\"".into()],
            digest: Some("00ff".into()),
            metrics: vec![("a.b".into(), 0.1 + 0.2), ("c".into(), 3.0)],
            chunks: vec![1.5, 2.25],
        };
        let back = Pass::from_json(&pass.to_json()).expect("parses");
        assert_eq!(back.to_json(), pass.to_json());
    }

    #[test]
    fn significant_keeps_five_digits() {
        assert_eq!(significant(639221.316), "639221");
        assert_eq!(significant(1446.4345), "1446.4");
        assert_eq!(significant(0.0385190), "0.038519");
        assert_eq!(significant(0.0), "0.0000");
    }

    #[test]
    fn win_fraction_counts_ties_for_neither_side() {
        assert_eq!(win_fraction(&[2.0, 4.0], &[1.0, 4.0], true), 0.5);
        assert_eq!(win_fraction(&[2.0, 4.0], &[1.0, 4.0], false), 0.25);
    }

    #[test]
    fn flags_parse_seeds_and_switches() {
        let args: Vec<String> =
            ["--seed", "0xC0FFEE", "--smoke", "x"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse(&args, &["smoke"]).expect("parses");
        assert_eq!(f.seed().expect("valid"), Some(DEFAULT_SEED));
        assert!(f.switch("smoke"));
        assert_eq!(f.positional, ["x"]);
        assert!(Flags::parse(&["--seed".to_string()], &[]).is_err());
    }
}
