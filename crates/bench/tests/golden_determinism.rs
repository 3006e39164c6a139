//! Golden determinism test for the sweep harness: `run-all --jobs 8` and
//! `--jobs 1` must produce byte-identical per-figure JSON for a small-N
//! config of every registered experiment.
//!
//! The suite is simulation-heavy, so the test drives the *release*
//! `tmcc-bench` binary (tier 1 builds it first; a cold tree pays one
//! release build of the bench crate) rather than re-running the sims
//! unoptimized in-process.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").to_path_buf()
}

/// Builds (a no-op when tier 1 already did) and locates the release binary.
fn release_binary() -> PathBuf {
    let root = workspace_root();
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "-p", "tmcc-bench", "--bin", "tmcc-bench"])
        .current_dir(&root)
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "release build of tmcc-bench failed");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join(format!("tmcc-bench{}", std::env::consts::EXE_SUFFIX));
    assert!(bin.exists(), "built binary not found at {}", bin.display());
    bin
}

fn run_all(bin: &Path, jobs: u32, out: &Path) {
    let status = Command::new(bin)
        .args(["run-all", "--test", "--jobs", &jobs.to_string(), "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn tmcc-bench");
    assert!(status.success(), "tmcc-bench run-all --jobs {jobs} failed");
}

#[test]
fn run_all_is_byte_identical_across_job_counts() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_determinism");
    let (d1, d8) = (tmp.join("jobs1"), tmp.join("jobs8"));
    for d in [&d1, &d8] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("create out dir");
    }
    run_all(&bin, 1, &d1);
    run_all(&bin, 8, &d8);

    let experiments = tmcc_bench::registry::all();
    assert!(experiments.len() >= 18, "registry lost experiments");
    for e in &experiments {
        let file = format!("{}.json", e.name);
        let a = std::fs::read(d1.join(&file))
            .unwrap_or_else(|_| panic!("{file} missing from jobs=1 run"));
        let b = std::fs::read(d8.join(&file))
            .unwrap_or_else(|_| panic!("{file} missing from jobs=8 run"));
        assert!(!a.is_empty(), "{file} is empty");
        assert_eq!(a, b, "{file} differs between --jobs 1 and --jobs 8");
    }
    // The consolidated summary's wall-clock numbers legitimately differ
    // between runs, but its *simulated-work* accounting must not: the
    // schedulers (sequential outer loop vs. work-stealing pool) must
    // report the same per-experiment access counts in registry order.
    // The assertions scan the deterministic pretty output line by line.
    let texts: Vec<String> = [&d1, &d8]
        .iter()
        .map(|d| std::fs::read_to_string(d.join("BENCH_sweep.json")).expect("BENCH_sweep.json"))
        .collect();
    for (text, jobs) in texts.iter().zip(["1", "8"]) {
        assert_eq!(field_values(text, "jobs"), vec![jobs], "summary records its --jobs");
        let names = field_values(text, "name");
        assert_eq!(names.len(), experiments.len(), "one timing entry per experiment");
        for (name, e) in names.iter().zip(&experiments) {
            assert_eq!(name, &format!("\"{}\"", e.name), "registry order preserved");
        }
        for v in field_values(text, "accesses_per_sec") {
            assert!(v.parse::<f64>().expect("acc/s is a number") >= 0.0, "negative acc/s: {v}");
        }
    }
    let per_experiment = |text: &str| -> Vec<u64> {
        field_values(text, "accesses_simulated")
            .iter()
            .map(|v| v.parse().expect("accesses count"))
            .collect()
    };
    assert_eq!(
        per_experiment(&texts[0]),
        per_experiment(&texts[1]),
        "per-experiment simulated work differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        field_values(&texts[0], "total_accesses_simulated"),
        field_values(&texts[1], "total_accesses_simulated"),
        "total simulated work differs between --jobs 1 and --jobs 8"
    );
}

/// Every raw value of `field` in pretty-printed JSON `text`, in order of
/// appearance: the token between `"field":` and the end of its line,
/// with any trailing comma stripped. Strings keep their quotes.
fn field_values(text: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        let after = &rest[pos + needle.len()..];
        let end = after.find('\n').unwrap_or(after.len());
        out.push(after[..end].trim().trim_end_matches(',').to_string());
        rest = &after[end..];
    }
    out
}

/// Runs a single named experiment and returns the exit code.
fn run_one(bin: &Path, name: &str, jobs: u32, out: &Path) -> i32 {
    Command::new(bin)
        .args(["run", name, "--test", "--jobs", &jobs.to_string(), "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn tmcc-bench")
        .code()
        .expect("exit code")
}

/// The fleet experiment is the one place intra-point parallelism runs
/// over a four-digit roster: per-tenant reports (histograms, percentile
/// merges, frontier rows) must be byte-identical whether tenant quanta
/// execute on the pool (`--jobs 8`) or inline on one thread (`--jobs 1`,
/// the serial baseline: no pool is installed) — and `--resume` must
/// replay the journaled fleet records instead of re-simulating them.
#[test]
fn mt_fleet_is_byte_identical_across_jobs_and_resume() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("mt_fleet_jobs");
    let (d1, d8) = (tmp.join("jobs1"), tmp.join("jobs8"));
    for d in [&d1, &d8] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("create out dir");
    }
    assert_eq!(run_one(&bin, "mt_fleet", 1, &d1), 0, "jobs=1 run failed");
    assert_eq!(run_one(&bin, "mt_fleet", 8, &d8), 0, "jobs=8 run failed");

    let j1 = std::fs::read(d1.join("mt_fleet.json")).expect("jobs=1 mt_fleet.json");
    let j8 = std::fs::read(d8.join("mt_fleet.json")).expect("jobs=8 mt_fleet.json");
    assert!(!j1.is_empty(), "mt_fleet.json is empty");
    assert_eq!(j1, j8, "mt_fleet.json differs between --jobs 1 and --jobs 8");

    // Resume replays the journaled fleet records byte-identically. The
    // single-experiment `run` path prints its summary instead of writing
    // BENCH_sweep.json, so the replay proof is read off stdout.
    let output = Command::new(&bin)
        .args(["run", "mt_fleet", "--test", "--jobs", "8", "--resume", "--out"])
        .arg(&d8)
        .output()
        .expect("spawn tmcc-bench resume");
    assert!(output.status.success(), "resume run failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("replayed"),
        "resume run replayed no journaled fleet records:\n{stdout}"
    );
    let after = std::fs::read(d8.join("mt_fleet.json")).expect("resumed mt_fleet.json");
    assert_eq!(j8, after, "resume changed mt_fleet.json bytes");
}
