//! Crash-safety integration tests for the sweep harness: a run killed
//! mid-sweep and resumed with `--resume` must emit byte-identical results,
//! one experiment's journal must serve another that asks for the same
//! runs, a failing or timed-out point must be quarantined into
//! `FAILURES.json` after its one attempt without poisoning the rest of
//! the fleet, and `--point` must replay one grid point on its own.
//!
//! Like `golden_determinism`, these drive the *release* binary — the
//! suite is simulation-heavy and tier 1 has already paid for the build.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use tmcc_bench::failures::{FAILURES_FILE, FAIL_POINT_ENV};
use tmcc_bench::journal::{EXIT_AFTER_POINTS_CODE, EXIT_AFTER_POINTS_ENV};
use tmcc_bench::watchdog::POINT_BUDGET_ENV;

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

/// Runs `tmcc-bench <args> --test --jobs 2 --out <out>` with the
/// crash/failure/budget hooks in `envs`, returning the exit code. The
/// hook variables are cleared first so an outer CI environment can't
/// leak into the baseline runs.
fn bench(bin: &Path, args: &[&str], out: &Path, envs: &[(&str, &str)]) -> i32 {
    bench_output(bin, args, out, envs).0
}

/// [`bench`], also returning the run's stdout.
fn bench_output(bin: &Path, args: &[&str], out: &Path, envs: &[(&str, &str)]) -> (i32, String) {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .args(["--test", "--jobs", "2", "--out"])
        .arg(out)
        .env_remove(EXIT_AFTER_POINTS_ENV)
        .env_remove(FAIL_POINT_ENV)
        .env_remove(POINT_BUDGET_ENV)
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("spawn tmcc-bench");
    let code = output.status.code().expect("exit code");
    (code, String::from_utf8_lossy(&output.stdout).into_owned())
}

fn fresh_dir(tmp: &Path, name: &str) -> PathBuf {
    let dir = tmp.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn read_result(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|_| panic!("{file} missing in {dir:?}"))
}

/// The records of `FAILURES.json` in `dir`.
fn failure_records(dir: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(dir.join(FAILURES_FILE)).expect("FAILURES.json written");
    let failures = serde_json::from_str(&text).expect("FAILURES.json parses");
    failures.as_seq().expect("a list of quarantined points").to_vec()
}

/// `(name, accesses_simulated, points_replayed)` per experiment of the
/// `BENCH_sweep.json` summary in `dir`, in registry order.
fn sweep_counts(dir: &Path) -> Vec<(String, u64, u64)> {
    let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).expect("sweep summary");
    let summary = serde_json::from_str(&text).expect("sweep summary parses");
    let experiments = summary.get("experiments").and_then(Value::as_seq).expect("experiments");
    experiments
        .iter()
        .map(|e| {
            let count = |key| e.get(key).and_then(Value::as_u64).expect("a count");
            let name = e.get("name").and_then(Value::as_str).expect("a name");
            (name.to_string(), count("accesses_simulated"), count("points_replayed"))
        })
        .collect()
}

#[test]
fn killed_run_resumes_byte_identically() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume_determinism");
    let baseline = fresh_dir(&tmp, "baseline");
    let resumed = fresh_dir(&tmp, "resumed");

    assert_eq!(bench(&bin, &["run-all"], &baseline, &[]), 0, "baseline run failed");

    // Crash the harness after 25 journaled points, then resume.
    let code = bench(&bin, &["run-all"], &resumed, &[(EXIT_AFTER_POINTS_ENV, "25")]);
    assert_eq!(code, EXIT_AFTER_POINTS_CODE, "crash hook must exit with the sentinel code");
    assert!(
        resumed.join(".journal").join("sweep.journal").exists()
            || std::fs::read_dir(resumed.join(".journal")).map(|d| d.count() > 0).unwrap_or(false),
        "killed run left no journal behind"
    );
    assert_eq!(bench(&bin, &["run-all", "--resume"], &resumed, &[]), 0, "resume run failed");

    // Every per-experiment result must match the uninterrupted run.
    let experiments = tmcc_bench::registry::all();
    assert!(experiments.len() >= 18, "registry lost experiments");
    for e in &experiments {
        let file = format!("{}.json", e.name);
        assert_eq!(
            read_result(&baseline, &file),
            read_result(&resumed, &file),
            "{file} differs between uninterrupted and killed+resumed runs"
        );
    }

    // The resume must actually have replayed journaled points rather than
    // recomputing everything from scratch.
    let replayed: u64 = sweep_counts(&resumed).iter().map(|e| e.2).sum();
    assert!(replayed > 0, "resume run replayed no journaled points");
    assert!(!resumed.join(FAILURES_FILE).exists(), "clean resume must not leave a FAILURES.json");

    // Which 25 points the crash journaled depends on scheduling, so
    // resume once more over the now-complete journal: every point
    // replays, and each record family's decode must reproduce the
    // baseline's results and its access accounting.
    assert_eq!(bench(&bin, &["run-all", "--resume"], &resumed, &[]), 0, "full replay failed");
    for e in &experiments {
        let file = format!("{}.json", e.name);
        assert_eq!(
            read_result(&baseline, &file),
            read_result(&resumed, &file),
            "{file} differs between the uninterrupted run and a full replay"
        );
    }
    let (base, replay) = (sweep_counts(&baseline), sweep_counts(&resumed));
    assert_eq!(base.len(), replay.len(), "one summary entry per experiment");
    for ((name, base_accesses, _), (_, accesses, _)) in base.iter().zip(&replay) {
        assert_eq!(base_accesses, accesses, "{name}: replay changed accesses_simulated");
    }
    // One experiment per journal record family: plain runs, flip-plan
    // runs, multi-tenant scenarios, capacity records.
    for family in ["fig17_perf_vs_compresso", "integrity_storm", "mt_churn_storm", "capacity_cliff"]
    {
        let replayed = replay.iter().find(|(name, ..)| name == family).map(|e| e.2);
        assert!(replayed > Some(0), "{family} replayed no journaled points");
    }
}

#[test]
fn failing_point_is_quarantined_without_poisoning_the_fleet() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quarantine");
    let baseline = fresh_dir(&tmp, "baseline");
    let poisoned = fresh_dir(&tmp, "poisoned");

    assert_eq!(bench(&bin, &["run-all"], &baseline, &[]), 0, "baseline run failed");

    // One point of one experiment fails: the experiment must be
    // quarantined and the exit code must flag it.
    let victim = "fig16_mem_characterization";
    let fail_point = format!("{victim}:1");
    let code = bench(&bin, &["run-all"], &poisoned, &[(FAIL_POINT_ENV, &fail_point)]);
    assert_eq!(code, 1, "quarantined points must surface as a non-zero exit");

    // The point ran once: its record is `{experiment, index, cause,
    // scale}`, and the cause is the injected panic.
    let records = failure_records(&poisoned);
    assert_eq!(records.len(), 1, "exactly one quarantined point");
    let record = &records[0];
    let fields: Vec<&str> =
        record.as_map().expect("a failure record").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(fields, ["experiment", "index", "cause", "scale"]);
    assert_eq!(record.get("experiment").and_then(Value::as_str), Some(victim));
    assert_eq!(record.get("index").and_then(Value::as_u64), Some(1));
    let kind = record.get("cause").and_then(|c| c.get("kind")).and_then(Value::as_str);
    assert_eq!(kind, Some("panic"), "injected failure is a panic");
    assert_eq!(record.get("scale").and_then(Value::as_str), Some("test"));

    // The victim publishes no result; every other experiment is
    // byte-identical to the clean baseline.
    assert!(
        !poisoned.join(format!("{victim}.json")).exists(),
        "quarantined experiment must not publish results"
    );
    let mut others = 0;
    for e in &tmcc_bench::registry::all() {
        if e.name == victim {
            continue;
        }
        let file = format!("{}.json", e.name);
        assert_eq!(
            read_result(&baseline, &file),
            read_result(&poisoned, &file),
            "{file} poisoned by an unrelated experiment's failing point"
        );
        others += 1;
    }
    assert!(others >= 17, "expected the rest of the fleet to complete");
}

/// `run <exp> --point N` is how a `FAILURES.json` entry is reproduced: the
/// point runs alone through the journal and watchdog, and the exit code
/// says whether it passed.
#[test]
fn point_replay_succeeds_rejects_out_of_range_and_quarantines_failures() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("point_replay");
    let victim = "fig16_mem_characterization";
    let replay = |dir: &Path, point: &str, envs: &[(&str, &str)]| {
        bench(&bin, &["run", victim, "--point", point], dir, envs)
    };

    let ok = fresh_dir(&tmp, "ok");
    assert_eq!(replay(&ok, "1", &[]), 0, "an in-range point replays successfully");
    assert!(!ok.join(FAILURES_FILE).exists(), "a passing replay quarantines nothing");

    assert_eq!(replay(&fresh_dir(&tmp, "range"), "999", &[]), 1, "out-of-range point must fail");

    let failed = fresh_dir(&tmp, "failed");
    let fail_point = format!("{victim}:1");
    assert_eq!(
        replay(&failed, "1", &[(FAIL_POINT_ENV, &fail_point)]),
        1,
        "failing point must fail"
    );
    let records = failure_records(&failed);
    assert_eq!(records.len(), 1, "exactly one quarantined point");
    let experiment = records[0].get("experiment").and_then(Value::as_str);
    assert_eq!(experiment, Some(victim), "failure names the experiment");
    let index = records[0].get("index").and_then(Value::as_u64);
    assert_eq!(index, Some(1), "failure names the point index");
}

/// The watchdog path through the binary: a fleet point runs for hundreds
/// of milliseconds, so a 1 ms budget always expires, and the point is
/// quarantined as a timeout without publishing a result.
#[test]
fn timed_out_point_is_quarantined_as_a_timeout() {
    let bin = release_binary();
    let out = fresh_dir(&PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("timeout"), "fleet");
    let code = bench(&bin, &["run", "mt_fleet"], &out, &[(POINT_BUDGET_ENV, "1")]);
    assert_eq!(code, 1, "a timed-out point must surface as a non-zero exit");

    let records = failure_records(&out);
    assert_eq!(records.len(), 1, "exactly one quarantined point");
    let cause = records[0].get("cause").expect("a failure cause");
    assert_eq!(cause.get("kind").and_then(Value::as_str), Some("timeout"));
    assert_eq!(cause.get("budget_ms").and_then(Value::as_u64), Some(1));
    assert!(!out.join("mt_fleet.json").exists(), "a timed-out experiment publishes nothing");
}

/// A journal record is keyed by its run alone, so one experiment's
/// journal serves another that asks for the same runs: fig18 repeats
/// fig17's Compresso anchors and iso-savings TMCC runs, 24 of its 36.
#[test]
fn one_journal_serves_every_experiment_that_asks_for_its_runs() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shared_journal");
    let cold = fresh_dir(&tmp, "cold");
    let shared = fresh_dir(&tmp, "shared");
    let fig18 = "fig18_l3_miss_latency";
    let file = format!("{fig18}.json");
    assert_eq!(bench(&bin, &["run", fig18], &cold, &[]), 0, "cold fig18 run failed");
    assert_eq!(bench(&bin, &["run", "fig17_perf_vs_compresso"], &shared, &[]), 0, "fig17 failed");

    // The `run` path prints each experiment's replay count on its
    // summary line, `(N replayed)`, and omits it when nothing replayed.
    let resume_fig18 = || {
        let (code, stdout) = bench_output(&bin, &["run", fig18, "--resume"], &shared, &[]);
        assert_eq!(code, 0, "fig18 resume failed");
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(fig18))
            .unwrap_or_else(|| panic!("no summary line for {fig18}:\n{stdout}"));
        line.rsplit_once('(')
            .and_then(|(_, tail)| tail.strip_suffix(" replayed)"))
            .map_or(0, |n| n.parse::<u64>().expect("a replay count"))
    };
    assert_eq!(resume_fig18(), 24, "fig18 must replay the 24 runs fig17 journaled");
    assert_eq!(read_result(&cold, &file), read_result(&shared, &file), "replay changed fig18");
    // That resume journaled fig18's other 12 runs: now all 36 replay.
    assert_eq!(resume_fig18(), 36, "a complete journal replays every fig18 run");
    assert_eq!(read_result(&cold, &file), read_result(&shared, &file), "replay changed fig18");
}
