#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order CI runs it.
# Usage: scripts/ci.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> benchmark tests (tmcc-benchmark, its own workspace)"
# The benchmark keeps a traced copy of System's step loop and pins smoke
# digests; its tests (copy fidelity, digest pins, statistics) make a step
# loop or scheme change that breaks the benchmark fail here.
cargo test -q --release --manifest-path tmcc-benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
# Broken, ambiguous or private intra-doc links fail the gate, so deleting
# an item that docs still link to is caught here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> codec benches execute (TMCC_BENCH_SMOKE=1)"
# Smoke mode shrinks criterion's warm-up/samples so this only asserts the
# bench binary runs end to end; timings printed here are noise. The
# `block-codecs` group times both paths of each codec per page:
# `*/size-page` (`compressed_size`) and `*/compress-page` (`compress`).
TMCC_BENCH_SMOKE=1 cargo bench -q -p tmcc-bench --bench codecs

echo "==> arbiter benches execute (TMCC_BENCH_SMOKE=1)"
# Covers the incremental-ledger fast path at 10..10k rosters; the <3x
# 1k->10k growth gate is asserted over full (non-smoke) runs, this line
# only keeps the bench compiling and running.
TMCC_BENCH_SMOKE=1 cargo bench -q -p tmcc --bench arbiter

echo "==> remaining criterion benches execute (TMCC_BENCH_SMOKE=1)"
# The same smoke run for the other three bench targets: the hot-path
# structures (incl. the page walk, the `cache-hierarchy` group's cold
# fleet tenant on a fresh hierarchy and TLB, and the CTE-cache probe and
# DRAM access of the `cte-directory` group), the succinct structures, and
# the end-to-end simulator step loop.
TMCC_BENCH_SMOKE=1 cargo bench -q -p tmcc --bench hot_structs
TMCC_BENCH_SMOKE=1 cargo bench -q -p tmcc-types --bench succinct
TMCC_BENCH_SMOKE=1 cargo bench -q -p tmcc-bench --bench simulator

echo "==> decoder fuzz smoke (TMCC_FUZZ_CASES=10000, fixed seed)"
# Bounded corruption fuzzing of the Deflate decode path: ~10k corrupted
# streams through the sealed decoder must yield typed errors, never a
# panic, over-read, or unbounded allocation. The seed is fixed inside the
# test, so failures reproduce exactly.
TMCC_FUZZ_CASES=10000 cargo test -q -p tmcc-deflate --release \
  --test corruption_proptests fuzz_smoke

echo "==> tmcc-bench run-all --jobs 2 (full-scale sweep)"
cargo run --release -p tmcc-bench --bin tmcc-bench -- \
  run-all --jobs 2 --out results

echo "==> goldens unchanged (results/ vs. committed)"
# The sweep rewrites every golden EXPERIMENTS.md cites. FOOTPRINT.json
# carries host RSS/wall-clock probes and legitimately changes every run
# (as does BENCH_sweep.json, which is untracked and ignored). Every
# simulated-result file must be byte-identical, and a new experiment must
# commit its golden alongside the code.
git diff --exit-code -- results ':!results/FOOTPRINT.json'
untracked="$(git ls-files --others --exclude-standard results)"
if [ -n "$untracked" ]; then
  echo "uncommitted goldens:" >&2
  echo "$untracked" >&2
  exit 1
fi

echo "==> perf gate (full-sweep acc/s vs results/BENCH_baseline.json)"
# Throughput is hardware-dependent: the pin holds the per-experiment
# median acc/s and the median peak_rss_kb of three `run-all --jobs 2`
# sweeps; re-pin it the same way (EXPERIMENTS.md, "One golden scale")
# when the CI hardware changes. TMCC_CI_SKIP_PERF_GATE=1 skips the gate
# for runs on unrelated machines.
#
# Tolerance: acc/s divides by summed point busy time, which is
# schedule-independent, but co-scheduling and cache contention still
# move per-experiment busy throughput run to run: over ten full sweeps
# each experiment's fastest run beat its slowest by 20 % (fig21) to
# 163 % (mt_churn_storm), and the worst clean row sat 33 % below its pin.
# 50 % keeps the gate quiet on that noise while still failing a 2.5x
# step-loop slowdown.
if [ "${TMCC_CI_SKIP_PERF_GATE:-0}" != 1 ]; then
  cargo run --release -p tmcc-bench --bin tmcc-bench -- \
    perf-gate --baseline results/BENCH_baseline.json \
              --current results/BENCH_sweep.json \
              --tolerance-pct 50
else
  echo "skipped (TMCC_CI_SKIP_PERF_GATE=1)"
fi

echo "CI gate passed."
