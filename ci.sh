#!/usr/bin/env bash
# Tier-1 gate, runnable offline on any machine with a Rust toolchain:
#   1. release build of the whole workspace,
#   2. full test suite (includes detlint's self-check, the determinism
#      regression tests — serial and parallel — and the tracer on/off
#      byte-identity proof),
#   3. monitor-armed quick experiment sweep: every experiment runs with the
#      online virtual-synchrony invariant monitors in panic mode, so any
#      violation anywhere in the stack fails the gate,
#   4. microbench regression gate: the sweep's fresh hot-path minima must
#      stay within 2x of the committed BENCH_results.json baseline,
#   5. trace demo + Chrome export artifacts (tracectl smoke test),
#   6. now-cluster loopback smoke: the real-socket backend boots an 8-process
#      hierarchy over unix sockets, replays short E1/E9 runs, and the merged
#      trace must show zero virtual-synchrony violations (non-zero exit
#      otherwise),
#   7. chaos sweep: replay the shrunk-counterexample regression corpus, then
#      1000 generated adversarial scenarios (correlated crashes, partition
#      flaps, storms, rep-chain kills, crash-recover churn) with the
#      monitors — including VS-REJOIN — armed as oracles — any violation
#      fails the gate; the coverage census lands in artifacts,
#   8. the determinism linter, emitting its machine-readable report,
#   9. clippy over every target of the workspace, warnings denied,
#  10. the perfbench self-tests: perfbench is a workspace of its own, so
#      steps 1-2 never compile it; this catches an API change in the
#      crates that would break the benchmark.
# Fails on the first broken step or on any non-allowlisted lint finding.
# Artifacts land in BENCH_artifacts/.
set -euo pipefail
cd "$(dirname "$0")"

mkdir -p BENCH_artifacts

# Snapshot the committed baseline before the sweep overwrites it.
cp BENCH_results.json BENCH_artifacts/baseline.json

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> QUICK=1 NOW_MONITORS=1 all_experiments (invariant monitors armed)"
QUICK=1 NOW_MONITORS=1 cargo run --quiet --release -p isis-bench --bin all_experiments \
    | tee BENCH_artifacts/experiments_quick.txt

echo "==> bench_gate (hot-path minima vs committed baseline)"
cargo run --quiet --release -p isis-bench --bin bench_gate -- \
    BENCH_artifacts/baseline.json BENCH_results.json

echo "==> trace demo + tracectl export"
cargo run --quiet --release -p isis-bench --bin trace_demo
cargo run --quiet --release -p now-trace --bin tracectl -- \
    BENCH_artifacts/trace_demo.trace --chrome BENCH_artifacts/trace_demo.json

echo "==> now-cluster loopback smoke (real sockets, monitors on merged trace)"
cargo run --quiet --release -p now-net --bin now-cluster -- smoke \
    | tee BENCH_artifacts/now_cluster_smoke.txt

echo "==> chaos sweep (1000 adversarial scenarios, monitors armed)"
cargo run --quiet --release -p now-chaos --bin chaos_sweep -- \
    --scenarios 1000 --seed 1 --census BENCH_artifacts/chaos_census.json \
    | tee BENCH_artifacts/chaos_sweep.txt

echo "==> cargo run -p detlint -- --json"
cargo run --quiet -p detlint -- --json | tee BENCH_artifacts/detlint.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> perfbench self-tests (builds the benchmark against the crates)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> ci: all green"
