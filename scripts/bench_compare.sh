#!/usr/bin/env bash
# Perf regression gate: runs the Criterion suite into a scratch dir (via
# the stand-in's BENCH_OUT redirect, so the committed baseline is never
# clobbered) and fails if any benchmark's median regressed more than 25%
# past a 20 µs absolute floor against BENCH_pipelines.json. A bench
# whose fresh *minimum* still reaches baseline speed passes regardless
# (contaminated samples on a busy box inflate the median but cannot
# lower the floor a genuinely slower path would raise). The fresh
# measurement is left at $BENCH_ARTIFACT_DIR (default
# target/bench-artifacts/) as the run's artifact; to accept a new
# baseline, copy it over BENCH_pipelines.json and commit.
set -euo pipefail
cd "$(dirname "$0")/.."

artifacts="${BENCH_ARTIFACT_DIR:-target/bench-artifacts}"
case "$artifacts" in
    /*) ;;
    # cargo runs benches with CWD = the package root, so a relative
    # BENCH_OUT would land under crates/bench/ — anchor it here instead.
    *) artifacts="$PWD/$artifacts" ;;
esac
mkdir -p "$artifacts"

echo "== bench: fresh measurement -> $artifacts/BENCH_pipelines.json =="
BENCH_OUT="$artifacts" cargo bench --offline -p containerleaks-bench

echo "== bench: compare against committed baseline =="
cargo run --offline --release -q -p containerleaks-experiments --bin benchcmp -- \
    --baseline BENCH_pipelines.json \
    --fresh "$artifacts/BENCH_pipelines.json" \
    --threshold-pct "${BENCH_THRESHOLD_PCT:-25}" \
    --floor-ns "${BENCH_FLOOR_NS:-20000}" \
    --require-speedup "fleet_10k_week:fleet_10k_week_unsharded:${BENCH_FLEET_SPEEDUP:-5.0}"
