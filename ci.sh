#!/usr/bin/env bash
# Full local gate: build, tests (the standalone end-to-end benchmark
# package's included), lints, formatting, the determinism mode matrix
# (tests/mode_matrix.rs: the registry, the fault matrix and the 16-seed
# campaign sweep at --jobs 1 and 4 must produce identical reports, JSON,
# trace events, counters and profiles, and `--jobs 1` must reproduce the
# committed EXPERIMENTS.md/.json), and the calibrated bench gate (every
# benchmark's median, in units of a fixed calibration kernel timed beside
# it, within 1.25x of the committed baseline; the lazy fleet calendar at
# least 5x ahead of its eager reference in the same run).
set -euo pipefail
cd "$(dirname "$0")"

# The committed snapshots the gates below anchor on. A missing file must
# be a loud failure up front, not a confusing mid-run error.
for snap in EXPERIMENTS.md EXPERIMENTS.json BENCH_pipelines.json leakcheck.json \
    tests/golden/trace_fig4_small.jsonl; do
    if [ ! -f "$snap" ]; then
        echo "ci: FAIL — committed snapshot $snap is missing; the gate it" >&2
        echo "    anchors cannot run (see its regeneration note in README.md)" >&2
        exit 1
    fi
done

echo "== build (release) =="
cargo build --offline --release --workspace

echo "== tests =="
cargo test --offline -q --workspace

echo "== end-to-end benchmark: build + tests (smoke run of every workload) =="
# The benchmark is its own workspace, so the workspace build and tests
# above never compile it; a public-API change would break it silently.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --check

echo "== docs (rustdoc, warnings denied; vendored stand-ins exempt) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q \
    --exclude criterion --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json

echo "== static leakage audit (snapshot + dynamic agreement) =="
cargo run --offline --release -q -p containerleaks-experiments --bin leakcheck -- \
    --check --deny-missing-dep

echo "== flow analysis vs runtime: single-subsystem mutation containment =="
cargo test --offline -q --release --test flow_dynamic_agreement

echo "== fault matrix: graceful degradation under injected faults =="
cargo test --offline -q --release --test fault_matrix

echo "== cloud metering: fast meter vs reference walk, release case count =="
cargo test --offline -q --release -p cloudsim

echo "== kernel references: fast tick vs reference tick, lean anchor vs reference clone, release case count =="
cargo test --offline -q --release -p simkernel

echo "== determinism: the mode matrix =="
cargo test --offline -q --release --test mode_matrix

echo "== bench: calibrated medians vs committed baseline =="
# The fresh measurement lands in target/bench-artifacts/ (the bench
# harness's BENCH_OUT redirect, absolute because cargo runs benches from
# the package root), so the committed baseline is never clobbered. To
# accept a new baseline, copy it over BENCH_pipelines.json and commit.
BENCH_OUT="$PWD/target/bench-artifacts" cargo bench --offline -p containerleaks-bench
cargo run --offline --release -q -p containerleaks-experiments --bin benchcmp -- \
    --baseline BENCH_pipelines.json --fresh target/bench-artifacts/BENCH_pipelines.json

echo "== all checks passed =="
