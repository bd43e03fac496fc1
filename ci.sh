#!/usr/bin/env bash
# Full local gate: build, tests (the standalone end-to-end benchmark
# package's included), lints, formatting, the determinism mode matrix
# (--jobs 1 vs --jobs 4 and event-horizon coalescing on vs off must
# produce byte-identical report, JSON and trace artifacts), the committed
# EXPERIMENTS.md/.json (the matrix's `all --jobs 1` run must reproduce
# them byte for byte), the 16-seed campaign metamorphic-oracle sweep, and
# the calibrated bench gate (every benchmark's median, in units of a fixed
# calibration kernel timed beside it, within 1.25x of the committed
# baseline; the lazy fleet calendar at least 5x ahead of its eager
# reference in the same run).
set -euo pipefail
cd "$(dirname "$0")"

# Byte compare that fails loudly: on divergence, print a bounded unified
# diff before exiting non-zero (a bare `cmp` offset helps nobody).
same() {
    if ! cmp -s "$1" "$2"; then
        echo "ci: FAIL — $1 and $2 differ:" >&2
        diff -u "$1" "$2" | head -40 >&2 || true
        return 1
    fi
}

# The committed snapshots the gates below anchor on. A missing file must
# be a loud failure up front, not a confusing mid-run error.
for snap in BENCH_pipelines.json leakcheck.json tests/golden/trace_fig4_small.jsonl; do
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

echo "== idle anchor: lean capture vs reference clone, release case count =="
cargo test --offline -q --release -p simkernel

echo "== determinism: the mode matrix =="
# One row per run: its name, the run it must match (`-` for a reference
# run), the trace lines exempt from that match (`-` for none), then the
# binary and its flags. Each run writes `<name>.md`, `.json` and
# `.trace`; a matching run must reproduce its reference's report and
# JSON byte for byte, and its trace byte for byte once both drop the
# exempt lines:
#   mode-exempt  lines tagged `"group":"mode-exempt"`: the quiescent tick
#                shape and the fleet calendar's pop/sync bookkeeping,
#                which depend on the stepping mode. Every other line,
#                the per-channel read counters included, must match.
# A filtered row must also show that its filter removed a line, or it
# would exempt nothing and could pass by accident. Every campaign
# scenario must pass every oracle (the bin exits non-zero otherwise).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
while read -r run ref filter bin flags; do
    case "$run" in "" | "#"*) continue ;; esac
    echo "-- $run: $bin $flags (vs $ref, exempt: $filter)"
    # shellcheck disable=SC2086 # $flags is a word list
    if ! cargo run --offline --release -q -p containerleaks-experiments --bin "$bin" -- \
        $flags --out "$tmp/$run.md" --trace "$tmp/$run.trace" </dev/null >"$tmp/$run.log" 2>&1; then
        echo "ci: FAIL — $bin $flags exited non-zero:" >&2
        tail -20 "$tmp/$run.log" >&2
        exit 1
    fi
    [ "$ref" = - ] && continue
    same "$tmp/$ref.md" "$tmp/$run.md"
    same "$tmp/$ref.json" "$tmp/$run.json"
    case "$filter" in
        -) same "$tmp/$ref.trace" "$tmp/$run.trace"; continue ;;
        mode-exempt) pattern='"group":"mode-exempt"' ;;
        *) echo "ci: FAIL — unknown trace filter $filter" >&2; exit 1 ;;
    esac
    grep -v "$pattern" "$tmp/$ref.trace" >"$tmp/$run.ref.kept"
    grep -v "$pattern" "$tmp/$run.trace" >"$tmp/$run.kept"
    removed=$(($(cat "$tmp/$ref.trace" "$tmp/$run.trace" | wc -l) \
        - $(cat "$tmp/$run.ref.kept" "$tmp/$run.kept" | wc -l)))
    if [ "$removed" -eq 0 ]; then
        echo "ci: FAIL — filter $filter removed no line from $ref or $run" >&2
        exit 1
    fi
    same "$tmp/$run.ref.kept" "$tmp/$run.kept"
done <<'ROWS'
# run  ref    filter       bin           flags
j1     -      -            all           --jobs 1
j4     j1     -            all           --jobs 4
c0     j1     mode-exempt  all           --jobs 4 --coalesce off
f1     -      -            fault_matrix  --jobs 1
f4     f1     -            fault_matrix  --jobs 4
fc0    f1     mode-exempt  fault_matrix  --jobs 4 --coalesce off
camp1  -      -            campaign      --seeds 16 --jobs 1
camp4  camp1  -            campaign      --seeds 16 --jobs 4
ROWS
echo "byte-identical across the mode matrix"

echo "== committed artifacts: all --jobs 1 reproduces EXPERIMENTS.md/.json =="
same EXPERIMENTS.md "$tmp/j1.md"
same EXPERIMENTS.json "$tmp/j1.json"

echo "== bench: calibrated medians vs committed baseline =="
# The fresh measurement lands in target/bench-artifacts/ (the bench
# harness's BENCH_OUT redirect, absolute because cargo runs benches from
# the package root), so the committed baseline is never clobbered. To
# accept a new baseline, copy it over BENCH_pipelines.json and commit.
BENCH_OUT="$PWD/target/bench-artifacts" cargo bench --offline -p containerleaks-bench
cargo run --offline --release -q -p containerleaks-experiments --bin benchcmp -- \
    --baseline BENCH_pipelines.json --fresh target/bench-artifacts/BENCH_pipelines.json

echo "== all checks passed =="
