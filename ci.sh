#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 test suite, and a build and
# one-second smoke run of the repo benchmark (perfbench/, its own
# workspace) so an engine-API change that breaks the benchmark fails here.
#
#   ./ci.sh             # fmt + clippy + rustdoc + tests (release, plus the
#                       #     engine's debug tests) + perfbench build and
#                       #     smoke run
#   ./ci.sh --bench     # ... plus the wall-clock throughput benchmark
#                       #     (rewrites BENCH_throughput.json)
#   ./ci.sh --smoke     # ... plus a simulation-neutrality check: fails if
#                       #     the cold-path sim digest moved
#   ./ci.sh --metrics   # ... plus a metrics gate: fails if the emitted
#                       #     MetricsSnapshot drifts from BENCH_metrics.json
#                       #     (sim counters exact, wall gauges within the
#                       #     baseline's declared tolerance)
#   ./ci.sh --trace     # ... plus a tracing smoke gate: exports a Chrome
#                       #     trace twice (must be byte-identical), round-
#                       #     trips it through --profile-from (must equal
#                       #     the live profile), and diffs a trace against
#                       #     itself (all deltas zero)
#   ./ci.sh --audit     # ... plus a decision-audit gate: exports an audit
#                       #     report twice (must be byte-identical), diffs
#                       #     it against itself (zero regret delta), and
#                       #     checks the corpus decision statistics +
#                       #     gate accuracy against BENCH_audit.json
#
# The flags compose into ONE bench_throughput invocation (a full run takes
# minutes), so `--smoke --metrics` checks both gates against the same run.
# The metrics table is always written to target/ci/metrics_table.txt for
# CI job summaries.
set -euo pipefail
cd "$(dirname "$0")"

# Cold-path simulation digest pinned by the last simulation-affecting
# change. Host-side work (pooling, plan caching, metrics
# collection) must keep it; intentional simulator/algorithm changes update
# it alongside BENCH_throughput.json and BENCH_metrics.json.
EXPECTED_SIM_DIGEST=6d086aa6157bb570
BENCH_ROUNDS=3

run_bench=0
run_smoke=0
run_metrics=0
run_trace=0
run_audit=0
for arg in "$@"; do
    case "$arg" in
        --bench) run_bench=1 ;;
        --smoke) run_smoke=1 ;;
        --metrics) run_metrics=1 ;;
        --trace) run_trace=1 ;;
        --audit) run_audit=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

# Toolchain versions first: when a CI run fails, the log alone must answer
# "which compiler was this?".
echo "==> toolchain"
rustc -V
cargo -V

echo "==> cargo fmt --check"
if ! cargo fmt --version >/dev/null 2>&1; then
    echo "ERROR: 'cargo fmt' is unavailable — install the rustfmt component" >&2
    echo "       (rustup component add rustfmt)" >&2
    exit 3
fi
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "ERROR: 'cargo clippy' is unavailable — install the clippy component" >&2
    echo "       (rustup component add clippy)" >&2
    exit 3
fi
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied catches stale intra-doc links to renamed
# or deleted items.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test (workspace, release)"
cargo test --workspace --release

# The release suite compiles `debug_assert!`s out. Run the engine's own
# tests once more in the debug profile so those invariant checks (hash
# slot bounds, dense-chunk ranges, compound-key row bounds) run too.
echo "==> cargo test (speck-core + speck-simt, debug, debug assertions on)"
cargo test -q -p speck-core -p speck-simt

echo "==> perfbench build (repo benchmark against the engine API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# A one-second run of the benchmark's `small` workload: every product it
# computes must verify, and none may fail.
echo "==> perfbench smoke run (small workload, 1 s)"
perfbench_last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload small --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$perfbench_last"
if ! grep -q '"correct": *true' <<<"$perfbench_last" \
    || ! grep -q '"failed": *0[,}]' <<<"$perfbench_last"; then
    echo "FAIL: perfbench smoke run is not correct or has failed operations" >&2
    exit 1
fi

if [ "$run_bench" -eq 1 ] || [ "$run_smoke" -eq 1 ] || [ "$run_metrics" -eq 1 ] \
    || [ "$run_audit" -eq 1 ]; then
    # One bench run serves every enabled gate.
    if [ "$run_bench" -eq 1 ]; then
        out=BENCH_throughput.json
    else
        out=/tmp/BENCH_ci.json
    fi
    mkdir -p target/ci
    bench_args=("$BENCH_ROUNDS" "$out"
        --metrics-table target/ci/metrics_table.txt)
    desc="throughput benchmark -> $out"
    if [ "$run_smoke" -eq 1 ]; then
        bench_args+=(--expect-digest "$EXPECTED_SIM_DIGEST")
        desc="$desc + sim digest $EXPECTED_SIM_DIGEST"
    fi
    if [ "$run_metrics" -eq 1 ]; then
        bench_args+=(--metrics-out /tmp/BENCH_metrics_new.json
            --check-metrics BENCH_metrics.json)
        desc="$desc + metrics vs BENCH_metrics.json"
    fi
    if [ "$run_audit" -eq 1 ]; then
        # --bench regenerates the committed audit baseline alongside the
        # throughput numbers; otherwise the fresh export is checked below.
        if [ "$run_bench" -eq 1 ]; then
            audit_new=BENCH_audit.json
        else
            audit_new=/tmp/BENCH_audit_new.json
        fi
        bench_args+=(--audit-out "$audit_new")
        desc="$desc + audit -> $audit_new"
    fi
    echo "==> $desc"
    cargo run --release -p speck-bench --bin bench_throughput -- "${bench_args[@]}"
    echo "metrics table: target/ci/metrics_table.txt"
    if [ "$run_audit" -eq 1 ] && [ "$run_bench" -eq 0 ]; then
        cmp "$audit_new" BENCH_audit.json \
            || { echo "FAIL: corpus decision statistics drifted from BENCH_audit.json" \
                 "(regenerate with ./ci.sh --bench --audit if intended)" >&2; exit 1; }
        echo "audit gate: corpus decision statistics match BENCH_audit.json"
    fi
fi

if [ "$run_trace" -eq 1 ]; then
    echo "==> tracing smoke gate (export determinism + profile round trip)"
    mkdir -p target/ci
    runspeck=(cargo run --release -p speck-bench --bin runspeck --)
    # Two exports of the same workload must be byte-identical.
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --trace-out target/ci/trace.json --profile \
        >target/ci/trace_profile.txt
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --trace-out /tmp/trace_repeat.json >/dev/null
    cmp target/ci/trace.json /tmp/trace_repeat.json \
        || { echo "FAIL: trace export is not deterministic" >&2; exit 1; }
    # Parse -> profile round trip on the exported file: the profile of
    # the parsed trace must equal the live run's profile section.
    "${runspeck[@]}" --profile-from target/ci/trace.json \
        >target/ci/trace_profile_from.txt
    sed '1,/^profile (one cold multiply):$/d' target/ci/trace_profile.txt \
        | cmp - target/ci/trace_profile_from.txt \
        || { echo "FAIL: --profile-from differs from the live profile" >&2; exit 1; }
    # A trace diffed against itself must show a zero total delta.
    "${runspeck[@]}" --trace-diff target/ci/trace.json target/ci/trace.json \
        | tee /tmp/trace_selfdiff.txt
    grep -q "total delta: +0.000 us" /tmp/trace_selfdiff.txt \
        || { echo "FAIL: self-diff total delta is not zero" >&2; exit 1; }
    echo "trace artifacts: target/ci/trace.json, target/ci/trace_profile.txt"
fi

if [ "$run_audit" -eq 1 ]; then
    echo "==> decision-audit smoke gate (export determinism + self-diff)"
    mkdir -p target/ci
    runspeck=(cargo run --release -p speck-bench --bin runspeck --)
    # Two exports of the same workload must be byte-identical.
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --audit-out target/ci/audit.json \
        --audit-table target/ci/audit_table.txt >/dev/null
    "${runspeck[@]}" --synthetic mesh3d 2 --iterations 1 --warmup 0 \
        --audit-out /tmp/audit_repeat.json >/dev/null
    cmp target/ci/audit.json /tmp/audit_repeat.json \
        || { echo "FAIL: audit export is not deterministic" >&2; exit 1; }
    # A report diffed against itself must show a zero regret delta.
    "${runspeck[@]}" --audit-diff target/ci/audit.json target/ci/audit.json \
        | tee /tmp/audit_selfdiff.txt
    grep -q "regret delta: +0.000 cycles" /tmp/audit_selfdiff.txt \
        || { echo "FAIL: self-diff regret delta is not zero" >&2; exit 1; }
    echo "audit artifacts: target/ci/audit.json, target/ci/audit_table.txt"
fi

echo "CI OK"
