#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 test suite, and a build and
# one-second smoke run of the repo benchmark (perfbench/, its own
# workspace) so an engine-API change that breaks the benchmark fails here.
#
#   ./ci.sh             # fmt + clippy + rustdoc + tests (release, plus the
#                       #     engine's debug tests and the pool's,
#                       #     simulator's and engine's unit tests at 3
#                       #     pool threads) +
#                       #     perfbench build and smoke run + three
#                       #     experiments run by name + one round of
#                       #     each host-cost probe + the root examples
#   ./ci.sh --bench     # ... plus the wall-clock throughput benchmark
#                       #     (rewrites BENCH_throughput.json)
#   ./ci.sh --smoke     # ... plus a simulation-neutrality check: fails if
#                       #     the cold-path sim digest moved, at the default
#                       #     pool width and at RAYON_NUM_THREADS=1 and 3
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
# CI job summaries. Every gate asked for runs even when an earlier one
# fails; the script then lists the failed gates and exits non-zero.
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

# Each gate runs in a subshell with `set -e`: a failing gate is recorded
# and the gates after it still run, so one failure does not hide another.
# The script exits non-zero after listing every gate that failed.
failed=()
gate() {
    local name=$1 status
    echo "==> $name"
    set +e
    (
        set -e
        "$2"
    )
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: $name (exit $status)" >&2
        failed+=("$name")
    fi
}

fmt_check() {
    if ! cargo fmt --version >/dev/null 2>&1; then
        echo "ERROR: 'cargo fmt' is unavailable — install the rustfmt component" >&2
        echo "       (rustup component add rustfmt)" >&2
        exit 3
    fi
    cargo fmt --all --check
}

clippy_check() {
    if ! cargo clippy --version >/dev/null 2>&1; then
        echo "ERROR: 'cargo clippy' is unavailable — install the clippy component" >&2
        echo "       (rustup component add clippy)" >&2
        exit 3
    fi
    cargo clippy --workspace --all-targets -- -D warnings
}

# Rustdoc with warnings denied catches stale intra-doc links to renamed
# or deleted items.
doc_check() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

release_tests() {
    cargo test --workspace --release
}

# The release suite compiles `debug_assert!`s out. Run the engine's own
# tests once more in the test profile so those invariant checks (hash
# slot bounds, dense-chunk ranges, compound-key row bounds) run too. The
# test profile inherits `dev` (debug assertions and overflow checks on)
# but builds at opt-level 1 (Cargo.toml `[profile.test]`).
debug_tests() {
    cargo test -q -p speck-core -p speck-simt
}

# Idle pool workers spin before they park. Three pool threads are more
# than the cores of a two-core box, so the pool shim's and the
# simulator's tests, and the engine's unit tests (whose kernels write
# their output pieces in place with no claim per block), run once more
# with the spinning workers oversubscribed.
oversubscribed_tests() {
    RAYON_NUM_THREADS=3 cargo test -q -p rayon -p speck-simt
    RAYON_NUM_THREADS=3 cargo test -q -p speck-core --lib
}

perfbench_build() {
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

# One-second runs of the benchmark's `small` workload, plain and traced
# (`--trace 1` also reads the tracing and auditing engines, the profile,
# `execute_plan` and the plan's set-up time): every product each run
# computes must verify, and none may fail.
perfbench_smoke() {
    local trace last
    for trace in 0 1; do
        last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload small --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
        echo "$last"
        if ! grep -q '"correct": *true' <<<"$last" \
            || ! grep -q '"failed": *0[,}]' <<<"$last"; then
            echo "FAIL: perfbench smoke run (--trace $trace) is not correct or has failed operations" >&2
            exit 1
        fi
    done
}

# The experiment driver's by-name selection path, on three experiments
# that need no corpus sweep (under a second in release).
experiments_smoke() {
    mkdir -p target/ci
    cargo run --release -p speck-bench --bin run_all_experiments -- table4 fig8 fig11 \
        >target/ci/experiments.txt
}

# The host-cost probes (examples) run once at one round each, and the
# five root examples once each (`out_of_core` runs the banded multiplies
# of `partial.rs`), so they keep running and not just compiling.
examples_smoke() {
    cargo run --release --offline -p speck-simt --example launch_overhead -- 1
    RAYON_NUM_THREADS=1 cargo run --release --offline -p speck-core --example accumulator_cost -- 1
    RAYON_NUM_THREADS=1 cargo run --release --offline -p speck-core --example setup_cost -- 1
    local example
    for example in quickstart amg_galerkin graph_triangles method_shootout out_of_core; do
        cargo run --release --offline --example "$example"
    done
}

# One bench run serves every enabled bench gate.
if [ "$run_bench" -eq 1 ]; then
    bench_out=BENCH_throughput.json
    # --bench regenerates the committed audit baseline alongside the
    # throughput numbers; otherwise the fresh export is checked below.
    audit_new=BENCH_audit.json
else
    bench_out=/tmp/BENCH_ci.json
    audit_new=/tmp/BENCH_audit_new.json
fi

bench_run() {
    mkdir -p target/ci
    local args=("$BENCH_ROUNDS" "$bench_out"
        --metrics-table target/ci/metrics_table.txt)
    if [ "$run_smoke" -eq 1 ]; then
        args+=(--expect-digest "$EXPECTED_SIM_DIGEST")
    fi
    if [ "$run_metrics" -eq 1 ]; then
        args+=(--metrics-out /tmp/BENCH_metrics_new.json
            --check-metrics BENCH_metrics.json)
    fi
    if [ "$run_audit" -eq 1 ]; then
        args+=(--audit-out "$audit_new")
    fi
    cargo run --release -p speck-bench --bin bench_throughput -- "${args[@]}"
    echo "metrics table: target/ci/metrics_table.txt"
}

# The simulated clock must not depend on the host's thread count: the
# same rounds run again with one and with three pool threads, and each
# run must reproduce the pinned digest.
digest_threads_check() {
    local t
    for t in 1 3; do
        echo "RAYON_NUM_THREADS=$t:"
        RAYON_NUM_THREADS=$t cargo run --release -p speck-bench --bin bench_throughput -- \
            "$BENCH_ROUNDS" "/tmp/BENCH_ci_threads$t.json" \
            --expect-digest "$EXPECTED_SIM_DIGEST" | tail -n 1
    done
}

audit_baseline_check() {
    cmp "$audit_new" BENCH_audit.json \
        || { echo "FAIL: corpus decision statistics drifted from BENCH_audit.json" \
             "(regenerate with ./ci.sh --bench --audit if intended)" >&2; exit 1; }
    echo "audit gate: corpus decision statistics match BENCH_audit.json"
}

runspeck=(cargo run --release -p speck-bench --bin runspeck --)

trace_gate() {
    mkdir -p target/ci
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
}

audit_gate() {
    mkdir -p target/ci
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
}

# Toolchain versions first: when a CI run fails, the log alone must answer
# "which compiler was this?".
echo "==> toolchain"
rustc -V
cargo -V

gate "cargo fmt --check" fmt_check
gate "cargo clippy (deny warnings)" clippy_check
gate "cargo doc (deny warnings)" doc_check
gate "cargo test (workspace, release)" release_tests
gate "cargo test (speck-core + speck-simt, debug, debug assertions on)" debug_tests
gate "cargo test (rayon + speck-simt + speck-core lib, RAYON_NUM_THREADS=3)" oversubscribed_tests
gate "perfbench build (repo benchmark against the engine API)" perfbench_build
gate "perfbench smoke runs (small workload, 1 s, --trace 0 and 1)" perfbench_smoke
gate "experiment driver (run_all_experiments table4 fig8 fig11)" experiments_smoke
gate "examples_smoke (launch_overhead, accumulator_cost, setup_cost at ROUNDS=1; the five root examples)" examples_smoke

if [ "$run_bench" -eq 1 ] || [ "$run_smoke" -eq 1 ] || [ "$run_metrics" -eq 1 ] \
    || [ "$run_audit" -eq 1 ]; then
    desc="throughput benchmark -> $bench_out"
    [ "$run_smoke" -eq 1 ] && desc="$desc + sim digest $EXPECTED_SIM_DIGEST"
    [ "$run_metrics" -eq 1 ] && desc="$desc + metrics vs BENCH_metrics.json"
    [ "$run_audit" -eq 1 ] && desc="$desc + audit -> $audit_new"
    gate "$desc" bench_run
    if [ "$run_smoke" -eq 1 ]; then
        gate "sim digest $EXPECTED_SIM_DIGEST at RAYON_NUM_THREADS=1 and 3" digest_threads_check
    fi
    if [ "$run_audit" -eq 1 ] && [ "$run_bench" -eq 0 ]; then
        gate "corpus decision statistics vs BENCH_audit.json" audit_baseline_check
    fi
fi

if [ "$run_trace" -eq 1 ]; then
    gate "tracing smoke gate (export determinism + profile round trip)" trace_gate
fi

if [ "$run_audit" -eq 1 ]; then
    gate "decision-audit smoke gate (export determinism + self-diff)" audit_gate
fi

if [ "${#failed[@]}" -gt 0 ]; then
    echo "CI FAILED: ${#failed[@]} gate(s):" >&2
    printf '  - %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "CI OK"
