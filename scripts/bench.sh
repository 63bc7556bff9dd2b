#!/usr/bin/env bash
# Performance benchmarks appending to the BENCH_runner.json trajectory:
#
#   1. suite_runner — the item scheduler at 1 vs 8 threads, 4
#      benchmarks x 9 policies, plus an epoch-telemetry variant guarding
#      instrumentation overhead (telemetry_overhead_8t in the trajectory
#      line; above the 1.2x target it warns, and exits non-zero under
#      CHIRP_BENCH_STRICT=1).
#   2. sim_throughput — single-thread instructions/sec of the
#      monomorphized columnar hot loop (instr_per_sec_1t, the sequential
#      run_columnar baseline) and the factored engine
#      (instr_per_sec_1t_factored: one shared front-end pass + 9 replay
#      back-ends per benchmark, with frontend_events_per_instr and
#      factored_speedup). The
#      factored_speedup >= 3.0 acceptance floor is checked after the
#      regression guards (warning, exit non-zero under
#      CHIRP_BENCH_STRICT=1).
#   3. serve_loadgen — end-to-end request throughput of chirp-serve under
#      concurrent submit sessions against a spawned in-process server
#      (serve_req_per_sec / serve_p50_ms / serve_p99_ms).
#
#   scripts/bench.sh            run and append to BENCH_runner.json
#   CHIRP_BENCH_OUT=out.json scripts/bench.sh     write elsewhere
#
# Each bench appends one JSON line per invocation, so the file
# accumulates a trajectory across commits. After running, the new
# instr_per_sec_1t (sequential baseline) AND instr_per_sec_1t_factored
# are each compared against the previous sim_throughput line; a >10%
# regression on either prints a loud warning (and exits non-zero
# under CHIRP_BENCH_STRICT=1). Release profile: Criterion benches always
# build optimized.
#
# Noise protocol: each sim_throughput number is the best of
# CHIRP_BENCH_REPS sweeps (default 3; the trajectory line records the
# value used). A genuine code regression slows every sweep; host noise
# (CPU contention in a shared container) leaves at least one clean sweep
# once N is raised. The committed trajectory's 25.3M -> 15.4M instr/s
# slide spans entries with no simulator-code changes and is of the
# noise kind — before trusting a guard warning, rerun with
# CHIRP_BENCH_REPS=7 and only treat a drop that survives as real.
#
# After the guards, chirp-dash renders the SAME trajectory file into
# results/dashboard.html; the script asserts the dashboard's embedded
# payload carries the exact value the guard just compared, so the two
# consumers cannot drift onto different data files.

set -euo pipefail
cd "$(dirname "$0")/.."

out="${CHIRP_BENCH_OUT:-BENCH_runner.json}"
export CHIRP_BENCH_REPS="${CHIRP_BENCH_REPS:-3}"

# The regression guard reads the trajectory through the query engine —
# the same `chirp-query` answers the guard consults are what any
# dashboard querying this file would see. The legacy grep/sed extractors
# are kept below as an independent read path; assert_paths_agree checks
# the two read identical values before any guard fires.
query_traj() {
    [[ -f "$out" ]] || return 0
    cargo run --release -q -p chirp-query --bin chirp-query -- \
        --jsonl "$out" --raw "$1" 2>/dev/null || true
}

extract_ips() {
    query_traj "last instr_per_sec_1t from bench where bench=sim_throughput"
}

extract_factored() {
    query_traj "last instr_per_sec_1t_factored from bench where bench=sim_throughput"
}

extract_factored_speedup() {
    query_traj "last factored_speedup from bench where bench=sim_throughput"
}

extract_serve() {
    query_traj "last serve_req_per_sec from bench where bench=serve_loadgen"
}

extract_telemetry_overhead() {
    query_traj "last telemetry_overhead_8t from bench where bench=suite_runner"
}

legacy_ips() {
    # Last sim_throughput line's instr_per_sec_1t, empty if none.
    [[ -f "$out" ]] || return 0
    grep '"bench":"sim_throughput"' "$out" | tail -n 1 |
        sed -n 's/.*"instr_per_sec_1t":\([0-9][0-9]*\).*/\1/p'
}

legacy_factored() {
    [[ -f "$out" ]] || return 0
    grep '"bench":"sim_throughput"' "$out" | tail -n 1 |
        sed -n 's/.*"instr_per_sec_1t_factored":\([0-9][0-9]*\).*/\1/p'
}

legacy_factored_speedup() {
    [[ -f "$out" ]] || return 0
    grep '"bench":"sim_throughput"' "$out" | tail -n 1 |
        sed -n 's/.*"factored_speedup":\([0-9.][0-9.]*\).*/\1/p'
}

legacy_serve() {
    [[ -f "$out" ]] || return 0
    grep '"bench":"serve_loadgen"' "$out" | tail -n 1 |
        sed -n 's/.*"serve_req_per_sec":\([0-9][0-9]*\).*/\1/p'
}

legacy_telemetry_overhead() {
    [[ -f "$out" ]] || return 0
    grep '"bench":"suite_runner"' "$out" | tail -n 1 |
        sed -n 's/.*"telemetry_overhead_8t":\([0-9.][0-9.]*\).*/\1/p'
}

# The query-engine path and the legacy text-scrape path must read the
# same trajectory values; a disagreement means one of them is lying and
# the guard below cannot be trusted.
assert_paths_agree() {
    local name="$1" via_query="$2" via_legacy="$3"
    if [[ "$via_query" != "$via_legacy" ]]; then
        echo "ERROR: $name disagrees between read paths: query='$via_query' legacy='$via_legacy'" >&2
        exit 1
    fi
}

# Warn when a metric drops more than 10% below the previous recorded run
# on this machine; exits non-zero under CHIRP_BENCH_STRICT=1.
guard() {
    local name="$1" prev="$2" new="$3"
    [[ -n "$prev" && -n "$new" ]] || return 0
    if awk -v new="$new" -v prev="$prev" 'BEGIN { exit !(new < 0.9 * prev) }'; then
        echo "WARNING: $name regressed >10%: $prev -> $new" >&2
        if [[ "${CHIRP_BENCH_STRICT:-0}" == "1" ]]; then
            exit 1
        fi
    else
        echo "throughput guard: $name $prev -> $new (within 10%)"
    fi
}

prev_ips="$(extract_ips)"
prev_factored="$(extract_factored)"
prev_serve="$(extract_serve)"

cargo bench -p chirp-bench --bench suite_runner "$@"
cargo bench -p chirp-bench --bench sim_throughput "$@"

echo "==> serve_loadgen (end-to-end chirp-serve throughput)"
cargo run --release -q -p chirp-serve --bin loadgen -- \
    --spawn --sessions 4 --requests 8 --benchmarks 4 --instructions 50_000 \
    --bench-out "$out"

if [[ -f "$out" ]]; then
    echo "==> latest trajectory lines:"
    tail -n 3 "$out"
fi

new_ips="$(extract_ips)"
new_factored="$(extract_factored)"
new_factored_speedup="$(extract_factored_speedup)"
new_serve="$(extract_serve)"
new_telemetry_overhead="$(extract_telemetry_overhead)"
assert_paths_agree instr_per_sec_1t "$new_ips" "$(legacy_ips)"
assert_paths_agree instr_per_sec_1t_factored "$new_factored" "$(legacy_factored)"
assert_paths_agree factored_speedup "$new_factored_speedup" "$(legacy_factored_speedup)"
assert_paths_agree serve_req_per_sec "$new_serve" "$(legacy_serve)"
assert_paths_agree telemetry_overhead_8t "$new_telemetry_overhead" "$(legacy_telemetry_overhead)"
guard instr_per_sec_1t "$prev_ips" "$new_ips"
guard instr_per_sec_1t_factored "$prev_factored" "$new_factored"
guard serve_req_per_sec "$prev_serve" "$new_serve"

# Acceptance floor: sharing one front end across the 9-policy lineup
# must be worth at least 3x the sequential baseline.
if [[ -n "$new_factored_speedup" ]]; then
    if awk -v s="$new_factored_speedup" 'BEGIN { exit !(s < 3.0) }'; then
        echo "WARNING: factored_speedup $new_factored_speedup below the 3.0 acceptance floor" >&2
        if [[ "${CHIRP_BENCH_STRICT:-0}" == "1" ]]; then
            exit 1
        fi
    else
        echo "factored guard: factored_speedup $new_factored_speedup >= 3.0 floor"
    fi
fi

# Telemetry target: sampling epoch series on the chunk driver must cost
# at most 1.2x the plain 8-thread run.
if [[ -n "$new_telemetry_overhead" ]]; then
    if awk -v t="$new_telemetry_overhead" 'BEGIN { exit !(t > 1.2) }'; then
        echo "WARNING: telemetry_overhead_8t $new_telemetry_overhead above the 1.2 target" >&2
        if [[ "${CHIRP_BENCH_STRICT:-0}" == "1" ]]; then
            exit 1
        fi
    else
        echo "telemetry guard: telemetry_overhead_8t $new_telemetry_overhead <= 1.2 target"
    fi
fi

echo "==> chirp-dash (render $out -> results/dashboard.html)"
cargo run --release -q -p chirp-query --bin chirp-dash -- \
    --trajectory "$out" --out results/dashboard.html
# Guard and dashboard must read the identical data file: the value the
# guard just compared has to appear in the dashboard's embedded payload.
# The payload JSON-escapes the panel JSONL twice, so the field's quote
# arrives as \\\" in the HTML.
if [[ -n "$new_ips" ]]; then
    grep -qF 'instr_per_sec_1t\\\":'"$new_ips" results/dashboard.html || {
        echo "ERROR: dashboard payload lacks instr_per_sec_1t=$new_ips from $out" >&2
        exit 1
    }
    echo "dashboard payload carries instr_per_sec_1t=$new_ips (same file as guard)"
fi
