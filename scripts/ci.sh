#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the test suite.
#
#   scripts/ci.sh          run everything
#   scripts/ci.sh --fix    apply rustfmt instead of checking it
#
# Mirrors what a hosted pipeline would run; keep it green before pushing.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    echo "==> cargo fmt"
    cargo fmt --all
else
    echo "==> cargo fmt --check"
    cargo fmt --all --check
fi

echo "==> dependencies (the workspace's code uses no external crate)"
# The trace RNG is generator identity and lives in chirp-trace, the store
# hand-rolls its JSON, and the runner and the wire format use std only.
# What stays external is dev-only: the proptest and criterion stand-ins.
external="$(sed -n 's/^name = "\(.*\)"$/\1/p' Cargo.lock | grep -v '^chirp-' | sort | xargs)"
if [[ "$external" != "criterion proptest" ]]; then
    echo "Cargo.lock lists external packages beyond criterion and proptest: $external" >&2
    exit 1
fi
vendored="$(ls vendor | sort | xargs)"
if [[ "$vendored" != "README.md criterion proptest" ]]; then
    echo "vendor/ holds more than README.md, criterion and proptest: $vendored" >&2
    exit 1
fi
if grep -rnw serde crates src tests examples; then
    echo "serde is not a dependency; nothing derives or mentions it" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, warnings are errors, perf lints denied)"
# clippy::perf is deny, not just folded into -D warnings: the hot loop's
# throughput claims in EXPERIMENTS.md assume no needless clones or
# by-value loops sneak into the per-instruction path.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> equivalence matrix (--release)"
# The engines' bit-identity gates rerun under the optimized profile: the
# fast paths they pin (branchless probe, packed order word, SWAR burst
# signature/set hashing in the shared front end) only take their real
# shape with optimizations on. The test file carries the streamed,
# factored and OPT back-end layers against the run_columnar oracle.
cargo test --release -q -p chirp-sim --test equivalence_matrix

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> telemetry smoke (epoch runs, pipelined vs inline series, report round-trip)"
smoke_dir="$(mktemp -d)"
serve_pid=""
trap 'if [[ -n "$serve_pid" ]]; then kill "$serve_pid" 2>/dev/null || true; fi; rm -rf "$smoke_dir"' EXIT
# The factored back ends sample the epoch series, so the series must not
# depend on the replay form: one worker pipelines on a host with two or
# more cores, one worker per core replays inline (see "pipelined vs
# inline ledgers" below). Nor may it depend on the stream's batch size:
# a 997-record batch ends inside epochs and segments.
cpus="$(nproc)"
telemetry_run() { # THREADS OUT_DIR [FLAGS...]
    cargo run --release -q -p chirp-bench --bin run_all -- \
        --benchmarks 2 --instructions 20_000 --threads "$1" \
        --telemetry epochs --epoch-instructions 5_000 \
        --telemetry-out "$2" "${@:3}" > "$2.out"
    test -s "$2/telemetry_epochs.jsonl"
}
telemetry_run 1 "$smoke_dir/telemetry-pipelined"
telemetry_run "$cpus" "$smoke_dir/telemetry-inline"
telemetry_run 1 "$smoke_dir/telemetry-chunked" --stream-chunk 997
if [[ "$cpus" -gt 1 ]]; then
    grep -q "replay pipelined" "$smoke_dir/telemetry-pipelined.out"
fi
for other in inline chunked; do
    cmp "$smoke_dir/telemetry-pipelined/telemetry_epochs.jsonl" \
        "$smoke_dir/telemetry-$other/telemetry_epochs.jsonl"
done
# Buffer the report before grepping: `grep -q` exits on first match and
# would close the pipe mid-write, crashing the reporter with SIGPIPE.
cargo run --release -q -p chirp-bench --bin telemetry_report -- \
    --input "$smoke_dir/telemetry-pipelined/telemetry_epochs.jsonl" > "$smoke_dir/report.out"
grep -q "Per-policy rollup" "$smoke_dir/report.out"

echo "==> OPT-bound smoke (Belady back end over the shared front end)"
# ext_opt_bound writes results/ext_opt_bound.csv relative to its working
# directory, so run it inside the scratch dir.
repo_root="$PWD"
(cd "$smoke_dir" && cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p chirp-bench --bin ext_opt_bound -- \
    --benchmarks 2 --instructions 20000 > "$smoke_dir/opt.out")
grep -q "LRU->OPT gap" "$smoke_dir/opt.out"
test "$(wc -l < "$smoke_dir/results/ext_opt_bound.csv")" -eq 3

echo "==> chirp-query smoke (ledger-backed answers)"
query_store="$smoke_dir/query-store"
cargo run --release -q -p chirp-bench --bin run_all -- \
    --benchmarks 2 --instructions 20_000 --threads 2 \
    --store "$query_store" > "$smoke_dir/run_all_store.out"
grep -q "==== Ledger" "$smoke_dir/run_all_store.out"
test -s "$query_store/runs.jsonl"
# The scalar a query returns must be the ledger's own number, byte for
# byte — the bit-identity guarantee the query layer is built around.
best_eff="$(cargo run --release -q -p chirp-query --bin chirp-query -- \
    --store "$query_store" --raw "argmax efficiency")"
test -n "$best_eff"
grep -q "\"efficiency\":$best_eff" "$query_store/runs.jsonl"
# Every answer cites the run key of the ledger line it came from.
cargo run --release -q -p chirp-query --bin chirp-query -- \
    --store "$query_store" "argmin mpki" | grep -q "run "
# A clean ledger history reports zero regressions.
regressions="$(cargo run --release -q -p chirp-query --bin chirp-query -- \
    --store "$query_store" --raw "regress mpki")"
test "$regressions" = "0"
# The same run again answers from the ledger: it appends nothing. Harness
# runs read the archive but never grow it, so the store holds no trace.
ledger_lines="$(wc -l < "$query_store/runs.jsonl")"
cargo run --release -q -p chirp-bench --bin run_all -- \
    --benchmarks 2 --instructions 20_000 --threads 2 \
    --store "$query_store" > "$smoke_dir/run_all_store_again.out"
test "$(wc -l < "$query_store/runs.jsonl")" -eq "$ledger_lines"
test -z "$(find "$query_store" -name '*.chrp')"

echo "==> chirp-dash smoke (dashboard from the checked-in trajectory)"
cargo run --release -q -p chirp-query --bin chirp-dash -- \
    --trajectory BENCH_runner.json --store "$query_store" \
    --out "$smoke_dir/dashboard.html"
grep -q 'id="chirp-data"' "$smoke_dir/dashboard.html"
# Trajectory panels (including the factored-throughput panel) and the
# ledger-backed MPKI panel all made it into the embedded payload.
grep -q 'instr_per_sec_1t' "$smoke_dir/dashboard.html"
grep -q 'sim_throughput_factored' "$smoke_dir/dashboard.html"
grep -q 'mpki_by_policy' "$smoke_dir/dashboard.html"

echo "==> archive streaming smoke (full_suite over packed traces vs generated)"
# The streamed runner falls back to regenerating a trace on any decode
# or checksum failure, so a broken decoder would only show as slower runs
# with identical results. Pin that every unit streamed from the archive
# (two ~780 KB files, about 12 read windows each, decoded in batches of
# 997 records) and that the ledger matches a run that generated instead.
stream_store="$smoke_dir/stream-store"
gen_store="$smoke_dir/gen-store"
cargo build --release -q -p chirp-bench
target/release/trace_tool pack "$stream_store" 2 100_000 > /dev/null
target/release/full_suite --store "$stream_store" --benchmarks 2 \
    --instructions 100_000 --stream-chunk 997 > /dev/null 2> "$smoke_dir/stream.err"
grep -q "2 archive streams, 0 generated, 0 regenerated" "$smoke_dir/stream.err"
target/release/full_suite --store "$gen_store" --benchmarks 2 \
    --instructions 100_000 --stream-chunk 997 > /dev/null 2> "$smoke_dir/gen.err"
grep -q "0 archive streams, 2 generated" "$smoke_dir/gen.err"
cmp <(sort "$stream_store/runs.jsonl") <(sort "$gen_store/runs.jsonl")
# A corrupt entry costs one regeneration: the run that finds it rewrites
# it, and the next run streams it again. Each run starts from an empty
# ledger so that it needs both traces.
flip_byte() { # FILE OFFSET
    local byte
    byte="$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')"
    printf "$(printf '\\%03o' $((byte ^ 255)))" |
        dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}
flip_byte "$(find "$stream_store/traces" -name '*.chrp' | sort | head -n 1)" 4096
if target/release/trace_tool verify "$stream_store" > /dev/null; then
    echo "flipped byte left the archive clean" >&2
    exit 1
fi
for run in heal healed; do
    rm "$stream_store/runs.jsonl"
    target/release/full_suite --store "$stream_store" --benchmarks 2 \
        --instructions 100_000 --stream-chunk 997 > /dev/null 2> "$smoke_dir/$run.err"
done
grep -q "1 archive streams, 0 generated, 1 regenerated" "$smoke_dir/heal.err"
grep -q "2 archive streams, 0 generated, 0 regenerated" "$smoke_dir/healed.err"
target/release/trace_tool verify "$stream_store" > /dev/null
cmp <(sort "$stream_store/runs.jsonl") <(sort "$gen_store/runs.jsonl")
# A file cut short mid-record: the decoder reaches the end of its last
# window with declared records left, so the run that streams it fails
# over to regenerating, and the ledger still matches the generated one.
cut_file="$(find "$stream_store/traces" -name '*.chrp' | sort | tail -n 1)"
truncate -s $(($(stat -c %s "$cut_file") / 2 + 1)) "$cut_file"
if target/release/trace_tool verify "$stream_store" > /dev/null; then
    echo "truncated file left the archive clean" >&2
    exit 1
fi
rm "$stream_store/runs.jsonl"
target/release/full_suite --store "$stream_store" --benchmarks 2 \
    --instructions 100_000 --stream-chunk 997 > /dev/null 2> "$smoke_dir/cut.err"
grep -q "1 archive streams, 0 generated, 1 regenerated" "$smoke_dir/cut.err"
target/release/trace_tool verify "$stream_store" > /dev/null
cmp <(sort "$stream_store/runs.jsonl") <(sort "$gen_store/runs.jsonl")
# One byte appended after the last record: every record decodes, but the
# decoder counts and hashes the whole file against the manifest, so the stream
# fails before its last batch and the run regenerates the entry.
tail_file="$(find "$stream_store/traces" -name '*.chrp' | sort | head -n 1)"
printf '\0' >> "$tail_file"
if target/release/trace_tool verify "$stream_store" > /dev/null; then
    echo "trailing byte left the archive clean" >&2
    exit 1
fi
rm "$stream_store/runs.jsonl"
target/release/full_suite --store "$stream_store" --benchmarks 2 \
    --instructions 100_000 --stream-chunk 997 > /dev/null 2> "$smoke_dir/tail.err"
grep -q "1 archive streams, 0 generated, 1 regenerated" "$smoke_dir/tail.err"
target/release/trace_tool verify "$stream_store" > /dev/null
cmp <(sort "$stream_store/runs.jsonl") <(sort "$gen_store/runs.jsonl")

echo "==> pipelined vs inline ledgers (factored replay on a second thread or inline)"
# A factored group replays on a thread of its own only when a core would
# otherwise sit idle: under one worker it does on a host with two or more
# cores, while one worker per core replays inline. Pipelined, the front-end
# thread also replays back ends whenever its segment ring is full. Results
# must not depend on the form or on which thread replayed what, so the two
# ledgers must hold the same lines.
pipelined_store="$smoke_dir/pipelined-store"
inline_store="$smoke_dir/inline-store"
target/release/run_all --benchmarks 2 --instructions 50_000 --threads 1 \
    --store "$pipelined_store" > "$smoke_dir/pipelined.out"
target/release/run_all --benchmarks 2 --instructions 50_000 --threads "$cpus" \
    --store "$inline_store" > "$smoke_dir/inline.out"
if [[ "$cpus" -eq 1 ]]; then
    echo "    1 cpu: both runs replayed inline"
else
    # Every scheduled experiment of the one-worker run reports that its
    # groups actually pipelined.
    grep -q "replay pipelined" "$smoke_dir/pipelined.out"
    awk '/^\[scheduler\]/ && !/replay pipelined/ { bad = 1 } END { exit bad }' \
        "$smoke_dir/pipelined.out"
    grep -q "replay inline" "$smoke_dir/inline.out" \
        || echo "    $cpus cpus exceed the 2 work items: the second run pipelined too"
    # How many (segment x back end) replays the front-end thread took
    # while its segment ring was full or draining depends on timing, so
    # it is shown, not checked.
    sed -n 's/^\[scheduler\] \([^:]*\):.*replay pipelined (\([^)]*\)).*/    \1: \2/p' \
        "$smoke_dir/pipelined.out"
fi
cmp <(sort "$pipelined_store/runs.jsonl") <(sort "$inline_store/runs.jsonl")
# A resumed group of one runs on the same chunk driver: drop every SRRIP
# line from both ledgers and rerun each store in its own form, so every
# experiment simulates SRRIP alone, pipelined in the first store and
# inline in the second. Both must reproduce the lines the 9-policy (and
# smaller) groups wrote.
for form in pipelined inline; do
    store="$smoke_dir/$form-store"
    sort "$store/runs.jsonl" > "$smoke_dir/$form-full.jsonl"
    grep -v '"policy":"srrip"' "$smoke_dir/$form-full.jsonl" > "$store/runs.jsonl"
    if [[ "$form" == pipelined ]]; then threads=1; else threads="$cpus"; fi
    target/release/run_all --benchmarks 2 --instructions 50_000 --threads "$threads" \
        --store "$store" > "$smoke_dir/$form-resumed.out"
    if [[ "$form" == pipelined && "$cpus" -gt 1 ]]; then
        grep -q "replay pipelined" "$smoke_dir/$form-resumed.out"
    fi
    cmp <(sort "$store/runs.jsonl") "$smoke_dir/$form-full.jsonl"
done

echo "==> chirp-serve smoke (submit, archived re-run, ledger resubmit, stages, graceful shutdown)"
cargo build --release -q -p chirp-serve -p chirp-bench
serve_log="$smoke_dir/serve.log"
target/release/chirp-serve --bind 127.0.0.1:0 --store "$smoke_dir/serve-store" > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$serve_log" 2>/dev/null && break
    sleep 0.1
done
data_addr="$(sed -n 's/^chirp-serve listening on \([0-9.:]*\)$/\1/p' "$serve_log")"
test -n "$data_addr"
target/release/trace_tool gen 0 20_000 "$smoke_dir/smoke.chrp" > /dev/null
smoke_hash="$(target/release/trace_tool hash "$smoke_dir/smoke.chrp" | awk '{print $1}')"
target/release/chirp-client ping --addr "$data_addr" > /dev/null
# Submit simulates; the archived re-run of the same content hash (same
# default name/seed) must answer entirely from the run ledger.
target/release/chirp-client submit --addr "$data_addr" \
    --file "$smoke_dir/smoke.chrp" --policies lru,chirp > "$smoke_dir/submit.out"
grep -q "best:" "$smoke_dir/submit.out"
target/release/chirp-client run --addr "$data_addr" \
    --hash "$smoke_hash" --policies lru,chirp > "$smoke_dir/rerun.out"
grep -q "ledger" "$smoke_dir/rerun.out"
# A second submit of the same bytes is a full ledger hit on an archived
# trace, answered without decoding: every verdict line reads "ledger".
target/release/chirp-client submit --addr "$data_addr" \
    --file "$smoke_dir/smoke.chrp" --policies lru,chirp > "$smoke_dir/resubmit.out"
awk '/^policy/ { table = 1; next } /^best:/ { table = 0 }
     table { rows++; if ($NF != "ledger") bad = 1 }
     END { exit bad || rows != 2 }' "$smoke_dir/resubmit.out"
# The stage histograms say where the requests spent their time.
target/release/chirp-client stats --addr "$data_addr" > "$smoke_dir/stats.out"
grep -E '^(request|ingest|simulate|archive)_us ' "$smoke_dir/stats.out" > "$smoke_dir/stages.out"
test "$(wc -l < "$smoke_dir/stages.out")" -eq 4
sed 's/^/    /' "$smoke_dir/stages.out"
target/release/chirp-client shutdown --addr "$data_addr" > /dev/null
# The acked server drains and exits; give it 30 s rather than hang CI.
for _ in $(seq 1 300); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "ci: chirp-serve still running 30 s after an acked shutdown" >&2
    exit 1
fi
wait "$serve_pid"
serve_pid=""

echo "ci: all checks passed"
