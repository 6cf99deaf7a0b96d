#!/usr/bin/env bash
# The one command of the benchmark.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#       builds, runs that workload in a fresh process (bench for --trace 0,
#       bench-layers for --trace 1) and prints the metric table; the last
#       line of standard output is the driver's JSON object.
#
#   bash benchmark/run.sh [--smoke] [--seed N] [--seconds N] [--results FILE]
#       runs every workload in both modes, prints every metric as
#       `workload  name  value  unit`, checks that what was printed is what
#       BENCHMARK.json declares, and writes benchmark/out/results.json.
#
# Exits non-zero when the build fails or any output check does.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"

# Every record carries what is needed to compare it with the next one.
BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_GIT_REV BENCH_RUSTC

exe_for_trace() { if [[ "$1" == 1 ]]; then echo bench-layers; else echo bench; fi; }

workload="" trace=0 results=benchmark/out/results.json pass=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) workload="${args[i + 1]:-}" ;;
    --trace) trace="${args[i + 1]:-}" ;;
    esac
done
if [[ -n "$workload" ]]; then
    exec "$bin/$(exe_for_trace "$trace")" "$@"
fi

while (($#)); do
    case "$1" in
    --results) results="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
    esac
done

out=benchmark/out
mkdir -p "$out"
status=0 records=()
for w in solo contested aqm-dynamic fleet-short repro-grid; do
    for trace in 0 1; do
        record="$out/record-$w-$trace.json"
        "$bin/$(exe_for_trace $trace)" --workload "$w" --trace "$trace" --out "$record" \
            "${pass[@]}" >"$out/stdout.txt" || status=1
        head -n -1 "$out/stdout.txt"
        records+=("$record")
    done
done
rm -f "$out/stdout.txt"

# One record per line; join them into one document.
{ echo '{"records": ['; cat "${records[@]}" | paste -sd, -; echo ']}'; } >"$results"
"$bin/bench" check BENCHMARK.json "$results" || status=1
echo "wrote $results" >&2
exit $status
