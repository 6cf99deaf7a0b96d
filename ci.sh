#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests, and a smoke-scale
# end-to-end reproduction. Run from the repo root; exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release"
cargo build --release --locked
# Every gate below that runs the simulator calls this one binary.
gsrepro=target/release/gsrepro

echo "== cargo test (workspace)"
cargo test -q --locked --workspace

echo "== digest pins and scheduler differential fuzz (release)"
# The pins and the fuzz above ran in the debug profile; users and benchmark/
# run optimized code, so the same checks must hold there too.
cargo test --release -q --locked --test digest_pins
cargo test --release -q --locked -p gsrepro-simcore --test wheel_vs_heap

echo "== repo benchmark (benchmark/: its own tests, then a smoke pass of all five workloads)"
# benchmark/ is a Cargo workspace of its own that reaches the simulator only
# through the crates' public items, so nothing above builds it: a crate API
# change could break it silently. run.sh also checks every digest and that
# what it printed is what BENCHMARK.json declares.
cargo test -q --manifest-path benchmark/Cargo.toml --offline --locked
bash benchmark/run.sh --smoke

echo "== smoke reproduction"
"$gsrepro" full_reproduction --smoke

echo "== committed multiflow artifact regenerates byte for byte"
"$gsrepro" multiflow 2>&1 | cmp - artifacts_multiflow.txt

echo "== committed sensitivity artifact regenerates, its grid: line aside"
# Its jittered WAN links draw from the network's one shared RNG, so a
# same-instant reordering of events shows here first. The `grid:` line
# carries host time and the event count and is left out on both sides.
"$gsrepro" sensitivity 2>&1 | grep -v '^grid: ' \
    | cmp - <(grep -v '^grid: ' artifacts_sensitivity.txt)

echo "== traced smoke run + trace schema validation"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$gsrepro" figure2 --smoke --iters 1 --trace "$trace_dir"
"$gsrepro" validate_trace "$trace_dir"

echo "== dynamic-paths smoke + scenario trace validation"
scenario_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$scenario_dir"' EXIT
"$gsrepro" dynamic_paths --smoke --iters 1 --trace "$scenario_dir"
"$gsrepro" validate_trace "$scenario_dir" --require-scenario

echo "== oracle-enabled smoke (figure2 grid with --checks)"
"$gsrepro" figure2 --smoke --iters 1 --checks

echo "== oracle-enabled 3-D AQM smoke (scorecard3d with --checks)"
"$gsrepro" scorecard3d --smoke --iters 1 --checks

echo "== scorecard snapshot (release, oracle-enabled grids)"
cargo test --release -q --locked -p gsrepro-testbed --test scorecard_snapshot -- --ignored

echo "== EXPERIMENTS.md quotes the committed scorecard artifact"
# The counts were once typed by hand and drifted from the artifact (and the
# artifact from the code); the summary line must now appear verbatim.
summary="$(grep -m1 '^Scorecard — ' artifacts_scorecard.txt)" || {
    echo "artifacts_scorecard.txt has no 'Scorecard — ' summary line" >&2; exit 1; }
grep -qF -- "$summary" EXPERIMENTS.md || {
    echo "EXPERIMENTS.md does not quote '$summary' (artifacts_scorecard.txt)" >&2; exit 1; }

echo "== model-oracle gate (Ware inflight-cap model, smoke grid under --checks)"
# The subcommand itself exits non-zero on any `diverged` verdict in a
# model-applicable cell, so a CCA regression fails CI even before the
# snapshot diff; the snapshot test then pins the exact per-cell verdicts
# and the model scorecard matrix against tests/fixtures/model_oracle.txt.
"$gsrepro" model_oracle --smoke --checks
cargo test --release -q --locked -p gsrepro-testbed --test model_snapshot -- --ignored

echo "== fleet smoke gate (forced kill/resume must be bit-identical)"
# A tiny campaign run three ways: (a) straight through, (b) halted after 2
# shards with a checkpoint manifest, (c) resumed from that manifest. The
# aggregate digest — an exact hash over every per-condition sketch — must
# match between (a) and (c), which is the fleet engine's whole contract.
fleet_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$scenario_dir" "$fleet_dir"' EXIT
fleet() { "$gsrepro" fleet --smoke --threads 2 "$@"; }
fleet --csv "$fleet_dir/straight.json" > "$fleet_dir/straight.out"
if fleet --csv "$fleet_dir/halted.json" --manifest "$fleet_dir/fleet.manifest" \
    --halt-after-shards 2; then
    echo "halted fleet run must exit non-zero" >&2; exit 1
fi
fleet --csv "$fleet_dir/resumed.json" --manifest "$fleet_dir/fleet.manifest" \
    > "$fleet_dir/resumed.out"
# Compare the line the command prints, not a pattern over its JSON.
for run in straight resumed; do
    grep '^aggregate digest: ' "$fleet_dir/$run.out" > "$fleet_dir/$run.digest" || {
        echo "fleet gate FAILED: the $run run printed no aggregate digest" >&2; exit 1; }
done
cmp "$fleet_dir/straight.digest" "$fleet_dir/resumed.digest" || {
    echo "fleet gate FAILED: resumed aggregates differ from uninterrupted run" >&2; exit 1; }
echo "fleet gate: straight and resumed runs both print '$(cat "$fleet_dir/straight.digest")'"
# Schema sanity: the resumed JSON must carry the headline keys ci and the
# README document.
for key in '"schema": 1' '"sessions_per_sec"' '"p99"' '"never_response_frac"'; do
    grep -q "$key" "$fleet_dir/resumed.json" || {
        echo "fleet gate FAILED: the resumed fleet report is missing $key" >&2; exit 1; }
done

echo "== chaos smoke gate (seeded fuzz must be clean; pinned repro replays bit-identically)"
# 200 adversarial trials (random conditions × disturbance schedules) with
# every invariant oracle armed, a watchdog per leg, and a bit-identity
# rerun as a determinism oracle. Any non-clean verdict exits non-zero.
# Seed 42 also covers the two trials that exposed the TCP RTO re-arm
# livelock, keeping that fix pinned at campaign scale.
chaos() { "$gsrepro" chaos "$@"; }
chaos --trials 200 --seed 42
# The committed repro is a shrunk planted-bug catch (queue-skew knob):
# replaying it twice must produce byte-identical output, and the verdict
# must still be the planted nondeterminism — proving both the repro codec
# and the campaign's ability to catch a one-line bug.
chaos_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$scenario_dir" "$fleet_dir" "$chaos_dir"' EXIT
chaos --replay crates/testbed/tests/fixtures/chaos_pinned.repro > "$chaos_dir/a.txt"
chaos --replay crates/testbed/tests/fixtures/chaos_pinned.repro > "$chaos_dir/b.txt"
cmp "$chaos_dir/a.txt" "$chaos_dir/b.txt" || {
    echo "chaos gate FAILED: repro replay is not bit-identical" >&2; exit 1; }
grep -q "verdict: nondeterminism" "$chaos_dir/a.txt" || {
    echo "chaos gate FAILED: pinned repro no longer catches its planted bug" >&2; exit 1; }

echo "CI OK"
