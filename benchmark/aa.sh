#!/usr/bin/env bash
# A/A: two sets of three passes of the same build, compared by the
# benchmark's own bounds. Exits 0 only if every end-to-end metric on every
# workload is `within`, every digest and exact counter is identical, and no
# op failed in either set. Arguments (--smoke, --seconds N) go to run.sh.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=benchmark/out
mkdir -p "$out"
for set in A B; do
    passes=()
    for pass in 1 2 3; do
        echo "set $set pass $pass" >&2
        bash benchmark/run.sh --results "$out/aa-$set-$pass.json" "$@" >"$out/aa-$set-$pass.txt"
        passes+=("$out/aa-$set-$pass.json")
    done
    # run.sh puts all records of a pass on the second line of its file.
    {
        echo '{"records": ['
        for f in "${passes[@]}"; do sed -n 2p "$f"; done | paste -sd,
        echo ']}'
    } >"$out/aa-$set.json"
done
"${CARGO_TARGET_DIR:-benchmark/target}/release/bench" compare --same-code "$out/aa-A.json" "$out/aa-B.json"
