#!/usr/bin/env bash
# Same-runner benchmark gate: run bench/run.py for BASE and for the working
# tree, interleaved, and exit with bench/compare.py's verdict.
#
#     scripts/bench_gate.sh BASE
#
# BASE is checked out into a temporary git worktree.  The working tree's
# bench/ and BENCHMARK.json are copied over its own, so both sides run the
# same benchmark code, each against its own src/ (bench/session.py puts its
# sibling src/ first on sys.path).  Results go to out/bench-gate/{parent,change}
# and run logs to out/bench-gate/runs.log.  Exits 1 when any workload x
# end-to-end metric reads "worse" or the failed share grew, else 0.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench_gate.sh BASE" >&2
    exit 2
fi

# Three pairs of 3-second runs, alternating which side runs first: on a
# 2-core x86 VM that is 5-7 minutes per gate, a tree identical to BASE
# read no "worse" row (exit 0), and a 50 ms sleep in RoundCore.reconstruct
# read "worse" on every workload (exit 1).
SEEDS="1 2 3"
SECONDS_PER_RUN=3

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/out/bench-gate
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"; git worktree prune' EXIT
declare -A tree=([parent]="$scratch/base" [change]="$root")

git worktree add --detach --quiet "${tree[parent]}" "$1"
rm -rf "${tree[parent]}/bench" "$out"
cp -r bench "${tree[parent]}/bench"
cp BENCHMARK.json "${tree[parent]}/BENCHMARK.json"
mkdir -p "$out"

for seed in $SEEDS; do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "seed $seed: $side"
        echo "== seed $seed: $side (${tree[$side]})" >>"$out/runs.log"
        python3 "${tree[$side]}/bench/run.py" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
            --out "$out/$side" >>"$out/runs.log" 2>&1
    done
done

for side in parent change; do
    echo "$side src/ Python lines: $(cd "${tree[$side]}" && find src -name '*.py' | xargs cat | wc -l)"
done

python3 bench/compare.py "$out/parent" "$out/change"
