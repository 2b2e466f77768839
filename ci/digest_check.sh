#!/usr/bin/env bash
# Compares the simulator's digests at a commit with the working tree's.
#
#   ci/digest_check.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory and
# builds the benchmark's `leaftl-perf` there and in the working tree,
# each with a target directory of its own (the tree's is kept, in
# `target/digest-check`). Then runs `one --workload W
# --seed 7` for every workload, and `one --workload W --seed N --smoke`
# for seeds 1-3, with both binaries, and prints `equal` or `differs` for
# `input_digest` and `sim_digest` of each run. Exits 1 if any differs.
#
# A change meant to leave simulated behaviour alone passes it against
# its parent. It only drives the binary and edits nothing under
# `benchmark/`. Not run by CI: a shallow checkout has no parent commit.
set -euo pipefail

rev=${1:?usage: ci/digest_check.sh <rev>}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/rev"
git -C "$root" archive "$rev" | tar -x -C "$scratch/rev"
build() {
    cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
}
build "$scratch/rev" "$scratch/target-rev"
build "$root" "$root/target/digest-check"
before="$scratch/target-rev/release/leaftl-perf"
after="$root/target/digest-check/release/leaftl-perf"

digest() {
    python3 -c 'import json, sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"
}

status=0
check() {
    local label=$1
    shift
    "$before" one "$@" > "$scratch/before.json"
    "$after" one "$@" > "$scratch/after.json"
    for key in input_digest sim_digest; do
        local old new
        old=$(digest "$key" < "$scratch/before.json")
        new=$(digest "$key" < "$scratch/after.json")
        if [ "$old" = "$new" ]; then
            echo "$label $key equal $new"
        else
            echo "$label $key differs $old -> $new"
            status=1
        fi
    done
}

for workload in blocking_mix read_qd32 write_gc fleet_1012; do
    check "$workload seed 7" --workload "$workload" --seed 7
    for seed in 1 2 3; do
        check "$workload seed $seed --smoke" --workload "$workload" --seed "$seed" --smoke
    done
done
exit "$status"
