#!/usr/bin/env bash
# Compares the simulator's digests and figures at a commit with the
# working tree's.
#
#   ci/digest_check.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory and
# builds the benchmark's `leaftl-perf` and the experiment harness
# `leaftl-bench` there and in the working tree, each with a target
# directory of its own (the tree's is kept, in `target/digest-check`).
#
# Digests: runs `one --workload W --seed 7` for every workload, and
# `one --workload W --seed N --smoke` for seeds 1-3, with both
# `leaftl-perf` binaries, and prints `equal` or `differs` for
# `input_digest` and `sim_digest` of each run.
#
# Figures: runs `leaftl-bench --quick all` with both binaries, each in
# an output directory of its own, and prints `equal` or `differs` for
# every `results/*.json` either run wrote, compared as parsed JSON.
# `table3` is left out: it times the host. The figures are the only
# check that sees the `LookupPaths` counters.
#
# Exits 1 if anything differs. A change meant to leave simulated
# behaviour alone passes it against its parent. It only drives the
# binaries and edits nothing under `benchmark/`. Not run by CI: a
# shallow checkout has no parent commit.
set -euo pipefail

rev=${1:?usage: ci/digest_check.sh <rev>}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

mkdir "$scratch/rev"
git -C "$root" archive "$rev" | tar -x -C "$scratch/rev"
build() {
    cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
    cargo build --release --quiet --manifest-path "$1/Cargo.toml" -p leaftl-bench --target-dir "$2"
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
for side in rev tree; do
    mkdir "$scratch/figures-$side"
done
(cd "$scratch/figures-rev" && "$scratch/target-rev/release/leaftl-bench" --quick all > /dev/null) || true
(cd "$scratch/figures-tree" && "$root/target/digest-check/release/leaftl-bench" --quick all > /dev/null) || true
python3 - "$scratch/figures-rev/results" "$scratch/figures-tree/results" <<'PY' || status=1
import json, pathlib, sys
old, new = (pathlib.Path(arg) for arg in sys.argv[1:])
names = sorted({p.name for p in old.glob("*.json")} | {p.name for p in new.glob("*.json")})
differs = False
for name in names:
    if name == "table3.json":
        continue
    files = (old / name, new / name)
    if not all(file.exists() for file in files):
        verdict = "missing"
    else:
        before, after = (json.loads(file.read_text()) for file in files)
        verdict = "equal" if before == after else "differs"
    differs |= verdict != "equal"
    print(f"results/{name} {verdict}")
if not names:
    print("no results/*.json written")
sys.exit(1 if differs or not names else 0)
PY
exit "$status"
