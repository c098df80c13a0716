#!/usr/bin/env bash
# Paired, alternating benchmark runs of a parent revision against this
# checkout, for reporting a performance change with its noise.
#
#   bench/pair_runs.sh <parent-rev> <workload> [pairs=10]
#
# Run from the repository root. The parent revision is exported with
# `git archive` into .bench_build/pair-<sha>/ (no worktree metadata is
# left in .git). Pair i (1-based) runs bench/ivr_bench/run.py once in each
# tree with --seed i and BENCHMARK.json's run_seconds: the parent first on
# odd pairs, the change first on even pairs, so drift on the host hits
# both sides alike.
#
# For every BENCHMARK.json end-to-end metric the summary prints each
# side's median and quartiles (statistics.quantiles, n=4), how many pairs
# the change won, and whether a claimed gain would hold: at least 10
# pairs ran, the change wins at least 9 in 10 of them (a pair where either
# side has no value counts as a loss), its median beats the parent's by more than the
# parent's interquartile range, every change run passed its correctness
# gate, and the change's share of failed ops is no larger than the
# parent's. Failed ops, runs failing their correctness gate and crashed
# runs (no result line) are listed per side. Raw results land in
# .bench_build/pairs-<workload>-<timestamp>.jsonl.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-rev> <workload> [pairs=10]" >&2
  exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_tree=.bench_build/pair-$sha
if [[ ! -f $parent_tree/BENCHMARK.json ]]; then
  mkdir -p "$parent_tree"
  git archive "$sha" | tar -x -C "$parent_tree"
fi
log=.bench_build/pairs-$workload-$(date +%Y%m%d-%H%M%S).jsonl
mkdir -p "$(dirname "$log")"

# Runs one side of a pair and appends its result line, tagged with the
# side and pair, to the log. A run that prints no result line is logged
# as crashed: failed ops unknown (null) and no metrics.
run_side() {
  local side=$1 tree=$2 pair=$3 line
  line=$( (cd "$tree" && python3 bench/ivr_bench/run.py --workload "$workload" \
    --seed "$pair" --seconds "$seconds" --trace 0 2>/dev/null) | tail -n 1) || true
  python3 - "$side" "$pair" "$line" >>"$log" <<'EOF'
import json, sys
side, pair, line = sys.argv[1], int(sys.argv[2]), sys.argv[3]
try:
    result = json.loads(line)
except ValueError:
    result = {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
result.update(side=side, pair=pair)
print(json.dumps(result))
EOF
  echo "pair $pair: $side done" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2 == 1)); then
    run_side parent "$parent_tree" "$pair"
    run_side change . "$pair"
  else
    run_side change . "$pair"
    run_side parent "$parent_tree" "$pair"
  fi
done

python3 - "$log" "$workload" "$sha" <<'EOF'
import json, statistics, sys
log, workload, sha = sys.argv[1:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {"parent": {}, "change": {}}
for line in open(log):
    result = json.loads(line)
    runs[result["side"]][result["pair"]] = result
pairs = sorted(set(runs["parent"]) | set(runs["change"]))

def value(side, pair, name):
    return runs[side].get(pair, {}).get("metrics", {}).get(name, {}).get("value")

def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)

def summary(values):
    if not values:
        return "no values"
    q = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (statistics.median(values), q[0], q[2])

def failed_share(side):
    results = runs[side].values()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] or 0 for r in results)
    return failed / attempted if attempted else 0.0

change_clean = (len(pairs) >= 10 and len(runs["change"]) == len(pairs) and
                all(r["correct"] for r in runs["change"].values()) and
                failed_share("change") <= failed_share("parent"))
print("workload %s: change vs parent %s, %d pairs" % (workload, sha[:12], len(pairs)))
print("%-14s %-6s %-28s %-28s %-6s %s" % ("metric", "unit", "parent median [q1, q3]",
                                         "change median [q1, q3]", "wins", "gain holds"))
for name, entry in spec.items():
    lower = entry["better"] == "lower"
    parent = [v for v in (value("parent", p, name) for p in pairs) if v is not None]
    change = [v for v in (value("change", p, name) for p in pairs) if v is not None]
    # A pair where either side has no value counts as a loss.
    wins = 0
    for p in pairs:
        a, b = value("parent", p, name), value("change", p, name)
        if a is not None and b is not None and ((b < a) if lower else (b > a)):
            wins += 1
    holds = False
    if parent and change:
        pq = quartiles(parent)
        pm, cm = statistics.median(parent), statistics.median(change)
        gap = (pm - cm) if lower else (cm - pm)
        holds = change_clean and wins * 10 >= 9 * len(pairs) and gap > pq[2] - pq[0]
    print("%-14s %-6s %-28s %-28s %-6s %s" %
          (name, entry["unit"], summary(parent), summary(change),
           "%d/%d" % (wins, len(pairs)), "yes" if holds else "no"))
for side in ("parent", "change"):
    results = [runs[side][p] for p in sorted(runs[side])]
    print("%s: failed ops %s (share %.4g); runs failing the correctness gate: %d of %d;"
          " crashed pairs: %s" %
          (side, [r["failed"] for r in results], failed_share(side),
           sum(not r["correct"] for r in results), len(results),
           [r["pair"] for r in results if r["failed"] is None] or "none"))
print("raw results: " + log)
EOF
