#!/usr/bin/env bash
# Repeatability study: runs every workload RUNS times on each seed and
# prints, per end-to-end metric, the median, the interquartile range as a
# share of the median (statistics.quantiles, n=4) and max/min. The
# BENCHMARK.json bounds come from this table. Every metric the binary
# prints without a layer prefix is listed, including those BENCHMARK.json
# leaves out, such as search_p99_us.
#
#   bench/ivr_bench/repeat.sh [RUNS] [SEEDS] [WORKLOADS] [TRACE]
#
# Defaults: 5 runs on seeds "1 2" of all four workloads, untraced. Run from
# the repository root; the full result of every run lands in
# .bench_build/ivr_bench/repeat-<timestamp>.jsonl.
set -euo pipefail

runs=${1:-5}
seeds=${2:-"1 2"}
workloads=${3:-"session_mix text_open http_serve ingest_live"}
trace=${4:-0}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
log=.bench_build/ivr_bench/repeat-$(date +%Y%m%d-%H%M%S).jsonl
mkdir -p "$(dirname "$log")"

for workload in $workloads; do
  for seed in $seeds; do
    for ((i = 0; i < runs; i++)); do
      python3 bench/ivr_bench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" >/dev/null 2>&1 || true
      result=.bench_build/ivr_bench/results/$workload-s$seed-t$trace.json
      python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))))' \
        "$result" >>"$log"
    done
  done
done

python3 - "$log" <<'EOF'
import collections, json, statistics, sys
values = collections.defaultdict(list)
incorrect = 0
for line in open(sys.argv[1]):
    result = json.loads(line)
    incorrect += not result["correct"]
    for name, metric in result["metrics"].items():
        if "." not in name:
            values[(result["workload"], name, metric["unit"])].append(
                metric["value"])
print("%-12s %-32s %14s %9s %8s %4s" %
      ("workload", "metric", "median", "iqr/med", "max/min", "n"))
for (workload, name, unit), v in values.items():
    med = statistics.median(v)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    iqr = (q[2] - q[0]) / med if med else 0.0
    spread = max(v) / min(v) if min(v) > 0 else float("nan")
    print("%-12s %-32s %14.6g %9.4f %8.4f %4d" %
          (workload, name + " (" + unit + ")", med, iqr, spread, len(v)))
print("incorrect runs: %d; raw results: %s" % (incorrect, sys.argv[1]))
EOF
