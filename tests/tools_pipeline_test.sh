#!/bin/sh
# End-to-end smoke test of the CLI tools: generate -> search -> evaluate
# -> simulate -> replay -> evaluate-the-replay, with the observability
# flags (--stats-json / --trace) threaded through the pipeline. Run by
# CTest with the build directory as the first argument.
set -e

BUILD_DIR="$1"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

TOOLS="$BUILD_DIR/tools"

# Validates a --stats-json output: parses as JSON (when python3 exists)
# and carries the v1 schema marker plus all four sections.
check_stats() {
  test -s "$1"
  grep -q '"schema_version": 1' "$1"
  grep -q '"counters"' "$1"
  grep -q '"gauges"' "$1"
  grep -q '"histograms"' "$1"
  grep -q '"faults"' "$1"
  if command -v python3 > /dev/null 2>&1; then
    python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$1"
  fi
}

# Validates a --trace output: a schema-versioned JSONL header whose every
# line parses as JSON (when python3 exists).
check_trace() {
  test -s "$1"
  head -1 "$1" | grep -q '"schema_version": 1'
  head -1 "$1" | grep -q '"type": "ivr.trace"'
  if command -v python3 > /dev/null 2>&1; then
    python3 -c "
import json, sys
for line in open(sys.argv[1]):
    json.loads(line)
" "$1"
  fi
}

# Extracts an integer metric value from a stats JSON file.
stat_value() {
  sed -n 's/^.*"'"$2"'": \([0-9-][0-9]*\).*$/\1/p' "$1" | head -1
}

"$TOOLS/ivr_generate" --out "$WORK_DIR/c.ivr" --videos 10 --topics 6 \
    --seed 5 --qrels "$WORK_DIR/qrels.txt" \
    --stats-json "$WORK_DIR/stats_gen.json" > "$WORK_DIR/gen.log"
grep -q "wrote" "$WORK_DIR/gen.log"
test -s "$WORK_DIR/c.ivr"
test -s "$WORK_DIR/qrels.txt"
check_stats "$WORK_DIR/stats_gen.json"

"$TOOLS/ivr_search" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_bm25.txt" \
    --stats-json "$WORK_DIR/stats_search.json" \
    --trace "$WORK_DIR/trace_search.jsonl" > /dev/null
test -s "$WORK_DIR/run_bm25.txt"
check_stats "$WORK_DIR/stats_search.json"
check_trace "$WORK_DIR/trace_search.jsonl"
# The batch run answered one query per topic; the engine counter agrees.
test "$(stat_value "$WORK_DIR/stats_search.json" engine.queries)" -eq 6

"$TOOLS/ivr_search" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_tfidf.txt" --scorer tfidf > /dev/null

# Evaluation against the embedded qrels and the exported qrels must agree.
# (--stats-json goes to a side file; stdout stays comparable.)
"$TOOLS/ivr_eval" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_bm25.txt" \
    --stats-json "$WORK_DIR/stats_eval.json" \
    2> "$WORK_DIR/eval_stderr.txt" > "$WORK_DIR/eval_embedded.txt"
check_stats "$WORK_DIR/stats_eval.json"
grep -q "observability summary" "$WORK_DIR/eval_stderr.txt"
"$TOOLS/ivr_eval" --qrels "$WORK_DIR/qrels.txt" \
    --run "$WORK_DIR/run_bm25.txt" > "$WORK_DIR/eval_exported.txt"
cmp "$WORK_DIR/eval_embedded.txt" "$WORK_DIR/eval_exported.txt"
grep -q "mean" "$WORK_DIR/eval_embedded.txt"

# Comparison mode prints significance tests.
"$TOOLS/ivr_eval" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_bm25.txt" --run2 "$WORK_DIR/run_tfidf.txt" \
    | grep -q "paired t-test"

# Simulate users, replay their logs adaptively, and evaluate the result.
"$TOOLS/ivr_simulate" --collection "$WORK_DIR/c.ivr" \
    --log "$WORK_DIR/logs.tsv" --sessions-per-topic 1 \
    --stats-json "$WORK_DIR/stats_sim.json" \
    --trace "$WORK_DIR/trace_sim.jsonl" > /dev/null
test -s "$WORK_DIR/logs.tsv"
check_stats "$WORK_DIR/stats_sim.json"
check_trace "$WORK_DIR/trace_sim.jsonl"

"$TOOLS/ivr_replay" --collection "$WORK_DIR/c.ivr" \
    --log "$WORK_DIR/logs.tsv" --run "$WORK_DIR/run_replay.txt" \
    --stats-json "$WORK_DIR/stats_replay.json" > /dev/null
test -s "$WORK_DIR/run_replay.txt"
check_stats "$WORK_DIR/stats_replay.json"

"$TOOLS/ivr_eval" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_replay.txt" | grep -q "mean"

# The adaptive backend runs managed sessions over the serving stack's
# SessionManager, one per worker: its log must not depend on the thread
# count. (With a fault armed only a sequential run is comparable: fault
# decisions follow one process-wide order of checks per site.)
for T in 1 4; do
  "$TOOLS/ivr_simulate" --collection "$WORK_DIR/c.ivr" \
      --log "$WORK_DIR/logs_adaptive_$T.tsv" --backend adaptive \
      --sessions-per-topic 2 --threads "$T" > /dev/null 2>&1
done
cmp "$WORK_DIR/logs_adaptive_1.tsv" "$WORK_DIR/logs_adaptive_4.tsv"
for RUN in a b; do
  "$TOOLS/ivr_simulate" --collection "$WORK_DIR/c.ivr" \
      --log "$WORK_DIR/logs_adaptive_fault_$RUN.tsv" --backend adaptive \
      --sessions-per-topic 2 --fault-spec adaptive.feedback:0.3 \
      --fault-seed 3 --threads 1 \
      2> "$WORK_DIR/sim_adaptive_fault_$RUN.err" > /dev/null
  grep '^health:' "$WORK_DIR/sim_adaptive_fault_$RUN.err" \
      > "$WORK_DIR/health_adaptive_fault_$RUN.txt"
done
cmp "$WORK_DIR/logs_adaptive_fault_a.tsv" "$WORK_DIR/logs_adaptive_fault_b.tsv"
cmp "$WORK_DIR/health_adaptive_fault_a.txt" \
    "$WORK_DIR/health_adaptive_fault_b.txt"
grep -q 'feedback_skipped=' "$WORK_DIR/health_adaptive_fault_a.txt"
"$TOOLS/ivr_replay" --collection "$WORK_DIR/c.ivr" \
    --log "$WORK_DIR/logs_adaptive_1.tsv" \
    --run "$WORK_DIR/run_replay_adaptive.txt" --backend adaptive \
    | grep -q 'against adaptive+implicit(linear)'

# Determinism: regenerating with the same seed is byte-identical.
"$TOOLS/ivr_generate" --out "$WORK_DIR/c2.ivr" --videos 10 --topics 6 \
    --seed 5 > /dev/null
cmp "$WORK_DIR/c.ivr" "$WORK_DIR/c2.ivr"

# Service layer with observability: the serve_smoke workload's --check
# (concurrent run + sequential rerun, bit for bit) must end with every
# session closed — active gauge back to zero and no evictions (the --check
# contract forbids eviction pressure) — while the opened counter covers
# both the concurrent run and the sequential reference (8 sessions each).
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/serve_smoke.json" \
    --collection "$WORK_DIR/c.ivr" --check \
    --rankings "$WORK_DIR/workload_rankings.txt" \
    --report "$WORK_DIR/workload_report.json" \
    --stats-json "$WORK_DIR/stats_serve.json" \
    --trace "$WORK_DIR/trace_serve.jsonl" \
    2> "$WORK_DIR/serve_stderr.txt" > "$WORK_DIR/serve.log"
grep -q "bit-identical" "$WORK_DIR/serve.log"
test -s "$WORK_DIR/workload_rankings.txt"
check_stats "$WORK_DIR/stats_serve.json"
check_trace "$WORK_DIR/trace_serve.jsonl"
grep -q "observability summary" "$WORK_DIR/serve_stderr.txt"
test "$(stat_value "$WORK_DIR/stats_serve.json" service.sessions_active)" \
    -eq 0
test "$(stat_value "$WORK_DIR/stats_serve.json" service.sessions_evicted)" \
    -eq 0
test "$(stat_value "$WORK_DIR/stats_serve.json" service.sessions_opened)" \
    -eq 16
grep -q '"type": "ivr.workload"' "$WORK_DIR/workload_report.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" \
      "$WORK_DIR/workload_report.json"
fi

# Under capacity pressure the eviction counter must move. Four actors
# open their sessions up front (think time keeps all four alive at once on
# any core count), so with room for two the extra opens must evict.
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/serve_evict.json" \
    --collection "$WORK_DIR/c.ivr" \
    --stats-json "$WORK_DIR/stats_evict.json" > /dev/null 2>&1
check_stats "$WORK_DIR/stats_evict.json"
test "$(stat_value "$WORK_DIR/stats_evict.json" service.sessions_evicted)" \
    -gt 0

# Result cache: every retrieval tool accepts --cache-mb, and a cached run
# must be byte-identical to the uncached artefact written above, with the
# cache section of the stats JSON populated.
"$TOOLS/ivr_search" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_bm25_cached.txt" --cache-mb 16 \
    --stats-json "$WORK_DIR/stats_search_cached.json" > /dev/null
cmp "$WORK_DIR/run_bm25.txt" "$WORK_DIR/run_bm25_cached.txt"
check_stats "$WORK_DIR/stats_search_cached.json"
grep -q '"cache"' "$WORK_DIR/stats_search_cached.json"
test "$(stat_value "$WORK_DIR/stats_search_cached.json" cache.insertions)" \
    -gt 0

"$TOOLS/ivr_simulate" --collection "$WORK_DIR/c.ivr" \
    --log "$WORK_DIR/logs_cached.tsv" --sessions-per-topic 1 \
    --cache-mb 16 \
    --stats-json "$WORK_DIR/stats_sim_cached.json" > /dev/null
cmp "$WORK_DIR/logs.tsv" "$WORK_DIR/logs_cached.tsv"
check_stats "$WORK_DIR/stats_sim_cached.json"
test "$(stat_value "$WORK_DIR/stats_sim_cached.json" cache.insertions)" \
    -gt 0

"$TOOLS/ivr_replay" --collection "$WORK_DIR/c.ivr" \
    --log "$WORK_DIR/logs.tsv" --run "$WORK_DIR/run_replay_cached.txt" \
    --cache-mb 16 \
    --stats-json "$WORK_DIR/stats_replay_cached.json" > /dev/null
cmp "$WORK_DIR/run_replay.txt" "$WORK_DIR/run_replay_cached.txt"
check_stats "$WORK_DIR/stats_replay_cached.json"
test "$(stat_value "$WORK_DIR/stats_replay_cached.json" cache.insertions)" \
    -gt 0

# The service path shares cached base rankings across sessions: the
# --check contract (concurrent == sequential, bit for bit) must hold with
# a cache attached, and the repeated topics must actually hit it.
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/cache_warm.json" \
    --collection "$WORK_DIR/c.ivr" --check \
    --stats-json "$WORK_DIR/stats_serve_cached.json" \
    > "$WORK_DIR/serve_cached.log" 2> /dev/null
grep -q "bit-identical" "$WORK_DIR/serve_cached.log"
check_stats "$WORK_DIR/stats_serve_cached.json"
test "$(stat_value "$WORK_DIR/stats_serve_cached.json" cache.hits)" -gt 0

# ivr_eval builds no retrieval engine, so it has no cache flags: passing
# one is an unknown-flag usage error.
EVAL_CACHE_RC=0
"$TOOLS/ivr_eval" --collection "$WORK_DIR/c.ivr" \
    --run "$WORK_DIR/run_bm25.txt" --cache-mb 16 \
    > /dev/null 2>&1 || EVAL_CACHE_RC=$?
test "$EVAL_CACHE_RC" -eq 2

# Ad-hoc query mode prints ranked shots.
QUERY_WORD="$(sed -n 's/^.*\t\([a-z]*\) [a-z]*bo day.*$/\1/p' \
    "$WORK_DIR/c.ivr" | head -1)"
if [ -n "$QUERY_WORD" ]; then
  "$TOOLS/ivr_search" --collection "$WORK_DIR/c.ivr" \
      --query "$QUERY_WORD" --k 5 | grep -q "results for"
fi

# HTTP front-end: serve the collection on an ephemeral port, drive it with
# the concurrent client (querying real collection vocabulary), and check
# that the /statsz snapshot speaks the same v1 schema as --stats-json.
sed -n 's/^.*\t\([a-z]*\) [a-z]*bo day.*$/\1/p' "$WORK_DIR/c.ivr" \
    | head -5 > "$WORK_DIR/query_words.txt"
test -s "$WORK_DIR/query_words.txt"
"$TOOLS/ivr_httpd" --collection "$WORK_DIR/c.ivr" \
    --port-file "$WORK_DIR/port.txt" --threads 2 --cache-mb 16 \
    --stats-json "$WORK_DIR/stats_httpd.json" \
    > "$WORK_DIR/httpd.log" 2> "$WORK_DIR/httpd_stderr.txt" &
HTTPD_PID=$!
for _ in $(seq 1 100); do
  test -s "$WORK_DIR/port.txt" && break
  sleep 0.1
done
test -s "$WORK_DIR/port.txt"
HTTPD_PORT="$(cat "$WORK_DIR/port.txt")"

"$TOOLS/ivr_http_client" --port "$HTTPD_PORT" --sessions 4 --threads 2 \
    --queries 3 --query-file "$WORK_DIR/query_words.txt" \
    --out "$WORK_DIR/http_rankings.txt" \
    --statsz-out "$WORK_DIR/statsz.json" > "$WORK_DIR/client.log"
grep -q "drove 4 sessions" "$WORK_DIR/client.log"
grep -q "0 failures" "$WORK_DIR/client.log"
test -s "$WORK_DIR/http_rankings.txt"
# Real-vocabulary queries must actually rank shots over the wire.
grep -q ":" "$WORK_DIR/http_rankings.txt"
check_stats "$WORK_DIR/statsz.json"
grep -q '"http.requests"' "$WORK_DIR/statsz.json"

# Clean shutdown on SIGTERM: exit 0, final request accounting on stdout,
# and the --stats-json file written on the way out.
kill -TERM "$HTTPD_PID"
HTTPD_RC=0
wait "$HTTPD_PID" || HTTPD_RC=$?
test "$HTTPD_RC" -eq 0
grep -q "served" "$WORK_DIR/httpd.log"
check_stats "$WORK_DIR/stats_httpd.json"

# Streaming ingestion: build a generational index from a stream file,
# verify bit-identity against a direct build, compact it, and reload it.
"$TOOLS/ivr_generate" --out "$WORK_DIR/stream.ivr" --videos 6 --topics 6 \
    --seed 31 > /dev/null
"$TOOLS/ivr_ingest" --dir "$WORK_DIR/ingest" --base "$WORK_DIR/c.ivr" \
    --source "$WORK_DIR/stream.ivr" --publish-every 2 --check \
    --stats-json "$WORK_DIR/stats_ingest.json" > "$WORK_DIR/ingest.log"
grep -q "check ok" "$WORK_DIR/ingest.log"
check_stats "$WORK_DIR/stats_ingest.json"
test "$(stat_value "$WORK_DIR/stats_ingest.json" ingest.publish_failures)" \
    -eq 0
test "$(stat_value "$WORK_DIR/stats_ingest.json" ingest.generation)" -gt 0
"$TOOLS/ivr_ingest" --dir "$WORK_DIR/ingest" --list \
    | grep -q "generation"
# Compaction rewrites the manifest to one segment without changing what
# is served: --check passes again over the merged directory.
"$TOOLS/ivr_ingest" --dir "$WORK_DIR/ingest" --base "$WORK_DIR/c.ivr" \
    --merge --check > "$WORK_DIR/ingest_merged.log"
grep -q "check ok" "$WORK_DIR/ingest_merged.log"
test "$(ls "$WORK_DIR/ingest" | grep -c '\.seg$')" -eq 1

# Live ingestion into a serving httpd: clients query while the ingest
# thread appends and publishes generations; every request must succeed,
# and the SIGTERM drain must exit 0 with no abandoned requests.
"$TOOLS/ivr_httpd" --collection "$WORK_DIR/c.ivr" \
    --ingest-dir "$WORK_DIR/hingest" --ingest-stream "$WORK_DIR/stream.ivr" \
    --ingest-every 2 --ingest-delay-ms 30 --drain-timeout-ms 5000 \
    --port-file "$WORK_DIR/iport.txt" --threads 2 --cache-mb 16 \
    --stats-json "$WORK_DIR/stats_ihttpd.json" \
    > "$WORK_DIR/ihttpd.log" 2> "$WORK_DIR/ihttpd_stderr.txt" &
IHTTPD_PID=$!
for _ in $(seq 1 100); do
  test -s "$WORK_DIR/iport.txt" && break
  sleep 0.1
done
test -s "$WORK_DIR/iport.txt"
IHTTPD_PORT="$(cat "$WORK_DIR/iport.txt")"
"$TOOLS/ivr_http_client" --port "$IHTTPD_PORT" --sessions 4 --threads 2 \
    --queries 4 --query-file "$WORK_DIR/query_words.txt" \
    --statsz-out "$WORK_DIR/istatsz.json" > "$WORK_DIR/iclient.log"
grep -q "0 failures" "$WORK_DIR/iclient.log"
check_stats "$WORK_DIR/istatsz.json"
grep -q '"ingest.generation"' "$WORK_DIR/istatsz.json"
# Wait for the stream to finish publishing, then drain.
for _ in $(seq 1 200); do
  grep -q "ingest: done" "$WORK_DIR/ihttpd_stderr.txt" && break
  sleep 0.1
done
grep -q "ingest: done" "$WORK_DIR/ihttpd_stderr.txt"
kill -TERM "$IHTTPD_PID"
IHTTPD_RC=0
wait "$IHTTPD_PID" || IHTTPD_RC=$?
test "$IHTTPD_RC" -eq 0
check_stats "$WORK_DIR/stats_ihttpd.json"
test "$(stat_value "$WORK_DIR/stats_ihttpd.json" ingest.publish_failures)" \
    -eq 0
test "$(stat_value "$WORK_DIR/stats_ihttpd.json" ingest.generation)" -gt 0
test "$(stat_value "$WORK_DIR/stats_ihttpd.json" http.requests_abandoned)" \
    -eq 0
# The directory the live server grew replays to the same generation in a
# fresh process, bit-identical to a direct build over the same documents.
"$TOOLS/ivr_ingest" --dir "$WORK_DIR/hingest" --base "$WORK_DIR/c.ivr" \
    --check > "$WORK_DIR/ingest_reopen.log"
grep -q "check ok" "$WORK_DIR/ingest_reopen.log"

# E-S1 as data: closed phases at 1/2/4/8 actors, unpaced and paced;
# every session of the concurrent run must match the sequential rerun.
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/service_scaling.json" \
    --collection "$WORK_DIR/c.ivr" --check \
    > "$WORK_DIR/scaling.log" 2> /dev/null
test "$(grep -c "^phase " "$WORK_DIR/scaling.log")" -eq 8
grep -q "bit-identical" "$WORK_DIR/scaling.log"

# A malformed workload is rejected with a path-to-field diagnostic.
printf '{"name": "bad", "phases": []}' > "$WORK_DIR/bad_workload.json"
BAD_RC=0
"$TOOLS/ivr_workload" --workload "$WORK_DIR/bad_workload.json" \
    2> "$WORK_DIR/bad_workload_err.txt" > /dev/null || BAD_RC=$?
test "$BAD_RC" -ne 0
grep -q '\$\.phases' "$WORK_DIR/bad_workload_err.txt"

# The perf canary: clean build passes the committed bounds; an injected
# per-operation slowdown must trip them (non-zero exit + a violation that
# names the phase and the bound).
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/canary.json" \
    --bounds "$SRC_DIR/workloads/canary_bounds.json" \
    --report "$WORK_DIR/canary_report.json" \
    > "$WORK_DIR/canary.log" 2> /dev/null
grep -q "bounds: all phases within" "$WORK_DIR/canary.log"
CANARY_RC=0
IVR_WORKLOAD_CANARY_DELAY_US=300000 "$TOOLS/ivr_workload" \
    --workload "$SRC_DIR/workloads/canary.json" \
    --bounds "$SRC_DIR/workloads/canary_bounds.json" \
    > /dev/null 2> "$WORK_DIR/canary_trip.txt" || CANARY_RC=$?
test "$CANARY_RC" -ne 0
grep -q 'bounds VIOLATION: phase "open_micro"' "$WORK_DIR/canary_trip.txt"
grep -q "max_p99_us" "$WORK_DIR/canary_trip.txt"

# Mixed read/write soak: open-loop readers against the live engine while
# the ingest writer appends and publishes inside the phase — including a
# publish_rate-paced drain phase — checked against the committed
# publish-latency bounds (incremental publish must stay fast under load).
"$TOOLS/ivr_workload" \
    --workload "$SRC_DIR/workloads/mixed_ingest_soak.json" \
    --bounds "$SRC_DIR/workloads/mixed_ingest_soak_bounds.json" \
    --collection "$WORK_DIR/c.ivr" --ingest-dir "$WORK_DIR/wl_ingest" \
    > "$WORK_DIR/soak.log" 2> /dev/null
grep -q "appends [1-9]" "$WORK_DIR/soak.log"
grep -q "publishes [1-9]" "$WORK_DIR/soak.log"
grep -q "bounds: all phases within" "$WORK_DIR/soak.log"

# The http target drives the same phases through ivr_httpd's v1 API with
# the --port override supplying the ephemeral port.
"$TOOLS/ivr_httpd" --collection "$WORK_DIR/c.ivr" \
    --port-file "$WORK_DIR/wport.txt" --threads 2 --cache-mb 16 \
    > "$WORK_DIR/whttpd.log" 2> /dev/null &
WHTTPD_PID=$!
for _ in $(seq 1 100); do
  test -s "$WORK_DIR/wport.txt" && break
  sleep 0.1
done
test -s "$WORK_DIR/wport.txt"
WHTTPD_PORT="$(cat "$WORK_DIR/wport.txt")"
"$TOOLS/ivr_workload" --workload "$SRC_DIR/workloads/http_smoke.json" \
    --collection "$WORK_DIR/c.ivr" --port "$WHTTPD_PORT" \
    > "$WORK_DIR/http_workload.log" 2> /dev/null
test "$(grep -c "^phase " "$WORK_DIR/http_workload.log")" -eq 2
if grep -q "failures [1-9]" "$WORK_DIR/http_workload.log"; then
  echo "http workload had failures:" >&2
  cat "$WORK_DIR/http_workload.log" >&2
  exit 1
fi
kill -TERM "$WHTTPD_PID"
wait "$WHTTPD_PID" || true

echo "tools pipeline OK"
