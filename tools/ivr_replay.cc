// ivr_replay — replay recorded interaction logs against a (possibly
// adaptive) backend and write the results each session's final query
// would have received, as a TREC run file. The Vallet et al. [21]
// evaluate-new-systems-on-old-behaviour methodology as a command.
//
//   ivr_replay --collection c.ivr --log sessions.tsv --run out.txt
//              [--backend static|adaptive] [--k 1000]
//              [--cache-mb N] [--cache-shards S]
//              [--fault-spec SPEC] [--fault-seed N]
//              [--stats-json PATH] [--trace PATH]
//
// --cache-mb attaches a base-ranking cache to the engine; the replayed
// run file is bit-identical with or without it.
//
// --stats-json writes the process metrics snapshot (schema-versioned
// JSON) at exit; --trace enables span recording and writes a JSONL trace.
//
// Collection and log loads retry transient IO errors and verify the
// checksummed envelope; the run file is written atomically; a degraded
// serving stack is reported on stderr via its HealthReport.

#include <cstdio>
#include <optional>

#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/retry.h"
#include "ivr/eval/trec_run.h"
#include "ivr/obs/report.h"
#include "ivr/retrieval/fusion.h"
#include "ivr/service/managed_backend.h"
#include "ivr/service/serving_stack.h"
#include "ivr/sim/replayer.h"

namespace ivr {
namespace {

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"collection", "log", "run", "backend", "k", "cache-mb",
       "cache-shards", "fault-spec", "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const std::string collection_path = args->GetString("collection");
  const std::string log_path = args->GetString("log");
  const std::string run_path = args->GetString("run");
  if (collection_path.empty() || log_path.empty() || run_path.empty()) {
    std::fprintf(stderr,
                 "usage: ivr_replay --collection FILE --log FILE "
                 "--run FILE [--backend static|adaptive] [--k N] "
                 "[--cache-mb N] [--cache-shards S] "
                 "[--fault-spec SPEC] [--fault-seed N] "
                 "[--stats-json PATH] [--trace PATH]\n");
    return 2;
  }
  Result<std::shared_ptr<ResultCache>> cache = ResultCacheFromArgs(*args);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 2;
  }
  Result<GeneratedCollection> loaded =
      ServingStack::OpenCollection(collection_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Result<SessionLog> log = RetryOnIOError(
      [&log_path] { return SessionLog::Load(log_path); });
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    return 1;
  }
  IngestOptions options;
  options.cache = *cache;
  Result<std::unique_ptr<ServingStack>> stack =
      ServingStack::Open(std::move(loaded).value(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }
  StaticBackend static_backend((*stack)->engine());
  std::optional<ManagedSessionBackend> managed;
  if (args->GetString("backend", "adaptive") != "static") {
    managed.emplace(&(*stack)->manager(), "replay", "replay");
  }
  SearchBackend* backend = managed.has_value()
                               ? static_cast<SearchBackend*>(&*managed)
                               : &static_backend;
  const std::string backend_name = managed.has_value()
                                       ? (*stack)->adaptive().name()
                                       : static_backend.name();
  const size_t k =
      static_cast<size_t>(args->GetInt("k", 1000).value_or(1000));

  const LogReplayer replayer(k);
  Result<std::vector<ReplayedSession>> replays =
      replayer.ReplayAll(*log, backend);
  if (!replays.ok()) {
    std::fprintf(stderr, "%s\n", replays.status().ToString().c_str());
    return 1;
  }

  // One run per topic: fuse the final-query results of every session on
  // that topic (CombSUM), so multiple recorded users pool their evidence.
  std::map<SearchTopicId, std::vector<ResultList>> per_topic;
  size_t replayed_queries = 0;
  for (const ReplayedSession& session : *replays) {
    if (session.per_query_results.empty()) continue;
    replayed_queries += session.per_query_results.size();
    per_topic[session.topic].push_back(session.per_query_results.back());
  }
  std::map<SearchTopicId, ResultList> runs;
  for (auto& [topic, lists] : per_topic) {
    ResultList fused = lists.size() == 1 ? lists.front() : CombSum(lists);
    fused.Truncate(k);
    runs[topic] = std::move(fused);
  }

  const Status saved = WriteFileAtomic(
      run_path, RunsToTrecFormat(runs, "replay-" + backend_name));
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("replayed %zu sessions (%zu queries) against %s; "
              "wrote %s (%zu topics)\n",
              replays->size(), replayed_queries, backend_name.c_str(),
              run_path.c_str(), runs.size());
  managed.reset();  // ends the last replayed session
  return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
