// ivr_simulate — run simulated user sessions against a saved collection
// and write the interaction logs (the input to every feedback analysis).
//
//   ivr_simulate --collection c.ivr --log sessions.tsv
//                [--env desktop|tv] [--user novice|expert|couch]
//                [--sessions-per-topic 2] [--seed 1]
//                [--backend static|adaptive] [--profiles store.ivrp]
//                [--threads N] [--cache-mb N] [--cache-shards S]
//                [--fault-spec SPEC] [--fault-seed N]
//                [--stats-json PATH] [--trace PATH]
//
// --cache-mb attaches a shared base-ranking cache to the engine every
// worker searches through, so sessions that issue the same base query
// share one computation; adaptive re-ranking still runs per session and
// the log stays bit-identical to an uncached run.
//
// --stats-json writes the process metrics snapshot (schema-versioned
// JSON) at exit; --trace enables span recording and writes a JSONL trace.
//
// Sessions fan out over --threads workers (default: hardware
// concurrency). The adaptive backend runs every session through the
// serving stack's SessionManager, one managed session per worker, so
// sessions never interleave feedback across workers. The log and summary
// are identical for every thread count.
//
// --profiles points the adaptive backend at a persisted ProfileStore; if
// the store fails to load the tool degrades to non-personalised sessions
// (reported via the HealthReport on stderr) instead of failing. The log
// is written atomically inside a checksummed envelope.

#include <cstdio>
#include <memory>
#include <vector>

#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/retry.h"
#include "ivr/core/string_util.h"
#include "ivr/core/thread_pool.h"
#include "ivr/obs/report.h"
#include "ivr/profile/profile_store.h"
#include "ivr/service/managed_backend.h"
#include "ivr/service/serving_stack.h"
#include "ivr/sim/simulator.h"

namespace ivr {
namespace {

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"collection", "log", "env", "user", "backend", "profiles",
       "sessions-per-topic", "seed", "threads", "cache-mb", "cache-shards",
       "fault-spec", "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const std::string collection_path = args->GetString("collection");
  const std::string log_path = args->GetString("log");
  if (collection_path.empty() || log_path.empty()) {
    std::fprintf(stderr,
                 "usage: ivr_simulate --collection FILE --log FILE "
                 "[--env desktop|tv] [--user novice|expert|couch] "
                 "[--sessions-per-topic N] [--seed N] "
                 "[--backend static|adaptive] [--profiles FILE] "
                 "[--threads N] [--cache-mb N] [--cache-shards S] "
                 "[--fault-spec SPEC] [--fault-seed N] "
                 "[--stats-json PATH] [--trace PATH]\n");
    return 2;
  }
  const std::string env_name = args->GetString("env", "desktop");
  Environment env;
  if (env_name == "desktop") {
    env = Environment::kDesktop;
  } else if (env_name == "tv") {
    env = Environment::kTv;
  } else {
    std::fprintf(stderr, "unknown --env %s\n", env_name.c_str());
    return 2;
  }

  const std::string user_name = args->GetString("user", "novice");
  UserModel user;
  if (user_name == "novice") {
    user = NoviceUser();
  } else if (user_name == "expert") {
    user = ExpertUser();
  } else if (user_name == "couch") {
    user = CouchViewerUser();
  } else {
    std::fprintf(stderr, "unknown --user %s\n", user_name.c_str());
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
  // Optional persisted profiles for the adaptive backend. An unreadable
  // store degrades to non-personalised sessions instead of failing: the
  // paper's accumulated-profile state must never block retrieval itself.
  IngestOptions options;
  options.cache = *cache;
  bool profiles_degraded = false;
  const std::string profiles_path = args->GetString("profiles");
  if (!profiles_path.empty()) {
    Result<ProfileStore> store = RetryOnIOError(
        [&profiles_path] { return ProfileStore::Load(profiles_path); });
    if (store.ok()) {
      options.profile =
          std::make_shared<const UserProfile>(*store->GetOrCreate(user.name));
      options.adaptive.use_profile = true;
    } else {
      std::fprintf(stderr,
                   "profile store unavailable (%s); continuing "
                   "non-personalised\n",
                   store.status().ToString().c_str());
      profiles_degraded = true;
    }
  }
  Result<std::unique_ptr<ServingStack>> stack =
      ServingStack::Open(std::move(loaded).value(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }
  const GeneratedCollection& g = (*stack)->collection();
  const bool adaptive = args->GetString("backend", "static") == "adaptive";

  const int64_t threads_arg =
      args->GetInt("threads",
                   static_cast<int64_t>(ThreadPool::DefaultThreadCount()))
          .value_or(1);
  const size_t threads =
      threads_arg < 1 ? size_t{1} : static_cast<size_t>(threads_arg);

  const size_t per_topic = static_cast<size_t>(
      args->GetInt("sessions-per-topic", 2).value_or(2));
  const uint64_t seed_base = static_cast<uint64_t>(
      args->GetInt("seed", 1).value_or(1));

  SessionSimulator simulator(g.collection, g.qrels);
  std::vector<SessionSimulator::SweepJob> jobs;
  for (const SearchTopic& topic : g.topics.topics) {
    for (size_t s = 0; s < per_topic; ++s) {
      SessionSimulator::SweepJob job;
      job.topic = &topic;
      job.user = &user;
      job.config.environment = env;
      job.config.seed = seed_base + topic.id * 1000 + s;
      job.config.session_id = StrFormat("%s-t%u-s%zu", env_name.c_str(),
                                        topic.id, s);
      job.config.user_id = user.name;
      jobs.push_back(std::move(job));
    }
  }

  // StaticBackend is stateless over the shared engine; each worker drives
  // its own managed session, so a worker's sessions never see another
  // worker's feedback state.
  StaticBackend static_backend((*stack)->engine());
  std::vector<std::unique_ptr<ManagedSessionBackend>> managed;
  for (size_t t = 0; adaptive && t < threads; ++t) {
    managed.push_back(std::make_unique<ManagedSessionBackend>(
        &(*stack)->manager(), StrFormat("worker-%zu", t), user.name));
  }
  const auto backend_for_worker = [&](size_t worker) -> SearchBackend* {
    if (adaptive) return managed[worker % threads].get();
    return &static_backend;
  };

  SessionLog log;
  Result<std::vector<SimulatedSession>> sweep =
      simulator.RunSweep(jobs, backend_for_worker, threads, &log);
  if (!sweep.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }
  const size_t sessions = sweep->size();
  size_t found = 0;
  for (const SimulatedSession& session : *sweep) {
    found += session.outcome.truly_relevant_found;
  }
  const Status saved = log.Save(log_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu sessions (%s, %s, %s backend, %zu threads), "
              "%zu events, %zu relevant shots found\n",
              log_path.c_str(), sessions, env_name.c_str(),
              user.name.c_str(), adaptive ? "adaptive" : "static", threads,
              log.size(), found);
  managed.clear();  // ends the last session of every worker
  HealthReport health = (*stack)->Health();
  if (profiles_degraded) health.profile_available = false;
  return obs::FinishToolWithObs(*args, 0, health);
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
