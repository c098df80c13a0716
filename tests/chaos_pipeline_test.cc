// Chaos acceptance test: the full generate -> save -> load -> index ->
// simulate -> persist-log -> reload-log -> evaluate pipeline, run
// in-process with faults injected at EVERY site at p=0.05. The pipeline
// must complete (degrading, retrying, or salvaging as designed), never
// crash, and account for the damage in its HealthReport. Single-threaded
// throughout, so the run — including which calls fault — is reproducible
// bit for bit and asserted below by running it twice.

#include <string>

#include <gtest/gtest.h>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/core/retry.h"
#include "ivr/eval/experiment.h"
#include "ivr/eval/trec_run.h"
#include "ivr/iface/session_log.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/serialization.h"

namespace ivr {
namespace {

/// Retry policy for the chaos run: no real sleeping, and enough attempts
/// that a p=0.05 per-call fault cannot realistically exhaust them.
RetryOptions ChaosRetries() {
  RetryOptions options;
  options.max_attempts = 20;
  options.sleep_ms = [](int64_t) {};
  return options;
}

struct PipelineOutcome {
  std::string run_text;
  double map = 0.0;
  size_t sessions = 0;
  size_t log_events = 0;
  uint64_t faults_injected = 0;
  uint64_t checks = 0;
  HealthReport health;
};

PipelineOutcome RunChaosPipeline(uint64_t fault_seed) {
  ScopedFaultInjection chaos("all:0.05", fault_seed);
  EXPECT_TRUE(chaos.status().ok());

  // Generate and persist the collection (atomic write under fault fire).
  GeneratorOptions gen_options;
  gen_options.seed = 33;
  gen_options.num_topics = 4;
  gen_options.num_videos = 6;
  const GeneratedCollection generated =
      GenerateCollection(gen_options).value();
  const std::string path =
      ::testing::TempDir() + "/ivr_chaos_" + std::to_string(fault_seed) +
      ".ivr";
  const Status saved = RetryOnIOError(
      [&] { return SaveCollection(generated, path); }, ChaosRetries());
  EXPECT_TRUE(saved.ok()) << saved.ToString();

  // Load it back through the robust loader (retry + salvage path).
  const GeneratedCollection g =
      RetryOnIOError([&] { return LoadCollectionRobust(path); },
                     ChaosRetries())
          .value();

  // Index. A concept.build fault degrades to text-only, never fails.
  auto engine = RetrievalEngine::Build(g.collection).value();

  // Simulate sessions through the full Search path (the static backend
  // drives every engine.* fault site); per-query faults degrade results,
  // never abort the session.
  SessionSimulator simulator(g.collection, g.qrels);
  const UserModel users[] = {NoviceUser(), ExpertUser()};
  StaticBackend backend(*engine);
  std::vector<SessionSimulator::SweepJob> jobs;
  for (const SearchTopic& topic : g.topics.topics) {
    for (const UserModel& user : users) {
      for (uint64_t s = 0; s < 3; ++s) {
        SessionSimulator::SweepJob job;
        job.topic = &topic;
        job.user = &user;
        job.config.seed = 100 + topic.id * 10 + s;
        job.config.session_id = "chaos-t" + std::to_string(topic.id) +
                                "-" + user.name + "-s" + std::to_string(s);
        job.config.user_id = user.name;
        jobs.push_back(job);
      }
    }
  }
  SessionLog log;
  const auto sweep = simulator.RunSweep(
      jobs, [&backend](size_t) -> SearchBackend* { return &backend; },
      /*threads=*/1, &log);
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();

  // Persist and reload the log (checksummed envelope both ways).
  const std::string log_path = path + ".log";
  const Status log_saved = RetryOnIOError(
      [&] { return log.Save(log_path); }, ChaosRetries());
  EXPECT_TRUE(log_saved.ok()) << log_saved.ToString();
  const SessionLog reloaded =
      RetryOnIOError([&] { return SessionLog::Load(log_path); },
                     ChaosRetries())
          .value();
  EXPECT_EQ(reloaded.size(), log.size());

  // One managed adaptive session on top, so the personalisation fault
  // sites (adaptive.feedback / adaptive.profile) are under chaos as well.
  const AdaptiveEngine policy(*engine, AdaptiveOptions(), nullptr);
  SessionManager manager(policy, SessionManagerOptions());
  ManagedSessionBackend adaptive(&manager, "chaos-adaptive", users[0].name);
  adaptive.BeginSession();
  Query adaptive_query;
  adaptive_query.text = g.topics.topics[0].title;
  const ResultList first = adaptive.Search(adaptive_query, 20);
  if (!first.empty()) {
    InteractionEvent click;
    click.session_id = "chaos-adaptive";
    click.user_id = users[0].name;
    click.type = EventType::kClickKeyframe;
    click.shot = first.at(0).shot;
    adaptive.ObserveEvent(click);
  }
  adaptive.Search(adaptive_query, 20);

  // Evaluate a batch run of the (possibly degraded) engine.
  SystemRun run;
  run.system = "chaos";
  for (const SearchTopic& topic : g.topics.topics) {
    Query query;
    query.text = topic.title;
    run.runs[topic.id] = engine->Search(query, 100);
  }
  const SystemEvaluation eval =
      EvaluateSystem(run, g.qrels, g.qrels.Topics(), 1, /*threads=*/1);

  PipelineOutcome outcome;
  outcome.run_text = RunsToTrecFormat(run.runs, "chaos");
  outcome.map = eval.mean.ap;
  outcome.sessions = sweep->size();
  outcome.log_events = reloaded.size();
  outcome.faults_injected = FaultInjector::Global().num_injected();
  outcome.checks = FaultInjector::Global().num_checks();
  outcome.health = engine->Health();
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_TRUE(RemoveFile(log_path).ok());
  return outcome;
}

TEST(ChaosPipelineTest, FullPipelineSurvivesFaultsEverywhere) {
  const PipelineOutcome outcome = RunChaosPipeline(2026);
  EXPECT_EQ(outcome.sessions, 24u);
  EXPECT_GT(outcome.log_events, 0u);
  // Chaos actually happened: sites were checked and some fired. (The run
  // is deterministic in the fault seed, so these are stable, not flaky.)
  EXPECT_GT(outcome.checks, 40u);
  EXPECT_GT(outcome.faults_injected, 0u);
  // The engine accounted for the injected damage.
  EXPECT_EQ(outcome.health.faults_injected, outcome.faults_injected);
  // Results still came back for every topic despite the faults.
  EXPECT_FALSE(outcome.run_text.empty());
  EXPECT_GT(outcome.map, 0.0);
}

TEST(ChaosPipelineTest, ChaosRunsAreReproducible) {
  const PipelineOutcome a = RunChaosPipeline(7);
  const PipelineOutcome b = RunChaosPipeline(7);
  EXPECT_EQ(a.run_text, b.run_text);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.log_events, b.log_events);
  EXPECT_EQ(a.map, b.map);
}

TEST(ChaosPipelineTest, HealthReportSurfacesDegradation) {
  // Force every per-query modality fault: all searches degrade to empty
  // results, but Search never throws and Health tells the story.
  GeneratorOptions gen_options;
  gen_options.seed = 5;
  gen_options.num_topics = 3;
  gen_options.num_videos = 4;
  const GeneratedCollection g = GenerateCollection(gen_options).value();
  auto engine = RetrievalEngine::Build(g.collection).value();

  ScopedFaultInjection chaos("engine.text:1,engine.visual:1,engine.concept:1",
                             1);
  ASSERT_TRUE(chaos.status().ok());
  Query query;
  query.text = g.topics.topics[0].title;
  SearchDiagnostics diagnostics;
  const ResultList results = engine->Search(query, 10, &diagnostics);
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(diagnostics.text_faulted);
  EXPECT_TRUE(diagnostics.any_degradation());

  const HealthReport health = engine->Health();
  EXPECT_TRUE(health.degraded());
  EXPECT_EQ(health.degraded_queries, 1u);
  EXPECT_EQ(health.text_faults, 1u);
  EXPECT_NE(health.ToString().find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace ivr
