// Phase-barrier semantics and the determinism contract of the workload
// orchestrator: no actor enters phase N+1 before every actor has finished
// phase N, a (workload, seed) pair reproduces the same summary and
// bit-identical rankings across runs and against the sequential reference,
// and the closed-loop path serves exactly what an inline reference driver
// (one SessionManager, sessions back to back) serves. Also exercises the
// chaos-phase and ingest-writes paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/string_util.h"
#include "ivr/iface/session_log.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/managed_backend.h"
#include "ivr/service/session_manager.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"
#include "ivr/workload/orchestrator.h"
#include "ivr/workload/spec.h"

namespace ivr {
namespace workload {
namespace {

GeneratedCollection TestCollection() {
  GeneratorOptions options;
  options.seed = 77;
  options.num_videos = 10;
  options.num_topics = 5;
  return GenerateCollection(options).value();
}

WorkloadSpec MustParse(const std::string& json) {
  Result<WorkloadSpec> spec = ParseWorkload(json);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

Result<RunArtifacts> RunSpec(const WorkloadSpec& spec,
                             OrchestratorConfig config) {
  config.collection = TestCollection();
  Orchestrator orchestrator(spec, std::move(config));
  return orchestrator.Run();
}

const char* kTwoPhaseDoc = R"({
  "name": "two_phase", "seed": 5, "cache": {"mb": 4},
  "phases": [
    {"name": "warm", "mode": "closed", "actors": 3, "sessions": 6,
     "session_mix": [{"user": "novice", "weight": 2},
                     {"user": "expert", "weight": 1}]},
    {"name": "surge", "mode": "open", "actors": 3, "duration_ms": 150,
     "rate": 120, "k": 5},
    {"name": "cool", "mode": "closed", "actors": 2, "sessions": 4,
     "env": "tv"}
  ]
})";

TEST(WorkloadOrchestratorTest, BarrierKeepsPhasesDisjoint) {
  const WorkloadSpec spec = MustParse(kTwoPhaseDoc);

  // Record every observer callback in global order; the barrier contract
  // is that all (p, exit) events precede every (p+1, enter) event.
  std::mutex mu;
  std::vector<std::pair<size_t, bool>> events;  // (phase, entering)
  OrchestratorConfig config;
  config.phase_observer = [&](size_t phase, size_t actor, bool entering) {
    (void)actor;
    std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(phase, entering);
  };
  const Result<RunArtifacts> run = RunSpec(spec, std::move(config));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  size_t max_exit_of_prev = 0;
  for (size_t p = 1; p < spec.phases.size(); ++p) {
    size_t last_exit = 0;
    size_t first_enter = events.size();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].first == p - 1 && !events[i].second) last_exit = i;
      if (events[i].first == p && events[i].second) {
        first_enter = std::min(first_enter, i);
      }
    }
    EXPECT_LT(last_exit, first_enter)
        << "an actor entered phase " << p
        << " before every actor left phase " << p - 1;
    max_exit_of_prev = last_exit;
  }
  (void)max_exit_of_prev;
  // Every phase has enter and exit events for each participating actor.
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    size_t enters = 0;
    size_t exits = 0;
    for (const auto& [phase, entering] : events) {
      if (phase != p) continue;
      entering ? ++enters : ++exits;
    }
    EXPECT_EQ(enters, exits) << "phase " << p;
    EXPECT_GE(enters, spec.phases[p].actors) << "phase " << p;
  }
}

TEST(WorkloadOrchestratorTest, DeterministicBySeed) {
  const WorkloadSpec spec = MustParse(kTwoPhaseDoc);
  const Result<RunArtifacts> first = RunSpec(spec, {});
  const Result<RunArtifacts> second = RunSpec(spec, {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->RankingsText(), second->RankingsText());
  ASSERT_EQ(first->report.phases.size(), second->report.phases.size());
  for (size_t p = 0; p < first->report.phases.size(); ++p) {
    EXPECT_EQ(first->report.phases[p].planned_ops,
              second->report.phases[p].planned_ops);
    EXPECT_EQ(first->report.phases[p].ops, second->report.phases[p].ops);
  }

  WorkloadSpec reseeded = spec;
  reseeded.seed = 6;
  const Result<RunArtifacts> other = RunSpec(reseeded, {});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_NE(first->RankingsText(), other->RankingsText());
}

TEST(WorkloadOrchestratorTest, ConcurrentMatchesSequentialBitForBit) {
  const WorkloadSpec spec = MustParse(kTwoPhaseDoc);
  ASSERT_TRUE(CheckableSpec(spec).ok());

  const Result<RunArtifacts> concurrent = RunSpec(spec, {});
  OrchestratorConfig sequential_config;
  sequential_config.sequential = true;
  const Result<RunArtifacts> sequential =
      RunSpec(spec, std::move(sequential_config));
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  ASSERT_EQ(concurrent->sessions.size(), sequential->sessions.size());
  for (size_t j = 0; j < concurrent->sessions.size(); ++j) {
    EXPECT_EQ(concurrent->sessions[j].signature,
              sequential->sessions[j].signature)
        << "session " << j;
  }
  EXPECT_EQ(concurrent->RankingsText(), sequential->RankingsText());
}

TEST(WorkloadOrchestratorTest, CheckableSpecRejectsInterleavingDependence) {
  WorkloadSpec evicting = MustParse(kTwoPhaseDoc);
  evicting.service.max_sessions = 2;
  EXPECT_FALSE(CheckableSpec(evicting).ok());

  const WorkloadSpec chaos = MustParse(
      R"({"name": "c", "phases": [
            {"name": "p", "mode": "closed", "sessions": 2,
             "fault_spec": "engine.visual:0.5"}]})");
  EXPECT_FALSE(CheckableSpec(chaos).ok());
}

// The closed-loop oracle: the orchestrator's closed phase serves
// byte-identical sessions to a hand-written sequential driver over its own
// engine stack (same seeds, session ids, user rotation, topic
// assignment).
TEST(WorkloadOrchestratorTest, ClosedPhaseMatchesServeSimDriver) {
  const WorkloadSpec spec = MustParse(
      R"({"name": "smoke", "seed": 1, "phases": [
            {"name": "serve", "mode": "closed", "actors": 2,
             "sessions": 6}]})");
  const Result<RunArtifacts> run = RunSpec(spec, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->sessions.size(), 6u);

  // Inline serve_sim reference: sequential, same collection, same seeds.
  const GeneratedCollection g = TestCollection();
  auto engine = RetrievalEngine::Build(g.collection).value();
  AdaptiveOptions adaptive_options;
  const AdaptiveEngine adaptive(*engine, adaptive_options, nullptr);
  SessionManager manager(adaptive, SessionManagerOptions{});
  const SessionSimulator simulator(g.collection, g.qrels);
  const UserModel user = NoviceUser();
  for (size_t j = 0; j < 6; ++j) {
    const SearchTopic& topic =
        g.topics.topics[j % g.topics.topics.size()];
    SessionSimulator::RunConfig config;
    config.environment = Environment::kDesktop;
    config.seed = spec.seed + j * 131;
    config.session_id = StrFormat("serve-s%zu", j);
    config.user_id = user.name + std::to_string(j % 4);
    ManagedSessionBackend backend(&manager, config.session_id,
                                  config.user_id, 0);
    Result<SimulatedSession> session =
        simulator.Run(&backend, topic, user, config, nullptr);
    (void)backend.EndSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    std::string signature;
    for (const InteractionEvent& event : session->events) {
      signature += SessionLog::EventToLine(event);
      signature += "\n";
    }
    for (const ResultList& results : session->outcome.per_query_results) {
      for (const RankedShot& entry : results.items()) {
        signature += StrFormat("%u:%.17g ", entry.shot, entry.score);
      }
      signature += "\n";
    }
    EXPECT_EQ(run->sessions[j].signature, signature) << "session " << j;
  }
}

TEST(WorkloadOrchestratorTest, ChaosPhaseDegradesWithoutFailingTheRun) {
  const WorkloadSpec spec = MustParse(
      R"({"name": "chaos", "seed": 5, "phases": [
            {"name": "steady", "mode": "closed", "actors": 2,
             "sessions": 4},
            {"name": "chaos", "mode": "closed", "actors": 2, "sessions": 4,
             "fault_spec": "engine.visual:0.3,adaptive.feedback:0.2",
             "fault_seed": 42}]})");
  const Result<RunArtifacts> run = RunSpec(spec, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->report.phases.size(), 2u);
  for (const PhaseResult& phase : run->report.phases) {
    EXPECT_EQ(phase.ops + phase.failures, phase.planned_ops) << phase.name;
  }
}

TEST(WorkloadOrchestratorTest, IngestWritesAppendAndPublish) {
  const WorkloadSpec spec = MustParse(
      R"({"name": "soak", "seed": 3,
          "ingest": {"stream_seed": 7, "stream_videos": 4,
                     "stream_topics": 4, "publish_every": 2},
          "phases": [
            {"name": "soak", "mode": "open", "actors": 2,
             "duration_ms": 400, "rate": 60, "k": 5,
             "writes": {"rate": 20, "publish_every": 2}}]})");
  OrchestratorConfig config;
  config.ingest_dir = ::testing::TempDir() + "/workload_ingest";
  const Result<RunArtifacts> run = RunSpec(spec, std::move(config));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->report.phases.size(), 1u);
  const PhaseResult& soak = run->report.phases[0];
  EXPECT_GT(soak.appends, 0u);
  EXPECT_GT(soak.publishes, 0u);
  EXPECT_GT(soak.ops, 0u);
}

TEST(WorkloadOrchestratorTest, IngestSpecWithoutDirIsASetupError) {
  const WorkloadSpec spec = MustParse(
      R"({"name": "soak", "ingest": {},
          "phases": [{"name": "p", "mode": "closed", "sessions": 1}]})");
  const Result<RunArtifacts> run = RunSpec(spec, {});
  EXPECT_FALSE(run.ok());
}

TEST(WorkloadOrchestratorTest, ReportJsonCarriesEveryPhase) {
  const WorkloadSpec spec = MustParse(kTwoPhaseDoc);
  const Result<RunArtifacts> run = RunSpec(spec, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string json = run->report.ToJson();
  EXPECT_NE(json.find("\"type\": \"ivr.workload\""), std::string::npos);
  for (const PhaseSpec& phase : spec.phases) {
    EXPECT_NE(json.find("\"" + phase.name + "\""), std::string::npos)
        << phase.name;
  }
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
}

}  // namespace
}  // namespace workload
}  // namespace ivr
