#include "ivr/sim/replayer.h"

#include <gtest/gtest.h>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class ReplayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 61;
    options.num_topics = 4;
    options.num_videos = 8;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
    backend_ = std::make_unique<StaticBackend>(*engine_);

    // Record two simulated sessions into the log.
    SessionSimulator simulator(generated_->collection, generated_->qrels);
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SessionSimulator::RunConfig config;
      config.seed = seed;
      config.session_id = "s" + std::to_string(seed);
      simulator
          .Run(backend_.get(), generated_->topics.topics[0], NoviceUser(),
               config, &log_)
          .value();
    }
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
  std::unique_ptr<StaticBackend> backend_;
  SessionLog log_;
};

TEST_F(ReplayerTest, ReplayAllCoversEverySession) {
  const LogReplayer replayer;
  const auto sessions = replayer.ReplayAll(log_, backend_.get()).value();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].session_id, "s1");
  EXPECT_EQ(sessions[1].session_id, "s2");
  for (const ReplayedSession& session : sessions) {
    EXPECT_FALSE(session.queries.empty());
    EXPECT_EQ(session.queries.size(), session.per_query_results.size());
    for (const ResultList& results : session.per_query_results) {
      EXPECT_FALSE(results.empty());
    }
  }
}

TEST_F(ReplayerTest, StaticBackendReplayMatchesDirectSearch) {
  const LogReplayer replayer(200);
  const auto session =
      replayer.ReplaySession(log_.EventsForSession("s1"), backend_.get())
          .value();
  for (size_t q = 0; q < session.queries.size(); ++q) {
    Query query;
    query.text = session.queries[q];
    const ResultList direct = engine_->Search(query, 200);
    ASSERT_EQ(direct.size(), session.per_query_results[q].size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct.at(i).shot,
                session.per_query_results[q].at(i).shot);
    }
  }
}

TEST_F(ReplayerTest, AdaptiveBackendSeesLoggedFeedback) {
  // Replayed through a managed session, every logged query is answered
  // with the feedback of the events logged before it: the ranking a
  // session context that observed those events gives.
  const AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  ManagedSessionBackend backend(&manager, "replay", "u");
  const std::vector<InteractionEvent> events = log_.EventsForSession("s1");
  const LogReplayer replayer(100);
  const ReplayedSession replayed =
      replayer.ReplaySession(events, &backend).value();
  EXPECT_TRUE(backend.first_error().ok());

  SessionContext reference = adaptive.MakeContext("reference", "u");
  size_t q = 0;
  for (const InteractionEvent& ev : events) {
    if (ev.type == EventType::kQuerySubmit && !ev.text.empty()) {
      ASSERT_LT(q, replayed.per_query_results.size());
      Query query;
      query.text = ev.text;
      const ResultList expected = adaptive.Search(&reference, query, 100);
      const ResultList& got = replayed.per_query_results[q++];
      ASSERT_EQ(expected.size(), got.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected.at(i).shot, got.at(i).shot);
        EXPECT_EQ(expected.at(i).score, got.at(i).score);
      }
    }
    adaptive.ObserveEvent(&reference, ev);
  }
  EXPECT_EQ(q, replayed.per_query_results.size());
  // The log did carry feedback for the later queries to act on.
  EXPECT_FALSE(adaptive.CurrentEvidence(reference).empty());
}

TEST_F(ReplayerTest, RejectsMixedSessions) {
  const LogReplayer replayer;
  EXPECT_TRUE(replayer.ReplaySession(log_.events(), backend_.get())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ReplayerTest, RejectsNullBackend) {
  const LogReplayer replayer;
  EXPECT_TRUE(replayer.ReplaySession({}, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ReplayerTest, EmptyLogYieldsNoSessions) {
  const LogReplayer replayer;
  EXPECT_TRUE(
      replayer.ReplayAll(SessionLog(), backend_.get()).value().empty());
}

TEST_F(ReplayerTest, RoundTripThroughTextFormatPreservesReplay) {
  // Serialize -> parse -> replay must equal replaying the original log.
  const SessionLog parsed = SessionLog::Parse(log_.Serialize()).value();
  const LogReplayer replayer;
  const auto original = replayer.ReplayAll(log_, backend_.get()).value();
  const auto reparsed =
      replayer.ReplayAll(parsed, backend_.get()).value();
  ASSERT_EQ(original.size(), reparsed.size());
  for (size_t s = 0; s < original.size(); ++s) {
    ASSERT_EQ(original[s].queries, reparsed[s].queries);
    for (size_t q = 0; q < original[s].per_query_results.size(); ++q) {
      EXPECT_EQ(original[s].per_query_results[q].ShotIds(),
                reparsed[s].per_query_results[q].ShotIds());
    }
  }
}

}  // namespace
}  // namespace ivr
