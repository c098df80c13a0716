// Regression test for the Health() data race: the degraded-mode counters
// (SessionContext::feedback_skipped / profile_reranks_skipped) used to be
// plain uint64_t mutated on the session's thread while Health()
// snapshotted them from a monitoring thread. They are obs::RelaxedU64
// now; this file hammers exactly that writer/reader pair and is part of
// the tsan preset, which is what actually enforces the fix.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/fault_injection.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class HealthAtomicsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 31;
    options.num_topics = 3;
    options.num_videos = 6;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
  }

  Query TopicQuery() const {
    Query query;
    query.text = generated_->topics.topics[0].title;
    return query;
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(HealthAtomicsTest, ContextHealthWhileSearchingIsRaceFree) {
  // Probability-1 faults on both personalisation steps: every Search
  // increments feedback_skipped and profile_reranks_skipped — the exact
  // counters Health(ctx) snapshots — and never touches the evidence
  // cache, so the counters are the only context state the two threads
  // share.
  ScopedFaultInjection chaos("adaptive.feedback:1,adaptive.profile:1", 3);
  ASSERT_TRUE(chaos.status().ok());

  auto profile = std::make_shared<UserProfile>("racer");
  profile->SetInterest(/*topic=*/0, 1.0);
  AdaptiveOptions options;
  options.use_profile = true;
  const AdaptiveEngine adaptive(*engine_, options, profile);
  SessionContext ctx = adaptive.MakeContext("race", "racer");

  constexpr int kIterations = 400;
  std::thread monitor([&adaptive, &ctx] {
    for (int i = 0; i < kIterations; ++i) {
      const HealthReport report = adaptive.Health(ctx);
      (void)report.feedback_skipped;
      (void)report.profile_reranks_skipped;
    }
  });
  const Query query = TopicQuery();
  for (int i = 0; i < kIterations; ++i) {
    (void)adaptive.Search(&ctx, query, 10);
  }
  monitor.join();

  const HealthReport report = adaptive.Health(ctx);
  EXPECT_EQ(report.feedback_skipped, static_cast<uint64_t>(kIterations));
  EXPECT_EQ(report.profile_reranks_skipped,
            static_cast<uint64_t>(kIterations));
  EXPECT_TRUE(report.degraded());
}

TEST_F(HealthAtomicsTest, ManagerHealthWhileServingIsRaceFree) {
  ScopedFaultInjection chaos("adaptive.feedback:1", 9);
  ASSERT_TRUE(chaos.status().ok());
  const AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  ASSERT_TRUE(manager.BeginSession("race", "user").ok());

  constexpr int kIterations = 300;
  std::thread monitor([&manager] {
    for (int i = 0; i < kIterations; ++i) {
      const HealthReport report = manager.Health();
      (void)report.feedback_skipped;
      (void)report.sessions_active;
    }
  });
  const Query query = TopicQuery();
  InteractionEvent click;
  click.type = EventType::kClickKeyframe;
  click.shot = 0;
  for (int i = 0; i < kIterations; ++i) {
    ASSERT_TRUE(manager.Search("race", query, 10).ok());
    ASSERT_TRUE(manager.ObserveEvent("race", click).ok());
  }
  monitor.join();

  const HealthReport report = manager.Health();
  EXPECT_EQ(report.feedback_skipped, static_cast<uint64_t>(kIterations));
  EXPECT_EQ(report.sessions_active, 1u);
}

}  // namespace
}  // namespace ivr
