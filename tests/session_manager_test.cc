#include "ivr/service/session_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/service/managed_backend.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 77;
    options.num_topics = 4;
    options.num_videos = 8;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
    adaptive_ = std::make_unique<AdaptiveEngine>(
        *engine_, AdaptiveOptions(), nullptr);
  }

  Query TopicQuery(size_t i = 0) const {
    Query query;
    query.text = generated_->topics.topics[i].title;
    return query;
  }

  static InteractionEvent Click(ShotId shot, TimeMs time = 0) {
    InteractionEvent event;
    event.time = time;
    event.type = EventType::kClickKeyframe;
    event.shot = shot;
    return event;
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
  std::unique_ptr<AdaptiveEngine> adaptive_;
};

TEST_F(SessionManagerTest, BeginSearchEndLifecycle) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  ASSERT_TRUE(manager.BeginSession("s1", "u1").ok());
  EXPECT_TRUE(manager.Contains("s1"));
  EXPECT_EQ(manager.num_active(), 1u);

  const Result<ResultList> results = manager.Search("s1", TopicQuery(), 10);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());

  ASSERT_TRUE(manager.EndSession("s1").ok());
  EXPECT_FALSE(manager.Contains("s1"));
  EXPECT_EQ(manager.num_active(), 0u);
  const SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.begun, 1u);
  EXPECT_EQ(stats.ended, 1u);
}

TEST_F(SessionManagerTest, DuplicateBeginRejected) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  ASSERT_TRUE(manager.BeginSession("s1", "u1").ok());
  EXPECT_TRUE(manager.BeginSession("s1", "u2").IsAlreadyExists());
  EXPECT_EQ(manager.Stats().rejected_ops, 1u);
}

TEST_F(SessionManagerTest, OpsOnUnknownSessionRejected) {
  // No implicit opening: an operation on an unknown session is rejected.
  SessionManager manager(*adaptive_, SessionManagerOptions());
  EXPECT_TRUE(manager.Search("ghost", TopicQuery(), 10)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(manager.ObserveEvent("ghost", Click(0)).IsNotFound());
  EXPECT_TRUE(manager.EndSession("ghost").IsNotFound());
  EXPECT_EQ(manager.Stats().rejected_ops, 3u);
}

TEST_F(SessionManagerTest, FeedbackIsPerSession) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  ASSERT_TRUE(manager.BeginSession("engaged", "u1").ok());
  ASSERT_TRUE(manager.BeginSession("fresh", "u2").ok());

  const ShotId relevant =
      generated_->qrels.RelevantShots(generated_->topics.topics[0].id, 2)
          .at(0);
  ASSERT_TRUE(manager.ObserveEvent("engaged", Click(relevant)).ok());

  // The fresh session must keep serving the unadapted ranking.
  const ResultList base = engine_->Search(TopicQuery(), 20);
  const ResultList from_fresh =
      manager.Search("fresh", TopicQuery(), 20).value();
  ASSERT_EQ(base.size(), from_fresh.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.at(i).shot, from_fresh.at(i).shot);
  }
}

TEST_F(SessionManagerTest, CapacityEvictsLeastRecentlyUsed) {
  SessionManagerOptions options;
  options.num_shards = 1;  // deterministic placement
  options.max_sessions = 2;
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("old", "u").ok());
  ASSERT_TRUE(manager.BeginSession("hot", "u").ok());
  // Touch "hot" so "old" is the LRU victim.
  ASSERT_TRUE(manager.ObserveEvent("hot", Click(0)).ok());

  ASSERT_TRUE(manager.BeginSession("new", "u").ok());
  EXPECT_FALSE(manager.Contains("old"));
  EXPECT_TRUE(manager.Contains("hot"));
  EXPECT_TRUE(manager.Contains("new"));
  const SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.evicted_capacity, 1u);
  // Post-eviction ops on the victim are rejected, not resurrected.
  EXPECT_TRUE(manager.ObserveEvent("old", Click(1)).IsNotFound());
}

TEST_F(SessionManagerTest, TtlEvictsIdleSessions) {
  TimeMs now = 0;
  SessionManagerOptions options;
  options.idle_ttl_ms = 1000;
  options.clock = [&now] { return now; };
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("idle", "u").ok());
  now = 500;
  ASSERT_TRUE(manager.BeginSession("busy", "u").ok());
  now = 1200;  // "idle" is 1200ms idle, "busy" only 700ms
  EXPECT_EQ(manager.EvictIdleSessions(), 1u);
  EXPECT_FALSE(manager.Contains("idle"));
  EXPECT_TRUE(manager.Contains("busy"));
  EXPECT_EQ(manager.Stats().evicted_idle, 1u);
}

TEST_F(SessionManagerTest, EvictionPersistsSessionLog) {
  const std::string dir = ::testing::TempDir() + "/ivr_persist_evict";
  SessionManagerOptions options;
  options.num_shards = 1;
  options.max_sessions = 1;
  options.persist_dir = dir;
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("victim", "u").ok());
  ASSERT_TRUE(manager.ObserveEvent("victim", Click(3, 10)).ok());
  ASSERT_TRUE(manager.ObserveEvent("victim", Click(4, 20)).ok());

  ASSERT_TRUE(manager.BeginSession("usurper", "u").ok());  // evicts
  const SessionLog log =
      SessionLog::Load(dir + "/victim.log").value();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].shot, 3u);
  EXPECT_EQ(log.events()[1].shot, 4u);
  EXPECT_EQ(manager.Stats().events_persisted, 2u);
  (void)RemoveFile(dir + "/victim.log");
}

TEST_F(SessionManagerTest, PeriodicPersistenceIsIncremental) {
  const std::string dir = ::testing::TempDir() + "/ivr_persist_period";
  SessionManagerOptions options;
  options.persist_dir = dir;
  options.persist_every_events = 2;
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("s", "u").ok());
  ASSERT_TRUE(manager.ObserveEvent("s", Click(1, 10)).ok());
  EXPECT_EQ(manager.Stats().events_persisted, 0u);  // below threshold
  ASSERT_TRUE(manager.ObserveEvent("s", Click(2, 20)).ok());
  EXPECT_EQ(manager.Stats().events_persisted, 2u);  // flushed
  ASSERT_TRUE(manager.ObserveEvent("s", Click(3, 30)).ok());
  ASSERT_TRUE(manager.EndSession("s").ok());
  // End flushes only the O(new events) tail; total equals the event count
  // and the journal replays completely.
  EXPECT_EQ(manager.Stats().events_persisted, 3u);
  EXPECT_EQ(SessionLog::Load(dir + "/s.log").value().size(), 3u);
  (void)RemoveFile(dir + "/s.log");
}

TEST_F(SessionManagerTest, EndSessionSurvivesPersistFault) {
  const std::string dir = ::testing::TempDir() + "/ivr_persist_fault";
  SessionManagerOptions options;
  options.persist_dir = dir;
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("s", "u").ok());
  ASSERT_TRUE(manager.ObserveEvent("s", Click(1)).ok());
  {
    ScopedFaultInjection chaos("service.persist:1.0", 3);
    // Graceful degradation: the session still ends, the failure is
    // counted and surfaces through Health().
    EXPECT_TRUE(manager.EndSession("s").ok());
  }
  EXPECT_FALSE(manager.Contains("s"));
  const SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.persist_failures, 1u);
  EXPECT_EQ(stats.events_persisted, 0u);
  const HealthReport health = manager.Health();
  EXPECT_TRUE(health.degraded());
  EXPECT_EQ(health.session_persist_failures, 1u);
}

TEST_F(SessionManagerTest, EvictFaultKeepsVictimResident) {
  SessionManagerOptions options;
  options.num_shards = 1;
  options.max_sessions = 1;
  SessionManager manager(*adaptive_, options);
  ASSERT_TRUE(manager.BeginSession("resident", "u").ok());
  {
    ScopedFaultInjection chaos("service.evict:1.0", 3);
    ASSERT_TRUE(manager.BeginSession("extra", "u").ok());
  }
  // The faulted eviction degraded to running over capacity — nobody was
  // dropped and the skip was counted.
  EXPECT_TRUE(manager.Contains("resident"));
  EXPECT_TRUE(manager.Contains("extra"));
  EXPECT_EQ(manager.num_active(), 2u);
  const SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.evictions_skipped, 1u);
  EXPECT_EQ(stats.evicted_capacity, 0u);
}

TEST_F(SessionManagerTest, ProfileSnapshotTakenAtBegin) {
  AdaptiveOptions adaptive_options;
  adaptive_options.use_profile = true;
  adaptive_options.profile_lambda = 0.9;
  const AdaptiveEngine engine(*engine_, adaptive_options, nullptr);

  SessionManager manager(engine, SessionManagerOptions());
  UserProfile profile("fan");
  profile.SetInterest(generated_->topics.topics[1].target_topic, 1.0);
  ASSERT_TRUE(manager.AddProfile(profile).ok());
  EXPECT_TRUE(manager.AddProfile(profile).IsAlreadyExists());

  ASSERT_TRUE(manager.BeginSession("s", "fan").ok());
  // A user without a registered profile still gets a session, reported
  // as profiles-unavailable under use_profile.
  ASSERT_TRUE(manager.BeginSession("anon", "nobody").ok());
  EXPECT_FALSE(manager.Health().profile_available);
  ASSERT_TRUE(manager.EndSession("anon").ok());
  EXPECT_TRUE(manager.Health().profile_available);
}

TEST_F(SessionManagerTest, HealthAggregatesLiveSessions) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  ASSERT_TRUE(manager.BeginSession("a", "u").ok());
  ASSERT_TRUE(manager.BeginSession("b", "u").ok());
  const HealthReport health = manager.Health();
  EXPECT_EQ(health.sessions_active, 2u);
  EXPECT_EQ(health.sessions_evicted, 0u);
  // No service-layer degradation signal (the process-lifetime
  // faults_injected counter may be non-zero from other tests).
  EXPECT_EQ(health.session_persist_failures, 0u);
  EXPECT_TRUE(health.profile_available);
  EXPECT_EQ(health.feedback_skipped, 0u);
}

TEST_F(SessionManagerTest, ManagedBackendDrivesOneSession) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  {
    ManagedSessionBackend backend(&manager, "mb", "u");
    backend.BeginSession();
    ASSERT_TRUE(manager.Contains("mb"));
    EXPECT_FALSE(backend.Search(TopicQuery(), 10).empty());
    backend.ObserveEvent(Click(0));
    EXPECT_TRUE(backend.first_error().ok());
  }  // destructor ends the session
  EXPECT_FALSE(manager.Contains("mb"));
}

TEST_F(SessionManagerTest, ManagedBackendRejectsOperationsBeforeBegin) {
  SessionManager manager(*adaptive_, SessionManagerOptions());
  ManagedSessionBackend backend(&manager, "early", "u");
  backend.ObserveEvent(Click(0));  // before any BeginSession
  // The manager rejected it like any unknown session and opened nothing.
  EXPECT_TRUE(backend.first_error().IsNotFound());
  EXPECT_EQ(manager.Stats().rejected_ops, 1u);
  EXPECT_FALSE(manager.Contains("early"));
  EXPECT_EQ(manager.Stats().begun, 0u);
}

TEST_F(SessionManagerTest, HealthKeepsCountersOfFinishedSessions) {
  // Every search skips its feedback step, so each session that searched
  // once carries feedback_skipped = 1; ending or evicting it must not
  // lose that from the manager's report.
  ScopedFaultInjection chaos("adaptive.feedback:1.0", 3);
  ASSERT_TRUE(chaos.status().ok());
  SessionManagerOptions options;
  options.num_shards = 1;
  options.max_sessions = 1;
  SessionManager manager(*adaptive_, options);

  ASSERT_TRUE(manager.BeginSession("ended", "u").ok());
  ASSERT_TRUE(manager.Search("ended", TopicQuery(), 10).ok());
  EXPECT_EQ(manager.Health().feedback_skipped, 1u);
  ASSERT_TRUE(manager.EndSession("ended").ok());
  EXPECT_EQ(manager.Health().feedback_skipped, 1u);

  ASSERT_TRUE(manager.BeginSession("evicted", "u").ok());
  ASSERT_TRUE(manager.Search("evicted", TopicQuery(), 10).ok());
  EXPECT_EQ(manager.Health().feedback_skipped, 2u);
  // Capacity 1: the next session evicts "evicted".
  ASSERT_TRUE(manager.BeginSession("live", "u").ok());
  ASSERT_FALSE(manager.Contains("evicted"));
  ASSERT_TRUE(manager.Search("live", TopicQuery(), 10).ok());
  const HealthReport health = manager.Health();
  EXPECT_EQ(health.feedback_skipped, 3u);
  EXPECT_EQ(health.sessions_active, 1u);
  EXPECT_EQ(health.sessions_evicted, 1u);
}

}  // namespace
}  // namespace ivr
