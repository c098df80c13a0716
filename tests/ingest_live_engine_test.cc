// LiveEngine: the generational index. Publish visibility, snapshot
// pinning, replay, compaction, cache sharing across generations, and
// salvage accounting.

#include "ivr/ingest/live_engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/cache/result_cache.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/ingest/segment.h"
#include "ivr/service/serving_stack.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

GeneratedCollection MakeBase() {
  GeneratorOptions options;
  options.seed = 2008;
  options.num_videos = 6;
  options.num_topics = 5;
  return GenerateCollection(options).value();
}

GeneratedCollection MakeStream(uint64_t seed = 99) {
  GeneratorOptions options;
  options.seed = seed;
  options.num_videos = 4;
  options.num_topics = 5;
  return GenerateCollection(options).value();
}

/// A fresh, empty ingest directory under the test tmpdir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  if (FileExists(dir)) {
    const auto entries = ListDirectory(dir);
    if (entries.ok()) {
      for (const std::string& entry : *entries) {
        (void)RemoveFile(dir + "/" + entry);
      }
    }
  }
  return dir;
}

std::unique_ptr<LiveEngine> OpenLive(const std::string& dir,
                                     IngestOptions options = {}) {
  options.dir = dir;
  auto live = LiveEngine::Open(MakeBase(), std::move(options));
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(live).value();
}

Query TopicQuery(const EngineSnapshot& snapshot, size_t i = 0) {
  const SearchTopic& topic = snapshot.topics->topics.at(i);
  Query query;
  query.text = topic.title;
  query.examples = topic.examples;
  return query;
}

std::string Ranking(const EngineSnapshot& snapshot, const Query& query,
                    size_t k = 10) {
  const ResultList list = snapshot.engine->Search(query, k);
  std::string out;
  for (size_t i = 0; i < list.size(); ++i) {
    out += StrFormat("%u:%.17g ", list.at(i).shot, list.at(i).score);
  }
  return out;
}

TEST(LiveEngineTest, FreshDirectoryServesTheBaseAtGenerationZero) {
  auto live = OpenLive(FreshDir("live_fresh"));
  const auto snapshot = live->Acquire();
  EXPECT_EQ(snapshot->generation, 0u);
  EXPECT_EQ(snapshot->num_shots(), MakeBase().collection.num_shots());
  EXPECT_EQ(live->Stats().segments, 0u);
}

TEST(LiveEngineTest, PendingIsInvisibleUntilPublish) {
  auto live = OpenLive(FreshDir("live_pending"));
  const GeneratedCollection stream = MakeStream();
  const size_t base_shots = live->Acquire()->num_shots();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  EXPECT_EQ(live->Acquire()->num_shots(), base_shots);
  EXPECT_GT(live->Stats().pending_shots, 0u);

  const Result<uint64_t> published = live->Publish();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1u);
  EXPECT_GT(live->Acquire()->num_shots(), base_shots);
  EXPECT_EQ(live->Stats().pending_shots, 0u);
  EXPECT_EQ(live->Stats().segments, 1u);
}

TEST(LiveEngineTest, PublishWithNothingPendingIsANoOp) {
  auto live = OpenLive(FreshDir("live_noop"));
  const Result<uint64_t> published = live->Publish();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 0u);
  EXPECT_EQ(live->Stats().publishes, 0u);
}

TEST(LiveEngineTest, ReadersPinnedToASnapshotSurvivePublishes) {
  auto live = OpenLive(FreshDir("live_pin"));
  const auto old_snapshot = live->Acquire();
  const Query query = TopicQuery(*old_snapshot);
  const std::string before = Ranking(*old_snapshot, query);

  const GeneratedCollection stream = MakeStream();
  for (VideoId v = 0; v < 2; ++v) {
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, v).ok());
  }
  ASSERT_TRUE(live->Publish().ok());

  // The pinned snapshot still answers bit-identically from generation 0;
  // a fresh acquire sees generation 1.
  EXPECT_EQ(Ranking(*old_snapshot, query), before);
  EXPECT_EQ(old_snapshot->generation, 0u);
  EXPECT_EQ(live->Acquire()->generation, 1u);
}

TEST(LiveEngineTest, HeldAdaptiveEngineOutlivesItsSnapshot) {
  // A resolver hands out only the snapshot's AdaptiveEngine; holding it
  // alone must keep that generation's RetrievalEngine alive after
  // publishes release the snapshot itself.
  auto live = OpenLive(FreshDir("live_held_adaptive"));
  const std::shared_ptr<const AdaptiveEngine> adaptive =
      live->Acquire()->adaptive;
  const Query query = TopicQuery(*live->Acquire());
  const auto rank = [&adaptive, &query] {
    SessionContext ctx = adaptive->MakeContext("held", "u");
    const ResultList list = adaptive->Search(&ctx, query, 10);
    std::string out;
    for (size_t i = 0; i < list.size(); ++i) {
      out += StrFormat("%u:%.17g ", list.at(i).shot, list.at(i).score);
    }
    return out;
  };
  const std::string before = rank();

  const GeneratedCollection stream = MakeStream();
  for (VideoId v = 0; v < 2; ++v) {
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, v).ok());
    ASSERT_TRUE(live->Publish().ok());
  }
  EXPECT_EQ(live->Acquire()->generation, 2u);
  EXPECT_EQ(rank(), before);
}

TEST(LiveEngineTest, ReopenReplaysToTheSameGenerationAndRankings) {
  const std::string dir = FreshDir("live_reopen");
  const GeneratedCollection stream = MakeStream();
  std::string expected;
  Query query;
  {
    auto live = OpenLive(dir);
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
    ASSERT_TRUE(live->Publish().ok());
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 1).ok());
    ASSERT_TRUE(live->Publish().ok());
    const auto snapshot = live->Acquire();
    query = TopicQuery(*snapshot);
    expected = Ranking(*snapshot, query);
    EXPECT_EQ(snapshot->generation, 2u);
  }
  auto live = OpenLive(dir);
  const auto snapshot = live->Acquire();
  EXPECT_EQ(snapshot->generation, 2u);
  EXPECT_EQ(live->Stats().segments, 2u);
  EXPECT_EQ(Ranking(*snapshot, query), expected);
}

TEST(LiveEngineTest, MergeCompactsWithoutChangingServing) {
  const std::string dir = FreshDir("live_merge");
  auto live = OpenLive(dir);
  const GeneratedCollection stream = MakeStream();
  for (VideoId v = 0; v < 3; ++v) {
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, v).ok());
    ASSERT_TRUE(live->Publish().ok());
  }
  const auto before_snapshot = live->Acquire();
  const Query query = TopicQuery(*before_snapshot);
  const std::string before = Ranking(*before_snapshot, query);
  ASSERT_EQ(live->Stats().segments, 3u);

  ASSERT_TRUE(live->Merge().ok());
  EXPECT_EQ(live->Stats().segments, 1u);
  EXPECT_EQ(live->Stats().merges, 1u);
  // Serving is untouched: same generation, same rankings.
  const auto after_snapshot = live->Acquire();
  EXPECT_EQ(after_snapshot->generation, before_snapshot->generation);
  EXPECT_EQ(Ranking(*after_snapshot, query), before);

  // The compacted file is the only segment on disk, and a reopen replays
  // it bit-identically.
  size_t seg_files = 0;
  const std::vector<std::string> on_disk = ListDirectory(dir).value();
  for (const std::string& name : on_disk) {
    if (EndsWith(name, ".seg")) ++seg_files;
  }
  EXPECT_EQ(seg_files, 1u);
  auto reopened = OpenLive(dir);
  EXPECT_EQ(Ranking(*reopened->Acquire(), query), before);
}

TEST(LiveEngineTest, MergeBelowTwoSegmentsIsANoOp) {
  auto live = OpenLive(FreshDir("live_merge_noop"));
  ASSERT_TRUE(live->Merge().ok());
  EXPECT_EQ(live->Stats().merges, 0u);
}

TEST(LiveEngineTest, AutoMergeTriggersAtThreshold) {
  IngestOptions options;
  options.merge_after_segments = 2;
  auto live = OpenLive(FreshDir("live_automerge"), options);
  const GeneratedCollection stream = MakeStream();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  ASSERT_TRUE(live->Publish().ok());
  EXPECT_EQ(live->Stats().segments, 1u);
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 1).ok());
  ASSERT_TRUE(live->Publish().ok());
  // Inline (foreground) merge ran as part of the second publish.
  EXPECT_EQ(live->Stats().segments, 1u);
  EXPECT_EQ(live->Stats().merges, 1u);
}

TEST(LiveEngineTest, SharedCacheNeverCrossesGenerations) {
  ResultCacheOptions cache_options;
  cache_options.max_bytes = 4 << 20;
  auto cache = std::make_shared<ResultCache>(cache_options);
  IngestOptions options;
  options.cache = cache;
  auto live = OpenLive(FreshDir("live_cache"), options);

  const auto gen0 = live->Acquire();
  const Query query = TopicQuery(*gen0);
  const std::string cold = Ranking(*gen0, query);
  const std::string warm = Ranking(*gen0, query);  // cache hit
  EXPECT_EQ(cold, warm);

  const GeneratedCollection stream = MakeStream();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  ASSERT_TRUE(live->Publish().ok());
  const auto gen1 = live->Acquire();

  // The new generation's rankings must come from the new index, not the
  // old generation's cached entries — and must equal an uncached engine
  // over the same data.
  const std::string fresh = Ranking(*gen1, query);
  IngestOptions uncached_options;
  uncached_options.dir = live->options().dir;
  auto uncached = LiveEngine::Open(MakeBase(), std::move(uncached_options));
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(Ranking(*(*uncached)->Acquire(), query), fresh);

  // The pinned old snapshot still serves generation 0 bit-identically
  // through the shared cache (epoch-prefixed keys).
  EXPECT_EQ(Ranking(*gen0, query), cold);
}

TEST(LiveEngineTest, SalvageCountsOrphanAndTornSegmentsExactlyOnce) {
  const std::string dir = FreshDir("live_salvage");
  const GeneratedCollection stream = MakeStream();
  std::string gen1_ranking;
  Query query;
  {
    auto live = OpenLive(dir);
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
    ASSERT_TRUE(live->Publish().ok());
    const auto snapshot = live->Acquire();
    query = TopicQuery(*snapshot);
    gen1_ranking = Ranking(*snapshot, query);
    ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 1).ok());
    ASSERT_TRUE(live->Publish().ok());
  }
  // Tear generation 2's segment and plant an orphan: the reopen must fall
  // back to generation 1, count one torn and one orphan segment.
  const std::string seg2 = dir + "/" + LiveEngine::SegmentName(2);
  const std::string bytes = ReadFileToString(seg2).value();
  ASSERT_TRUE(WriteStringToFile(seg2, bytes.substr(0, bytes.size() / 2)).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/orphan.seg", "not a segment").ok());

  auto live = OpenLive(dir);
  const auto snapshot = live->Acquire();
  EXPECT_EQ(snapshot->generation, 1u);
  EXPECT_EQ(Ranking(*snapshot, query), gen1_ranking);
  const IngestStats stats = live->Stats();
  EXPECT_EQ(stats.torn_segments_dropped, 1u);
  EXPECT_EQ(stats.orphan_segments_dropped, 1u);
  EXPECT_EQ(stats.torn_manifest_chunks, 0u);

  // The NEXT generation id stays monotonic despite the fallback: a new
  // publish must not collide with the torn generation 2.
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 2).ok());
  const Result<uint64_t> published = live->Publish();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 3u);
}

TEST(LiveEngineTest, LiveServingStackHealthCountsSessionsAndSalvage) {
  // The live chain's report is the manager's (sessions included) plus the
  // live engine's ingest salvage counters.
  const std::string dir = FreshDir("live_stack_health");
  ASSERT_TRUE(MakeDirectory(dir).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/orphan.seg", "not a segment").ok());
  IngestOptions options;
  options.dir = dir;
  auto stack = ServingStack::Open(MakeBase(), options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ASSERT_TRUE((*stack)->manager().BeginSession("s", "u").ok());
  const HealthReport health = (*stack)->Health();
  EXPECT_EQ(health.sessions_active, 1u);
  EXPECT_EQ(health.ingest_orphan_segments_dropped, 1u);
  EXPECT_TRUE(health.degraded());
  ASSERT_TRUE((*stack)->manager().EndSession("s").ok());
  EXPECT_EQ((*stack)->Health().sessions_active, 0u);
}

TEST(LiveEngineTest, FailedPublishKeepsPendingForRetry) {
  auto live = OpenLive(FreshDir("live_retry"));
  const GeneratedCollection stream = MakeStream();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  {
    ScopedFaultInjection faults("ingest.publish:1.0", 1);
    EXPECT_FALSE(live->Publish().ok());
  }
  EXPECT_EQ(live->Stats().publish_failures, 1u);
  EXPECT_GT(live->Stats().pending_shots, 0u);
  EXPECT_EQ(live->Acquire()->generation, 0u);

  // Retry without faults publishes the SAME delta into generation 1.
  const Result<uint64_t> published = live->Publish();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1u);
  EXPECT_EQ(live->Stats().pending_shots, 0u);
}

TEST(LiveEngineTest, ManifestFaultAbortsPublishBeforeTheSwap) {
  const std::string dir = FreshDir("live_manifest_fault");
  auto live = OpenLive(dir);
  const GeneratedCollection stream = MakeStream();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  {
    ScopedFaultInjection faults("ingest.manifest:1.0", 1);
    EXPECT_FALSE(live->Publish().ok());
  }
  // Not committed: still generation 0, and the reopen agrees (the segment
  // file that did land is an orphan).
  EXPECT_EQ(live->Acquire()->generation, 0u);
  auto reopened = OpenLive(dir);
  EXPECT_EQ(reopened->Acquire()->generation, 0u);
  EXPECT_EQ(reopened->Stats().orphan_segments_dropped, 1u);
}

TEST(LiveEngineTest, SessionManagerStraddlesPublishes) {
  auto live = OpenLive(FreshDir("live_sessions"));
  LiveEngine* live_ptr = live.get();
  SessionManagerOptions manager_options;
  SessionManager manager(
      [live_ptr] { return live_ptr->Acquire()->adaptive; },
      manager_options);
  ASSERT_TRUE(manager.BeginSession("s1", "u1").ok());

  Query query;
  query.text = live->Acquire()->topics->topics.at(0).title;
  const Result<ResultList> before = manager.Search("s1", query, 5);
  ASSERT_TRUE(before.ok());

  const GeneratedCollection stream = MakeStream();
  ASSERT_TRUE(live->AppendVideoFrom(stream.collection, 0).ok());
  ASSERT_TRUE(live->Publish().ok());

  // The SAME session keeps working across the publish; each operation is
  // pinned to the generation current at its start.
  const Result<ResultList> after = manager.Search("s1", query, 5);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(manager.EndSession("s1").ok());
}

}  // namespace
}  // namespace ivr
