// Unit tests for the sharded LRU result cache, plus the engine-level
// canonicalisation contract: a reordered surface form of the same
// analysed query must hit the same entry, while anything that changes the
// ranking (k, scorer, weights) must not.

#include "ivr/cache/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ivr/retrieval/engine.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

ResultList MakeList(ShotId base, size_t n) {
  std::vector<RankedShot> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back(
        RankedShot{base + static_cast<ShotId>(i), 1.0 / (i + 1.0)});
  }
  return ResultList(std::move(items));
}

TEST(ResultCacheTest, HitReturnsExactInsertedValue) {
  ResultCache cache;
  const ResultList value = MakeList(10, 5);
  cache.Insert("key-a", value, cache.generation());
  ResultList out;
  ASSERT_TRUE(cache.Lookup("key-a", &out));
  EXPECT_EQ(out.items(), value.items());  // exact doubles, exact order
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, MissOnUnknownKey) {
  ResultCache cache;
  ResultList out;
  EXPECT_FALSE(cache.Lookup("nope", &out));
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(ResultCacheTest, ReinsertReplacesValue) {
  ResultCache cache;
  cache.Insert("key", MakeList(1, 3), cache.generation());
  cache.Insert("key", MakeList(100, 4), cache.generation());
  ResultList out;
  ASSERT_TRUE(cache.Lookup("key", &out));
  EXPECT_EQ(out.items(), MakeList(100, 4).items());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(ResultCacheTest, LruEvictionRespectsByteBudget) {
  ResultCacheOptions options;
  options.num_shards = 1;  // one shard: LRU order is global
  options.max_bytes = 2048;
  ResultCache cache(options);
  // Each entry charges ~128 overhead + key + 10*16 item bytes, so the
  // budget holds a handful; keep inserting until eviction must occur.
  for (int i = 0; i < 32; ++i) {
    cache.Insert("entry-" + std::to_string(i), MakeList(1, 10),
                 cache.generation());
  }
  const ResultCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  // The newest entry survived; the oldest was evicted.
  ResultList out;
  EXPECT_TRUE(cache.Lookup("entry-31", &out));
  EXPECT_FALSE(cache.Lookup("entry-0", &out));
}

TEST(ResultCacheTest, LookupRefreshesLruPosition) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 1024;
  ResultCache cache(options);
  cache.Insert("hot", MakeList(1, 8), cache.generation());
  ResultList out;
  for (int i = 0; i < 16; ++i) {
    // Touch "hot" between fillers: it must never become the LRU victim.
    ASSERT_TRUE(cache.Lookup("hot", &out)) << "evicted after " << i;
    cache.Insert("filler-" + std::to_string(i), MakeList(50, 8),
                 cache.generation());
  }
  EXPECT_TRUE(cache.Lookup("hot", &out));
  EXPECT_GT(cache.Stats().evictions, 0u);
}

TEST(ResultCacheTest, OversizedInsertRejected) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 256;
  ResultCache cache(options);
  cache.Insert("big", MakeList(1, 1000), cache.generation());
  ResultList out;
  EXPECT_FALSE(cache.Lookup("big", &out));
  EXPECT_EQ(cache.Stats().rejected_inserts, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, InvalidateAllDropsEntriesAndBumpsGeneration) {
  ResultCache cache;
  const uint64_t gen0 = cache.generation();
  cache.Insert("key", MakeList(1, 3), gen0);
  cache.InvalidateAll();
  EXPECT_EQ(cache.generation(), gen0 + 1);
  ResultList out;
  EXPECT_FALSE(cache.Lookup("key", &out));
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST(ResultCacheTest, StaleGenerationInsertRejected) {
  ResultCache cache;
  // A compute snapshots the generation, then the collection reloads
  // (InvalidateAll) before the insert lands: the stale value must not
  // re-populate the cache.
  const uint64_t stale = cache.generation();
  cache.InvalidateAll();
  cache.Insert("key", MakeList(1, 3), stale);
  ResultList out;
  EXPECT_FALSE(cache.Lookup("key", &out));
  EXPECT_EQ(cache.Stats().rejected_inserts, 1u);
  // The current generation inserts fine.
  cache.Insert("key", MakeList(1, 3), cache.generation());
  EXPECT_TRUE(cache.Lookup("key", &out));
}

TEST(ResultCacheTest, ChargesTheEntriesAStoredListHolds) {
  // A text-only query's fused list is the text candidate list truncated
  // to k, so its vector keeps the candidate list's capacity. The cache
  // stores a copy that holds k entries, and charges for those alone.
  GeneratorOptions options;
  options.seed = 77;
  options.num_videos = 10;
  const GeneratedCollection generated = GenerateCollection(options).value();
  Query query;
  query.text = generated.topics.topics[0].title;
  // Bytes a fresh cached engine holds after one search: the text
  // sub-result plus the fused entry for k.
  const auto search = [&](size_t k, size_t* bytes) {
    std::unique_ptr<RetrievalEngine> engine =
        RetrievalEngine::Build(generated.collection).value();
    auto cache = std::make_shared<ResultCache>();
    engine->AttachCache(cache);
    const ResultList fused = engine->Search(query, k);
    *bytes = cache->Stats().bytes;
    return fused;
  };
  size_t bytes10 = 0;
  size_t bytes100 = 0;
  const ResultList top10 = search(10, &bytes10);
  const ResultList top100 = search(100, &bytes100);
  ASSERT_EQ(top10.size(), 10u);
  ASSERT_GT(top100.size(), top10.size());

  ResultCache fresh;
  fresh.Insert("fused", top10, fresh.generation());
  EXPECT_EQ(fresh.Stats().bytes, 5 + 10 * sizeof(RankedShot) + 128);
  // Same text entry, fused keys of equal length: the two engines' caches
  // differ by exactly the extra fused entries.
  EXPECT_EQ(bytes100 - bytes10, (top100.size() - 10) * sizeof(RankedShot));
}

class ResultCacheEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 42;
    options.num_topics = 4;
    options.num_videos = 8;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
    cache_ = std::make_shared<ResultCache>();
    engine_->AttachCache(cache_);
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
  std::shared_ptr<ResultCache> cache_;
};

TEST_F(ResultCacheEngineTest, ReorderedQueryWordsShareOneEntry) {
  // Term canonicalisation: the fingerprint sorts analysed terms, and the
  // searcher's scoring is term-order-independent, so both surface forms
  // must map to one entry and serve the identical ranking.
  const std::string title = generated_->topics.topics[0].title;
  const size_t space = title.find(' ');
  ASSERT_NE(space, std::string::npos) << "need a multi-word topic title";
  const std::string reordered =
      title.substr(space + 1) + " " + title.substr(0, space);

  Query forward;
  forward.text = title;
  Query backward;
  backward.text = reordered;
  const ResultList first = engine_->Search(forward, 50);
  const uint64_t hits_before = cache_->Stats().hits;
  const ResultList second = engine_->Search(backward, 50);
  EXPECT_GT(cache_->Stats().hits, hits_before)
      << "reordered words missed the cache";
  EXPECT_EQ(first.items(), second.items());
}

TEST_F(ResultCacheEngineTest, DifferentKDoesNotShareEntries) {
  // k is part of the fused fingerprint: after caching a k=10 ranking,
  // a k=50 search must not be served the truncated entry. (The shared
  // per-modality sub-results may still hit — that is the design.)
  Query query;
  query.text = generated_->topics.topics[0].title;
  const ResultList small = engine_->Search(query, 10);
  const ResultList large = engine_->Search(query, 50);
  ASSERT_LE(small.size(), 10u);
  EXPECT_GT(large.size(), small.size())
      << "k=50 search was served the cached k=10 entry";
}

TEST_F(ResultCacheEngineTest, CachedSearchBitIdenticalToUncached) {
  std::unique_ptr<RetrievalEngine> uncached =
      RetrievalEngine::Build(generated_->collection).value();
  for (const SearchTopic& topic : generated_->topics.topics) {
    Query query;
    query.text = topic.title;
    query.examples = topic.examples;
    const ResultList reference = uncached->Search(query, 100);
    const ResultList cold = engine_->Search(query, 100);   // fills cache
    const ResultList warm = engine_->Search(query, 100);   // serves hit
    EXPECT_EQ(reference.items(), cold.items()) << topic.title;
    EXPECT_EQ(reference.items(), warm.items()) << topic.title;
  }
  EXPECT_GT(cache_->Stats().hits, 0u);
}

TEST_F(ResultCacheEngineTest, InvalidateAllForcesRecomputeThatStillMatches) {
  Query query;
  query.text = generated_->topics.topics[1].title;
  const ResultList before = engine_->Search(query, 50);
  cache_->InvalidateAll();
  const uint64_t misses_before = cache_->Stats().misses;
  const ResultList after = engine_->Search(query, 50);
  EXPECT_GT(cache_->Stats().misses, misses_before);
  EXPECT_EQ(before.items(), after.items());
}

}  // namespace
}  // namespace ivr
