// The visual kNN kernel keeps one candidate buffer per thread, and
// FromRanked lists land in the shared result cache. BatchSearch over
// visual-only and text+visual queries at 4 threads must therefore equal
// the sequential run bit for bit — on a one-shard engine, a segmented
// one, and with a cache attached. The tsan preset runs this test.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/cache/result_cache.h"
#include "ivr/core/string_util.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/sub_index.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

std::string Render(const ResultList& list) {
  std::string out;
  for (const RankedShot& r : list.items()) {
    out += StrFormat("%u:%a ", r.shot, r.score);
  }
  return out;
}

class VisualBatchConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 41;
    options.num_topics = 6;
    options.num_videos = 10;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    const VideoCollection& c = generated_->collection;
    // Repeated rounds: more jobs than workers, so every worker's buffer
    // is reused across queries of different shapes.
    for (int round = 0; round < 4; ++round) {
      for (const SearchTopic& topic : generated_->topics.topics) {
        Query visual;
        visual.examples = topic.examples;
        queries_.push_back(visual);
        Query one_example;
        one_example.examples = {c.shots()[(topic.id * 13 + round) %
                                          c.num_shots()]
                                    .keyframe};
        queries_.push_back(one_example);
        Query mixed = visual;
        mixed.text = topic.title;
        queries_.push_back(mixed);
      }
    }
  }

  /// The engine over the collection split into three shards.
  std::unique_ptr<RetrievalEngine> Segmented() const {
    const VideoCollection& c = generated_->collection;
    // Shards own their slices; copy the shots into three collections
    // (transcript-only documents, hence index_headlines off).
    std::vector<std::shared_ptr<const SubIndex>> shards;
    const size_t n = c.num_shots();
    const size_t cuts[] = {0, n / 3, n / 2 + 1, n};
    for (size_t s = 0; s + 1 < 4; ++s) {
      auto slice = std::make_shared<VideoCollection>();
      for (size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        slice->AddShot(c.shots()[i]);
      }
      shards.push_back(
          SubIndex::Build(slice, Options(), static_cast<ShotId>(cuts[s]))
              .value());
    }
    return RetrievalEngine::BuildSegmented(std::move(shards), Options())
        .value();
  }

  static EngineOptions Options() {
    EngineOptions options;
    options.index_headlines = false;
    options.candidate_pool = 200;
    return options;
  }

  void ExpectBatchEqualsSequential(const RetrievalEngine& engine,
                                   const std::string& label) const {
    std::vector<std::string> sequential;
    for (const Query& q : queries_) {
      sequential.push_back(Render(engine.Search(q, 50)));
    }
    for (int round = 0; round < 3; ++round) {
      const std::vector<ResultList> batched =
          engine.BatchSearch(queries_, 50, /*threads=*/4);
      ASSERT_EQ(batched.size(), sequential.size());
      for (size_t i = 0; i < batched.size(); ++i) {
        EXPECT_FALSE(sequential[i].empty()) << label << " query=" << i;
        EXPECT_EQ(Render(batched[i]), sequential[i])
            << label << " round=" << round << " query=" << i;
      }
    }
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::vector<Query> queries_;
};

TEST_F(VisualBatchConcurrentTest, OneShardBatchEqualsSequential) {
  auto engine =
      RetrievalEngine::Build(generated_->collection, Options()).value();
  ExpectBatchEqualsSequential(*engine, "one-shard");
}

TEST_F(VisualBatchConcurrentTest, SegmentedBatchEqualsOneShardSequential) {
  auto monolithic =
      RetrievalEngine::Build(generated_->collection, Options()).value();
  auto segmented = Segmented();
  ASSERT_EQ(segmented->num_shards(), 3u);
  ExpectBatchEqualsSequential(*segmented, "segmented");
  const std::vector<ResultList> batched =
      segmented->BatchSearch(queries_, 50, /*threads=*/4);
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(Render(batched[i]), Render(monolithic->Search(queries_[i], 50)))
        << "query=" << i;
  }
}

TEST_F(VisualBatchConcurrentTest, CachedBatchEqualsUncachedSequential) {
  auto uncached =
      RetrievalEngine::Build(generated_->collection, Options()).value();
  auto cached =
      RetrievalEngine::Build(generated_->collection, Options()).value();
  auto cache = std::make_shared<ResultCache>();
  cached->AttachCache(cache);
  // Cold then warm: both batches must rank exactly as uncached serving.
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<ResultList> batched =
        cached->BatchSearch(queries_, 50, /*threads=*/4);
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(Render(batched[i]), Render(uncached->Search(queries_[i], 50)))
          << "pass=" << pass << " query=" << i;
    }
  }
  EXPECT_GT(cache->Stats().hits, 0u);
}

}  // namespace
}  // namespace ivr
