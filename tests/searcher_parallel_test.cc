#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/index/searcher.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/sub_index.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

// BatchSearch must produce bit-identical rankings to the sequential path
// for any thread count: same docs, same order, same score bits.

class SearcherParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 23;
    options.num_topics = 6;
    options.num_videos = 12;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
    // The Searcher-level tests run over one segment's text index, built
    // exactly as the engine builds its shard.
    text_ = SubIndex::Build(std::shared_ptr<const VideoCollection>(
                                std::shared_ptr<const VideoCollection>(),
                                &generated_->collection),
                            EngineOptions(), /*shot_key_offset=*/0)
                .value();
  }

  std::vector<TermQuery> TopicTermQueries(const Searcher& searcher) const {
    std::vector<TermQuery> queries;
    for (const SearchTopic& topic : generated_->topics.topics) {
      queries.push_back(searcher.ParseQuery(topic.title));
    }
    // A repeated-term query and an empty query exercise the edge paths.
    queries.push_back(searcher.ParseQuery("news news report"));
    queries.push_back(TermQuery());
    return queries;
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
  std::shared_ptr<const SubIndex> text_;
};

TEST_F(SearcherParallelTest, BatchMatchesSequentialBitwise) {
  const Bm25Scorer scorer;
  const Searcher searcher(text_->index(), scorer);
  const std::vector<TermQuery> queries = TopicTermQueries(searcher);

  std::vector<std::vector<SearchHit>> sequential;
  for (const TermQuery& q : queries) {
    sequential.push_back(searcher.Search(q, 50));
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    const auto batched = searcher.BatchSearch(queries, 50, threads);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i].size(), sequential[i].size())
          << "threads=" << threads << " query=" << i;
      for (size_t j = 0; j < batched[i].size(); ++j) {
        EXPECT_EQ(batched[i][j].doc, sequential[i][j].doc)
            << "threads=" << threads << " query=" << i << " rank=" << j;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(batched[i][j].score, sequential[i][j].score)
            << "threads=" << threads << " query=" << i << " rank=" << j;
      }
    }
  }
}

TEST_F(SearcherParallelTest, EngineBatchMatchesSequential) {
  std::vector<Query> queries;
  for (const SearchTopic& topic : generated_->topics.topics) {
    Query q;
    q.text = topic.title;
    queries.push_back(std::move(q));
  }

  std::vector<ResultList> sequential;
  for (const Query& q : queries) {
    sequential.push_back(engine_->Search(q, 30));
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::vector<ResultList> batched =
        engine_->BatchSearch(queries, 30, threads);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i].size(), sequential[i].size())
          << "threads=" << threads << " query=" << i;
      for (size_t j = 0; j < batched[i].size(); ++j) {
        EXPECT_EQ(batched[i].at(j).shot, sequential[i].at(j).shot);
        EXPECT_EQ(batched[i].at(j).score, sequential[i].at(j).score);
      }
    }
  }
}

// Stress case for `ctest -L tier1` under IVR_SANITIZE=thread: many small
// queries, more jobs than workers, repeated rounds to shake out races in
// the accumulator reuse and the pool's queue handling.
TEST_F(SearcherParallelTest, RepeatedBatchesAreStableUnderContention) {
  const Bm25Scorer scorer;
  const Searcher searcher(text_->index(), scorer);
  std::vector<TermQuery> queries;
  for (int round = 0; round < 8; ++round) {
    for (const SearchTopic& topic : generated_->topics.topics) {
      queries.push_back(searcher.ParseQuery(topic.title));
    }
  }

  const auto first = searcher.BatchSearch(queries, 20, 4);
  for (int round = 0; round < 5; ++round) {
    const auto again = searcher.BatchSearch(queries, 20, 4);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i], first[i]) << "round=" << round << " query=" << i;
    }
  }
}

TEST_F(SearcherParallelTest, DegradedQueryCounterAndDiagnostics) {
  // The engine was built without concepts: a concept-bearing query must
  // flag the drop instead of silently returning text-only results.
  Query q;
  q.text = generated_->topics.topics[0].title;
  q.concepts = {1, 2};

  EXPECT_EQ(engine_->num_degraded_queries(), 0u);
  SearchDiagnostics diag;
  const ResultList results = engine_->Search(q, 10, &diag);
  EXPECT_FALSE(results.empty());
  EXPECT_TRUE(diag.concepts_dropped);
  EXPECT_EQ(engine_->num_degraded_queries(), 1u);

  // Text-only query is not degraded.
  SearchDiagnostics clean;
  Query text_only;
  text_only.text = q.text;
  engine_->Search(text_only, 10, &clean);
  EXPECT_FALSE(clean.concepts_dropped);
  EXPECT_EQ(engine_->num_degraded_queries(), 1u);
}

}  // namespace
}  // namespace ivr
