#include "ivr/retrieval/engine.h"

#include <gtest/gtest.h>

#include "ivr/video/generator.h"

namespace ivr {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 11;
    options.num_topics = 4;
    options.num_videos = 8;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(EngineTest, BuildRejectsBadOptions) {
  EngineOptions bad;
  bad.scorer = "unknown";
  EXPECT_TRUE(RetrievalEngine::Build(generated_->collection, bad)
                  .status()
                  .IsInvalidArgument());
  bad = EngineOptions();
  bad.text_weight = 0.0;
  bad.visual_weight = 0.0;
  EXPECT_TRUE(RetrievalEngine::Build(generated_->collection, bad)
                  .status()
                  .IsInvalidArgument());
  bad = EngineOptions();
  bad.text_weight = -1.0;
  EXPECT_TRUE(RetrievalEngine::Build(generated_->collection, bad)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, TextSearchFindsTopicalShots) {
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;
  const ResultList results = engine_->Search(query, 20);
  ASSERT_FALSE(results.empty());
  // The majority of the top 10 should be truly relevant.
  size_t relevant = 0;
  for (size_t i = 0; i < std::min<size_t>(10, results.size()); ++i) {
    if (generated_->qrels.IsRelevant(topic.id, results.at(i).shot)) {
      ++relevant;
    }
  }
  EXPECT_GE(relevant, 6u);
}

TEST_F(EngineTest, VisualSearchFindsTopicalShots) {
  const SearchTopic& topic = generated_->topics.topics[1];
  Query query;
  query.examples = topic.examples;
  const ResultList results = engine_->Search(query, 20);
  ASSERT_FALSE(results.empty());
  size_t relevant = 0;
  for (size_t i = 0; i < std::min<size_t>(10, results.size()); ++i) {
    if (generated_->qrels.IsRelevant(topic.id, results.at(i).shot)) {
      ++relevant;
    }
  }
  EXPECT_GE(relevant, 5u);
}

TEST_F(EngineTest, MultimodalBeatsNothing) {
  const SearchTopic& topic = generated_->topics.topics[2];
  Query query;
  query.text = topic.title;
  query.examples = topic.examples;
  const ResultList results = engine_->Search(query, 50);
  EXPECT_FALSE(results.empty());
}

TEST_F(EngineTest, EmptyQueryYieldsNothing) {
  EXPECT_TRUE(engine_->Search(Query(), 10).empty());
}

TEST_F(EngineTest, SearchIsDeterministic) {
  Query query;
  query.text = generated_->topics.topics[0].title;
  const ResultList a = engine_->Search(query, 30);
  const ResultList b = engine_->Search(query, 30);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).shot, b.at(i).shot);
    EXPECT_DOUBLE_EQ(a.at(i).score, b.at(i).score);
  }
}

TEST_F(EngineTest, KTruncates) {
  Query query;
  query.text = generated_->topics.topics[0].title;
  EXPECT_LE(engine_->Search(query, 5).size(), 5u);
}

TEST_F(EngineTest, IndexedTextCombinesTranscriptAndHeadline) {
  const Shot& shot = generated_->collection.shots()[0];
  const std::string text = engine_->IndexedText(shot.id);
  EXPECT_NE(text.find(shot.asr_transcript), std::string::npos);
  const NewsStory* story =
      generated_->collection.story(shot.story).value();
  EXPECT_NE(text.find(story->headline), std::string::npos);
  EXPECT_TRUE(engine_->IndexedText(999999).empty());
}

TEST_F(EngineTest, ScoreShotConsistentWithSearch) {
  const TermQuery terms =
      engine_->ParseText(generated_->topics.topics[0].title);
  const ResultList results = engine_->SearchTerms(terms, 10);
  ASSERT_FALSE(results.empty());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(engine_->ScoreShot(terms, results.at(i).shot),
                results.at(i).score, 1e-9);
  }
}

TEST_F(EngineTest, HeadlineIndexingCanBeDisabled) {
  EngineOptions options;
  options.index_headlines = false;
  auto engine =
      RetrievalEngine::Build(generated_->collection, options).value();
  const Shot& shot = generated_->collection.shots()[0];
  EXPECT_EQ(engine->IndexedText(shot.id), shot.asr_transcript);
}

TEST_F(EngineTest, StatsExposed) {
  EXPECT_EQ(engine_->num_shots(), generated_->collection.num_shots());
  EXPECT_EQ(engine_->num_shards(), 1u);
  for (const Shot& shot : generated_->collection.shots()) {
    EXPECT_FALSE(engine_->IndexedText(shot.id).empty()) << shot.id;
  }
  EXPECT_FALSE(engine_->SearchTerms(
                   engine_->ParseText(generated_->topics.topics[0].title), 10)
                   .empty());
}

}  // namespace
}  // namespace ivr
