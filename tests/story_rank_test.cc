#include "ivr/retrieval/story_rank.h"

#include <gtest/gtest.h>

#include "ivr/retrieval/engine.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class StoryRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 121;
    options.num_topics = 3;
    options.num_videos = 4;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
  }

  // A shot list touching two stories with controlled scores.
  ResultList TwoStoryList(double* max_a, double* sum_a) const {
    const NewsStory& a = generated_->collection.stories()[0];
    const NewsStory& b = generated_->collection.stories()[1];
    std::vector<RankedShot> items;
    double score = 1.0;
    *max_a = 0.0;
    *sum_a = 0.0;
    for (ShotId shot : a.shots) {
      items.push_back(RankedShot{shot, score});
      *max_a = std::max(*max_a, score);
      *sum_a += score;
      score -= 0.1;
    }
    items.push_back(RankedShot{b.shots[0], 2.0});  // story b: one strong shot
    return ResultList(std::move(items));
  }

  std::unique_ptr<GeneratedCollection> generated_;
};

TEST_F(StoryRankTest, EmptyInput) {
  EXPECT_TRUE(RankStories(ResultList(), generated_->collection, 10)
                  .empty());
}

TEST_F(StoryRankTest, MaxAggregationFavoursBestShot) {
  double max_a = 0.0;
  double sum_a = 0.0;
  const ResultList list = TwoStoryList(&max_a, &sum_a);
  const auto ranked = RankStories(list, generated_->collection, 10,
                                  StoryAggregation::kMax);
  ASSERT_EQ(ranked.size(), 2u);
  // Story b has the single best shot (2.0 > max_a).
  EXPECT_EQ(ranked[0].story, 1u);
  EXPECT_DOUBLE_EQ(ranked[0].score, 2.0);
  EXPECT_DOUBLE_EQ(ranked[1].score, max_a);
}

TEST_F(StoryRankTest, SumAggregationFavoursBroadSupport) {
  double max_a = 0.0;
  double sum_a = 0.0;
  const ResultList list = TwoStoryList(&max_a, &sum_a);
  if (sum_a <= 2.0) GTEST_SKIP() << "story 0 too short for this check";
  const auto ranked = RankStories(list, generated_->collection, 10,
                                  StoryAggregation::kSum);
  EXPECT_EQ(ranked[0].story, 0u);
  EXPECT_DOUBLE_EQ(ranked[0].score, sum_a);
}

TEST_F(StoryRankTest, MeanAggregationNormalizesByRetrievedShots) {
  double max_a = 0.0;
  double sum_a = 0.0;
  const ResultList list = TwoStoryList(&max_a, &sum_a);
  const auto ranked = RankStories(list, generated_->collection, 10,
                                  StoryAggregation::kMean);
  const size_t count_a =
      generated_->collection.stories()[0].shots.size();
  for (const RankedStory& r : ranked) {
    if (r.story == 0u) {
      EXPECT_NEAR(r.score, sum_a / static_cast<double>(count_a), 1e-12);
    }
  }
}

TEST_F(StoryRankTest, SupportingShotsSortedBestFirst) {
  double max_a = 0.0;
  double sum_a = 0.0;
  const ResultList list = TwoStoryList(&max_a, &sum_a);
  const auto ranked = RankStories(list, generated_->collection, 10);
  for (const RankedStory& story : ranked) {
    ASSERT_FALSE(story.supporting_shots.empty());
    double previous = 1e18;
    for (ShotId shot : story.supporting_shots) {
      const double score = list.ScoreOf(shot);
      EXPECT_LE(score, previous);
      previous = score;
      EXPECT_EQ(generated_->collection.shot(shot).value()->story,
                story.story);
    }
  }
}

TEST_F(StoryRankTest, KTruncates) {
  double max_a = 0.0;
  double sum_a = 0.0;
  const ResultList list = TwoStoryList(&max_a, &sum_a);
  EXPECT_EQ(RankStories(list, generated_->collection, 1).size(), 1u);
}

TEST_F(StoryRankTest, UnknownShotsIgnored) {
  const ResultList list({{9999999, 5.0}});
  EXPECT_TRUE(RankStories(list, generated_->collection, 10).empty());
}

TEST_F(StoryRankTest, TopicalQueryRanksTopicalStoriesFirst) {
  auto engine = RetrievalEngine::Build(generated_->collection).value();
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;
  const auto stories = RankStories(engine->Search(query, 500),
                                   generated_->collection, 5);
  ASSERT_FALSE(stories.empty());
  size_t on_topic = 0;
  for (const RankedStory& s : stories) {
    if (generated_->collection.story(s.story).value()->topic ==
        topic.target_topic) {
      ++on_topic;
    }
  }
  EXPECT_GE(on_topic, stories.size() / 2);
}

}  // namespace
}  // namespace ivr
