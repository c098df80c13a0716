#include "ivr/retrieval/result_list.h"

#include <vector>

#include <gtest/gtest.h>

namespace ivr {
namespace {

TEST(ResultListTest, EmptyList) {
  ResultList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_FALSE(list.Contains(1));
  EXPECT_EQ(list.RankOf(1), std::nullopt);
  EXPECT_DOUBLE_EQ(list.ScoreOf(1), 0.0);
  EXPECT_TRUE(list.ShotIds().empty());
}

TEST(ResultListTest, SortsByScoreDescending) {
  const ResultList list({{1, 0.5}, {2, 0.9}, {3, 0.7}});
  EXPECT_EQ(list.ShotIds(), (std::vector<ShotId>{2, 3, 1}));
  EXPECT_EQ(list.at(0).shot, 2u);
  EXPECT_DOUBLE_EQ(list.at(0).score, 0.9);
}

TEST(ResultListTest, TiesBreakByShotId) {
  const ResultList list({{9, 0.5}, {3, 0.5}, {6, 0.5}});
  EXPECT_EQ(list.ShotIds(), (std::vector<ShotId>{3, 6, 9}));
}

TEST(ResultListTest, DuplicatesKeepMaxScore) {
  const ResultList list({{5, 0.2}, {5, 0.8}, {5, 0.4}});
  EXPECT_EQ(list.size(), 1u);
  EXPECT_DOUBLE_EQ(list.ScoreOf(5), 0.8);
}

TEST(ResultListTest, ConstructorDeduplicates) {
  ResultList list({{1, 0.1}, {2, 0.5}, {1, 0.9}});
  EXPECT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list.ScoreOf(1), 0.9);
  EXPECT_EQ(list.at(0).shot, 1u);
}

TEST(ResultListTest, RankOfAndContains) {
  ResultList list({{10, 1.0}, {20, 2.0}, {30, 3.0}});
  EXPECT_EQ(list.RankOf(30), 0u);
  EXPECT_EQ(list.RankOf(20), 1u);
  EXPECT_EQ(list.RankOf(10), 2u);
  EXPECT_TRUE(list.Contains(20));
  EXPECT_FALSE(list.Contains(40));
}

TEST(ResultListTest, TruncateKeepsTop) {
  ResultList list({{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}});
  list.Truncate(2);
  EXPECT_EQ(list.ShotIds(), (std::vector<ShotId>{4, 3}));
  list.Truncate(10);  // no-op when k >= size
  EXPECT_EQ(list.size(), 2u);
  list.Truncate(0);
  EXPECT_TRUE(list.empty());
}

TEST(ResultListTest, NegativeScoresSupported) {
  ResultList list({{1, -0.5}, {2, 0.1}, {3, -0.1}});
  EXPECT_EQ(list.ShotIds(), (std::vector<ShotId>{2, 3, 1}));
}

TEST(ResultListTest, FromRankedAdoptsRankOrder) {
  const std::vector<RankedShot> ranked = {
      {4, 0.9}, {1, 0.5}, {2, 0.5}, {0, 0.1}};
  const ResultList list = ResultList::FromRanked(ranked);
  EXPECT_EQ(list.items(), ranked);
  EXPECT_EQ(list.items(), ResultList(ranked).items());
  EXPECT_TRUE(ResultList::FromRanked({}).empty());
}

TEST(ResultListDeathTest, FromRankedRejectsUnrankedInput) {
#ifdef NDEBUG
  GTEST_SKIP() << "FromRanked asserts its contract in debug builds only";
#else
  // Scores ascending.
  EXPECT_DEATH(ResultList::FromRanked({{1, 0.5}, {2, 0.9}}), "");
  // A tie out of ShotId order.
  EXPECT_DEATH(ResultList::FromRanked({{2, 0.5}, {1, 0.5}}), "");
  // The same shot twice, adjacent and apart.
  EXPECT_DEATH(ResultList::FromRanked({{1, 0.5}, {1, 0.5}}), "");
  EXPECT_DEATH(ResultList::FromRanked({{3, 0.9}, {1, 0.5}, {3, 0.1}}), "");
#endif
}

}  // namespace
}  // namespace ivr
