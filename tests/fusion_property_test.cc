// Property suite for the fusion operators over random result lists.

#include <algorithm>

#include <gtest/gtest.h>

#include "ivr/core/rng.h"
#include "ivr/retrieval/fusion.h"

namespace ivr {
namespace {

std::vector<ResultList> MakeLists(uint64_t seed, size_t n_lists) {
  Rng rng(seed);
  std::vector<ResultList> lists;
  for (size_t l = 0; l < n_lists; ++l) {
    std::vector<RankedShot> items;
    const int64_t n = rng.UniformInt(0, 30);
    for (int64_t i = 0; i < n; ++i) {
      const ShotId shot = static_cast<ShotId>(rng.UniformInt(0, 40));
      items.push_back(RankedShot{shot, rng.Uniform(-5.0, 20.0)});
    }
    lists.emplace_back(std::move(items));
  }
  return lists;
}

class FusionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusionPropertyTest, NormalizeBoundsScores) {
  for (const ResultList& list : MakeLists(GetParam(), 4)) {
    const ResultList norm = MinMaxNormalize(list);
    EXPECT_EQ(norm.size(), list.size());
    for (const RankedShot& r : norm.items()) {
      EXPECT_GE(r.score, 0.0);
      EXPECT_LE(r.score, 1.0);
    }
  }
}

TEST_P(FusionPropertyTest, NormalizePreservesOrder) {
  for (const ResultList& list : MakeLists(GetParam(), 4)) {
    const ResultList norm = MinMaxNormalize(list);
    EXPECT_EQ(norm.ShotIds(), list.ShotIds());
  }
}

TEST_P(FusionPropertyTest, FusedContainsExactlyTheUnion) {
  const auto lists = MakeLists(GetParam(), 3);
  std::set<ShotId> expected;
  for (const ResultList& list : lists) {
    for (const RankedShot& r : list.items()) {
      expected.insert(r.shot);
    }
  }
  for (const ResultList& fused :
       {CombSum(lists), CombMnz(lists), ReciprocalRankFusion(lists),
        BordaCount(lists)}) {
    std::set<ShotId> got;
    for (const RankedShot& r : fused.items()) {
      got.insert(r.shot);
    }
    EXPECT_EQ(got, expected);
  }
}

TEST_P(FusionPropertyTest, OperatorsAreOrderInvariant) {
  auto lists = MakeLists(GetParam(), 3);
  auto reversed = lists;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(CombSum(lists).ShotIds(), CombSum(reversed).ShotIds());
  EXPECT_EQ(CombMnz(lists).ShotIds(), CombMnz(reversed).ShotIds());
  EXPECT_EQ(ReciprocalRankFusion(lists).ShotIds(),
            ReciprocalRankFusion(reversed).ShotIds());
  EXPECT_EQ(BordaCount(lists).ShotIds(), BordaCount(reversed).ShotIds());
}

TEST_P(FusionPropertyTest, RankFusionInvariantToMonotoneScoreTransforms) {
  // RRF and Borda see only ranks: scaling and shifting scores must not
  // change the fused ranking.
  const auto lists = MakeLists(GetParam(), 3);
  std::vector<ResultList> transformed;
  for (const ResultList& list : lists) {
    std::vector<RankedShot> t;
    for (const RankedShot& r : list.items()) {
      t.push_back(RankedShot{r.shot, 3.0 * r.score + 100.0});
    }
    transformed.emplace_back(std::move(t));
  }
  EXPECT_EQ(ReciprocalRankFusion(lists).ShotIds(),
            ReciprocalRankFusion(transformed).ShotIds());
  EXPECT_EQ(BordaCount(lists).ShotIds(),
            BordaCount(transformed).ShotIds());
}

TEST_P(FusionPropertyTest, WeightedLinearDegeneratesToSingleList) {
  const auto lists = MakeLists(GetParam(), 2);
  const ResultList fused = WeightedLinear(lists, {1.0, 0.0});
  // Weight-zero lists contribute nothing: result equals normalised first.
  EXPECT_EQ(fused.ShotIds(), MinMaxNormalize(lists[0]).ShotIds());
}

TEST_P(FusionPropertyTest, CombSumOfIdenticalListsKeepsOrder) {
  const auto lists = MakeLists(GetParam(), 1);
  if (lists[0].empty()) return;
  const ResultList fused = CombSum({lists[0], lists[0], lists[0]});
  EXPECT_EQ(fused.ShotIds(), lists[0].ShotIds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ivr
