#include "ivr/retrieval/fusion.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"

namespace ivr {
namespace {

// Reference copies of the sort-everything fusion path: normalise into an
// unordered vector that ResultList(vector) sorts, and sum through a hash
// map. The rank-preserving MinMaxNormalize and the vote tally behind all
// five operators must reproduce them bit for bit.
ResultList ReferenceMinMaxNormalize(const ResultList& list) {
  if (list.empty()) return ResultList();
  double lo = list.at(0).score;
  double hi = list.at(0).score;
  for (const RankedShot& r : list.items()) {
    lo = std::min(lo, r.score);
    hi = std::max(hi, r.score);
  }
  const double range = hi - lo;
  std::vector<RankedShot> items;
  for (const RankedShot& r : list.items()) {
    items.push_back(
        RankedShot{r.shot, range > 0.0 ? (r.score - lo) / range : 0.5});
  }
  return ResultList(std::move(items));
}

ResultList ReferenceFromMap(const std::unordered_map<ShotId, double>& acc) {
  std::vector<RankedShot> items;
  for (const auto& [shot, score] : acc) items.push_back({shot, score});
  return ResultList(std::move(items));
}

ResultList ReferenceCombSum(const std::vector<ResultList>& lists) {
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const ResultList norm = ReferenceMinMaxNormalize(list);
    for (const RankedShot& r : norm.items()) {
      acc[r.shot] += r.score;
    }
  }
  return ReferenceFromMap(acc);
}

ResultList ReferenceCombMnz(const std::vector<ResultList>& lists) {
  std::unordered_map<ShotId, double> sum;
  std::unordered_map<ShotId, int> hits;
  for (const ResultList& list : lists) {
    const ResultList norm = ReferenceMinMaxNormalize(list);
    for (const RankedShot& r : norm.items()) {
      sum[r.shot] += r.score;
      ++hits[r.shot];
    }
  }
  std::unordered_map<ShotId, double> acc;
  for (const auto& [shot, s] : sum) acc[shot] = s * hits[shot];
  return ReferenceFromMap(acc);
}

ResultList ReferenceWeightedLinear(const std::vector<ResultList>& lists,
                                   const std::vector<double>& weights) {
  std::unordered_map<ShotId, double> acc;
  const size_t n = std::min(lists.size(), weights.size());
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) continue;
    const ResultList norm = ReferenceMinMaxNormalize(lists[i]);
    for (const RankedShot& r : norm.items()) {
      acc[r.shot] += weights[i] * r.score;
    }
  }
  return ReferenceFromMap(acc);
}

ResultList ReferenceReciprocalRankFusion(const std::vector<ResultList>& lists,
                                         double k = 60.0) {
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    for (size_t rank = 0; rank < items.size(); ++rank) {
      acc[items[rank].shot] += 1.0 / (k + static_cast<double>(rank) + 1.0);
    }
  }
  return ReferenceFromMap(acc);
}

ResultList ReferenceBordaCount(const std::vector<ResultList>& lists) {
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    const double n = static_cast<double>(items.size());
    for (size_t rank = 0; rank < items.size(); ++rank) {
      acc[items[rank].shot] += n - static_cast<double>(rank);
    }
  }
  return ReferenceFromMap(acc);
}

std::string Bits(const ResultList& list) {
  std::string out;
  for (const RankedShot& r : list.items()) {
    out += StrFormat("%u:%a ", r.shot, r.score);
  }
  return out;
}

TEST(FusionOrderTest, RoundingTieGoesBackToShotOrder) {
  // Against lo = -1e16 (ulp 2), 0.5 - lo and 0.25 - lo both round to
  // 1e16: shots 9 (ranked first) and 3 normalise to one score.
  const ResultList list({{5, 1e16}, {9, 0.5}, {3, 0.25}, {7, -1e16}});
  ASSERT_EQ(list.ShotIds(), (std::vector<ShotId>{5, 9, 3, 7}));
  const ResultList norm = MinMaxNormalize(list);
  ASSERT_EQ(norm.ScoreOf(9), norm.ScoreOf(3));
  EXPECT_EQ(norm.ShotIds(), (std::vector<ShotId>{5, 3, 9, 7}));
  EXPECT_EQ(Bits(norm), Bits(ReferenceMinMaxNormalize(list)));
  EXPECT_EQ(Bits(CombSum({list})), Bits(ReferenceCombSum({list})));
}

TEST(FusionOrderTest, ConstantListIsOneRunInShotOrder) {
  const ResultList list({{5, 2.0}, {1, 2.0}, {3, 2.0}, {8, 2.0}});
  const ResultList norm = MinMaxNormalize(list);
  EXPECT_EQ(norm.ShotIds(), (std::vector<ShotId>{1, 3, 5, 8}));
  EXPECT_EQ(Bits(norm), Bits(ReferenceMinMaxNormalize(list)));
  EXPECT_EQ(Bits(CombSum({list})), Bits(ReferenceCombSum({list})));
}

TEST(FusionOrderTest, NegativeWeightOnZeroScoreSumsToPositiveZero) {
  // The bottom entry normalises to 0.0; weighted by -1 it votes -0.0,
  // and its sum starts from 0.0, so it fuses to +0.0 as the map did.
  const ResultList list({{4, 2.0}, {8, 1.0}});
  const ResultList fused = WeightedLinear({list}, {-1.0});
  EXPECT_EQ(Bits(fused), "8:0x0p+0 4:-0x1p+0 ");
  EXPECT_EQ(Bits(fused), Bits(ReferenceWeightedLinear({list}, {-1.0})));
}

TEST(FusionOrderTest, RandomListsMatchReferenceBitwise) {
  Rng rng(19);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<ResultList> lists;
    const int64_t n_lists = rng.UniformInt(1, 3);
    for (int64_t l = 0; l < n_lists; ++l) {
      // Coarse scores make exact ties; a huge outlier makes rounding
      // merge neighbours.
      std::vector<RankedShot> items;
      const int64_t n = rng.UniformInt(0, 40);
      const double outlier = rng.Bernoulli(0.3) ? 1e17 : 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const double score =
            rng.Bernoulli(0.5)
                ? static_cast<double>(rng.UniformInt(0, 4)) * 0.25
                : rng.Uniform(-3.0, 3.0);
        // Some ids just below kInvalidShotId, where a narrowing or
        // overflowing tally would show.
        const ShotId shot =
            rng.Bernoulli(0.2)
                ? kInvalidShotId - 1 -
                      static_cast<ShotId>(rng.UniformInt(0, 60))
                : static_cast<ShotId>(rng.UniformInt(0, 60));
        items.push_back({shot, i == 0 ? score - outlier : score});
      }
      lists.emplace_back(std::move(items));
    }
    // Zero and negative weights; now and then one weight too many or
    // too few.
    std::vector<double> weights;
    const int64_t n_weights =
        rng.Bernoulli(0.1) ? n_lists + rng.UniformInt(-1, 1) : n_lists;
    for (int64_t w = 0; w < n_weights; ++w) {
      weights.push_back(rng.Bernoulli(0.2)   ? 0.0
                        : rng.Bernoulli(0.3) ? rng.Uniform(-2.0, 0.0)
                                             : rng.Uniform(0.0, 2.0));
    }
    for (const ResultList& list : lists) {
      ASSERT_EQ(Bits(MinMaxNormalize(list)),
                Bits(ReferenceMinMaxNormalize(list)))
          << "trial " << trial;
      ASSERT_EQ(Bits(CombSum({list})), Bits(ReferenceCombSum({list})))
          << "trial " << trial;
    }
    ASSERT_EQ(Bits(CombSum(lists)), Bits(ReferenceCombSum(lists)))
        << "trial " << trial;
    ASSERT_EQ(Bits(CombMnz(lists)), Bits(ReferenceCombMnz(lists)))
        << "trial " << trial;
    ASSERT_EQ(Bits(WeightedLinear(lists, weights)),
              Bits(ReferenceWeightedLinear(lists, weights)))
        << "trial " << trial;
    ASSERT_EQ(Bits(ReciprocalRankFusion(lists)),
              Bits(ReferenceReciprocalRankFusion(lists)))
        << "trial " << trial;
    ASSERT_EQ(Bits(BordaCount(lists)), Bits(ReferenceBordaCount(lists)))
        << "trial " << trial;
  }
}

TEST(MinMaxNormalizeTest, MapsToUnitInterval) {
  const ResultList norm =
      MinMaxNormalize(ResultList({{1, 10.0}, {2, 20.0}, {3, 15.0}}));
  EXPECT_DOUBLE_EQ(norm.ScoreOf(2), 1.0);
  EXPECT_DOUBLE_EQ(norm.ScoreOf(1), 0.0);
  EXPECT_DOUBLE_EQ(norm.ScoreOf(3), 0.5);
}

TEST(MinMaxNormalizeTest, ConstantListMapsToNeutral) {
  // A constant-score list carries no ranking evidence; it must normalise
  // to 0.5 (neutral), not 1.0, so it cannot dominate fusion.
  const ResultList norm = MinMaxNormalize(ResultList({{1, 5.0}, {2, 5.0}}));
  EXPECT_DOUBLE_EQ(norm.ScoreOf(1), 0.5);
  EXPECT_DOUBLE_EQ(norm.ScoreOf(2), 0.5);
}

TEST(MinMaxNormalizeTest, ConstantListCannotDominateFusion) {
  // Regression for the all-ones bug: fusing an informative list with a
  // degenerate constant list used to hand the constant list maximal
  // evidence (1.0 per shot), letting its shots outrank the informative
  // winner. With neutral 0.5 the informative top shot stays on top.
  const ResultList informative({{1, 10.0}, {2, 5.0}, {3, 1.0}});
  const ResultList degenerate({{2, 7.0}, {3, 7.0}});
  const ResultList fused = CombSum({informative, degenerate});
  EXPECT_EQ(fused.at(0).shot, 1u);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 1.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 4.0 / 9.0 + 0.5);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(3), 0.5);
  // Pin the full fused ranking.
  EXPECT_EQ(fused.ShotIds(), (std::vector<ShotId>{1, 2, 3}));
}

TEST(MinMaxNormalizeTest, EmptyList) {
  EXPECT_TRUE(MinMaxNormalize(ResultList()).empty());
}

TEST(CombSumTest, AddsNormalizedEvidence) {
  const ResultList a({{1, 1.0}, {2, 0.0}});
  const ResultList b({{2, 2.0}, {3, 0.0}});
  const ResultList fused = CombSum({a, b});
  // Shot 1: 1.0; shot 2: 0.0 + 1.0; shot 3: 0.0.
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 1.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 1.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(3), 0.0);
  EXPECT_EQ(fused.size(), 3u);
}

TEST(CombMnzTest, RewardsMultiListPresence) {
  const ResultList a({{1, 1.0}, {2, 0.5}, {4, 0.0}});
  const ResultList b({{2, 1.0}, {3, 0.0}});
  const ResultList fused = CombMnz({a, b});
  // Shot 2 appears in both lists: (0.5 + 1.0) * 2 = 3.0.
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 3.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 1.0);
}

TEST(WeightedLinearTest, RespectsWeights) {
  const ResultList a({{1, 1.0}, {2, 0.0}});
  const ResultList b({{2, 1.0}, {1, 0.0}});
  const ResultList fused = WeightedLinear({a, b}, {0.9, 0.1});
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 0.9);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 0.1);
  EXPECT_EQ(fused.at(0).shot, 1u);
}

TEST(WeightedLinearTest, ZeroWeightListIgnored) {
  const ResultList a({{1, 1.0}});
  const ResultList b({{2, 1.0}});
  const ResultList fused = WeightedLinear({a, b}, {1.0, 0.0});
  EXPECT_FALSE(fused.Contains(2));
}

TEST(WeightedLinearTest, LengthMismatchFusesAlignedPrefix) {
  const ResultList a({{1, 1.0}});
  const ResultList b({{2, 1.0}});
  // More lists than weights: only the aligned prefix contributes (an
  // error is logged); the unpaired list must not leak in with an
  // uninitialised weight.
  const ResultList fused = WeightedLinear({a, b}, {0.5});
  EXPECT_TRUE(fused.Contains(1));
  EXPECT_FALSE(fused.Contains(2));
  // More weights than lists is equally mismatched but must not crash.
  const ResultList fused2 = WeightedLinear({a}, {0.5, 0.5});
  EXPECT_TRUE(fused2.Contains(1));
  EXPECT_FALSE(fused2.Contains(2));
}

TEST(ReciprocalRankFusionTest, EarlierRanksScoreHigher) {
  const ResultList a({{1, 3.0}, {2, 2.0}, {3, 1.0}});
  const ResultList fused = ReciprocalRankFusion({a}, 60.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 1.0 / 61.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 1.0 / 62.0);
  EXPECT_GT(fused.ScoreOf(1), fused.ScoreOf(3));
}

TEST(ReciprocalRankFusionTest, AgreementWins) {
  const ResultList a({{1, 3.0}, {2, 2.0}});
  const ResultList b({{2, 9.0}, {3, 1.0}});
  const ResultList fused = ReciprocalRankFusion({a, b});
  // Shot 2 is in both lists (ranks 2 and 1) and must beat both
  // single-list shots.
  EXPECT_EQ(fused.at(0).shot, 2u);
}

TEST(BordaCountTest, AwardsPositionPoints) {
  const ResultList a({{1, 3.0}, {2, 2.0}, {3, 1.0}});
  const ResultList fused = BordaCount({a});
  EXPECT_DOUBLE_EQ(fused.ScoreOf(1), 3.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(2), 2.0);
  EXPECT_DOUBLE_EQ(fused.ScoreOf(3), 1.0);
}

TEST(FusionTest, EmptyInputs) {
  EXPECT_TRUE(CombSum({}).empty());
  EXPECT_TRUE(CombMnz({}).empty());
  EXPECT_TRUE(WeightedLinear({}, {}).empty());
  EXPECT_TRUE(ReciprocalRankFusion({}).empty());
  EXPECT_TRUE(BordaCount({}).empty());
  EXPECT_TRUE(CombSum({ResultList(), ResultList()}).empty());
}

}  // namespace
}  // namespace ivr
