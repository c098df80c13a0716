// Property suite for the evaluation metrics: invariants that must hold
// for ANY run/qrels pair, checked over randomly generated instances.

#include <cmath>

#include <gtest/gtest.h>

#include "ivr/core/rng.h"
#include "ivr/eval/metrics.h"

namespace ivr {
namespace {

struct Instance {
  Qrels qrels;
  ResultList run;
  SearchTopicId topic = 1;
  size_t collection_size = 0;
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.collection_size =
      static_cast<size_t>(rng.UniformInt(5, 200));
  // Judge a random subset relevant with random grades.
  for (size_t shot = 0; shot < inst.collection_size; ++shot) {
    if (rng.Bernoulli(0.25)) {
      inst.qrels.Set(inst.topic, static_cast<ShotId>(shot),
                     rng.Bernoulli(0.3) ? 2 : 1);
    }
  }
  // Retrieve a random subset in random score order.
  std::vector<RankedShot> retrieved;
  for (size_t shot = 0; shot < inst.collection_size; ++shot) {
    if (rng.Bernoulli(0.6)) {
      retrieved.push_back(
          RankedShot{static_cast<ShotId>(shot), rng.UniformDouble()});
    }
  }
  inst.run = ResultList(std::move(retrieved));
  return inst;
}

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, AllMetricsInUnitInterval) {
  const Instance inst = MakeInstance(GetParam());
  const TopicMetrics m =
      ComputeTopicMetrics(inst.run, inst.qrels, inst.topic);
  for (double v : {m.ap, m.p5, m.p10, m.p20, m.recall100, m.ndcg10,
                   m.bpref, m.rr}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST_P(MetricsPropertyTest, PerfectRankingMaximizesEverything) {
  const Instance inst = MakeInstance(GetParam());
  // Build the ideal run: all relevant (grade-2 first), then nothing.
  std::vector<RankedShot> relevant;
  double score = 1e9;
  for (int grade : {2, 1}) {
    for (ShotId shot : inst.qrels.RelevantShots(inst.topic, grade)) {
      if (inst.qrels.Grade(inst.topic, shot) == grade) {
        relevant.push_back(RankedShot{shot, score});
        score -= 1.0;
      }
    }
  }
  const ResultList ideal(std::move(relevant));
  if (inst.qrels.NumRelevant(inst.topic) == 0) return;
  EXPECT_NEAR(AveragePrecision(ideal, inst.qrels, inst.topic), 1.0,
              1e-12);
  EXPECT_NEAR(Bpref(ideal, inst.qrels, inst.topic), 1.0, 1e-12);
  EXPECT_NEAR(NdcgAtK(ideal, inst.qrels, inst.topic, 10), 1.0, 1e-12);
  EXPECT_NEAR(ReciprocalRank(ideal, inst.qrels, inst.topic), 1.0, 1e-12);
  // Any other run cannot beat the ideal on AP.
  EXPECT_LE(AveragePrecision(inst.run, inst.qrels, inst.topic),
            1.0 + 1e-12);
}

TEST_P(MetricsPropertyTest, RecallMonotoneInDepth) {
  const Instance inst = MakeInstance(GetParam());
  double previous = 0.0;
  for (size_t k = 1; k <= inst.run.size() + 5; ++k) {
    const double r = RecallAtK(inst.run, inst.qrels, inst.topic, k);
    EXPECT_GE(r, previous - 1e-12);
    previous = r;
  }
}

TEST_P(MetricsPropertyTest, PrecisionTimesKCountsHits) {
  const Instance inst = MakeInstance(GetParam());
  for (size_t k : {1u, 5u, 10u, 50u}) {
    const double p = PrecisionAtK(inst.run, inst.qrels, inst.topic, k);
    const double hits = p * static_cast<double>(k);
    EXPECT_NEAR(hits, std::round(hits), 1e-9);  // integral hit count
    EXPECT_LE(hits,
              static_cast<double>(std::min<size_t>(k, inst.run.size())) +
                  1e-9);
  }
}

TEST_P(MetricsPropertyTest, SwappingRelevantUpImprovesAp) {
  const Instance inst = MakeInstance(GetParam());
  // Find an adjacent (non-relevant, relevant) pair and swap their scores:
  // AP must not decrease.
  const double ap_before =
      AveragePrecision(inst.run, inst.qrels, inst.topic);
  bool done = false;
  std::vector<RankedShot> items = inst.run.items();
  for (size_t i = 0; i + 1 < items.size() && !done; ++i) {
    const bool upper_rel =
        inst.qrels.IsRelevant(inst.topic, items[i].shot);
    const bool lower_rel =
        inst.qrels.IsRelevant(inst.topic, items[i + 1].shot);
    if (!upper_rel && lower_rel) {
      std::swap(items[i].shot, items[i + 1].shot);
      done = true;
    }
  }
  if (!done) return;  // already perfectly ordered by relevance
  const ResultList swapped(std::move(items));
  EXPECT_GE(AveragePrecision(swapped, inst.qrels, inst.topic),
            ap_before - 1e-12);
}

TEST_P(MetricsPropertyTest, UnjudgedTopicYieldsZeroes) {
  const Instance inst = MakeInstance(GetParam());
  const TopicMetrics m =
      ComputeTopicMetrics(inst.run, inst.qrels, /*topic=*/999);
  EXPECT_DOUBLE_EQ(m.ap, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg10, 0.0);
  EXPECT_DOUBLE_EQ(m.rr, 0.0);
  EXPECT_EQ(m.num_relevant, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace ivr
