#include "ivr/features/similarity.h"

#include <gtest/gtest.h>

namespace ivr {
namespace {

// The nearest-neighbour kernel's cases live in visual_knn_property_test.

TEST(ComputeSimilarityTest, AllKindsAgreeOnIdentity) {
  Rng rng(6);
  const ColorHistogram h = ColorHistogram::RandomPrototype(&rng);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kHistogramIntersection,
                                h, h),
              1.0, 1e-9);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kCosine, h, h), 1.0,
              1e-9);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kInverseL1, h, h), 1.0,
              1e-9);
}

}  // namespace
}  // namespace ivr
