#include "ivr/retrieval/concept_index.h"

#include <gtest/gtest.h>

#include "ivr/eval/metrics.h"
#include "ivr/retrieval/engine.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class ConceptIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 81;
    options.num_topics = 4;
    options.num_videos = 8;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
  }

  SimulatedConceptDetector MakeDetector(double mean_positive) const {
    SimulatedConceptDetector::Options options;
    options.mean_positive = mean_positive;
    return SimulatedConceptDetector(generated_->collection.num_topics(),
                                    options, 5);
  }

  std::unique_ptr<GeneratedCollection> generated_;
};

TEST_F(ConceptIndexTest, DimensionsMatchCollection) {
  const ConceptIndex index(generated_->collection, MakeDetector(0.8));
  EXPECT_EQ(index.num_shots(), generated_->collection.num_shots());
  EXPECT_EQ(index.num_concepts(), 4u);
}

TEST_F(ConceptIndexTest, ConfidencesInRangeAndDeterministic) {
  const ConceptIndex a(generated_->collection, MakeDetector(0.8));
  const ConceptIndex b(generated_->collection, MakeDetector(0.8));
  for (ShotId shot = 0; shot < 20; ++shot) {
    for (ConceptId c = 0; c < 4; ++c) {
      const double conf = a.Confidence(shot, c);
      EXPECT_GE(conf, 0.0);
      EXPECT_LE(conf, 1.0);
      EXPECT_DOUBLE_EQ(conf, b.Confidence(shot, c));
    }
  }
}

TEST_F(ConceptIndexTest, OutOfRangeIsZero) {
  const ConceptIndex index(generated_->collection, MakeDetector(0.8));
  EXPECT_DOUBLE_EQ(index.Confidence(999999, 0), 0.0);
  EXPECT_DOUBLE_EQ(index.Confidence(0, 999), 0.0);
}

TEST_F(ConceptIndexTest, GoodDetectorRanksTrueConceptShotsOnTop) {
  const ConceptIndex index(generated_->collection, MakeDetector(0.95));
  const SearchTopic& topic = generated_->topics.topics[1];
  const ResultList run = index.Search(topic.target_topic, 1000);
  const double ap =
      AveragePrecision(run, generated_->qrels, topic.id);
  EXPECT_GT(ap, 0.8);
}

TEST_F(ConceptIndexTest, UninformativeDetectorNearChance) {
  const ConceptIndex index(generated_->collection, MakeDetector(0.5));
  const SearchTopic& topic = generated_->topics.topics[1];
  const double ap = AveragePrecision(index.Search(topic.target_topic, 1000),
                                     generated_->qrels, topic.id);
  // Chance level is roughly the relevant fraction of the collection.
  const double chance =
      static_cast<double>(generated_->qrels.NumRelevant(topic.id)) /
      static_cast<double>(generated_->collection.num_shots());
  EXPECT_LT(ap, chance * 2.5);
}

TEST_F(ConceptIndexTest, DetectorQualityOrdersAp) {
  const SearchTopic& topic = generated_->topics.topics[0];
  double previous = -1.0;
  for (double quality : {0.55, 0.7, 0.85, 0.95}) {
    const ConceptIndex index(generated_->collection,
                             MakeDetector(quality));
    const double ap = AveragePrecision(
        index.Search(topic.target_topic, 1000), generated_->qrels,
        topic.id);
    EXPECT_GT(ap, previous) << "quality " << quality;
    previous = ap;
  }
}

TEST_F(ConceptIndexTest, SearchAllAveragesConcepts) {
  const ConceptIndex index(generated_->collection, MakeDetector(0.9));
  EXPECT_TRUE(index.SearchAll({}, 10).empty());
  const ResultList both = index.SearchAll({0, 1}, 1000);
  ASSERT_FALSE(both.empty());
  const ShotId top = both.at(0).shot;
  EXPECT_NEAR(both.at(0).score,
              (index.Confidence(top, 0) + index.Confidence(top, 1)) / 2.0,
              1e-12);
}

TEST_F(ConceptIndexTest, EngineIntegration) {
  EngineOptions options;
  options.use_concepts = true;
  options.detector.mean_positive = 0.9;
  auto engine =
      RetrievalEngine::Build(generated_->collection, options).value();
  ASSERT_TRUE(engine->Health().concept_index_available);

  const SearchTopic& topic = generated_->topics.topics[0];
  // Concept-only query through the multimodal Search path.
  Query query;
  query.concepts = {topic.target_topic};
  const ResultList via_query = engine->Search(query, 100);
  EXPECT_FALSE(via_query.empty());

  // Direct API agrees.
  const ResultList direct =
      engine->SearchConcepts({topic.target_topic}, 100).value();
  EXPECT_EQ(via_query.ShotIds(), direct.ShotIds());

  // Engines without concepts refuse.
  auto plain = RetrievalEngine::Build(generated_->collection).value();
  EXPECT_TRUE(plain->SearchConcepts({0}, 10)
                  .status()
                  .IsFailedPrecondition());
  // ...and silently ignore concept parts of multimodal queries.
  Query mixed;
  mixed.text = topic.title;
  mixed.concepts = {topic.target_topic};
  EXPECT_FALSE(plain->Search(mixed, 10).empty());
}

}  // namespace
}  // namespace ivr
