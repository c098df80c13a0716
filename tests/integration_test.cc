// End-to-end tests over the whole stack: generate a collection, index it,
// simulate users on interfaces backed by static and adaptive engines, and
// evaluate with TRECVID-style metrics — the full pipeline every experiment
// binary exercises.

#include <gtest/gtest.h>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/adaptive/implicit_graph.h"
#include "ivr/eval/experiment.h"
#include "ivr/eval/metrics.h"
#include "ivr/eval/significance.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/replayer.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 71;
    options.num_topics = 5;
    options.num_videos = 12;
    // Hard ASR conditions so adaptation has headroom to show effects.
    options.asr_word_error_rate = 0.45;
    options.general_word_prob = 0.6;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(IntegrationTest, BaselineRetrievalBeatsRandomOnAllTopics) {
  Rng rng(1);
  for (const SearchTopic& topic : generated_->topics.topics) {
    Query query;
    query.text = topic.title;
    const ResultList run = engine_->Search(query, 100);
    const double ap = AveragePrecision(run, generated_->qrels, topic.id);

    // Random ranking of the same depth.
    std::vector<ShotId> all;
    for (const Shot& shot : generated_->collection.shots()) {
      all.push_back(shot.id);
    }
    rng.Shuffle(&all);
    std::vector<RankedShot> shuffled;
    for (size_t i = 0; i < std::min<size_t>(100, all.size()); ++i) {
      shuffled.push_back(RankedShot{all[i], 100.0 - static_cast<double>(i)});
    }
    const ResultList random(std::move(shuffled));
    const double random_ap =
        AveragePrecision(random, generated_->qrels, topic.id);
    EXPECT_GT(ap, random_ap) << "topic " << topic.id;
  }
}

TEST_F(IntegrationTest, AdaptiveSessionImprovesOverStaticSession) {
  // Identical simulated users run the same topics against a static and an
  // adaptive backend; mean AP of the final query must favour adaptivity.
  SessionSimulator simulator(generated_->collection, generated_->qrels);

  // A persistent user who keeps reformulating (never satisfied early), so
  // later queries exist for the adaptive backend to improve.
  UserModel user = NoviceUser();
  user.satisfaction_target = 1000;
  user.max_queries = 3;
  user.max_pages = 2;
  user.page_patience = 1.0;
  user.session_budget_ms = 30 * kMillisPerMinute;

  // Every Run begins a fresh managed session of the adaptive policy.
  const AdaptiveEngine policy(*engine_, AdaptiveOptions(), nullptr);
  SessionManager manager(policy, SessionManagerOptions());
  ManagedSessionBackend adaptive(&manager, "x", user.name);

  double static_ap = 0.0;
  double adaptive_ap = 0.0;
  size_t sessions = 0;
  for (const SearchTopic& topic : generated_->topics.topics) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      SessionSimulator::RunConfig config;
      config.seed = seed;
      config.session_id = "x";

      StaticBackend static_backend(*engine_);
      const SessionOutcome so =
          simulator.Run(&static_backend, topic, user, config, nullptr)
              .value()
              .outcome;

      const SessionOutcome ao =
          simulator.Run(&adaptive, topic, user, config, nullptr)
              .value()
              .outcome;

      if (so.per_query_results.size() < 2 ||
          ao.per_query_results.size() < 2) {
        continue;
      }
      static_ap += AveragePrecision(so.per_query_results.back(),
                                    generated_->qrels, topic.id);
      adaptive_ap += AveragePrecision(ao.per_query_results.back(),
                                      generated_->qrels, topic.id);
      ++sessions;
    }
  }
  ASSERT_GT(sessions, 0u);
  EXPECT_GT(adaptive_ap, static_ap);
}

TEST_F(IntegrationTest, LogsRoundTripThroughDiskFormatAndReplay) {
  SessionSimulator simulator(generated_->collection, generated_->qrels);
  SessionLog log;
  StaticBackend backend(*engine_);
  SessionSimulator::RunConfig config;
  config.seed = 5;
  config.session_id = "roundtrip";
  simulator
      .Run(&backend, generated_->topics.topics[1], ExpertUser(), config,
           &log)
      .value();

  const SessionLog parsed = SessionLog::Parse(log.Serialize()).value();
  ASSERT_EQ(parsed.size(), log.size());

  const LogReplayer replayer;
  const auto replays = replayer.ReplayAll(parsed, &backend).value();
  ASSERT_EQ(replays.size(), 1u);
  EXPECT_FALSE(replays[0].queries.empty());
}

TEST_F(IntegrationTest, CommunityGraphHelpsNewUsers) {
  // Past users' sessions build the implicit graph; a new user's query is
  // answered from community evidence alone and should surface relevant
  // shots at precision comparable to text search.
  SessionSimulator simulator(generated_->collection, generated_->qrels);
  StaticBackend backend(*engine_);
  const LinearWeighting scheme;
  ImplicitGraph graph(engine_->analyzer());

  const SearchTopic& topic = generated_->topics.topics[0];
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SessionSimulator::RunConfig config;
    config.seed = seed;
    config.session_id = "past-" + std::to_string(seed);
    const SimulatedSession session =
        simulator.Run(&backend, topic, NoviceUser(), config, nullptr)
            .value();
    graph.AddSession(session.events, scheme, &generated_->collection);
  }
  ASSERT_GT(graph.num_edges(), 0u);

  const ResultList recs = graph.Recommend(topic.title, 10);
  ASSERT_FALSE(recs.empty());
  const double p = PrecisionAtK(recs, generated_->qrels, topic.id,
                                std::min<size_t>(10, recs.size()));
  EXPECT_GT(p, 0.5);
}

TEST_F(IntegrationTest, FullEvaluationPipelineProducesTables) {
  // Build SystemRuns for two scorers over all topics, evaluate, compare.
  std::vector<SearchTopicId> topic_ids;
  SystemRun bm25_run;
  bm25_run.system = "bm25";
  EngineOptions tfidf_options;
  tfidf_options.scorer = "tfidf";
  auto tfidf_engine =
      RetrievalEngine::Build(generated_->collection, tfidf_options)
          .value();
  SystemRun tfidf_run;
  tfidf_run.system = "tfidf";
  for (const SearchTopic& topic : generated_->topics.topics) {
    topic_ids.push_back(topic.id);
    Query query;
    query.text = topic.title;
    bm25_run.runs[topic.id] = engine_->Search(query, 100);
    tfidf_run.runs[topic.id] = tfidf_engine->Search(query, 100);
  }
  const SystemEvaluation bm25 =
      EvaluateSystem(bm25_run, generated_->qrels, topic_ids);
  const SystemEvaluation tfidf =
      EvaluateSystem(tfidf_run, generated_->qrels, topic_ids);
  EXPECT_GT(bm25.mean.ap, 0.1);
  EXPECT_GT(tfidf.mean.ap, 0.1);

  const auto ttest = PairedTTest(bm25.ApVector(), tfidf.ApVector());
  ASSERT_TRUE(ttest.ok());
  EXPECT_GE(ttest->p_value, 0.0);
  EXPECT_LE(ttest->p_value, 1.0);

  TextTable table({"system", "MAP", "P@10"});
  for (const SystemEvaluation* eval : {&bm25, &tfidf}) {
    table.AddRow({eval->system, FormatMetric(eval->mean.ap),
                  FormatMetric(eval->mean.p10)});
  }
  EXPECT_EQ(table.num_rows(), 2u);
}

}  // namespace
}  // namespace ivr
