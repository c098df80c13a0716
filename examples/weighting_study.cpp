// Mini weighting study: how much retrieval improvement does each
// interpretation of the same interaction log buy? A compact version of
// experiment E3 (see bench/bench_e3_weighting.cc for the full sweep),
// showing the public API for plugging weighting schemes into the
// adaptive engine — including a scheme learned from logs.
//
//   ./build/examples/weighting_study

#include <cstdio>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/eval/metrics.h"
#include "ivr/feedback/indicators.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

using namespace ivr;  // examples only

int main() {
  GeneratorOptions options;
  options.seed = 37;
  options.num_topics = 8;
  options.num_videos = 15;
  options.topic_title_word_offset = 5;
  options.asr_word_error_rate = 0.35;
  GeneratedCollection g = GenerateCollection(options).value();
  auto engine = RetrievalEngine::Build(g.collection).value();
  StaticBackend backend(*engine);
  SessionSimulator simulator(g.collection, g.qrels);

  // One recorded session per topic.
  SessionLog log;
  for (const SearchTopic& topic : g.topics.topics) {
    SessionSimulator::RunConfig config;
    config.seed = 1000 + topic.id;
    config.session_id = "t" + std::to_string(topic.id);
    simulator.Run(&backend, topic, NoviceUser(), config, &log).value();
  }

  // Train the learned scheme on the first half of the topics.
  std::vector<LabeledIndicators> train;
  for (const SearchTopic& topic : g.topics.topics) {
    if (topic.id > g.topics.size() / 2) continue;
    const auto events =
        log.EventsForSession("t" + std::to_string(topic.id));
    for (const auto& [shot, ind] :
         AggregateIndicators(events, &g.collection)) {
      train.push_back(
          LabeledIndicators{ind, g.qrels.IsRelevant(topic.id, shot)});
    }
  }
  const auto learned = std::make_shared<LearnedWeighting>();
  learned->Train(train);
  std::printf("learned weights over %zu examples:\n", train.size());
  for (size_t f = 0; f < kNumIndicatorFeatures; ++f) {
    std::printf("  %-15s %+7.3f\n", IndicatorFeatureNames()[f].c_str(),
                learned->weights()[f]);
  }
  std::printf("\n");

  struct Entry {
    const char* label;
    std::shared_ptr<const WeightingScheme> scheme;
  };
  const Entry entries[] = {{"no feedback", nullptr},
                           {"binary", std::make_shared<BinaryWeighting>()},
                           {"linear", std::make_shared<LinearWeighting>()},
                           {"learned", learned}};

  std::printf("%-12s  %s\n", "scheme", "MAP over held-out topics");
  for (const Entry& entry : entries) {
    double map = 0.0;
    size_t topics = 0;
    for (const SearchTopic& topic : g.topics.topics) {
      if (topic.id <= g.topics.size() / 2) continue;  // held out
      Query query;
      query.text = topic.title;
      ResultList results;
      if (entry.scheme == nullptr) {
        results = engine->Search(query, 1000);
      } else {
        AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
        adaptive.SetWeightingScheme(entry.scheme);
        SessionContext session = adaptive.MakeContext("study", "user");
        for (const InteractionEvent& ev : log.EventsForSession(
                 "t" + std::to_string(topic.id))) {
          adaptive.ObserveEvent(&session, ev);
        }
        results = adaptive.Search(&session, query, 1000);
      }
      map += AveragePrecision(results, g.qrels, topic.id);
      ++topics;
    }
    std::printf("%-12s  %.4f\n", entry.label,
                topics > 0 ? map / static_cast<double>(topics) : 0.0);
  }
  return 0;
}
