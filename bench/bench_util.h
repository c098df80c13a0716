#ifndef IVR_BENCH_BENCH_UTIL_H_
#define IVR_BENCH_BENCH_UTIL_H_

// Shared setup code for the experiment binaries (bench_e1..e10). Each
// binary regenerates one table/figure of the reproduction; EXPERIMENTS.md
// records the expected shapes.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/logging.h"
#include "ivr/core/string_util.h"
#include "ivr/feedback/backend.h"
#include "ivr/eval/experiment.h"
#include "ivr/eval/metrics.h"
#include "ivr/eval/significance.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace bench {

/// The standard experimental collection: ~8 topics, 25 broadcasts,
/// ~1200 shots. WER defaults to the realistic 2008-era 30%.
inline GeneratorOptions StandardCollectionOptions(double wer = 0.3,
                                                  uint64_t seed = 2008) {
  GeneratorOptions options;
  options.seed = seed;
  options.num_videos = 25;
  options.stories_per_video_mean = 7.0;
  options.shots_per_story_mean = 6.0;
  options.asr_word_error_rate = wer;
  options.general_word_prob = 0.65;
  options.words_per_shot_mean = 14.0;
  options.num_topics = 10;
  options.topic_word_leak_prob = 0.30;
  // Aspect-style (narrow) topics: the TRECVID difficulty regime.
  options.topic_title_word_offset = 6;
  // Weak low-level visual features (query-by-example below text search,
  // fusion complementary) — the 2008 semantic-gap regime.
  options.keyframe_noise = 0.5;
  options.keyframe_topic_strength = 0.12;
  return options;
}

inline GeneratedCollection MustGenerate(const GeneratorOptions& options) {
  Result<GeneratedCollection> generated = GenerateCollection(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "collection generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::abort();
  }
  return std::move(generated).value();
}

inline std::unique_ptr<RetrievalEngine> MustBuildEngine(
    const VideoCollection& collection,
    EngineOptions options = EngineOptions()) {
  auto engine = RetrievalEngine::Build(collection, std::move(options));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

/// Runs every topic's title query through a backend, producing a
/// SystemRun for evaluation.
inline SystemRun RunAllTopics(SearchBackend* backend, const TopicSet& topics,
                              const std::string& name, size_t k = 1000) {
  SystemRun run;
  run.system = name;
  for (const SearchTopic& topic : topics.topics) {
    Query query;
    query.text = topic.title;
    run.runs[topic.id] = backend->Search(query, k);
  }
  return run;
}

inline std::vector<SearchTopicId> TopicIds(const TopicSet& topics) {
  std::vector<SearchTopicId> ids;
  for (const SearchTopic& topic : topics.topics) {
    ids.push_back(topic.id);
  }
  return ids;
}

/// Simulates one session per (topic, seed) pair against `backend`,
/// appending events to `log` and returning the sessions.
inline std::vector<SimulatedSession> SimulateSessions(
    const GeneratedCollection& g, SearchBackend* backend,
    const UserModel& user, Environment env, size_t seeds_per_topic,
    SessionLog* log, uint64_t seed_base = 100) {
  SessionSimulator simulator(g.collection, g.qrels);
  std::vector<SimulatedSession> sessions;
  for (const SearchTopic& topic : g.topics.topics) {
    for (size_t s = 0; s < seeds_per_topic; ++s) {
      SessionSimulator::RunConfig config;
      config.environment = env;
      config.seed = seed_base + topic.id * 131 + s;
      config.session_id = std::string(EnvironmentName(env)) + "-t" +
                          std::to_string(topic.id) + "-s" +
                          std::to_string(s);
      config.user_id = user.name + std::to_string(s);
      Result<SimulatedSession> session =
          simulator.Run(backend, topic, user, config, log);
      if (!session.ok()) {
        std::fprintf(stderr, "simulation failed: %s\n",
                     session.status().ToString().c_str());
        std::abort();
      }
      sessions.push_back(std::move(session).value());
    }
  }
  return sessions;
}

/// Every event of the sessions in `log` that worked on `topic`, in
/// session order: the recorded feedback an adaptive run replays.
inline std::vector<InteractionEvent> TopicEvents(const SessionLog& log,
                                                 SearchTopicId topic) {
  std::vector<InteractionEvent> out;
  for (const std::string& session_id : log.SessionIds()) {
    const std::vector<InteractionEvent> events =
        log.EventsForSession(session_id);
    if (!events.empty() && events.front().topic == topic) {
      out.insert(out.end(), events.begin(), events.end());
    }
  }
  return out;
}

/// Answers `query` in a fresh session of `adaptive` that has first
/// observed `events`.
inline ResultList SearchAfter(const AdaptiveEngine& adaptive,
                              const std::vector<InteractionEvent>& events,
                              const Query& query, size_t k = 1000) {
  SessionContext ctx = adaptive.MakeContext("bench", "bench");
  for (const InteractionEvent& ev : events) adaptive.ObserveEvent(&ctx, ev);
  return adaptive.Search(&ctx, query, k);
}

/// Prints a standard experiment banner.
inline void Banner(const char* id, const char* title) {
  std::printf("=== %s: %s ===\n", id, title);
}

}  // namespace bench
}  // namespace ivr

#endif  // IVR_BENCH_BENCH_UTIL_H_
