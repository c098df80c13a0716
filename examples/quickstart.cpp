// Quickstart: generate a synthetic news-video collection, index it, run a
// query, give implicit feedback, and watch the ranking adapt.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/eval/metrics.h"
#include "ivr/video/generator.h"

using namespace ivr;  // examples only; library code never does this

int main() {
  // 1. A test collection: broadcasts -> stories -> shots, with ASR
  //    transcripts, keyframes, search topics and relevance judgements.
  GeneratorOptions options;
  options.seed = 7;
  options.num_topics = 6;
  options.num_videos = 12;
  options.asr_word_error_rate = 0.3;
  options.topic_title_word_offset = 5;  // narrow, TRECVID-style topics
  Result<GeneratedCollection> generated = GenerateCollection(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  GeneratedCollection g = std::move(generated).value();
  std::printf("collection: %zu broadcasts, %zu stories, %zu shots, "
              "%zu search topics\n\n",
              g.collection.num_videos(), g.collection.num_stories(),
              g.collection.num_shots(), g.topics.size());

  // 2. Index it.
  auto engine = RetrievalEngine::Build(g.collection).value();

  // 3. Search like a user would.
  const SearchTopic& topic = g.topics.topics[0];
  Query query;
  query.text = topic.title;
  std::printf("query: \"%s\"  (subject: %s)\n", topic.title.c_str(),
              g.collection.TopicName(topic.target_topic).c_str());
  const ResultList results = engine->Search(query, 1000);
  for (size_t i = 0; i < 5 && i < results.size(); ++i) {
    const Shot* shot = g.collection.shot(results.at(i).shot).value();
    const NewsStory* story = g.collection.story(shot->story).value();
    std::printf("  %zu. [%s] %-22s (%s, score %.3f)\n", i + 1,
                g.qrels.IsRelevant(topic.id, shot->id) ? "REL" : "   ",
                shot->external_id.c_str(), story->headline.c_str(),
                results.at(i).score);
  }
  std::printf("AP before feedback: %.4f\n\n",
              AveragePrecision(results, g.qrels, topic.id));

  // 4. The user clicks and watches three relevant shots — implicit
  //    relevance feedback the adaptive engine turns into query expansion.
  //    The engine is a stateless policy; the session's state lives in a
  //    SessionContext.
  const AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
  SessionContext session = adaptive.MakeContext("demo", "alice");
  TimeMs t = 0;
  for (ShotId shot : g.qrels.RelevantShots(topic.id, 2)) {
    InteractionEvent click{t, "demo", "alice", topic.id,
                           EventType::kClickKeyframe, shot, 0.0, ""};
    adaptive.ObserveEvent(&session, click);
    InteractionEvent play{t + 1000, "demo", "alice", topic.id,
                          EventType::kPlayStop, shot, 20000.0, ""};
    adaptive.ObserveEvent(&session, play);
    t += 5000;
    if (t > 10000) break;  // three engagements
  }

  // 5. Search again: same query text, adapted ranking.
  const ResultList adapted = adaptive.Search(&session, query, 1000);
  std::printf("AP after feedback:  %.4f  (engine: %s)\n",
              AveragePrecision(adapted, g.qrels, topic.id),
              adaptive.name().c_str());
  return 0;
}
