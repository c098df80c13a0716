// ivr_search — run queries against a saved collection.
//
// Batch mode (default): runs every search topic's title query and writes
// a TREC run file. Topics fan out over --threads workers (default:
// hardware concurrency); the run file is identical for any thread count:
//   ivr_search --collection c.ivr --run run.txt [--scorer bm25] [--k 1000]
//              [--visual] [--tag mytag] [--threads N]
//              [--cache-mb N] [--cache-shards S]
//              [--fault-spec SPEC] [--fault-seed N]
//              [--stats-json PATH] [--trace PATH]
//
// --cache-mb attaches a byte-budgeted base-ranking cache to the engine;
// cached serving is bit-identical to uncached, so the run file does not
// change — only the latency of repeated queries does.
//
// --stats-json writes the process metrics snapshot (schema-versioned
// JSON) at exit; --trace enables span recording and writes a JSONL trace.
//
// Ad-hoc mode: --query "words ..." prints the top results humanly:
//   ivr_search --collection c.ivr --query "ginadebo market" [--k 10]
//
// Collection loads retry transient IO errors and salvage corrupt
// archives; run files are written atomically; a degraded engine is
// reported on stderr via its HealthReport.

#include <cstdio>

#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/thread_pool.h"
#include "ivr/eval/trec_run.h"
#include "ivr/obs/report.h"
#include "ivr/retrieval/story_rank.h"
#include "ivr/service/serving_stack.h"

namespace ivr {
namespace {

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"collection", "scorer", "k", "query", "stories", "run", "visual",
       "tag", "threads", "cache-mb", "cache-shards", "fault-spec",
       "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const Result<bool> stories_flag = args->GetBool("stories");
  const Result<bool> visual_flag = args->GetBool("visual");
  if (!stories_flag.ok() || !visual_flag.ok()) {
    const Status& bad =
        stories_flag.ok() ? visual_flag.status() : stories_flag.status();
    std::fprintf(stderr, "%s\n", bad.ToString().c_str());
    return 2;
  }
  const std::string collection_path = args->GetString("collection");
  if (collection_path.empty()) {
    std::fprintf(stderr,
                 "usage: ivr_search --collection FILE "
                 "(--run OUT | --query \"...\") [--scorer bm25] [--k N] "
                 "[--visual] [--tag TAG] [--threads N] "
                 "[--cache-mb N] [--cache-shards S] "
                 "[--fault-spec SPEC] [--fault-seed N] "
                 "[--stats-json PATH] [--trace PATH]\n");
    return 2;
  }
  Result<std::shared_ptr<ResultCache>> cache = ResultCacheFromArgs(*args);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 2;
  }
  Result<GeneratedCollection> loaded =
      ServingStack::OpenCollection(collection_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  IngestOptions options;
  options.engine.scorer = args->GetString("scorer", "bm25");
  options.cache = *cache;
  Result<std::unique_ptr<ServingStack>> stack =
      ServingStack::Open(std::move(loaded).value(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }
  const GeneratedCollection& g = (*stack)->collection();
  const RetrievalEngine& engine = (*stack)->engine();
  const size_t k = static_cast<size_t>(
      args->GetInt("k", 1000).value_or(1000));

  const std::string adhoc = args->GetString("query");
  if (!adhoc.empty()) {
    Query query;
    query.text = adhoc;
    const ResultList results = engine.Search(query, k);
    if (*stories_flag) {
      // Story-level presentation: aggregate shot evidence per story.
      const auto stories =
          RankStories(results, g.collection, k, StoryAggregation::kMax);
      std::printf("%zu stories for \"%s\"\n", stories.size(),
                  adhoc.c_str());
      for (size_t i = 0; i < stories.size(); ++i) {
        const NewsStory* story =
            g.collection.story(stories[i].story).value();
        std::printf("%3zu. %-26s [%s]  score %.4f  (%zu matching shots)\n",
                    i + 1, story->headline.c_str(),
                    g.collection.TopicName(story->topic).c_str(),
                    stories[i].score, stories[i].supporting_shots.size());
      }
      return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
    }
    std::printf("%zu results for \"%s\"\n", results.size(), adhoc.c_str());
    for (size_t i = 0; i < std::min<size_t>(k, results.size()); ++i) {
      const Shot* shot = g.collection.shot(results.at(i).shot).value();
      const NewsStory* story = g.collection.story(shot->story).value();
      std::printf("%3zu. %-18s %-10s %-26s %.4f\n", i + 1,
                  shot->external_id.c_str(),
                  g.collection.TopicName(shot->primary_topic).c_str(),
                  story->headline.c_str(), results.at(i).score);
    }
    return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
  }

  const std::string run_path = args->GetString("run");
  if (run_path.empty()) {
    std::fprintf(stderr, "one of --run or --query is required\n");
    return 2;
  }
  const bool visual = *visual_flag;
  const int64_t threads_arg =
      args->GetInt("threads",
                   static_cast<int64_t>(ThreadPool::DefaultThreadCount()))
          .value_or(1);
  const size_t threads =
      threads_arg < 1 ? size_t{1} : static_cast<size_t>(threads_arg);
  std::vector<Query> queries;
  for (const SearchTopic& topic : g.topics.topics) {
    Query query;
    query.text = topic.title;
    if (visual) query.examples = topic.examples;
    queries.push_back(std::move(query));
  }
  const std::vector<ResultList> lists =
      engine.BatchSearch(queries, k, threads);
  std::map<SearchTopicId, ResultList> runs;
  for (size_t i = 0; i < lists.size(); ++i) {
    runs[g.topics.topics[i].id] = lists[i];
  }
  const std::string tag = args->GetString(
      "tag", engine.options().scorer + (visual ? "+visual" : ""));
  const Status saved =
      WriteFileAtomic(run_path, RunsToTrecFormat(runs, tag));
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu topics, tag '%s'\n", run_path.c_str(),
              runs.size(), tag.c_str());
  return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
