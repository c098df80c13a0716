// ivr_ingest — drive and inspect a generational live index (see
// ingest/live_engine.h).
//
//   ivr_ingest --dir DIR [--base c.ivr] [--source s.ivr]
//              [--publish-every 0] [--merge-after N] [--merge]
//              [--background-merge]
//              [--list] [--check] [--export PATH] [--k 10]
//              [--cache-mb N] [--cache-shards S]
//              [--fault-spec SPEC] [--fault-seed N]
//              [--stats-json PATH] [--trace PATH]
//
// The tool opens DIR (creating it if needed), replays the MANIFEST with
// salvage, then:
//   --source s.ivr    appends every video of s.ivr into the live index,
//                     publishing a generation every --publish-every
//                     videos (0 = one publish at the end);
//   --merge           compacts the published segments into one;
//   --merge-after N   auto-compacts once N segments accumulate;
//   --background-merge  runs auto-compaction on the merge thread
//                     instead of inline on the publisher;
//   --export PATH     saves the served snapshot as a monolithic .ivr;
//   --list            prints the manifest journal record by record;
//   --check           proves the generational composition correct: the
//                     served snapshot is exported, reloaded, and indexed
//                     as one monolithic collection, and every base topic
//                     is searched on both engines — rankings must be
//                     bit-identical (exit 1 on any mismatch).
//
// Without --base the tools' standard collection is generated in process
// (see ServingStack::OpenCollection).

#include <cstdio>
#include <memory>
#include <string>

#include "ivr/cache/result_cache.h"
#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/string_util.h"
#include "ivr/ingest/manifest.h"
#include "ivr/obs/report.h"
#include "ivr/service/serving_stack.h"
#include "ivr/video/serialization.h"

namespace ivr {
namespace {

/// Canonical byte rendering of a ranking, for bit-identity comparison.
std::string RenderRanking(const ResultList& list) {
  std::string out;
  for (size_t i = 0; i < list.size(); ++i) {
    const RankedShot& entry = list.at(i);
    out += StrFormat("%u:%.17g ", entry.shot, entry.score);
  }
  return out;
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"dir", "base", "source", "publish-every", "merge-after", "merge",
       "background-merge", "list", "check", "export", "k", "cache-mb",
       "cache-shards", "fault-spec", "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const std::string dir = args->GetString("dir");
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 2;
  }
  Result<std::shared_ptr<ResultCache>> cache = ResultCacheFromArgs(*args);
  if (!cache.ok()) {
    std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
    return 2;
  }
  const Result<bool> background_merge = args->GetBool("background-merge");
  if (!background_merge.ok()) {
    std::fprintf(stderr, "%s\n",
                 background_merge.status().ToString().c_str());
    return 2;
  }

  Result<GeneratedCollection> base =
      ServingStack::OpenCollection(args->GetString("base"));
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  IngestOptions options;
  options.dir = dir;
  options.cache = *cache;
  options.merge_after_segments =
      static_cast<size_t>(args->GetInt("merge-after", 0).value_or(0));
  options.background_merge = *background_merge;
  Result<std::unique_ptr<ServingStack>> stack =
      ServingStack::Open(std::move(base).value(), std::move(options));
  if (!stack.ok()) {
    std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
    return 1;
  }
  LiveEngine& live = *(*stack)->live();

  const std::string source_path = args->GetString("source");
  if (!source_path.empty()) {
    Result<GeneratedCollection> source = LoadCollectionRobust(source_path);
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return 1;
    }
    const size_t publish_every = static_cast<size_t>(
        args->GetInt("publish-every", 0).value_or(0));
    size_t since_publish = 0;
    const size_t total = source->collection.num_videos();
    for (size_t i = 0; i < total; ++i) {
      const Status appended =
          live.AppendVideoFrom(source->collection, static_cast<VideoId>(i));
      if (!appended.ok()) {
        std::fprintf(stderr, "append video %zu: %s\n", i,
                     appended.ToString().c_str());
        continue;
      }
      if (publish_every > 0 && ++since_publish >= publish_every) {
        const Result<uint64_t> published = live.Publish();
        if (published.ok()) {
          since_publish = 0;
        } else {
          std::fprintf(stderr, "publish: %s\n",
                       published.status().ToString().c_str());
        }
      }
    }
    const Result<uint64_t> published = live.Publish();
    if (!published.ok()) {
      std::fprintf(stderr, "final publish: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
  }

  const Result<bool> merge_flag = args->GetBool("merge");
  if (!merge_flag.ok()) {
    std::fprintf(stderr, "%s\n", merge_flag.status().ToString().c_str());
    return 2;
  }
  if (*merge_flag) {
    const Status merged = live.Merge();
    if (!merged.ok()) {
      std::fprintf(stderr, "merge: %s\n", merged.ToString().c_str());
      return 1;
    }
  }

  const Result<bool> list_flag = args->GetBool("list");
  if (!list_flag.ok()) {
    std::fprintf(stderr, "%s\n", list_flag.status().ToString().c_str());
    return 2;
  }
  if (*list_flag) {
    ManifestLog manifest(LiveEngine::ManifestPath(dir));
    Result<ManifestLoadResult> loaded = manifest.Load();
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    for (const ManifestRecord& record : loaded->records) {
      std::string line = StrFormat(
          "generation %llu:", static_cast<unsigned long long>(
                                  record.generation));
      for (const std::string& segment : record.segments) {
        line += " " + segment;
      }
      std::printf("%s\n", line.c_str());
    }
    if (loaded->torn_chunks > 0) {
      std::printf("torn manifest chunks: %zu\n", loaded->torn_chunks);
    }
  }

  const std::shared_ptr<const EngineSnapshot> snapshot = live.Acquire();
  const std::string export_path = args->GetString("export");
  if (!export_path.empty()) {
    const Status saved = SaveCollection(live.ExportCollection(), export_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "export: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("exported generation %llu to %s\n",
                static_cast<unsigned long long>(snapshot->generation),
                export_path.c_str());
  }

  const Result<bool> check_flag = args->GetBool("check");
  if (!check_flag.ok()) {
    std::fprintf(stderr, "%s\n", check_flag.status().ToString().c_str());
    return 2;
  }
  if (*check_flag) {
    // Round-trip the served snapshot through the archive format and index
    // it monolithically: the generational composition (base + replayed
    // segments) must rank every topic bit-identically to the flat build.
    const std::string check_path =
        export_path.empty() ? dir + "/check-export.ivr" : export_path;
    if (export_path.empty()) {
      const Status saved = SaveCollection(live.ExportCollection(), check_path);
      if (!saved.ok()) {
        std::fprintf(stderr, "check export: %s\n", saved.ToString().c_str());
        return 1;
      }
    }
    Result<GeneratedCollection> reloaded = LoadCollection(check_path);
    if (!reloaded.ok()) {
      std::fprintf(stderr, "check reload: %s\n",
                   reloaded.status().ToString().c_str());
      return 1;
    }
    Result<std::unique_ptr<RetrievalEngine>> direct =
        RetrievalEngine::Build(reloaded->collection,
                               live.options().engine);
    if (!direct.ok()) {
      std::fprintf(stderr, "check build: %s\n",
                   direct.status().ToString().c_str());
      return 1;
    }
    const size_t k =
        static_cast<size_t>(args->GetInt("k", 10).value_or(10));
    size_t mismatches = 0;
    for (const SearchTopic& topic : snapshot->topics->topics) {
      Query query;
      query.text = topic.title;
      query.examples = topic.examples;
      const std::string live_ranking =
          RenderRanking(snapshot->engine->Search(query, k));
      const std::string direct_ranking =
          RenderRanking((*direct)->Search(query, k));
      if (live_ranking != direct_ranking) {
        ++mismatches;
        std::fprintf(stderr, "check: topic %u diverged\n  live:   %s\n"
                     "  direct: %s\n",
                     topic.id, live_ranking.c_str(),
                     direct_ranking.c_str());
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "check FAILED: %zu/%zu topics diverged\n",
                   mismatches, snapshot->topics->size());
      return 1;
    }
    std::printf("check ok: %zu topics bit-identical at k=%zu "
                "(generation %llu)\n",
                snapshot->topics->size(), k,
                static_cast<unsigned long long>(snapshot->generation));
  }

  const IngestStats stats = live.Stats();
  std::printf(
      "generation %llu, %zu segments, %zu live shots "
      "(%llu appended, %llu publishes, %llu merges; salvage: %llu orphan, "
      "%llu torn segments, %llu torn manifest chunks)\n",
      static_cast<unsigned long long>(stats.generation), stats.segments,
      stats.live_shots,
      static_cast<unsigned long long>(stats.shots_appended),
      static_cast<unsigned long long>(stats.publishes),
      static_cast<unsigned long long>(stats.merges),
      static_cast<unsigned long long>(stats.orphan_segments_dropped),
      static_cast<unsigned long long>(stats.torn_segments_dropped),
      static_cast<unsigned long long>(stats.torn_manifest_chunks));
  return obs::FinishToolWithObs(*args, 0, (*stack)->Health());
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
