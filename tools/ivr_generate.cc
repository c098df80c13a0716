// ivr_generate — build a synthetic news-video test collection and save it
// as an archive the other tools consume.
//
//   ivr_generate --out collection.ivr [--seed 42] [--topics 10]
//                [--videos 25] [--wer 0.3] [--title-offset 6]
//                [--qrels qrels.txt] [--fault-spec SPEC] [--fault-seed N]
//                [--stats-json PATH] [--trace PATH]
//
// --stats-json writes the process metrics snapshot (schema-versioned
// JSON) at exit; --trace enables span recording and writes a JSONL trace.
//
// The optional --qrels path additionally writes the judgements in plain
// TREC qrels format for external tooling. All outputs are written
// atomically (temp file + fsync + rename): on any failure — including
// injected chaos faults — the tool exits non-zero without leaving a
// partial file behind.

#include <cstdio>

#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/obs/report.h"
#include "ivr/video/serialization.h"

namespace ivr {
namespace {

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"out", "qrels", "seed", "topics", "videos", "wer", "title-offset",
       "general-word-prob", "leak", "words-per-shot", "fault-spec",
       "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const std::string out_path = args->GetString("out");
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: ivr_generate --out FILE [--seed N] [--topics N] "
                 "[--videos N] [--wer F] [--title-offset N] "
                 "[--qrels FILE] [--fault-spec SPEC] [--fault-seed N] "
                 "[--stats-json PATH] [--trace PATH]\n");
    return 2;
  }

  GeneratorOptions options;
  options.seed = static_cast<uint64_t>(
      args->GetInt("seed", 42).value_or(42));
  options.num_topics = static_cast<size_t>(
      args->GetInt("topics", 10).value_or(10));
  options.num_videos = static_cast<size_t>(
      args->GetInt("videos", 25).value_or(25));
  options.asr_word_error_rate = args->GetDouble("wer", 0.3).value_or(0.3);
  options.topic_title_word_offset = static_cast<size_t>(
      args->GetInt("title-offset", 6).value_or(6));
  options.general_word_prob =
      args->GetDouble("general-word-prob", 0.65).value_or(0.65);
  options.topic_word_leak_prob =
      args->GetDouble("leak", 0.3).value_or(0.3);
  options.words_per_shot_mean =
      args->GetDouble("words-per-shot", 14.0).value_or(14.0);

  Result<GeneratedCollection> generated = GenerateCollection(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveCollection(*generated, out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu videos, %zu stories, %zu shots, %zu topics, "
              "%zu judgements\n",
              out_path.c_str(), generated->collection.num_videos(),
              generated->collection.num_stories(),
              generated->collection.num_shots(), generated->topics.size(),
              generated->qrels.TotalJudgments());

  const std::string qrels_path = args->GetString("qrels");
  if (!qrels_path.empty()) {
    const Status qs =
        WriteFileAtomic(qrels_path, generated->qrels.ToTrecFormat());
    if (!qs.ok()) {
      std::fprintf(stderr, "%s\n", qs.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", qrels_path.c_str());
  }
  return obs::FinishToolWithObs(*args, 0);
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
