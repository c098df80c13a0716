// ivr_eval — trec_eval-style evaluation of run files.
//
//   ivr_eval --collection c.ivr --run run.txt [--run2 other.txt]
//   ivr_eval --qrels qrels.txt --run run.txt [--threads N]
//            [--stats-json PATH] [--trace PATH]
//
// Prints per-topic and mean metrics; with --run2 additionally reports the
// paired t-test and Wilcoxon signed-rank comparison on per-topic AP.
// Per-topic metrics fan out over --threads workers (default: hardware
// concurrency); output is identical for every thread count.
// --stats-json writes the process metrics snapshot (schema-versioned
// JSON) at exit; --trace enables span recording and writes a JSONL
// trace. A metrics summary is always printed to stderr at exit.

#include <cstdio>

#include "ivr/core/args.h"
#include "ivr/core/file_util.h"
#include "ivr/core/retry.h"
#include "ivr/core/string_util.h"
#include "ivr/core/thread_pool.h"
#include "ivr/eval/experiment.h"
#include "ivr/eval/significance.h"
#include "ivr/eval/trec_run.h"
#include "ivr/obs/report.h"
#include "ivr/video/serialization.h"

namespace ivr {
namespace {

Result<SystemEvaluation> Evaluate(const std::string& path,
                                  const Qrels& qrels,
                                  const std::vector<SearchTopicId>& topics,
                                  size_t threads) {
  IVR_ASSIGN_OR_RETURN(std::string text, RetryOnIOError([&path] {
                         return ReadFileToString(path);
                       }));
  std::string tag = path;
  IVR_ASSIGN_OR_RETURN(auto runs, RunsFromTrecFormat(text, &tag));
  SystemRun run;
  run.system = tag;
  run.runs = std::move(runs);
  return EvaluateSystem(run, qrels, topics, /*min_grade=*/1, threads);
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = obs::StartTool(
      argc, argv,
      {"run", "run2", "collection", "qrels", "threads", "fault-spec",
       "fault-seed", "stats-json", "trace"});
  if (!args.ok()) return 2;
  const std::string run_path = args->GetString("run");
  if (run_path.empty() || (!args->Has("collection") && !args->Has("qrels"))) {
    std::fprintf(stderr,
                 "usage: ivr_eval (--collection FILE | --qrels FILE) "
                 "--run FILE [--run2 FILE] [--threads N] "
                 "[--fault-spec SPEC] [--fault-seed N] "
                 "[--stats-json PATH] [--trace PATH]\n");
    return 2;
  }
  const int64_t threads_arg =
      args->GetInt("threads",
                   static_cast<int64_t>(ThreadPool::DefaultThreadCount()))
          .value_or(1);
  const size_t threads =
      threads_arg < 1 ? size_t{1} : static_cast<size_t>(threads_arg);

  Qrels qrels;
  if (args->Has("collection")) {
    Result<GeneratedCollection> loaded =
        LoadCollectionRobust(args->GetString("collection"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    qrels = std::move(loaded->qrels);
  } else {
    const std::string qrels_path = args->GetString("qrels");
    Result<std::string> text = RetryOnIOError(
        [&qrels_path] { return ReadFileToString(qrels_path); });
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    Result<Qrels> parsed = Qrels::FromTrecFormat(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    qrels = std::move(parsed).value();
  }
  const std::vector<SearchTopicId> topics = qrels.Topics();

  Result<SystemEvaluation> eval = Evaluate(run_path, qrels, topics, threads);
  if (!eval.ok()) {
    std::fprintf(stderr, "%s\n", eval.status().ToString().c_str());
    return 1;
  }

  TextTable table({"topic", "num_rel", "AP", "P@10", "nDCG@10", "bpref",
                   "RR"});
  for (const TopicMetrics& m : eval->per_topic) {
    table.AddRow({StrFormat("%u", m.topic), StrFormat("%zu", m.num_relevant),
                  FormatMetric(m.ap), FormatMetric(m.p10),
                  FormatMetric(m.ndcg10), FormatMetric(m.bpref),
                  FormatMetric(m.rr)});
  }
  table.AddRow({"mean", "", FormatMetric(eval->mean.ap),
                FormatMetric(eval->mean.p10),
                FormatMetric(eval->mean.ndcg10),
                FormatMetric(eval->mean.bpref), FormatMetric(eval->mean.rr)});
  std::printf("run: %s\n%s\n", eval->system.c_str(),
              table.ToString().c_str());

  const std::string run2_path = args->GetString("run2");
  if (!run2_path.empty()) {
    Result<SystemEvaluation> eval2 =
        Evaluate(run2_path, qrels, topics, threads);
    if (!eval2.ok()) {
      std::fprintf(stderr, "%s\n", eval2.status().ToString().c_str());
      return 1;
    }
    std::printf("comparison vs %s (MAP %s vs %s, %s):\n",
                eval2->system.c_str(), FormatMetric(eval->mean.ap).c_str(),
                FormatMetric(eval2->mean.ap).c_str(),
                FormatRelativeChange(eval->mean.ap, eval2->mean.ap).c_str());
    Result<PairedTestResult> ttest =
        PairedTTest(eval->ApVector(), eval2->ApVector());
    if (ttest.ok()) {
      std::printf("  paired t-test:        t=%+.3f  p=%.4f (n=%zu)\n",
                  ttest->statistic, ttest->p_value, ttest->n);
    }
    Result<PairedTestResult> wilcoxon =
        WilcoxonSignedRank(eval->ApVector(), eval2->ApVector());
    if (wilcoxon.ok()) {
      std::printf("  Wilcoxon signed-rank: z=%+.3f  p=%.4f (n=%zu)\n",
                  wilcoxon->statistic, wilcoxon->p_value, wilcoxon->n);
    }
    Result<PairedTestResult> randomization =
        RandomizationTest(eval->ApVector(), eval2->ApVector());
    if (randomization.ok()) {
      std::printf("  randomization test:   |d|=%.4f p=%.4f (n=%zu)\n",
                  randomization->statistic, randomization->p_value,
                  randomization->n);
    }
  }
  return obs::FinishToolWithObs(*args, 0);
}

}  // namespace
}  // namespace ivr

int main(int argc, char** argv) { return ivr::Main(argc, argv); }
