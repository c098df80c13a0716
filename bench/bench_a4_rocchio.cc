// A4 (ablation) — Rocchio feedback parameters.
//
// The adaptive engine's query expansion has four knobs: alpha (original
// query), beta (positive centroid), gamma (negative centroid) and the
// expansion-term budget. This ablation justifies the defaults
// (1.0 / 0.75 / 0.15 / 20) by sweeping each around the default with the
// others fixed, using the same recorded sessions as E3.
//
// Expected shape: beta carries essentially all the gain (beta=0 falls
// back to the no-feedback baseline); large gamma hurts (negative
// evidence is noisier than positive); the expansion-term budget has a
// broad plateau. One regime-dependent result worth knowing: with the
// dense, on-topic feedback a simulated session produces, alpha=0 (pure
// feedback query) can even beat the default — with sparse or noisy real
// feedback the original query's anchor (alpha>=1) is what prevents
// topic drift, which is why the default keeps it.

#include "bench_util.h"

namespace ivr {
namespace bench {
namespace {

void Run() {
  Banner("A4", "Rocchio parameter ablation");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);
  StaticBackend backend(*engine);
  const std::vector<SearchTopicId> ids = TopicIds(g.topics);

  // Recorded feedback sessions (one per topic).
  SessionLog log;
  SimulateSessions(g, &backend, NoviceUser(), Environment::kDesktop, 1,
                   &log, 6100);

  auto run_with = [&](const RocchioOptions& rocchio) {
    SystemRun run;
    run.system = "rocchio";
    for (const SearchTopic& topic : g.topics.topics) {
      AdaptiveOptions options;
      options.rocchio = rocchio;
      const AdaptiveEngine adaptive(*engine, options, nullptr);
      Query query;
      query.text = topic.title;
      run.runs[topic.id] =
          SearchAfter(adaptive, TopicEvents(log, topic.id), query);
    }
    return EvaluateSystem(run, g.qrels, ids).mean.ap;
  };

  const RocchioOptions defaults;
  std::printf("defaults: alpha=%.2f beta=%.2f gamma=%.2f terms=%zu -> "
              "MAP %.4f (baseline without feedback: ",
              defaults.alpha, defaults.beta, defaults.gamma,
              defaults.max_expansion_terms, run_with(defaults));
  const SystemEvaluation base = EvaluateSystem(
      RunAllTopics(&backend, g.topics, "base"), g.qrels, ids);
  std::printf("%.4f)\n\n", base.mean.ap);

  TextTable alpha_table({"alpha", "MAP"});
  for (double alpha : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    RocchioOptions options = defaults;
    options.alpha = alpha;
    alpha_table.AddRow({StrFormat("%.2f", alpha),
                        FormatMetric(run_with(options))});
  }
  std::printf("%s\n", alpha_table.ToString().c_str());

  TextTable beta_table({"beta", "MAP"});
  for (double beta : {0.0, 0.25, 0.5, 0.75, 1.0, 2.0}) {
    RocchioOptions options = defaults;
    options.beta = beta;
    beta_table.AddRow({StrFormat("%.2f", beta),
                       FormatMetric(run_with(options))});
  }
  std::printf("%s\n", beta_table.ToString().c_str());

  TextTable gamma_table({"gamma", "MAP"});
  for (double gamma : {0.0, 0.15, 0.5, 1.0, 2.0}) {
    RocchioOptions options = defaults;
    options.gamma = gamma;
    gamma_table.AddRow({StrFormat("%.2f", gamma),
                        FormatMetric(run_with(options))});
  }
  std::printf("%s\n", gamma_table.ToString().c_str());

  TextTable terms_table({"expansion terms", "MAP"});
  for (size_t terms : {0u, 5u, 10u, 20u, 40u, 80u}) {
    RocchioOptions options = defaults;
    options.max_expansion_terms = terms;
    terms_table.AddRow({StrFormat("%zu", terms),
                        FormatMetric(run_with(options))});
  }
  std::printf("%s\n", terms_table.ToString().c_str());
  std::printf("note: expansion terms = 0 means 'no cap', not 'no "
              "expansion'.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() {
  ivr::bench::Run();
  return 0;
}
