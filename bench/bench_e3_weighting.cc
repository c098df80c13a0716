// E3 — How should implicit indicators be weighted?
//
// The paper's second research question: "how these features have to be
// weighted to increase retrieval performance. It is not clear which
// features are stronger and which are weaker indicators of relevance."
//
// Protocol: record one simulated desktop session per topic against the
// static engine. Train the learned scheme on half the topics' sessions
// (using qrels as labels — the "analyse the logfiles" step). For every
// weighting scheme, feed each test session's events into an adaptive
// engine using that scheme and re-run the topic query; report MAP/P@10
// against the no-feedback baseline, with a paired t-test.
//
// Expected shape: any feedback > none; graded schemes (linear, learned)
// > presence-only schemes (uniform, binary); learned >= hand-tuned
// linear.

#include "bench_util.h"
#include "ivr/feedback/indicators.h"

namespace ivr {
namespace bench {
namespace {

void Run() {
  Banner("E3", "weighting schemes for implicit indicators");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);
  StaticBackend backend(*engine);

  // Record sessions (2 per topic: one novice, one expert).
  SessionLog log;
  SimulateSessions(g, &backend, NoviceUser(), Environment::kDesktop, 1,
                   &log, 900);
  SimulateSessions(g, &backend, ExpertUser(), Environment::kDesktop, 1,
                   &log, 1700);

  // Train the learned scheme on the even-indexed topics' sessions.
  std::vector<LabeledIndicators> train;
  for (const std::string& session_id : log.SessionIds()) {
    const auto events = log.EventsForSession(session_id);
    if (events.empty()) continue;
    const SearchTopicId topic = events.front().topic;
    if (topic % 2 != 0) continue;  // odd topics held out for evaluation
    for (const auto& [shot, ind] :
         AggregateIndicators(events, &g.collection)) {
      train.push_back(
          LabeledIndicators{ind, g.qrels.IsRelevant(topic, shot)});
    }
  }
  const auto learned = std::make_shared<LearnedWeighting>();
  const double loss = learned->Train(train);
  std::printf("learned scheme: %zu training examples, log-loss %.3f\n\n",
              train.size(), loss);

  // Evaluation topics: the held-out odd ones.
  std::vector<SearchTopicId> eval_topics;
  for (const SearchTopic& topic : g.topics.topics) {
    if (topic.id % 2 != 0) eval_topics.push_back(topic.id);
  }

  struct SchemeEntry {
    const char* label;
    // nullptr = no feedback baseline
    std::shared_ptr<const WeightingScheme> scheme;
  };
  const SchemeEntry schemes[] = {
      {"none (baseline)", nullptr},
      {"binary", std::make_shared<BinaryWeighting>()},
      {"uniform", std::make_shared<UniformWeighting>()},
      {"linear (hand-tuned)", std::make_shared<LinearWeighting>()},
      {"learned (logreg)", learned},
  };

  TextTable table({"scheme", "MAP", "P@10", "dMAP", "p (t-test)"});
  std::vector<double> baseline_ap;
  double baseline_map = 0.0;

  for (const SchemeEntry& entry : schemes) {
    SystemRun run;
    run.system = entry.label;
    for (SearchTopicId topic_id : eval_topics) {
      const SearchTopic* topic = g.topics.Find(topic_id);
      Query query;
      query.text = topic->title;
      if (entry.scheme == nullptr) {
        run.runs[topic_id] = engine->Search(query, 1000);
        continue;
      }
      AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
      adaptive.SetWeightingScheme(entry.scheme);
      // Replay this topic's recorded sessions into one fresh session.
      run.runs[topic_id] =
          SearchAfter(adaptive, TopicEvents(log, topic_id), query);
    }
    const SystemEvaluation eval = EvaluateSystem(run, g.qrels, eval_topics);
    std::string p_value = "-";
    if (entry.scheme == nullptr) {
      baseline_ap = eval.ApVector();
      baseline_map = eval.mean.ap;
    } else {
      Result<PairedTestResult> test =
          PairedTTest(eval.ApVector(), baseline_ap);
      if (test.ok()) p_value = StrFormat("%.3f", test->p_value);
    }
    table.AddRow({entry.label, FormatMetric(eval.mean.ap),
                  FormatMetric(eval.mean.p10),
                  entry.scheme == nullptr
                      ? std::string("-")
                      : FormatRelativeChange(eval.mean.ap, baseline_map),
                  p_value});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() {
  ivr::bench::Run();
  return 0;
}
