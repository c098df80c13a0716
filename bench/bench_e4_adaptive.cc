// E4 — Static profiles, implicit feedback, and their combination.
//
// The paper's third research question: "how both static user profiles and
// implicit relevance feedback should be combined to adapt to the user's
// need". Four systems, same simulated users and topics:
//   baseline        no adaptation
//   profile-only    static-profile re-ranking (registration interests)
//   implicit-only   within-session implicit feedback (Rocchio)
//   combined        profile re-ranking + implicit feedback
//
// Each simulated user has a declared interest in the subject their search
// topics belong to (plus a distractor interest), mirroring the paper's
// "football fan types 'goal'" example: an ambiguous mid-rank query whose
// resolution benefits from knowing the user.
//
// Expected shape (anchored to Agichtein et al. [1]): implicit-only gives
// a large significant MAP gain over baseline; profile-only a smaller
// gain; combined is best.

#include "bench_util.h"

namespace ivr {
namespace bench {
namespace {

void Run() {
  Banner("E4", "profile vs implicit vs combined adaptation");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);
  StaticBackend static_backend(*engine);
  const std::vector<SearchTopicId> ids = TopicIds(g.topics);

  // Record one desktop session per topic (the implicit evidence).
  SessionLog log;
  SimulateSessions(g, &static_backend, NoviceUser(), Environment::kDesktop,
                   1, &log, 4200);

  // The per-topic user profile: strong declared interest in the target
  // subject, a weaker distractor interest elsewhere.
  auto profile_for_topic = [&](const SearchTopic& topic) {
    UserProfile profile("user-t" + std::to_string(topic.id));
    profile.SetInterest(topic.target_topic, 1.0);
    profile.SetInterest(
        (topic.target_topic + 3) % static_cast<TopicLabel>(
                                       g.collection.num_topics()),
        0.4);
    return profile;
  };

  struct SystemConfig {
    const char* label;
    bool implicit;
    bool profile;
  };
  const SystemConfig systems[] = {
      {"baseline", false, false},
      {"profile-only", false, true},
      {"implicit-only", true, false},
      {"combined", true, true},
  };

  TextTable table(
      {"system", "MAP", "P@10", "nDCG@10", "dMAP", "p (t-test)"});
  std::vector<double> baseline_ap;
  double baseline_map = 0.0;

  for (const SystemConfig& system : systems) {
    SystemRun run;
    run.system = system.label;
    for (const SearchTopic& topic : g.topics.topics) {
      AdaptiveOptions options;
      options.use_implicit = system.implicit;
      options.use_profile = system.profile;
      const AdaptiveEngine adaptive(
          *engine, options,
          system.profile ? std::make_shared<const UserProfile>(
                               profile_for_topic(topic))
                         : nullptr);
      Query query;
      query.text = topic.title;
      run.runs[topic.id] = SearchAfter(
          adaptive,
          system.implicit ? TopicEvents(log, topic.id)
                          : std::vector<InteractionEvent>(),
          query);
    }
    const SystemEvaluation eval = EvaluateSystem(run, g.qrels, ids);
    std::string p_value = "-";
    std::string delta = "-";
    if (std::string(system.label) == "baseline") {
      baseline_ap = eval.ApVector();
      baseline_map = eval.mean.ap;
    } else {
      Result<PairedTestResult> test =
          PairedTTest(eval.ApVector(), baseline_ap);
      if (test.ok()) p_value = StrFormat("%.3f", test->p_value);
      delta = FormatRelativeChange(eval.mean.ap, baseline_map);
    }
    table.AddRow({system.label, FormatMetric(eval.mean.ap),
                  FormatMetric(eval.mean.p10),
                  FormatMetric(eval.mean.ndcg10), delta, p_value});
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
