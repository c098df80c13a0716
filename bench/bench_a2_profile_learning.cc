// A2 (ablation) — Learning the static profile from behaviour.
//
// The paper treats profiles as self-declared registration data and notes
// their weakness; the natural extension (and the bridge between its two
// evidence sources) is to *learn* the profile from implicit feedback
// across sessions. A cold-start user watches news about their (hidden)
// favourite subject day after day; after each day the ProfileLearner
// folds the session's evidence into the profile. We measure how the
// learned profile's retrieval value approaches that of a perfectly
// declared profile.
//
// Expected shape: the learned profile's interest mass concentrates on the
// true subject within a few sessions; profile-reranked MAP climbs from
// the no-profile baseline towards the declared-profile ceiling.

#include "bench_util.h"
#include "ivr/adaptive/profile_learner.h"
#include "ivr/feedback/estimator.h"

namespace ivr {
namespace bench {
namespace {

void Run() {
  Banner("A2", "cross-session profile learning (cold start)");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);
  StaticBackend backend(*engine);
  SessionSimulator simulator(g.collection, g.qrels);
  const LinearWeighting scheme;
  const ImplicitRelevanceEstimator estimator(scheme);
  const ProfileLearner learner;

  // The user's hidden favourite subject is each topic in turn; results
  // are averaged over topics.
  const size_t days = 6;
  std::vector<double> learned_map(days + 1, 0.0);
  std::vector<double> mass_on_target(days + 1, 0.0);
  double declared_map = 0.0;
  double baseline_map = 0.0;

  auto profile_map = [&](const SearchTopic& topic,
                         const UserProfile* profile) {
    AdaptiveOptions options;
    options.use_implicit = false;
    options.use_profile = profile != nullptr;
    const AdaptiveEngine adaptive(
        *engine, options,
        profile != nullptr ? std::make_shared<const UserProfile>(*profile)
                           : nullptr);
    Query query;
    query.text = topic.title;
    return AveragePrecision(SearchAfter(adaptive, {}, query), g.qrels,
                            topic.id);
  };

  for (const SearchTopic& topic : g.topics.topics) {
    baseline_map += profile_map(topic, nullptr);
    UserProfile declared("declared");
    declared.SetInterest(topic.target_topic, 1.0);
    declared_map += profile_map(topic, &declared);

    UserProfile learned("cold-start");
    learned_map[0] += profile_map(topic, &learned);
    mass_on_target[0] += learned.Interest(topic.target_topic);
    for (size_t day = 1; day <= days; ++day) {
      SessionSimulator::RunConfig config;
      config.seed = 5000 + topic.id * 100 + day;
      config.session_id = "day" + std::to_string(day);
      const SimulatedSession session =
          simulator.Run(&backend, topic, NoviceUser(), config, nullptr)
              .value();
      learner.UpdateFromEvidence(
          estimator.Estimate(session.events, &g.collection),
          g.collection, &learned);
      learned_map[day] += profile_map(topic, &learned);
      mass_on_target[day] += learned.Interest(topic.target_topic);
    }
  }

  const double n = static_cast<double>(g.topics.size());
  std::printf("baseline (no profile) MAP %.4f; declared-profile ceiling "
              "MAP %.4f\n\n",
              baseline_map / n, declared_map / n);
  TextTable table({"sessions observed", "interest on true subject",
                   "profile-reranked MAP"});
  for (size_t day = 0; day <= days; ++day) {
    table.AddRow({StrFormat("%zu", day),
                  FormatMetric(mass_on_target[day] / n),
                  FormatMetric(learned_map[day] / n)});
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
