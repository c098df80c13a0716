// E7 — Within-session interest drift and the ostensive model.
//
// Campbell & van Rijsbergen's ostensive model [3], which the paper cites
// as the reason static profiles cannot be enough: "the users' information
// need can change within different retrieval sessions and sometimes even
// within the same session". We script exactly that: a user first engages
// with shots about subject A, then their interest switches to subject B.
// Four systems answer the post-switch query (B's terms):
//   baseline            no feedback at all
//   profile(A)          static profile registered for subject A
//   implicit-uniform    all session feedback, no recency weighting
//   implicit-ostensive  session feedback with exponential recency decay
//
// Expected shape: stale A-evidence drags the uniform model below the
// no-feedback baseline right after the switch; the ostensive model
// forgets A and recovers fastest; the static A-profile is the worst
// match for the new need. The recovery curve shows ostensive dominance
// at every step after the switch.

#include "bench_util.h"

namespace ivr {
namespace bench {
namespace {

// Full positive engagement with one shot at time t (click + full play,
// then a navigation event that bounds the dwell window).
void EngageShot(const AdaptiveEngine& adaptive, SessionContext* ctx,
                ShotId shot, TimeMs t) {
  InteractionEvent click;
  click.time = t;
  click.type = EventType::kClickKeyframe;
  click.shot = shot;
  adaptive.ObserveEvent(ctx, click);
  InteractionEvent play;
  play.time = t + 1000;
  play.type = EventType::kPlayStop;
  play.shot = shot;
  play.value = 20000.0;
  adaptive.ObserveEvent(ctx, play);
  InteractionEvent nav;
  nav.time = t + 2000;
  nav.type = EventType::kBrowseNextPage;
  adaptive.ObserveEvent(ctx, nav);
}

void Run() {
  Banner("E7", "interest drift within a session (ostensive model)");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);

  const SearchTopic& topic_a = g.topics.topics[0];
  const SearchTopic& topic_b = g.topics.topics[1];
  const std::vector<ShotId> relevant_a =
      g.qrels.RelevantShots(topic_a.id, 2);
  const std::vector<ShotId> relevant_b =
      g.qrels.RelevantShots(topic_b.id, 2);

  Query probe;  // the post-switch information need: subject B
  probe.text = topic_b.title;

  // AP on the new need after a drift session with `b_engagements`
  // engagements on subject B.
  auto drift_session_ap = [&](const AdaptiveEngine& adaptive,
                              size_t b_engagements) {
    SessionContext ctx = adaptive.MakeContext("e7", "drifter");
    // Phase 1 (minute 0-1): five engagements on subject A.
    for (size_t i = 0; i < 5 && i < relevant_a.size(); ++i) {
      EngageShot(adaptive, &ctx, relevant_a[i],
                 static_cast<TimeMs>(i) * 12 * kMillisPerSecond);
    }
    // Phase 2 (from minute 8): the interest has switched to subject B.
    for (size_t i = 0; i < b_engagements && i < relevant_b.size(); ++i) {
      EngageShot(adaptive, &ctx, relevant_b[i],
                 8 * kMillisPerMinute +
                     static_cast<TimeMs>(i) * 12 * kMillisPerSecond);
    }
    return AveragePrecision(adaptive.Search(&ctx, probe, 1000), g.qrels,
                            topic_b.id);
  };

  AdaptiveOptions uniform_options;
  AdaptiveOptions ostensive_options;
  ostensive_options.use_ostensive = true;
  ostensive_options.ostensive_half_life_ms = 90 * kMillisPerSecond;

  auto profile_a = std::make_shared<UserProfile>("registered-for-A");
  profile_a->SetInterest(topic_a.target_topic, 1.0);
  AdaptiveOptions profile_options;
  profile_options.use_implicit = false;
  profile_options.use_profile = true;
  profile_options.profile_lambda = 0.5;

  // --- Main comparison, two B-engagements after the switch ---
  TextTable table({"system", "AP (need B)", "vs baseline"});
  const double baseline_ap = AveragePrecision(
      engine->Search(probe, 1000), g.qrels, topic_b.id);
  table.AddRow({"baseline (no feedback)", FormatMetric(baseline_ap), "-"});

  const AdaptiveEngine profile_engine(*engine, profile_options, profile_a);
  const double profile_ap = AveragePrecision(
      SearchAfter(profile_engine, {}, probe), g.qrels, topic_b.id);
  table.AddRow({"static profile (A)", FormatMetric(profile_ap),
                FormatRelativeChange(profile_ap, baseline_ap)});

  const AdaptiveEngine uniform_engine(*engine, uniform_options, nullptr);
  const double uniform_ap = drift_session_ap(uniform_engine, 2);
  table.AddRow({"implicit, uniform", FormatMetric(uniform_ap),
                FormatRelativeChange(uniform_ap, baseline_ap)});

  const AdaptiveEngine ostensive_engine(*engine, ostensive_options,
                                        nullptr);
  const double ostensive_ap = drift_session_ap(ostensive_engine, 2);
  table.AddRow({"implicit, ostensive decay", FormatMetric(ostensive_ap),
                FormatRelativeChange(ostensive_ap, baseline_ap)});
  std::printf("%s\n", table.ToString().c_str());

  // --- Recovery curve: AP on the new need as B-evidence accumulates ---
  TextTable curve({"B engagements", "uniform AP", "ostensive AP"});
  for (size_t n = 0; n <= 5; ++n) {
    curve.AddRow({StrFormat("%zu", n),
                  FormatMetric(drift_session_ap(uniform_engine, n)),
                  FormatMetric(drift_session_ap(ostensive_engine, n))});
  }
  std::printf("%s\n", curve.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() {
  ivr::bench::Run();
  return 0;
}
