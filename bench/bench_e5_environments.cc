// E5 — Interaction environments: desktop PC vs interactive TV.
//
// The paper (Section 3) studies the same retrieval backend behind two
// interfaces: a desktop application (keyboard + mouse, rich implicit
// feedback) and an iTV application (remote control: typing is painful,
// paging and the coloured judgement keys are cheap). We run matched
// user populations in both environments and compare the interaction
// profile and what adaptation can extract from it.
//
// Expected shape: desktop sessions issue more and longer text queries and
// emit far more implicit events; TV sessions produce more *explicit*
// judgements; feedback improves retrieval in both environments, more on
// the desktop (richer evidence).

#include "bench_util.h"

namespace ivr {
namespace bench {
namespace {

struct EnvStats {
  size_t sessions = 0;
  size_t queries = 0;       // text queries + query-by-example
  size_t text_queries = 0;  // typed queries only
  double query_chars = 0.0;
  size_t implicit_events = 0;
  size_t explicit_events = 0;
  double session_minutes = 0.0;
  double relevant_found = 0.0;
  double feedback_map = 0.0;   // MAP of title query after session feedback
  double baseline_map = 0.0;   // MAP of title query without feedback
};

bool IsImplicitEvent(EventType type) {
  switch (type) {
    case EventType::kTooltipHover:
    case EventType::kClickKeyframe:
    case EventType::kPlayStart:
    case EventType::kPlayStop:
    case EventType::kSeek:
    case EventType::kHighlightMetadata:
    case EventType::kBrowseNextPage:
    case EventType::kBrowsePrevPage:
      return true;
    default:
      return false;
  }
}

void Run() {
  Banner("E5", "desktop vs iTV interaction environments");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  auto engine = MustBuildEngine(g.collection);
  StaticBackend backend(*engine);

  struct EnvConfig {
    Environment env;
    UserModel user;
  };
  const EnvConfig configs[] = {
      {Environment::kDesktop, NoviceUser()},
      {Environment::kTv, CouchViewerUser()},
  };

  TextTable table({"environment", "sessions", "queries/sess",
                   "query chars", "implicit/sess", "explicit/sess",
                   "minutes/sess", "rel found/sess", "MAP base",
                   "MAP +feedback"});

  for (const EnvConfig& config : configs) {
    EnvStats stats;
    SessionLog log;
    const auto sessions =
        SimulateSessions(g, &backend, config.user, config.env,
                         /*seeds_per_topic=*/3, &log, /*seed_base=*/7000);
    for (const SimulatedSession& session : sessions) {
      ++stats.sessions;
      stats.queries += session.outcome.queries_issued;
      stats.session_minutes +=
          static_cast<double>(session.outcome.session_ms) /
          static_cast<double>(kMillisPerMinute);
      stats.relevant_found +=
          static_cast<double>(session.outcome.truly_relevant_found);
      for (const InteractionEvent& ev : session.events) {
        if (ev.type == EventType::kQuerySubmit) {
          ++stats.text_queries;
          stats.query_chars += static_cast<double>(ev.text.size());
        }
        if (IsImplicitEvent(ev.type)) ++stats.implicit_events;
        if (ev.type == EventType::kMarkRelevant ||
            ev.type == EventType::kMarkNotRelevant) {
          ++stats.explicit_events;
        }
      }
      // Adaptation value of this session's evidence.
      const SearchTopic* topic = g.topics.Find(session.topic);
      const AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
      Query query;
      query.text = topic->title;
      stats.feedback_map +=
          AveragePrecision(SearchAfter(adaptive, session.events, query),
                           g.qrels, topic->id);
      stats.baseline_map += AveragePrecision(engine->Search(query, 1000),
                                             g.qrels, topic->id);
    }

    const double n = static_cast<double>(stats.sessions);
    const double q = static_cast<double>(stats.queries);
    const double tq = static_cast<double>(stats.text_queries);
    table.AddRow({std::string(EnvironmentName(config.env)) + " (" +
                      config.user.name + ")",
                  StrFormat("%zu", stats.sessions),
                  StrFormat("%.2f", q / n),
                  StrFormat("%.1f", tq > 0 ? stats.query_chars / tq : 0.0),
                  StrFormat("%.1f",
                            static_cast<double>(stats.implicit_events) / n),
                  StrFormat("%.1f",
                            static_cast<double>(stats.explicit_events) / n),
                  StrFormat("%.1f", stats.session_minutes / n),
                  StrFormat("%.1f", stats.relevant_found / n),
                  FormatMetric(stats.baseline_map / n),
                  FormatMetric(stats.feedback_map / n)});
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
