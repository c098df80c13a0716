// A5 (ablation) — User effort: does adaptation "reduce the number of
// steps"?
//
// The paper's success criterion for the adaptive model is stated in user
// terms, not rank terms: it should "significantly reduce the number of
// steps the user has to perform before he retrieves satisfying search
// results". We run matched simulated users (same seeds, same topics)
// against the static and the adaptive backend and compare effort
// metrics computed from their interaction logs, plus the explicit /
// implicit / combined evidence ablation of Agichtein et al. [1].
//
// Expected shape: with the adaptive backend users reach their first
// relevant shot in fewer actions, waste fewer playbacks on non-relevant
// shots, and find more relevant shots per minute. For the evidence
// ablation: explicit-only (sparse but precise) < implicit-only (dense)
// < combined.

#include "bench_util.h"
#include "ivr/eval/session_metrics.h"
#include "ivr/service/managed_backend.h"

namespace ivr {
namespace bench {
namespace {

void Run() {
  Banner("A5", "user effort: static vs adaptive; evidence ablation");
  SetLogLevel(LogLevel::kWarning);

  // Harder, narrower topics than the standard collection: the user's
  // first query is weak, so the sessions where adaptation can save
  // effort actually occur (with easy topics query 1 already satisfies).
  GeneratorOptions collection_options = StandardCollectionOptions();
  collection_options.topic_title_word_offset = 10;
  const GeneratedCollection g = MustGenerate(collection_options);
  auto engine = MustBuildEngine(g.collection);

  // Persistent users who keep searching (so later, adapted queries exist).
  UserModel user = NoviceUser();
  user.satisfaction_target = 40;
  user.max_queries = 4;
  user.explicit_propensity = 0.1;  // occasional explicit marks for part 2

  // --- Part 1: effort, static vs adaptive ---
  TextTable effort_table({"backend", "actions to 1st rel",
                          "sec to 1st rel", "rel played/sess",
                          "wasted plays/sess", "play precision",
                          "rel per minute"});
  const AdaptiveEngine adaptive_engine(*engine, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive_engine, SessionManagerOptions());
  for (const bool adaptive : {false, true}) {
    std::vector<SessionEffortMetrics> sessions;
    double precision = 0.0;
    double per_minute = 0.0;
    StaticBackend static_backend(*engine);
    // Every Run begins a fresh managed session under this id.
    ManagedSessionBackend managed(&manager, "a5", user.name);
    for (const SearchTopic& topic : g.topics.topics) {
      for (uint64_t s = 0; s < 3; ++s) {
        SearchBackend* backend =
            adaptive ? static_cast<SearchBackend*>(&managed)
                     : &static_backend;
        SessionSimulator simulator(g.collection, g.qrels);
        SessionSimulator::RunConfig config;
        config.seed = 8800 + topic.id * 31 + s;
        config.session_id = "a5";
        const SimulatedSession session =
            simulator.Run(backend, topic, user, config, nullptr).value();
        const SessionEffortMetrics m =
            ComputeSessionEffort(session.events, g.qrels, topic.id);
        precision += m.PlayPrecision();
        per_minute += m.RelevantPerMinute();
        sessions.push_back(m);
      }
    }
    const SessionEffortMetrics mean = MeanSessionEffort(sessions);
    const double n = static_cast<double>(sessions.size());
    effort_table.AddRow(
        {adaptive ? "adaptive" : "static",
         StrFormat("%zu", mean.actions_to_first_relevant),
         StrFormat("%.1f",
                   static_cast<double>(mean.time_to_first_relevant_ms) /
                       1000.0),
         StrFormat("%zu", mean.relevant_played),
         StrFormat("%zu", mean.nonrelevant_played),
         FormatMetric(precision / n), StrFormat("%.2f", per_minute / n)});
  }
  std::printf("%s\n", effort_table.ToString().c_str());

  // --- Part 2: which evidence — explicit, implicit, or both? ---
  // Record sessions once, then rerun the final query with an estimator
  // that sees only a subset of the events.
  SessionLog log;
  {
    StaticBackend backend(*engine);
    SimulateSessions(g, &backend, user, Environment::kDesktop, 2, &log,
                     9900);
  }
  auto filter_events = [&](const std::vector<InteractionEvent>& events,
                           bool keep_implicit, bool keep_explicit) {
    std::vector<InteractionEvent> out;
    for (const InteractionEvent& ev : events) {
      const bool is_explicit = ev.type == EventType::kMarkRelevant ||
                               ev.type == EventType::kMarkNotRelevant;
      if ((is_explicit && keep_explicit) ||
          (!is_explicit && keep_implicit)) {
        out.push_back(ev);
      }
    }
    return out;
  };

  const std::vector<SearchTopicId> ids = TopicIds(g.topics);
  TextTable evidence_table({"evidence", "MAP", "dMAP vs none"});
  const SystemEvaluation base = [&] {
    StaticBackend backend(*engine);
    return EvaluateSystem(RunAllTopics(&backend, g.topics, "none"),
                          g.qrels, ids);
  }();
  evidence_table.AddRow({"none", FormatMetric(base.mean.ap), "-"});
  struct EvidenceConfig {
    const char* label;
    bool implicit;
    bool explicit_marks;
  };
  for (const EvidenceConfig& config :
       {EvidenceConfig{"explicit only", false, true},
        EvidenceConfig{"implicit only", true, false},
        EvidenceConfig{"combined", true, true}}) {
    SystemRun run;
    run.system = config.label;
    for (const SearchTopic& topic : g.topics.topics) {
      Query query;
      query.text = topic.title;
      run.runs[topic.id] = SearchAfter(
          adaptive_engine,
          filter_events(TopicEvents(log, topic.id), config.implicit,
                        config.explicit_marks),
          query);
    }
    const SystemEvaluation eval = EvaluateSystem(run, g.qrels, ids);
    evidence_table.AddRow(
        {config.label, FormatMetric(eval.mean.ap),
         FormatRelativeChange(eval.mean.ap, base.mean.ap)});
  }
  std::printf("%s\n", evidence_table.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() {
  ivr::bench::Run();
  return 0;
}
