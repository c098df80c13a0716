// Logfile round trip: simulate a user session, persist its interaction
// log to disk in the TSV format, parse it back, and (a) mine implicit
// relevance evidence from it, (b) replay it against an adaptive backend —
// the "analyse the resulting logfiles" methodology of the paper.
//
//   ./build/examples/session_replay [logfile]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/eval/metrics.h"
#include "ivr/feedback/estimator.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/replayer.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

using namespace ivr;  // examples only

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/ivr_session.log";

  GeneratorOptions options;
  options.seed = 23;
  options.num_topics = 6;
  options.num_videos = 10;
  options.topic_title_word_offset = 5;
  GeneratedCollection g = GenerateCollection(options).value();
  auto engine = RetrievalEngine::Build(g.collection).value();

  // 1. Record: a simulated expert works on topic 2 against the plain
  //    engine; every interaction lands in the log.
  StaticBackend backend(*engine);
  SessionSimulator simulator(g.collection, g.qrels);
  SessionLog log;
  SessionSimulator::RunConfig config;
  config.seed = 4;
  config.session_id = "recorded-session";
  config.user_id = "erin";
  const SearchTopic& topic = g.topics.topics[2];
  simulator.Run(&backend, topic, ExpertUser(), config, &log).value();

  // 2. Persist and reload the logfile.
  {
    std::ofstream out(path);
    out << log.Serialize();
  }
  std::stringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  const SessionLog parsed = SessionLog::Parse(buffer.str()).value();
  std::printf("wrote and re-read %s: %zu events, %zu queries\n\n",
              path.c_str(), parsed.size(),
              parsed.CountType(EventType::kQuerySubmit));

  // 3. Mine implicit evidence from the parsed log.
  const LinearWeighting scheme;
  const ImplicitRelevanceEstimator estimator(scheme);
  const auto evidence = estimator.Estimate(
      parsed.EventsForSession("recorded-session"), &g.collection);
  std::printf("implicit relevance evidence (scheme: %s):\n",
              scheme.name().c_str());
  for (const RelevanceEvidence& e : evidence) {
    std::printf("  shot %-5u weight %+6.2f  (%s)\n", e.shot, e.weight,
                g.qrels.IsRelevant(topic.id, e.shot) ? "truly relevant"
                                                     : "not relevant");
  }

  // 4. Replay the log against an adaptive backend: what results would
  //    each logged query have received from the smarter system?
  //    Each replayed session runs as a managed session of a
  //    SessionManager over the adaptive policy.
  const AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  ManagedSessionBackend managed(&manager, "replay", "erin");
  const LogReplayer replayer(1000);
  const auto replays = replayer.ReplayAll(parsed, &managed).value();
  std::printf("\nreplay against %s:\n", adaptive.name().c_str());
  for (const ReplayedSession& session : replays) {
    for (size_t q = 0; q < session.queries.size(); ++q) {
      std::printf("  query %zu \"%s\": AP %.4f\n", q + 1,
                  session.queries[q].c_str(),
                  AveragePrecision(session.per_query_results[q], g.qrels,
                                   session.topic));
    }
  }
  return 0;
}
