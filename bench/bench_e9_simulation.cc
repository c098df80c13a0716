// E9 — Does simulation-based evaluation agree with log replay?
//
// The paper adopts simulated users as a "cheap and repeatable" substitute
// for lab studies (Section 2.2), citing White et al. [22] and its own
// simulation frameworks [9,11]. The methodological check: do conclusions
// drawn from fresh policy simulations agree with conclusions drawn from
// replaying previously recorded logs (the Vallet et al. [21] method)?
//
// Protocol: record a reference population's logs once. Then rank four
// candidate systems (three scorers + the adaptive engine) twice —
// (a) by replaying the recorded logs against each system, and
// (b) by running fresh simulations (different seeds) against each system —
// and compare the two system rankings with Kendall's tau, plus the
// stability of basic interaction statistics across simulation seeds.
//
// Expected shape: absolute MAP values differ between the two
// methodologies, but the system *ranking* agrees (tau near 1), and
// interaction statistics are stable across seed batches.

#include <cmath>
#include <functional>

#include "bench_util.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/replayer.h"

namespace ivr {
namespace bench {
namespace {

using BackendFactory = std::function<std::unique_ptr<SearchBackend>()>;

struct Candidate {
  std::string label;
  BackendFactory make;
};

void Run() {
  Banner("E9", "simulation vs log replay as evaluation methodologies");
  SetLogLevel(LogLevel::kWarning);

  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());

  // Candidate systems under evaluation.
  std::vector<std::unique_ptr<RetrievalEngine>> engines;
  for (const char* scorer : {"bm25", "tfidf", "lm"}) {
    EngineOptions options;
    options.scorer = scorer;
    engines.push_back(MustBuildEngine(g.collection, options));
  }
  std::vector<Candidate> candidates;
  for (auto& engine : engines) {
    RetrievalEngine* e = engine.get();
    candidates.push_back(
        {"static-" + e->options().scorer, [e]() {
           return std::make_unique<StaticBackend>(*e);
         }});
  }
  RetrievalEngine* bm25 = engines[0].get();
  const AdaptiveEngine adaptive(*bm25, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  candidates.push_back({"adaptive-bm25", [&manager]() {
                          return std::make_unique<ManagedSessionBackend>(
                              &manager, "e9", "novice");
                        }});

  // Reference logs, recorded once against the bm25 baseline.
  SessionLog reference_log;
  {
    StaticBackend recorder(*bm25);
    SimulateSessions(g, &recorder, NoviceUser(), Environment::kDesktop, 4,
                     &reference_log, 31000);
  }

  // Methodology A: replay the recorded logs against each candidate and
  // score the results each logged query would have received.
  auto replay_map = [&](SearchBackend* backend) {
    const LogReplayer replayer(1000);
    const std::vector<ReplayedSession> sessions =
        replayer.ReplayAll(reference_log, backend).value();
    double total = 0.0;
    size_t queries = 0;
    for (const ReplayedSession& session : sessions) {
      for (const ResultList& results : session.per_query_results) {
        total += AveragePrecision(results, g.qrels, session.topic);
        ++queries;
      }
    }
    return queries > 0 ? total / static_cast<double>(queries) : 0.0;
  };

  // Methodology B: fresh simulations (different seed batch) against each
  // candidate; score the final query of each session.
  auto simulate_map = [&](SearchBackend* backend, uint64_t seed_base) {
    const auto sessions =
        SimulateSessions(g, backend, NoviceUser(), Environment::kDesktop,
                         4, nullptr, seed_base);
    double total = 0.0;
    size_t counted = 0;
    for (const SimulatedSession& session : sessions) {
      if (session.outcome.per_query_results.empty()) continue;
      total += AveragePrecision(session.outcome.per_query_results.back(),
                                g.qrels, session.topic);
      ++counted;
    }
    return counted > 0 ? total / static_cast<double>(counted) : 0.0;
  };

  TextTable table({"system", "MAP (replay)", "MAP (simulation)"});
  std::vector<double> replay_scores;
  std::vector<double> sim_scores;
  for (const Candidate& candidate : candidates) {
    // One backend at a time: each managed one ends its session on exit.
    const double replay = replay_map(candidate.make().get());
    const double sim = simulate_map(candidate.make().get(), 77000);
    replay_scores.push_back(replay);
    sim_scores.push_back(sim);
    table.AddRow({candidate.label, FormatMetric(replay),
                  FormatMetric(sim)});
  }
  std::printf("%s\n", table.ToString().c_str());

  const double tau = KendallTau(replay_scores, sim_scores).value();
  // Tau with a tie tolerance: systems whose MAP differs by less than
  // epsilon under a methodology are tied there, and tied pairs cannot be
  // discordant — the fair reading when two scorers are statistically
  // indistinguishable.
  constexpr double kEpsilon = 0.01;
  long long concordant = 0;
  long long discordant = 0;
  for (size_t i = 0; i < replay_scores.size(); ++i) {
    for (size_t j = i + 1; j < replay_scores.size(); ++j) {
      const double dr = replay_scores[i] - replay_scores[j];
      const double ds = sim_scores[i] - sim_scores[j];
      if (std::fabs(dr) < kEpsilon || std::fabs(ds) < kEpsilon) continue;
      if (dr * ds > 0) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const long long decided = concordant + discordant;
  std::printf("Kendall tau between system rankings: %.3f raw, "
              "%.3f over the %lld pairs separated by >= %.2f MAP\n\n",
              tau,
              decided > 0 ? static_cast<double>(concordant - discordant) /
                                static_cast<double>(decided)
                          : 0.0,
              decided, kEpsilon);

  // Stability of interaction statistics across simulation seed batches.
  TextTable stability({"seed batch", "queries/sess", "clicks/sess",
                       "plays/sess", "rel found/sess"});
  for (uint64_t batch : {41000u, 42000u, 43000u}) {
    StaticBackend backend(*bm25);
    const auto sessions = SimulateSessions(
        g, &backend, NoviceUser(), Environment::kDesktop, 2, nullptr,
        batch);
    double queries = 0.0;
    double clicks = 0.0;
    double plays = 0.0;
    double found = 0.0;
    for (const SimulatedSession& s : sessions) {
      queries += static_cast<double>(s.outcome.queries_issued);
      clicks += static_cast<double>(s.outcome.clicks);
      plays += static_cast<double>(s.outcome.plays);
      found += static_cast<double>(s.outcome.truly_relevant_found);
    }
    const double n = static_cast<double>(sessions.size());
    stability.AddRow({StrFormat("%llu", static_cast<unsigned long long>(
                                            batch)),
                      StrFormat("%.2f", queries / n),
                      StrFormat("%.2f", clicks / n),
                      StrFormat("%.2f", plays / n),
                      StrFormat("%.2f", found / n)});
  }
  std::printf("%s\n", stability.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() {
  ivr::bench::Run();
  return 0;
}
