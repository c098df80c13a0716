// E-C1 — Result-cache hit rate and warm-serving latency vs cache budget.
//
// Replays a repeated-query workload (every topic's full multi-modal
// query, many rounds — the shape concurrent sessions on the same topics
// produce) against the base engine at several cache budgets, reporting
// hit rate, warm-round latency, and the speedup over uncached serving;
// every cached ranking is checked bit-identical to the uncached
// reference.
//
// E-S1 (concurrent-session throughput) is data, not code:
//   ivr_workload --workload workloads/service_scaling.json --check

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ivr/cache/result_cache.h"

namespace ivr {
namespace bench {
namespace {

std::string RankingSignature(const ResultList& list) {
  std::string sig;
  for (const RankedShot& entry : list.items()) {
    sig += StrFormat("%u:%.17g ", entry.shot, entry.score);
  }
  return sig;
}

int CacheSweep(const GeneratedCollection& g, const RetrievalEngine& engine) {
  Banner("E-C1", "result-cache hit rate and warm-serving latency");

  // The repeated-query workload: every topic's full multi-modal query,
  // kRounds times over. Round 0 is the cold fill; later rounds model
  // concurrent sessions re-issuing the same base queries.
  std::vector<Query> queries;
  for (const SearchTopic& topic : g.topics.topics) {
    Query query;
    query.text = topic.title;
    query.examples = topic.examples;
    queries.push_back(std::move(query));
  }
  const size_t kRounds = 30;
  const size_t kK = 1000;

  // Uncached baseline: mean per-query latency and reference rankings.
  std::vector<std::string> reference;
  for (const Query& query : queries) {
    reference.push_back(RankingSignature(engine.Search(query, kK)));
  }
  const auto uncached_started = std::chrono::steady_clock::now();
  for (size_t round = 0; round < kRounds; ++round) {
    for (const Query& query : queries) (void)engine.Search(query, kK);
  }
  const double uncached_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - uncached_started)
          .count() /
      static_cast<double>(kRounds * queries.size());

  std::printf("uncached baseline: %.0f us/query (%zu queries x %zu "
              "rounds)\n\n",
              uncached_us, queries.size(), kRounds);
  std::printf("%-10s %10s %10s %12s %10s %10s\n", "cache_kb", "hit_rate",
              "evict+rej", "warm_us", "speedup", "identical");

  bool all_identical = true;
  double best_speedup = 0.0;
  // Sub-MB budgets exercise the pressure regimes (per-shard rejection of
  // oversized entries, LRU churn); the MB budgets hold the working set.
  for (const size_t budget_kb : {size_t{64}, size_t{256}, size_t{1024},
                                 size_t{65536}}) {
    auto cached = MustBuildEngine(g.collection);
    ResultCacheOptions options;
    options.max_bytes = budget_kb * 1024;
    auto cache = std::make_shared<ResultCache>(options);
    cached->AttachCache(cache);

    // Cold fill + one warm verification pass, both untimed: the bit-check
    // formats every ranking, which must not pollute the latency numbers.
    size_t identical = 0;
    size_t checked = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < queries.size(); ++i) {
        if (RankingSignature(cached->Search(queries[i], kK)) ==
            reference[i]) {
          ++identical;
        }
        ++checked;
      }
    }
    // Timed warm rounds: the serving path alone, same loop shape as the
    // uncached baseline.
    const auto warm_started = std::chrono::steady_clock::now();
    for (size_t round = 0; round < kRounds; ++round) {
      for (const Query& query : queries) (void)cached->Search(query, kK);
    }
    const double warm_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - warm_started)
            .count() /
        static_cast<double>(kRounds * queries.size());

    const ResultCacheStats stats = cache->Stats();
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    const double hit_rate =
        lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
    const double speedup = warm_us > 0 ? uncached_us / warm_us : 0.0;
    if (speedup > best_speedup) best_speedup = speedup;
    std::printf("%-10zu %9.1f%% %10zu %12.0f %9.2fx %7zu/%zu\n", budget_kb,
                hit_rate * 100.0,
                static_cast<size_t>(stats.evictions + stats.rejected_inserts),
                warm_us, speedup, identical, checked);
    if (identical != checked) all_identical = false;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: cached serving diverged from uncached rankings\n");
    return 1;
  }
  std::printf(
      "\nExpected shape: every budget serves bit-identical rankings —\n"
      "under-budget caches degrade hit rate, never correctness. Once the\n"
      "working set fits, warm per-query latency drops well over 2x vs\n"
      "uncached. Under-budget shapes are workload-dependent: a budget\n"
      "that rejects oversized entries outright can out-hit a slightly\n"
      "larger one that admits them and churns (sequential-cycling LRU).\n");
  if (best_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: warm-cache speedup %.2fx below the 2x floor\n",
                 best_speedup);
    return 1;
  }
  return 0;
}

int Main() {
  const GeneratedCollection g = MustGenerate(StandardCollectionOptions());
  const auto engine = MustBuildEngine(g.collection);
  return CacheSweep(g, *engine);
}

}  // namespace
}  // namespace bench
}  // namespace ivr

int main() { return ivr::bench::Main(); }
