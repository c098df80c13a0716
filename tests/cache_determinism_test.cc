// The cache's hard guarantee, swept end to end: serving with a result
// cache attached — cold, warm, under concurrency, and beneath adaptive
// per-session re-ranking — is bit-identical to uncached serving. Also
// the TSan workload for the cache: many threads hammer one shared cache
// (and therefore share ResultLists) while it evicts under pressure.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/string_util.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/managed_backend.h"
#include "ivr/sim/simulator.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

std::string Fingerprint(const ResultList& list) {
  std::string out;
  for (const RankedShot& entry : list.items()) {
    out += StrFormat("%u:%.17g ", entry.shot, entry.score);
  }
  return out;
}

class CacheDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 77;
    options.num_topics = 5;
    options.num_videos = 10;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    uncached_ = RetrievalEngine::Build(generated_->collection).value();
    cached_ = RetrievalEngine::Build(generated_->collection).value();
    cache_ = std::make_shared<ResultCache>();
    cached_->AttachCache(cache_);
  }

  std::vector<Query> TopicQueries(bool visual) const {
    std::vector<Query> queries;
    for (const SearchTopic& topic : generated_->topics.topics) {
      Query query;
      query.text = topic.title;
      if (visual) query.examples = topic.examples;
      queries.push_back(std::move(query));
    }
    return queries;
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> uncached_;
  std::unique_ptr<RetrievalEngine> cached_;
  std::shared_ptr<ResultCache> cache_;
};

TEST_F(CacheDeterminismTest, ColdAndWarmServingMatchUncachedBitForBit) {
  for (const bool visual : {false, true}) {
    for (const size_t k : {10u, 100u, 1000u}) {
      for (const Query& query : TopicQueries(visual)) {
        const ResultList reference = uncached_->Search(query, k);
        const ResultList cold = cached_->Search(query, k);
        const ResultList warm = cached_->Search(query, k);
        EXPECT_EQ(Fingerprint(reference), Fingerprint(cold))
            << "cold, k=" << k << " visual=" << visual;
        EXPECT_EQ(Fingerprint(reference), Fingerprint(warm))
            << "warm, k=" << k << " visual=" << visual;
      }
    }
  }
  EXPECT_GT(cache_->Stats().hits, 0u);
  EXPECT_GT(cache_->Stats().insertions, 0u);
}

TEST_F(CacheDeterminismTest, BatchSearchMatchesUncached) {
  const std::vector<Query> queries = TopicQueries(true);
  const std::vector<ResultList> reference =
      uncached_->BatchSearch(queries, 200, 4);
  // Twice: the first run fills the cache, the second serves from it.
  for (int round = 0; round < 2; ++round) {
    const std::vector<ResultList> cached =
        cached_->BatchSearch(queries, 200, 4);
    ASSERT_EQ(reference.size(), cached.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(Fingerprint(reference[i]), Fingerprint(cached[i]))
          << "query " << i << " round " << round;
    }
  }
}

TEST_F(CacheDeterminismTest, PerModalityPathsMatchUncached) {
  const TermQuery terms =
      uncached_->ParseText(generated_->topics.topics[0].title);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(Fingerprint(uncached_->SearchTerms(terms, 64)),
              Fingerprint(cached_->SearchTerms(terms, 64)));
  }
  const ColorHistogram& example =
      generated_->topics.topics[0].examples.front();
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(Fingerprint(uncached_->SearchVisual(example, 64)),
              Fingerprint(cached_->SearchVisual(example, 64)));
  }
}

TEST_F(CacheDeterminismTest, AdaptiveSessionsMatchUncachedBackend) {
  // Sessions re-rank per user on top of the shared base ranking; with the
  // base cache beneath one backend and not the other, every session's
  // served rankings must still agree bit for bit.
  const SessionSimulator simulator(generated_->collection,
                                   generated_->qrels);
  const UserModel user = NoviceUser();
  const AdaptiveEngine uncached_policy(*uncached_, AdaptiveOptions(),
                                       nullptr);
  const AdaptiveEngine cached_policy(*cached_, AdaptiveOptions(), nullptr);
  SessionManager uncached_manager(uncached_policy, SessionManagerOptions());
  SessionManager cached_manager(cached_policy, SessionManagerOptions());
  for (size_t j = 0; j < 6; ++j) {
    const SearchTopic& topic =
        generated_->topics.topics[j % generated_->topics.topics.size()];
    SessionSimulator::RunConfig config;
    config.seed = 500 + j * 17;
    config.session_id = "cache-det-" + std::to_string(j);
    config.user_id = "u" + std::to_string(j % 2);

    ManagedSessionBackend uncached_backend(
        &uncached_manager, config.session_id, config.user_id);
    Result<SimulatedSession> reference =
        simulator.Run(&uncached_backend, topic, user, config, nullptr);
    ASSERT_TRUE(reference.ok());

    ManagedSessionBackend cached_backend(&cached_manager, config.session_id,
                                         config.user_id);
    Result<SimulatedSession> session =
        simulator.Run(&cached_backend, topic, user, config, nullptr);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(cached_backend.first_error().ok());

    ASSERT_EQ(reference->outcome.per_query_results.size(),
              session->outcome.per_query_results.size());
    for (size_t q = 0; q < reference->outcome.per_query_results.size();
         ++q) {
      EXPECT_EQ(Fingerprint(reference->outcome.per_query_results[q]),
                Fingerprint(session->outcome.per_query_results[q]))
          << "session " << j << " query " << q;
    }
  }
  EXPECT_GT(cache_->Stats().hits, 0u)
      << "adaptive sessions never hit the shared base cache";
}

TEST_F(CacheDeterminismTest, ConcurrentHammerStaysBitIdentical) {
  // Many threads, one cache, eviction pressure from a small budget:
  // every thread must read exactly the uncached ranking for its query.
  // (TSan target: shared ResultLists + shard locks + LRU splicing.)
  ResultCacheOptions small;
  small.max_bytes = 64 * 1024;
  small.num_shards = 4;
  auto pressured = std::make_shared<ResultCache>(small);
  std::unique_ptr<RetrievalEngine> engine =
      RetrievalEngine::Build(generated_->collection).value();
  engine->AttachCache(pressured);

  const std::vector<Query> queries = TopicQueries(true);
  std::vector<std::string> reference;
  reference.reserve(queries.size());
  for (const Query& query : queries) {
    reference.push_back(Fingerprint(uncached_->Search(query, 100)));
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 25;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t i = (t + r) % queries.size();
        if (Fingerprint(engine->Search(queries[i], 100)) != reference[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(pressured->Stats().hits, 0u);
}

}  // namespace
}  // namespace ivr
