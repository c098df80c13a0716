// Concurrent-reader contract for ResultList: a list is ranked when it is
// built and never changes under a const accessor, so one shared list may
// be read from many threads at once and every reader sees the same
// ranking. This is the TSan workload for that contract (the result cache
// hands one stored list to every hit); it also pins the ranking and
// copy/move semantics the cache relies on.

#include "ivr/retrieval/result_list.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ivr/core/string_util.h"

namespace ivr {
namespace {

/// n entries in scrambled order, with repeated shots and tied scores.
ResultList MakeShared(size_t n) {
  std::vector<RankedShot> items;
  for (size_t i = 0; i < n; ++i) {
    const ShotId shot = static_cast<ShotId>((i * 7919) % (n / 2 + 1));
    items.push_back(RankedShot{
        shot, static_cast<double>((i * 104729) % 1000) / 1000.0});
  }
  return ResultList(std::move(items));
}

std::string Fingerprint(const ResultList& list) {
  std::string out;
  for (const RankedShot& entry : list.items()) {
    out += StrFormat("%u:%.17g ", entry.shot, entry.score);
  }
  return out;
}

TEST(ResultListConcurrentTest, ManyReadersOfOneSharedListAgree) {
  constexpr size_t kThreads = 8;
  constexpr size_t kItems = 512;
  for (int iteration = 0; iteration < 20; ++iteration) {
    const ResultList list = MakeShared(kItems);
    // Reference from a separately built list.
    const std::string expected = Fingerprint(MakeShared(kItems));
    ASSERT_FALSE(list.empty());

    std::vector<std::string> seen(kThreads);
    std::atomic<size_t> start{0};
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        // Rough start barrier so the threads read together.
        start.fetch_add(1);
        while (start.load() < kThreads) {
        }
        // Every const accessor.
        const size_t n = list.size();
        EXPECT_FALSE(list.empty());
        EXPECT_EQ(n, list.items().size());
        EXPECT_EQ(list.MemoryBytes(), n * sizeof(RankedShot));
        const std::vector<ShotId> shots = list.ShotIds();
        ASSERT_EQ(shots.size(), n);
        for (size_t i = 0; i < n; i += 37) {
          EXPECT_EQ(list.at(i).shot, shots[i]);
          EXPECT_EQ(list.RankOf(shots[i]), i);
          EXPECT_TRUE(list.Contains(shots[i]));
          EXPECT_EQ(list.ScoreOf(shots[i]), list.at(i).score);
        }
        EXPECT_FALSE(list.Contains(kInvalidShotId));
        seen[t] = Fingerprint(list);
      });
    }
    for (std::thread& t : pool) t.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], expected) << "thread " << t;
    }
  }
}

TEST(ResultListConcurrentTest, VectorConstructionSortsEagerly) {
  const ResultList list(
      {{ShotId{5}, 0.2}, {ShotId{1}, 0.9}, {ShotId{3}, 0.9}});
  // Already ordered: score desc, ties by ascending shot.
  EXPECT_EQ(list.ShotIds(), (std::vector<ShotId>{1, 3, 5}));
}

TEST(ResultListConcurrentTest, DuplicateShotsKeepMaxScore) {
  const ResultList list({{7, 0.25}, {7, 0.75}, {7, 0.50}});
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.ScoreOf(7), 0.75);
}

TEST(ResultListConcurrentTest, CopySharesNothingAndIsSorted) {
  ResultList original({{2, 0.1}, {1, 0.9}, {3, 0.5}});
  const ResultList copy = original;
  EXPECT_EQ(copy.ShotIds(), (std::vector<ShotId>{1, 3, 2}));
  original.Truncate(1);
  EXPECT_EQ(copy.size(), 3u) << "copy must not alias the source";
  EXPECT_EQ(original.size(), 1u);
}

TEST(ResultListConcurrentTest, MoveLeavesSourceEmptyAndUsable) {
  ResultList source({{4, 0.4}, {9, 0.9}});
  ResultList moved = std::move(source);
  EXPECT_EQ(moved.ShotIds(), (std::vector<ShotId>{9, 4}));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move): pinned
  source = ResultList({{1, 1.0}});  // and still usable
  EXPECT_EQ(source.size(), 1u);
}

TEST(ResultListConcurrentTest, ConcurrentCopiesOfSharedListAreIdentical) {
  // The cache's serving pattern: one stored list, every hit takes a copy
  // concurrently with other hits.
  const ResultList shared = MakeShared(256);
  const std::string expected = Fingerprint(MakeShared(256));
  constexpr size_t kThreads = 8;
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const ResultList copy = shared;
        seen[t] = Fingerprint(copy);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace ivr
