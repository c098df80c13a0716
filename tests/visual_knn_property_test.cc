// The visual kNN kernel against a brute-force reference: every pair
// scored through ComputeSimilarity, then one full sort by (score desc,
// id asc). Scores must match bit for bit under all three metrics, for
// random corpora with duplicate (tied), ragged (size != query) and
// all-zero rows, an empty corpus, k = 0 and k >= N, and any split of the
// rows into blocks — including a segmented engine against the one-shard
// engine over the concatenated collection.

#include "ivr/features/similarity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/sub_index.h"
#include "ivr/video/collection.h"

namespace ivr {
namespace {

constexpr VisualSimilarity kAllKinds[] = {
    VisualSimilarity::kHistogramIntersection, VisualSimilarity::kCosine,
    VisualSimilarity::kInverseL1};

std::vector<Neighbor> Reference(VisualSimilarity kind,
                                const ColorHistogram& query,
                                const std::vector<ColorHistogram>& corpus,
                                size_t k) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < corpus.size(); ++i) {
    all.push_back(Neighbor{i, ComputeSimilarity(kind, query, corpus[i])});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Rows [begin, end) of a plain histogram vector, ids from `begin`.
HistogramRows Rows(const std::vector<ColorHistogram>& corpus, size_t begin,
                   size_t end) {
  return HistogramRows{corpus.data() + begin, end - begin,
                       sizeof(ColorHistogram), begin};
}

HistogramRows Rows(const std::vector<ColorHistogram>& corpus) {
  return Rows(corpus, 0, corpus.size());
}

/// "id:score-bits" per entry: equal strings mean equal ids and
/// bit-identical scores.
std::string Render(const std::vector<Neighbor>& list) {
  std::string out;
  for (const Neighbor& n : list) {
    out += StrFormat("%zu:%016llx ", n.index,
                     static_cast<unsigned long long>(
                         std::bit_cast<uint64_t>(n.score)));
  }
  return out;
}

std::string Render(const ResultList& list) {
  std::vector<Neighbor> as_neighbors;
  for (const RankedShot& r : list.items()) {
    as_neighbors.push_back(Neighbor{r.shot, r.score});
  }
  return Render(as_neighbors);
}

/// Random prototypes and perturbed copies, with duplicate rows (exact
/// ties), ragged rows and all-zero rows mixed in.
std::vector<ColorHistogram> MakeCorpus(Rng* rng, size_t n) {
  std::vector<ColorHistogram> corpus;
  for (size_t i = 0; i < n; ++i) {
    const double pick = rng->Uniform(0.0, 1.0);
    if (pick < 0.15 && !corpus.empty()) {
      corpus.push_back(corpus[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))]);
    } else if (pick < 0.22) {
      corpus.push_back(ColorHistogram::RandomPrototype(
          rng, static_cast<size_t>(rng->UniformInt(1, 80))));
    } else if (pick < 0.28) {
      corpus.push_back(ColorHistogram());  // all zero
    } else if (pick < 0.45 && !corpus.empty()) {
      corpus.push_back(corpus.back().Perturb(rng, 0.05));
    } else {
      corpus.push_back(ColorHistogram::RandomPrototype(rng));
    }
  }
  return corpus;
}

std::vector<ColorHistogram> MakeQueries(Rng* rng,
                                        const std::vector<ColorHistogram>&
                                            corpus) {
  std::vector<ColorHistogram> queries = {
      ColorHistogram::RandomPrototype(rng), ColorHistogram(),
      ColorHistogram::RandomPrototype(rng, 17)};
  if (!corpus.empty()) {
    queries.push_back(corpus.front());
    queries.push_back(corpus.back().Perturb(rng, 0.1));
  }
  return queries;
}

/// Splits [0, n) into blocks at random cut points (empty blocks allowed).
std::vector<HistogramRows> RandomBlocks(
    Rng* rng, const std::vector<ColorHistogram>& corpus) {
  std::vector<size_t> cuts = {0, corpus.size()};
  const int64_t extra = rng->UniformInt(0, 4);
  for (int64_t c = 0; c < extra; ++c) {
    cuts.push_back(static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(corpus.size()))));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<HistogramRows> blocks;
  for (size_t b = 0; b + 1 < cuts.size(); ++b) {
    blocks.push_back(Rows(corpus, cuts[b], cuts[b + 1]));
  }
  return blocks;
}

class VisualKnnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VisualKnnPropertyTest, MatchesBruteForceBitwise) {
  Rng rng(GetParam());
  const size_t n = static_cast<size_t>(rng.UniformInt(0, 70));
  const std::vector<ColorHistogram> corpus = MakeCorpus(&rng, n);
  const HistogramRows whole = Rows(corpus);
  for (const VisualSimilarity kind : kAllKinds) {
    for (const ColorHistogram& query : MakeQueries(&rng, corpus)) {
      for (const size_t k : {size_t{0}, size_t{1}, size_t{5}, n / 2, n,
                             n + 3, size_t{1000}}) {
        const std::string want = Render(Reference(kind, query, corpus, k));
        EXPECT_EQ(Render(NearestNeighbors(kind, query, {&whole, 1}, k)),
                  want)
            << "kind=" << static_cast<int>(kind) << " n=" << n << " k=" << k;
        const std::vector<HistogramRows> blocks = RandomBlocks(&rng, corpus);
        EXPECT_EQ(Render(NearestNeighbors(kind, query, blocks, k)), want)
            << "segmented kind=" << static_cast<int>(kind) << " n=" << n
            << " k=" << k << " blocks=" << blocks.size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisualKnnPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(VisualKnnTest, EmptyCorpusAndZeroK) {
  Rng rng(4);
  const ColorHistogram q = ColorHistogram::RandomPrototype(&rng);
  EXPECT_TRUE(NearestNeighbors(VisualSimilarity::kHistogramIntersection, q,
                               {}, 5)
                  .empty());
  const std::vector<ColorHistogram> corpus = {q, q};
  const HistogramRows rows = Rows(corpus);
  EXPECT_TRUE(NearestNeighbors(VisualSimilarity::kCosine, q, {&rows, 1}, 0)
                  .empty());
}

TEST(VisualKnnTest, MismatchedRowsScoreWorstCase) {
  // 0 under every metric, inverse-L1 included (1 / (1 + inf)); a zero
  // row scores 0 under cosine.
  const ColorHistogram q(std::vector<double>{0.5, 0.5});
  const std::vector<ColorHistogram> corpus = {
      ColorHistogram(std::vector<double>{1.0}),
      ColorHistogram(std::vector<double>{0.0, 0.0}),
      ColorHistogram(std::vector<double>{0.2, 0.2, 0.6})};
  const HistogramRows rows = Rows(corpus);
  for (const VisualSimilarity kind : kAllKinds) {
    const auto nn = NearestNeighbors(kind, q, {&rows, 1}, 3);
    ASSERT_EQ(nn.size(), 3u);
    for (const Neighbor& n : nn) {
      if (n.index == 1 && kind != VisualSimilarity::kCosine) continue;
      EXPECT_EQ(n.score, 0.0) << "kind=" << static_cast<int>(kind)
                              << " row=" << n.index;
    }
  }
}

TEST(VisualKnnTest, StridedRowsReadMembersInPlace) {
  struct Record {
    std::string label;
    ColorHistogram keyframe;
    int weight = 0;
  };
  Rng rng(9);
  std::vector<Record> records;
  std::vector<ColorHistogram> plain;
  for (int i = 0; i < 11; ++i) {
    records.push_back(Record{"r" + std::to_string(i),
                             ColorHistogram::RandomPrototype(&rng), i});
    plain.push_back(records.back().keyframe);
  }
  const HistogramRows strided =
      HistogramRows::Of(records, &Record::keyframe, /*first_id=*/100);
  EXPECT_EQ(&strided.row(7), &records[7].keyframe);
  const ColorHistogram q = plain[3].Perturb(&rng, 0.1);
  std::vector<Neighbor> want =
      Reference(VisualSimilarity::kInverseL1, q, plain, 6);
  for (Neighbor& n : want) n.index += 100;
  EXPECT_EQ(Render(NearestNeighbors(VisualSimilarity::kInverseL1, q,
                                    {&strided, 1}, 6)),
            Render(want));
}

// --- Cases carried over from the former VisualSearcher tests. ---

std::vector<ColorHistogram> Prototypes(Rng* rng, size_t n) {
  std::vector<ColorHistogram> corpus;
  for (size_t i = 0; i < n; ++i) {
    corpus.push_back(ColorHistogram::RandomPrototype(rng));
  }
  return corpus;
}

std::vector<Neighbor> Knn(const std::vector<ColorHistogram>& corpus,
                          const ColorHistogram& query, size_t k,
                          VisualSimilarity kind =
                              VisualSimilarity::kHistogramIntersection) {
  const HistogramRows rows = Rows(corpus);
  return NearestNeighbors(kind, query, {&rows, 1}, k);
}

TEST(VisualKnnTest, ExactMatchRanksFirst) {
  Rng rng(1);
  const auto corpus = Prototypes(&rng, 20);
  const auto nn = Knn(corpus, corpus[7], 5);
  ASSERT_FALSE(nn.empty());
  EXPECT_EQ(nn[0].index, 7u);
  EXPECT_NEAR(nn[0].score, 1.0, 1e-9);
}

TEST(VisualKnnTest, ScoresDescendAndRespectK) {
  Rng rng(2);
  const auto corpus = Prototypes(&rng, 30);
  const auto nn = Knn(corpus, corpus[0], 10);
  EXPECT_EQ(nn.size(), 10u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i - 1].score, nn[i].score);
  }
}

TEST(VisualKnnTest, KLargerThanCorpusReturnsAll) {
  Rng rng(3);
  const auto corpus = Prototypes(&rng, 4);
  EXPECT_EQ(Knn(corpus, corpus[0], 100).size(), 4u);
}

TEST(VisualKnnTest, ScoresEqualPairwiseSimilarity) {
  Rng rng(5);
  const auto corpus = Prototypes(&rng, 10);
  const auto nn = Knn(corpus, corpus[3], 10, VisualSimilarity::kCosine);
  ASSERT_EQ(nn.size(), 10u);
  EXPECT_EQ(nn[0].index, 3u);
  EXPECT_NEAR(nn[0].score, 1.0, 1e-9);
  for (const Neighbor& n : nn) {
    EXPECT_EQ(n.score, ComputeSimilarity(VisualSimilarity::kCosine,
                                         corpus[3], corpus[n.index]));
  }
}

TEST(VisualKnnTest, PerturbedQueryFindsItsPrototypeNeighborhood) {
  Rng rng(7);
  auto corpus = Prototypes(&rng, 8);
  // Add 10 perturbed variants of prototype 2 at indices 8..17.
  for (int i = 0; i < 10; ++i) {
    corpus.push_back(corpus[2].Perturb(&rng, 0.2));
  }
  const auto nn = Knn(corpus, corpus[2].Perturb(&rng, 0.2), 5);
  // The top neighbours should be from the prototype-2 cluster.
  size_t cluster_hits = 0;
  for (const Neighbor& n : nn) {
    if (n.index == 2 || n.index >= 8) ++cluster_hits;
  }
  EXPECT_GE(cluster_hits, 4u);
}

TEST(VisualKnnTest, TieBreaksByIndex) {
  const std::vector<ColorHistogram> corpus(
      3, ColorHistogram(std::vector<double>{0.5, 0.5}));
  const auto nn = Knn(corpus, corpus[0], 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].index, 0u);
  EXPECT_EQ(nn[1].index, 1u);
  EXPECT_EQ(nn[2].index, 2u);
}

// --- The engine: one scan across shards equals the one-shard engine. ---

/// A collection of `keyframes.size()` shots (no stories: engines here
/// index transcripts only) whose keyframes are the given rows.
std::shared_ptr<const VideoCollection> MakeSlice(
    const std::vector<ColorHistogram>& keyframes, size_t begin, size_t end) {
  auto slice = std::make_shared<VideoCollection>();
  for (size_t i = begin; i < end; ++i) {
    Shot shot;
    shot.asr_transcript = StrFormat("shot%zu news", i);
    shot.keyframe = keyframes[i];
    shot.external_id = StrFormat("s%zu", i);
    slice->AddShot(std::move(shot));
  }
  return slice;
}

class SegmentedVisualTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentedVisualTest, SegmentedEqualsOneShardEngine) {
  Rng rng(GetParam());
  const size_t n = static_cast<size_t>(rng.UniformInt(1, 60));
  const std::vector<ColorHistogram> corpus = MakeCorpus(&rng, n);
  for (const VisualSimilarity kind : kAllKinds) {
    EngineOptions options;
    options.index_headlines = false;
    options.visual_similarity = kind;
    const std::shared_ptr<const VideoCollection> whole =
        MakeSlice(corpus, 0, n);
    auto monolithic = RetrievalEngine::Build(*whole, options).value();

    // Random non-empty shards over the same rows.
    std::vector<std::shared_ptr<const SubIndex>> shards;
    size_t begin = 0;
    while (begin < n) {
      const size_t end = std::min(
          n, begin + static_cast<size_t>(rng.UniformInt(1, 15)));
      shards.push_back(SubIndex::Build(MakeSlice(corpus, begin, end),
                                       options, static_cast<ShotId>(begin))
                           .value());
      begin = end;
    }
    auto segmented =
        RetrievalEngine::BuildSegmented(std::move(shards), options).value();

    for (const ColorHistogram& query : MakeQueries(&rng, corpus)) {
      for (const size_t k : {size_t{0}, size_t{3}, n, n + 5}) {
        const std::string want = Render(Reference(kind, query, corpus, k));
        EXPECT_EQ(Render(monolithic->SearchVisual(query, k)), want)
            << "kind=" << static_cast<int>(kind) << " n=" << n
            << " k=" << k;
        EXPECT_EQ(Render(segmented->SearchVisual(query, k)), want)
            << "kind=" << static_cast<int>(kind) << " n=" << n << " k=" << k
            << " shards=" << segmented->num_shards();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentedVisualTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace ivr
