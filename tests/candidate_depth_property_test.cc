// The candidate-depth rule, attacked with randomized queries: a search
// whose output is one lone ranked list fetches that list only
// min(k, candidate_pool) deep, and every search must still equal, bit for
// bit, the pool-deep reference — each modality searched at the full
// candidate pool, fused as the engines fuse, profile-reranked when a
// profile applies, then truncated to k. Run over multi-shard engines
// grown from ingested segments, with and without a result cache, for
// RetrievalEngine::Search and for AdaptiveEngine::Search with Rocchio
// expansion and with the profile rerank on and off.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/file_util.h"
#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/ingest/live_engine.h"
#include "ivr/profile/profile_reranker.h"
#include "ivr/retrieval/fusion.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

// Small enough that rankings overflow it, so k = pool and k = pool + 7
// are cut by the pool and k = 199 lies past it.
constexpr size_t kPool = 150;

GeneratedCollection MakeCollection(uint64_t seed, size_t videos) {
  GeneratorOptions options;
  options.seed = seed;
  options.num_videos = videos;
  options.num_topics = 5;
  return GenerateCollection(options).value();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  if (FileExists(dir)) {
    const auto entries = ListDirectory(dir);
    if (entries.ok()) {
      for (const std::string& entry : *entries) {
        (void)RemoveFile(dir + "/" + entry);
      }
    }
  }
  return dir;
}

std::string Render(const ResultList& list) {
  std::string out;
  for (const RankedShot& entry : list.items()) {
    out += StrFormat("%u:%a ", entry.shot, entry.score);
  }
  return out;
}

ResultList Fuse(std::vector<ResultList> lists,
                const std::vector<double>& weights) {
  if (lists.empty()) return ResultList();
  return lists.size() == 1 ? std::move(lists.front())
                           : WeightedLinear(lists, weights);
}

std::vector<ResultList> VisualLists(const RetrievalEngine& engine,
                                    const Query& query, size_t pool) {
  std::vector<ResultList> visual;
  for (const ColorHistogram& example : query.examples) {
    visual.push_back(engine.SearchVisual(example, pool));
  }
  return visual;
}

/// RetrievalEngine::Search at the full pool: every modality pool-deep,
/// fused as the engine fuses, then truncated.
ResultList EngineReference(const RetrievalEngine& engine, const Query& query,
                           size_t k) {
  const EngineOptions& options = engine.options();
  const size_t pool = options.candidate_pool;
  std::vector<ResultList> lists;
  std::vector<double> weights;
  if (query.HasText()) {
    lists.push_back(engine.SearchTerms(engine.ParseText(query.text), pool));
    weights.push_back(options.text_weight);
  }
  if (query.HasExamples()) {
    lists.push_back(CombSum(VisualLists(engine, query, pool)));
    weights.push_back(options.visual_weight);
  }
  if (query.HasConcepts()) {
    lists.push_back(engine.SearchConcepts(query.concepts, pool).value());
    weights.push_back(options.concept_weight);
  }
  ResultList out = Fuse(std::move(lists), weights);
  out.Truncate(k);
  return out;
}

/// AdaptiveEngine::Search at the full pool: Rocchio expansion from the
/// context's evidence, modalities pool-deep, fusion, profile rerank,
/// truncation.
ResultList AdaptiveReference(const AdaptiveEngine& adaptive,
                             const SessionContext& ctx, const Query& query,
                             size_t k) {
  const RetrievalEngine& engine = adaptive.engine();
  const AdaptiveOptions& options = adaptive.options();
  const size_t pool = options.candidate_pool;
  std::vector<ResultList> lists;
  std::vector<double> weights;
  if (query.HasText()) {
    TermQuery terms = engine.ParseText(query.text);
    std::vector<FeedbackDoc> positive;
    std::vector<FeedbackDoc> negative;
    for (const RelevanceEvidence& e : adaptive.CurrentEvidence(ctx)) {
      const std::string text = engine.IndexedText(e.shot);
      if (text.empty()) continue;
      if (e.weight > 0.0) positive.push_back(FeedbackDoc{text, e.weight});
      if (e.weight < 0.0) negative.push_back(FeedbackDoc{text, -e.weight});
    }
    if (!positive.empty() || !negative.empty()) {
      terms = RocchioExpand(terms, positive, negative, engine.analyzer(),
                            options.rocchio);
    }
    lists.push_back(engine.SearchTerms(terms, pool));
    weights.push_back(engine.options().text_weight);
  }
  if (query.HasExamples()) {
    lists.push_back(CombSum(VisualLists(engine, query, pool)));
    weights.push_back(engine.options().visual_weight);
  }
  if (lists.empty()) return ResultList();
  ResultList out = Fuse(std::move(lists), weights);
  const UserProfile* profile = ctx.profile != nullptr
                                   ? ctx.profile.get()
                                   : adaptive.default_profile().get();
  if (options.use_profile && profile != nullptr) {
    ProfileRerankOptions rerank;
    rerank.lambda = options.profile_lambda;
    out = RerankWithProfile(
        out, *profile,
        ShotLookup([&engine](ShotId id) { return engine.FindShot(id); }),
        rerank);
  }
  out.Truncate(k);
  return out;
}

/// Positive engagements (click, long play) on `shots`, each closed by a
/// query event: the evidence Rocchio expansion feeds on.
void Engage(const AdaptiveEngine& adaptive, SessionContext* ctx,
            const std::vector<ShotId>& shots) {
  TimeMs t = 0;
  for (const ShotId shot : shots) {
    InteractionEvent click;
    click.time = t;
    click.type = EventType::kClickKeyframe;
    click.shot = shot;
    adaptive.ObserveEvent(ctx, click);
    InteractionEvent play;
    play.time = t + 1000;
    play.type = EventType::kPlayStop;
    play.value = 20000.0;
    play.shot = shot;
    adaptive.ObserveEvent(ctx, play);
    InteractionEvent next;
    next.time = t + 2000;
    next.type = EventType::kQuerySubmit;
    next.text = "next";
    adaptive.ObserveEvent(ctx, next);
    t += 5000;
  }
}

/// The query shapes the depth rule distinguishes: one modality alone
/// (the k-deep path), and every mix (the pool-deep path).
enum class Shape {
  kText,
  kOneExample,
  kTwoExamples,
  kConcepts,
  kTextExample,
  kTextConcepts,
  kExampleConcepts,
  kAll,
  kNumShapes,
};

class QueryMaker {
 public:
  QueryMaker(const RetrievalEngine& engine, const TopicSet& topics,
             Rng* rng)
      : engine_(engine), topics_(topics), rng_(rng) {}

  Query Make(Shape shape) {
    Query query;
    const bool text = shape == Shape::kText || shape == Shape::kTextExample ||
                      shape == Shape::kTextConcepts || shape == Shape::kAll;
    const bool concepts = shape == Shape::kConcepts ||
                          shape == Shape::kTextConcepts ||
                          shape == Shape::kExampleConcepts ||
                          shape == Shape::kAll;
    size_t examples = 0;
    if (shape == Shape::kOneExample || shape == Shape::kTextExample ||
        shape == Shape::kExampleConcepts || shape == Shape::kAll) {
      examples = 1;
    }
    if (shape == Shape::kTwoExamples) examples = 2;
    if (text) query.text = Text();
    for (size_t i = 0; i < examples; ++i) {
      query.examples.push_back(Example());
    }
    if (concepts) {
      const int64_t n = rng_->UniformInt(1, 3);
      for (int64_t i = 0; i < n; ++i) {
        query.concepts.push_back(Topic().target_topic);
      }
    }
    return query;
  }

  ShotId RandomShot() {
    return static_cast<ShotId>(rng_->UniformInt(
        0, static_cast<int64_t>(engine_.num_shots()) - 1));
  }

 private:
  const SearchTopic& Topic() {
    return topics_.topics[static_cast<size_t>(rng_->UniformInt(
        0, static_cast<int64_t>(topics_.topics.size()) - 1))];
  }

  // A topic title, or a shot's own indexed text: a long query that
  // matches far more shots than the pool holds.
  std::string Text() {
    if (rng_->Bernoulli(0.5)) return Topic().title;
    return engine_.IndexedText(RandomShot());
  }

  // A topic's example keyframe, or a shot's own keyframe.
  ColorHistogram Example() {
    if (rng_->Bernoulli(0.5)) {
      const SearchTopic& topic = Topic();
      if (!topic.examples.empty()) return topic.examples.front();
    }
    return engine_.FindShot(RandomShot())->keyframe;
  }

  const RetrievalEngine& engine_;
  const TopicSet& topics_;
  Rng* rng_;
};

const std::vector<size_t> kDepths = {0, 1, 10, 199, kPool, kPool + 7};

IngestOptions LiveOptions(const std::string& dir, bool cached) {
  IngestOptions options;
  options.dir = dir;
  options.engine.use_concepts = true;
  options.engine.candidate_pool = kPool;
  options.adaptive.candidate_pool = kPool;
  if (cached) options.cache = std::make_shared<ResultCache>();
  return options;
}

TEST(CandidateDepthPropertyTest, LoneListsAtTopKEqualThePoolDeepReference) {
  size_t lone_checks = 0;
  size_t expanded = 0;
  size_t pool_cut_checks = 0;
  size_t visual_depth_sensitive = 0;
  for (const uint64_t seed : {5ull, 19ull}) {
    const GeneratedCollection stream = MakeCollection(seed * 13 + 3, 10);
    // Two live engines with one history: one serves uncached (and holds
    // the reference), the other through a result cache.
    auto plain = LiveEngine::Open(
        MakeCollection(2008, 6),
        LiveOptions(FreshDir(StrFormat("depth_plain_%llu",
                                       static_cast<unsigned long long>(
                                           seed))),
                    /*cached=*/false));
    auto cached = LiveEngine::Open(
        MakeCollection(2008, 6),
        LiveOptions(FreshDir(StrFormat("depth_cached_%llu",
                                       static_cast<unsigned long long>(
                                           seed))),
                    /*cached=*/true));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    for (VideoId v = 0; v < stream.collection.num_videos(); ++v) {
      for (LiveEngine* live : {plain->get(), cached->get()}) {
        ASSERT_TRUE(live->AppendVideoFrom(stream.collection, v).ok());
        if (v % 3 == 2) {
          ASSERT_TRUE(live->Publish().ok());
        }
      }
    }
    const auto reference_snapshot = (*plain)->Acquire();
    const auto cached_snapshot = (*cached)->Acquire();
    const RetrievalEngine& reference = *reference_snapshot->engine;
    ASSERT_GT(reference.num_shards(), 2u);
    ASSERT_EQ(cached_snapshot->engine->num_shards(), reference.num_shards());
    ASSERT_GT(reference.num_shots(), kPool + 7);

    auto profile = std::make_shared<UserProfile>("fan");
    profile->SetInterest(reference_snapshot->topics->topics[1].target_topic,
                         1.0);
    Rng rng(seed);
    QueryMaker maker(reference, *reference_snapshot->topics, &rng);
    for (size_t trial = 0; trial < 48; ++trial) {
      const Shape shape = static_cast<Shape>(
          trial % static_cast<size_t>(Shape::kNumShapes));
      const Query query = maker.Make(shape);
      const bool lone = shape == Shape::kText || shape == Shape::kConcepts;
      std::vector<ShotId> engaged;
      for (int64_t i = rng.UniformInt(1, 3); i > 0; --i) {
        engaged.push_back(maker.RandomShot());
      }
      for (const size_t k : kDepths) {
        const std::string expected =
            Render(EngineReference(reference, query, k));
        const std::string label =
            StrFormat("seed %llu trial %zu shape %d k %zu",
                      static_cast<unsigned long long>(seed), trial,
                      static_cast<int>(shape), k);
        EXPECT_EQ(Render(reference.Search(query, k)), expected) << label;
        // Cached: the first search computes and inserts, the second is
        // served from the cache.
        for (int pass = 0; pass < 2; ++pass) {
          EXPECT_EQ(Render(cached_snapshot->engine->Search(query, k)),
                    expected)
              << label << " cached pass " << pass;
        }
        if (lone) ++lone_checks;
        if (lone && k > kPool && reference.Search(query, k).size() == kPool) {
          ++pool_cut_checks;
        }

        // Adaptive, over both engines: Rocchio expansion on, the
        // profile rerank off, on, and on without a profile to apply.
        for (const RetrievalEngine* engine :
             {&reference, cached_snapshot->engine.get()}) {
          for (int mode = 0; mode < 3; ++mode) {
            AdaptiveOptions options;
            options.candidate_pool = kPool;
            options.use_profile = mode > 0;
            const AdaptiveEngine adaptive(*engine, options,
                                          mode == 1 ? profile : nullptr);
            SessionContext ctx = adaptive.MakeContext("s", "u");
            Engage(adaptive, &ctx, engaged);
            if (!adaptive.CurrentEvidence(ctx).empty()) ++expanded;
            const AdaptiveEngine oracle(reference, options,
                                        mode == 1 ? profile : nullptr);
            EXPECT_EQ(Render(adaptive.Search(&ctx, query, k)),
                      Render(AdaptiveReference(oracle, ctx, query, k)))
                << label << " adaptive mode " << mode;
          }
        }
      }
      // A lone visual example is kept pool-deep on purpose: CombSum
      // min-max normalises it against its last entry, so a k-deep fetch
      // would rescore it.
      if (shape == Shape::kOneExample) {
        const ResultList shallow =
            CombSum({reference.SearchVisual(query.examples.front(), 10)});
        if (Render(shallow) !=
            Render(EngineReference(reference, query, 10))) {
          ++visual_depth_sensitive;
        }
      }
    }
  }
  EXPECT_GT(lone_checks, 0u);
  // Rocchio expansion had evidence to act on.
  EXPECT_GT(expanded, 0u);
  // Some lone lists ran past the pool, so the k > pool cap was exercised.
  EXPECT_GT(pool_cut_checks, 0u);
  EXPECT_GT(visual_depth_sensitive, 0u);
}

}  // namespace
}  // namespace ivr
