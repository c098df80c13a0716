#include "ivr/adaptive/adaptive_engine.h"

#include <gtest/gtest.h>

#include "ivr/eval/metrics.h"
#include "ivr/service/managed_backend.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

class AdaptiveEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorOptions options;
    options.seed = 31;
    options.num_topics = 6;
    options.num_videos = 10;
    // Hard ASR conditions: text retrieval alone leaves headroom for
    // feedback to exploit.
    options.asr_word_error_rate = 0.45;
    options.general_word_prob = 0.6;
    generated_ = std::make_unique<GeneratedCollection>(
        GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(generated_->collection).value();
  }

  // Positive interactions on `shots`: each engagement is closed by a
  // query event so dwell windows stay bounded.
  static std::vector<InteractionEvent> Engagements(
      const std::vector<ShotId>& shots, TimeMs start = 0) {
    std::vector<InteractionEvent> events;
    TimeMs t = start;
    for (ShotId shot : shots) {
      InteractionEvent click;
      click.time = t;
      click.type = EventType::kClickKeyframe;
      click.shot = shot;
      events.push_back(click);
      InteractionEvent play;
      play.time = t + 1000;
      play.type = EventType::kPlayStop;
      play.value = 20000.0;  // longer than any shot: fraction caps at 1
      play.shot = shot;
      events.push_back(play);
      InteractionEvent nav;
      nav.time = t + 2000;
      nav.type = EventType::kQuerySubmit;
      nav.text = "next";
      events.push_back(nav);
      t += 5000;
    }
    return events;
  }

  // Feeds the engagements on `shots` into `ctx`.
  static void Engage(const AdaptiveEngine& adaptive, SessionContext* ctx,
                     const std::vector<ShotId>& shots, TimeMs start = 0) {
    for (const InteractionEvent& event : Engagements(shots, start)) {
      adaptive.ObserveEvent(ctx, event);
    }
  }

  std::unique_ptr<GeneratedCollection> generated_;
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(AdaptiveEngineTest, PassthroughMatchesBaseEngine) {
  AdaptiveOptions options;
  options.use_implicit = false;
  options.use_profile = false;
  const AdaptiveEngine adaptive(*engine_, options, nullptr);
  SessionContext ctx = adaptive.MakeContext("s", "u");
  Query query;
  query.text = generated_->topics.topics[0].title;
  const ResultList base = engine_->Search(query, 50);
  const ResultList adapted = adaptive.Search(&ctx, query, 50);
  ASSERT_EQ(base.size(), adapted.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.at(i).shot, adapted.at(i).shot);
  }
}

TEST_F(AdaptiveEngineTest, ImplicitFeedbackImprovesAp) {
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;

  AdaptiveOptions options;
  options.use_implicit = true;
  const AdaptiveEngine adaptive(*engine_, options, nullptr);
  SessionContext ctx = adaptive.MakeContext("s", "u");

  const ResultList before = adaptive.Search(&ctx, query, 1000);
  const double ap_before =
      AveragePrecision(before, generated_->qrels, topic.id);

  // The user engages with three truly relevant shots.
  const std::vector<ShotId> relevant =
      generated_->qrels.RelevantShots(topic.id, 2);
  ASSERT_GE(relevant.size(), 3u);
  Engage(adaptive, &ctx, {relevant[0], relevant[1], relevant[2]});

  const ResultList after = adaptive.Search(&ctx, query, 1000);
  const double ap_after =
      AveragePrecision(after, generated_->qrels, topic.id);
  EXPECT_GT(ap_after, ap_before);
}

TEST_F(AdaptiveEngineTest, FreshContextStartsWithoutFeedback) {
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;
  const AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  SessionContext first = adaptive.MakeContext("s1", "u");
  const ResultList clean = adaptive.Search(&first, query, 50);

  const std::vector<ShotId> relevant =
      generated_->qrels.RelevantShots(topic.id, 2);
  Engage(adaptive, &first, {relevant[0], relevant[1]});
  EXPECT_FALSE(first.events.empty());
  EXPECT_FALSE(adaptive.CurrentEvidence(first).empty());

  // The next session of the same user starts from nothing.
  SessionContext next = adaptive.MakeContext("s2", "u");
  EXPECT_TRUE(next.events.empty());
  EXPECT_TRUE(adaptive.CurrentEvidence(next).empty());
  const ResultList again = adaptive.Search(&next, query, 50);
  ASSERT_EQ(clean.size(), again.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean.at(i).shot, again.at(i).shot);
  }
}

TEST_F(AdaptiveEngineTest, ProfileRerankingBoostsPreferredTopic) {
  // Profile loves topic 1; query for topic 0's vocabulary would normally
  // rank topic-0 shots on top. With profile reranking at high lambda, the
  // user's preferred shots that still match text move up.
  auto profile = std::make_shared<UserProfile>("fan");
  profile->SetInterest(generated_->topics.topics[1].target_topic, 1.0);

  AdaptiveOptions options;
  options.use_implicit = false;
  options.use_profile = true;
  options.profile_lambda = 0.9;
  const AdaptiveEngine adaptive(*engine_, options, profile);
  SessionContext ctx = adaptive.MakeContext("s", "fan");

  Query query;
  query.text = generated_->topics.topics[0].title + " " +
               generated_->topics.topics[1].title;
  const ResultList plain = engine_->Search(query, 50);
  const ResultList personalised = adaptive.Search(&ctx, query, 50);

  // Count preferred-topic shots in the top 10 of each.
  auto count_preferred = [&](const ResultList& list) {
    size_t n = 0;
    for (size_t i = 0; i < std::min<size_t>(10, list.size()); ++i) {
      const Shot* shot =
          generated_->collection.shot(list.at(i).shot).value();
      if (shot->primary_topic ==
          generated_->topics.topics[1].target_topic) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_preferred(personalised), count_preferred(plain));
}

TEST_F(AdaptiveEngineTest, OstensiveOptionChangesEvidence) {
  const SearchTopic& topic = generated_->topics.topics[0];
  const std::vector<ShotId> relevant =
      generated_->qrels.RelevantShots(topic.id, 2);
  ASSERT_GE(relevant.size(), 2u);

  AdaptiveOptions plain;
  plain.use_ostensive = false;
  AdaptiveOptions decayed;
  decayed.use_ostensive = true;
  decayed.ostensive_half_life_ms = kMillisPerMinute;

  const AdaptiveEngine a(*engine_, plain, nullptr);
  const AdaptiveEngine b(*engine_, decayed, nullptr);
  SessionContext ctx_a = a.MakeContext("a", "u");
  SessionContext ctx_b = b.MakeContext("b", "u");
  Engage(a, &ctx_a, {relevant[0]}, /*start=*/0);
  Engage(a, &ctx_a, {relevant[1]}, /*start=*/10 * kMillisPerMinute);
  Engage(b, &ctx_b, {relevant[0]}, /*start=*/0);
  Engage(b, &ctx_b, {relevant[1]}, /*start=*/10 * kMillisPerMinute);
  const auto ev_a = a.CurrentEvidence(ctx_a);
  const auto ev_b = b.CurrentEvidence(ctx_b);
  ASSERT_EQ(ev_a.size(), 2u);
  ASSERT_EQ(ev_b.size(), 2u);
  // Without decay both shots weigh the same; with decay the old one is
  // discounted.
  EXPECT_NEAR(ev_a[0].weight, ev_a[1].weight, 1e-9);
  const double old_w =
      ev_b[0].shot == relevant[0] ? ev_b[0].weight : ev_b[1].weight;
  const double new_w =
      ev_b[0].shot == relevant[0] ? ev_b[1].weight : ev_b[0].weight;
  EXPECT_LT(old_w, new_w);
}

TEST_F(AdaptiveEngineTest, InjectedSchemeUsed) {
  AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  adaptive.SetWeightingScheme(std::make_shared<BinaryWeighting>());
  SessionContext ctx = adaptive.MakeContext("s", "u");
  InteractionEvent ev;
  ev.type = EventType::kClickKeyframe;
  ev.shot = 0;
  adaptive.ObserveEvent(&ctx, ev);
  const auto evidence = adaptive.CurrentEvidence(ctx);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_DOUBLE_EQ(evidence[0].weight, 1.0);  // binary scheme signature
  adaptive.SetWeightingScheme(nullptr);       // ignored
  EXPECT_DOUBLE_EQ(adaptive.CurrentEvidence(ctx)[0].weight, 1.0);
  EXPECT_NE(adaptive.name().find("binary"), std::string::npos);
}

TEST_F(AdaptiveEngineTest, NameReflectsConfiguration) {
  AdaptiveOptions options;
  options.use_implicit = true;
  options.use_profile = true;
  options.use_ostensive = true;
  const AdaptiveEngine adaptive(*engine_, options,
                               std::make_shared<UserProfile>("u"));
  const std::string name = adaptive.name();
  EXPECT_NE(name.find("implicit"), std::string::npos);
  EXPECT_NE(name.find("profile"), std::string::npos);
  EXPECT_NE(name.find("ostensive"), std::string::npos);

  AdaptiveOptions off;
  off.use_implicit = false;
  off.use_profile = false;
  AdaptiveEngine passthrough(*engine_, off, nullptr);
  EXPECT_NE(passthrough.name().find("passthrough"), std::string::npos);
}

TEST_F(AdaptiveEngineTest, UnknownSchemeNameFallsBackToLinear) {
  AdaptiveOptions options;
  options.weighting_scheme = "no-such-scheme";
  AdaptiveEngine adaptive(*engine_, options, nullptr);
  EXPECT_NE(adaptive.name().find("linear"), std::string::npos);
}

TEST_F(AdaptiveEngineTest, EmptyQueryStillEmpty) {
  const AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  SessionContext ctx = adaptive.MakeContext("s", "u");
  EXPECT_TRUE(adaptive.Search(&ctx, Query(), 10).empty());
}

// --- the stateless context-taking API of the multi-session refactor ---

TEST_F(AdaptiveEngineTest, ManagedBackendMatchesContextApi) {
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;
  const std::vector<ShotId> relevant =
      generated_->qrels.RelevantShots(topic.id, 2);
  ASSERT_GE(relevant.size(), 2u);
  const std::vector<InteractionEvent> events =
      Engagements({relevant[0], relevant[1]});

  // Drive the same session once through a SessionManager behind the
  // SearchBackend seam and once through an explicit context; rankings
  // must match exactly.
  const AdaptiveEngine adaptive(*engine_, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  ManagedSessionBackend backend(&manager, "s1", "u1");
  backend.BeginSession();
  for (const InteractionEvent& event : events) backend.ObserveEvent(event);
  const ResultList via_backend = backend.Search(query, 100);
  ASSERT_TRUE(backend.first_error().ok());

  SessionContext ctx = adaptive.MakeContext("s1", "u1");
  for (const InteractionEvent& event : events) {
    adaptive.ObserveEvent(&ctx, event);
  }
  const ResultList via_context = adaptive.Search(&ctx, query, 100);

  ASSERT_EQ(via_backend.size(), via_context.size());
  for (size_t i = 0; i < via_backend.size(); ++i) {
    EXPECT_EQ(via_backend.at(i).shot, via_context.at(i).shot);
    EXPECT_EQ(via_backend.at(i).score, via_context.at(i).score);
  }
}

TEST_F(AdaptiveEngineTest, ContextsAreIndependent) {
  const SearchTopic& topic = generated_->topics.topics[0];
  Query query;
  query.text = topic.title;
  const std::vector<ShotId> relevant =
      generated_->qrels.RelevantShots(topic.id, 2);
  ASSERT_GE(relevant.size(), 1u);

  const AdaptiveEngine engine(*engine_, AdaptiveOptions(), nullptr);
  SessionContext engaged = engine.MakeContext("s1", "u1");
  SessionContext fresh = engine.MakeContext("s2", "u2");

  InteractionEvent click;
  click.type = EventType::kClickKeyframe;
  click.shot = relevant[0];
  engine.ObserveEvent(&engaged, click);

  // Feedback in one context must not leak into the other: the fresh
  // context still matches the bare engine.
  EXPECT_FALSE(engine.CurrentEvidence(engaged).empty());
  EXPECT_TRUE(engine.CurrentEvidence(fresh).empty());
  const ResultList base = engine_->Search(query, 50);
  const ResultList from_fresh = engine.Search(&fresh, query, 50);
  ASSERT_EQ(base.size(), from_fresh.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.at(i).shot, from_fresh.at(i).shot);
  }
}

TEST_F(AdaptiveEngineTest, ContextProfileOverridesEngineDefault) {
  AdaptiveOptions options;
  options.use_implicit = false;
  options.use_profile = true;
  options.profile_lambda = 0.9;
  const AdaptiveEngine engine(*engine_, options, nullptr);

  auto profile = std::make_shared<UserProfile>("fan");
  profile->SetInterest(generated_->topics.topics[1].target_topic, 1.0);

  Query query;
  query.text = generated_->topics.topics[0].title + " " +
               generated_->topics.topics[1].title;
  SessionContext with_profile = engine.MakeContext("s1", "fan");
  with_profile.profile = profile;
  SessionContext without = engine.MakeContext("s2", "other");

  // A context without a profile reports profiles unavailable under
  // use_profile; the bound one is healthy.
  EXPECT_FALSE(engine.Health(without).profile_available);
  EXPECT_TRUE(engine.Health(with_profile).profile_available);

  const ResultList personalised =
      engine.Search(&with_profile, query, 50);
  const ResultList plain = engine.Search(&without, query, 50);
  auto count_preferred = [&](const ResultList& list) {
    size_t n = 0;
    for (size_t i = 0; i < std::min<size_t>(10, list.size()); ++i) {
      const Shot* shot =
          generated_->collection.shot(list.at(i).shot).value();
      if (shot->primary_topic ==
          generated_->topics.topics[1].target_topic) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_preferred(personalised), count_preferred(plain));
}

}  // namespace
}  // namespace ivr
