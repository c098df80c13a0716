#include "ivr/adaptive/adaptive_engine.h"

#include <utility>

#include "ivr/core/fault_injection.h"
#include "ivr/obs/trace.h"
#include "ivr/profile/profile_reranker.h"
#include "ivr/retrieval/fusion.h"

namespace ivr {
namespace {

std::shared_ptr<const WeightingScheme> ResolveScheme(
    const std::string& name) {
  std::shared_ptr<const WeightingScheme> scheme = MakeWeightingScheme(name);
  if (scheme == nullptr) {
    // Unknown name: fall back to the linear default rather than failing a
    // constructor; callers can always inject explicitly.
    scheme = std::make_shared<LinearWeighting>();
  }
  return scheme;
}

}  // namespace

AdaptiveEngine::AdaptiveEngine(const RetrievalEngine& engine,
                               AdaptiveOptions options,
                               std::shared_ptr<const UserProfile> profile)
    : engine_(&engine),
      options_(std::move(options)),
      profile_(std::move(profile)) {
  scheme_ = ResolveScheme(options_.weighting_scheme);
  obs::Registry& registry = obs::Registry::Global();
  metrics_.searches = registry.GetCounter("adaptive.searches");
  metrics_.feedback_expansions =
      registry.GetCounter("adaptive.feedback_expansions");
  metrics_.feedback_skipped =
      registry.GetCounter("adaptive.feedback_skipped");
  metrics_.profile_reranks = registry.GetCounter("adaptive.profile_reranks");
  metrics_.profile_reranks_skipped =
      registry.GetCounter("adaptive.profile_reranks_skipped");
  metrics_.search_us = registry.GetHistogram("adaptive.search_us");
  for (size_t i = 0; i < kNumEventTypes; ++i) {
    metrics_.events[i] = registry.GetCounter(
        "adaptive.events." +
        std::string(EventTypeName(static_cast<EventType>(i))));
  }
}

void AdaptiveEngine::SetWeightingScheme(
    std::shared_ptr<const WeightingScheme> scheme) {
  if (scheme != nullptr) scheme_ = std::move(scheme);
}

SessionContext AdaptiveEngine::MakeContext(std::string session_id,
                                           std::string user_id) const {
  SessionContext ctx;
  ctx.session_id = std::move(session_id);
  ctx.user_id = std::move(user_id);
  return ctx;
}

void AdaptiveEngine::ObserveEvent(SessionContext* ctx,
                                  const InteractionEvent& event) const {
  const size_t type = static_cast<size_t>(event.type);
  if (type < kNumEventTypes) metrics_.events[type]->Inc();
  ctx->events.push_back(event);
}

std::vector<RelevanceEvidence> AdaptiveEngine::CurrentEvidence(
    const SessionContext& ctx) const {
  ImplicitRelevanceEstimator::Options opts;
  opts.use_ostensive = options_.use_ostensive;
  opts.ostensive_half_life_ms = options_.ostensive_half_life_ms;
  const ImplicitRelevanceEstimator estimator(*scheme_, opts);
  const RetrievalEngine* engine = engine_;
  return estimator.Estimate(
      ctx.events,
      ShotLookup([engine](ShotId id) { return engine->FindShot(id); }));
}

const std::vector<RelevanceEvidence>& AdaptiveEngine::CachedEvidence(
    SessionContext* ctx) const {
  if (ctx->evidence_events != ctx->events.size()) {
    ctx->evidence_cache = CurrentEvidence(*ctx);
    ctx->evidence_events = ctx->events.size();
  }
  return ctx->evidence_cache;
}

void AdaptiveEngine::EvidenceToFeedbackDocs(
    const std::vector<RelevanceEvidence>& evidence,
    std::vector<FeedbackDoc>* positive,
    std::vector<FeedbackDoc>* negative) const {
  for (const RelevanceEvidence& e : evidence) {
    const std::string text = engine_->IndexedText(e.shot);
    if (text.empty()) continue;
    if (e.weight > 0.0) {
      positive->push_back(FeedbackDoc{text, e.weight});
    } else if (e.weight < 0.0) {
      negative->push_back(FeedbackDoc{text, -e.weight});
    }
  }
}

ResultList AdaptiveEngine::Search(SessionContext* ctx, const Query& query,
                                  size_t k) const {
  obs::ScopedSpan span("adaptive.search");
  const obs::Stopwatch total;
  metrics_.searches->Inc();
  std::vector<ResultList> lists;
  std::vector<double> weights;

  FaultInjector& faults = FaultInjector::Global();
  // Text alone with no profile rerank is the whole output, so it is
  // fetched only as deep as k. Visual evidence is never lone: CombSum
  // normalises even a single example against the pool's last score.
  const UserProfile* profile = ProfileFor(*ctx);
  const bool rerank = options_.use_profile && profile != nullptr;
  const size_t text_depth =
      CandidateDepth(k, options_.candidate_pool,
                     !query.HasExamples() && !rerank);
  if (query.HasText()) {
    TermQuery terms = engine_->ParseText(query.text);
    if (options_.use_implicit) {
      // A faulted feedback backend degrades to the unexpanded query —
      // the user still gets an answer, just a non-adapted one.
      if (faults.enabled() && faults.ShouldFail("adaptive.feedback")) {
        ++ctx->feedback_skipped;
        metrics_.feedback_skipped->Inc();
      } else {
        std::vector<FeedbackDoc> positive;
        std::vector<FeedbackDoc> negative;
        EvidenceToFeedbackDocs(CachedEvidence(ctx), &positive, &negative);
        if (!positive.empty() || !negative.empty()) {
          terms = RocchioExpand(terms, positive, negative,
                                engine_->analyzer(), options_.rocchio);
          metrics_.feedback_expansions->Inc();
          span.Annotate("expanded", "true");
        }
      }
    }
    lists.push_back(engine_->SearchTerms(terms, text_depth));
    weights.push_back(engine_->options().text_weight);
  }
  if (query.HasExamples()) {
    std::vector<ResultList> visual;
    visual.reserve(query.examples.size());
    for (const ColorHistogram& example : query.examples) {
      visual.push_back(
          engine_->SearchVisual(example, options_.candidate_pool));
    }
    lists.push_back(CombSum(visual));
    weights.push_back(engine_->options().visual_weight);
  }
  if (lists.empty()) {
    metrics_.search_us->Record(total.ElapsedUs());
    return ResultList();
  }

  ResultList fused = lists.size() == 1 ? std::move(lists.front())
                                       : WeightedLinear(lists, weights);

  if (rerank) {
    if (faults.enabled() && faults.ShouldFail("adaptive.profile")) {
      ++ctx->profile_reranks_skipped;
      metrics_.profile_reranks_skipped->Inc();
    } else {
      ProfileRerankOptions rerank;
      rerank.lambda = options_.profile_lambda;
      const RetrievalEngine* engine = engine_;
      fused = RerankWithProfile(
          fused, *profile,
          ShotLookup([engine](ShotId id) { return engine->FindShot(id); }),
          rerank);
      metrics_.profile_reranks->Inc();
    }
  }
  fused.Truncate(k);
  metrics_.search_us->Record(total.ElapsedUs());
  return fused;
}

HealthReport AdaptiveEngine::Health(const SessionContext& ctx) const {
  HealthReport report = engine_->Health();
  report.profile_available =
      !options_.use_profile || ProfileFor(ctx) != nullptr;
  report.feedback_skipped = ctx.feedback_skipped;
  report.profile_reranks_skipped = ctx.profile_reranks_skipped;
  return report;
}

std::string AdaptiveEngine::name() const {
  std::string n = "adaptive";
  if (options_.use_implicit) {
    n += "+implicit(" + scheme_->name() + ")";
  }
  if (options_.use_profile) n += "+profile";
  if (options_.use_ostensive) n += "+ostensive";
  if (!options_.use_implicit && !options_.use_profile) n += "(passthrough)";
  return n;
}

}  // namespace ivr
