#ifndef IVR_ADAPTIVE_ADAPTIVE_ENGINE_H_
#define IVR_ADAPTIVE_ADAPTIVE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ivr/adaptive/session_context.h"
#include "ivr/obs/metrics.h"
#include "ivr/feedback/estimator.h"
#include "ivr/feedback/weighting.h"
#include "ivr/profile/user_profile.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/rocchio.h"

namespace ivr {

/// Configuration of the adaptive video retrieval model — the combination
/// the paper proposes to study: static user profiles, implicit relevance
/// feedback, and their fusion, with optional ostensive (recency) decay.
struct AdaptiveOptions {
  /// Use within-session implicit feedback for Rocchio query expansion.
  bool use_implicit = true;
  /// Re-rank with the user's static profile.
  bool use_profile = false;
  /// Apply ostensive decay to implicit evidence (Campbell & van
  /// Rijsbergen): recent interactions outweigh old ones.
  bool use_ostensive = false;
  TimeMs ostensive_half_life_ms = 2 * kMillisPerMinute;

  /// Weighting scheme name for implicit indicators ("binary" | "uniform" |
  /// "linear"); ignored when a scheme is injected via SetWeightingScheme.
  std::string weighting_scheme = "linear";

  RocchioOptions rocchio;

  /// Profile interpolation weight when use_profile is set.
  double profile_lambda = 0.25;

  /// Candidate depth fetched from the base engine where lists are fused
  /// (text with visual, CombSum over examples) or reranked by the
  /// profile. Text alone with no rerank is fetched only min(k, pool) deep
  /// (CandidateDepth): its top k are the prefix of its top pool.
  size_t candidate_pool = 500;
};

/// The adaptive retrieval model: wraps a static RetrievalEngine, watches
/// the interaction stream of a session, infers graded relevance evidence
/// from it, and answers subsequent queries with feedback-expanded queries
/// re-ranked by the user's static profile. The goal, per the paper, is
/// "to significantly reduce the number of steps the user has to perform
/// before he retrieves satisfying search results".
///
/// The engine is a STATELESS policy object: all mutable per-session state
/// (events, evidence cache, degraded-mode counters) lives in a
/// SessionContext, and every session method below is const and safe to
/// call from any number of threads concurrently as long as each context
/// is driven by one caller at a time. This is what lets one engine serve
/// every session of a SessionManager over one shared index. Callers that
/// need a session behind the SearchBackend seam (the simulator, the log
/// replayer) drive it through a SessionManager and ManagedSessionBackend.
class AdaptiveEngine {
 public:
  /// `engine` must outlive this object. The engine holds a reference to
  /// `profile` for its whole lifetime (null = no profile available).
  AdaptiveEngine(const RetrievalEngine& engine, AdaptiveOptions options,
                 std::shared_ptr<const UserProfile> profile);

  /// Replaces the indicator weighting scheme (e.g. with a trained
  /// LearnedWeighting); the engine keeps the scheme alive. Null is
  /// ignored. A pre-session configuration step, not a concurrent one.
  void SetWeightingScheme(std::shared_ptr<const WeightingScheme> scheme);

  /// A fresh session context bound to this engine's defaults.
  SessionContext MakeContext(std::string session_id,
                             std::string user_id) const;

  /// Records one interaction event into `ctx`.
  void ObserveEvent(SessionContext* ctx,
                    const InteractionEvent& event) const;

  /// Answers a query for the session in `ctx`: implicit-feedback Rocchio
  /// expansion from the context's evidence, multimodal fusion, profile
  /// re-ranking. Mutates only `ctx` (evidence cache, degraded counters).
  ResultList Search(SessionContext* ctx, const Query& query,
                    size_t k) const;

  /// Evidence the engine would act on right now for `ctx` (uncached).
  std::vector<RelevanceEvidence> CurrentEvidence(
      const SessionContext& ctx) const;

  /// The base engine's report plus `ctx`'s personalisation counters.
  HealthReport Health(const SessionContext& ctx) const;

  /// The configuration, e.g. "adaptive+implicit(linear)+profile".
  std::string name() const;

  const AdaptiveOptions& options() const { return options_; }
  const RetrievalEngine& engine() const { return *engine_; }
  /// The engine-default profile snapshot (null when none).
  std::shared_ptr<const UserProfile> default_profile() const {
    return profile_;
  }

 private:
  /// Effective profile for a context: its own binding, else the engine
  /// default.
  const UserProfile* ProfileFor(const SessionContext& ctx) const {
    return ctx.profile != nullptr ? ctx.profile.get() : profile_.get();
  }

  /// Memoised evidence: recomputed only when `ctx` gained events.
  const std::vector<RelevanceEvidence>& CachedEvidence(
      SessionContext* ctx) const;

  /// Splits evidence into Rocchio feedback documents.
  void EvidenceToFeedbackDocs(const std::vector<RelevanceEvidence>& evidence,
                              std::vector<FeedbackDoc>* positive,
                              std::vector<FeedbackDoc>* negative) const;

  // Immutable after construction (SetWeightingScheme is a pre-session
  // configuration step, not a concurrent mutation path).
  const RetrievalEngine* engine_;
  AdaptiveOptions options_;
  std::shared_ptr<const UserProfile> profile_;
  std::shared_ptr<const WeightingScheme> scheme_;

  /// Registry pointers resolved once at construction (one engine serves
  /// many sessions, so every session shares these).
  static constexpr size_t kNumEventTypes =
      static_cast<size_t>(EventType::kSessionEnd) + 1;
  struct Metrics {
    obs::Counter* searches;
    obs::Counter* feedback_expansions;
    obs::Counter* feedback_skipped;
    obs::Counter* profile_reranks;
    obs::Counter* profile_reranks_skipped;
    obs::LatencyHistogram* search_us;
    obs::Counter* events[kNumEventTypes];
  };
  Metrics metrics_;
};

}  // namespace ivr

#endif  // IVR_ADAPTIVE_ADAPTIVE_ENGINE_H_
