#ifndef IVR_SERVICE_SERVING_STACK_H_
#define IVR_SERVICE_SERVING_STACK_H_

#include <memory>
#include <string>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/result.h"
#include "ivr/ingest/live_engine.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {

/// The serving chain every CLI tool and the workload orchestrator run on,
/// built in one place. Two shapes:
///
///   static: collection -> RetrievalEngine (+ cache) -> AdaptiveEngine
///           -> SessionManager
///   live:   base collection -> LiveEngine (one EngineSnapshot per
///           generation, + cache) -> SessionManager
///
/// IngestOptions configures both: its engine/adaptive/profile/cache
/// fields shape either chain, and a non-empty `dir` selects the live one
/// (the manager then resolves every operation to the current snapshot).
///
/// Lifetime rule: a live-chain operation holds only the snapshot's
/// `adaptive` pointer, which co-owns that generation's RetrievalEngine
/// (see EngineSnapshot), so a publish mid-operation never frees the index
/// the operation is searching.
class ServingStack {
 public:
  /// The collection at `path` (retried, salvaging load), or the tools'
  /// standard generated collection (seed 2008, 25 videos, 10 topics,
  /// noted on stderr) when `path` is empty.
  static Result<GeneratedCollection> OpenCollection(const std::string& path);

  /// Builds the static chain over `collection`, or the live chain over
  /// `options.dir` with `collection` as its generation-0 base.
  static Result<std::unique_ptr<ServingStack>> Open(
      GeneratedCollection collection, IngestOptions options,
      SessionManagerOptions manager_options = {});

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// The served documents: the static chain's collection, or the live
  /// chain's immutable base (whose topics/qrels every generation shares).
  const GeneratedCollection& collection() const {
    return live_ != nullptr ? live_->base() : collection_;
  }
  /// The static chain's engine. The live chain has one per generation:
  /// pin a snapshot with live()->Acquire() instead.
  const RetrievalEngine& engine() const { return *engine_; }
  /// The static chain's adaptive policy (the live chain's is per
  /// generation, in its snapshot).
  const AdaptiveEngine& adaptive() const { return *adaptive_; }
  SessionManager& manager() { return *manager_; }
  /// The generational index; null for the static chain.
  LiveEngine* live() { return live_.get(); }

  /// The one place the tools' health report is built: the manager's
  /// (engine + sessions) for either chain, plus the live engine's ingest
  /// salvage counters for the live one.
  HealthReport Health() const;

 private:
  ServingStack() = default;

  // Declaration order is teardown order in reverse: the manager dies
  // first, the documents last.
  GeneratedCollection collection_;
  std::unique_ptr<RetrievalEngine> engine_;
  std::unique_ptr<const AdaptiveEngine> adaptive_;
  std::unique_ptr<LiveEngine> live_;
  std::unique_ptr<SessionManager> manager_;
};

}  // namespace ivr

#endif  // IVR_SERVICE_SERVING_STACK_H_
