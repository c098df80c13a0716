#include "ivr/service/serving_stack.h"

#include <cstdio>
#include <utility>

#include "ivr/video/serialization.h"

namespace ivr {

Result<GeneratedCollection> ServingStack::OpenCollection(
    const std::string& path) {
  if (!path.empty()) return LoadCollectionRobust(path);
  GeneratorOptions options;
  options.seed = 2008;
  options.num_videos = 25;
  options.num_topics = 10;
  IVR_ASSIGN_OR_RETURN(GeneratedCollection g, GenerateCollection(options));
  std::fprintf(stderr, "note: no collection path; generated %zu shots\n",
               g.collection.num_shots());
  return g;
}

Result<std::unique_ptr<ServingStack>> ServingStack::Open(
    GeneratedCollection collection, IngestOptions options,
    SessionManagerOptions manager_options) {
  std::unique_ptr<ServingStack> stack(new ServingStack());
  if (options.dir.empty()) {
    stack->collection_ = std::move(collection);
    IVR_ASSIGN_OR_RETURN(
        stack->engine_,
        RetrievalEngine::Build(stack->collection_.collection,
                               options.engine));
    stack->engine_->AttachCache(options.cache);
    stack->adaptive_ = std::make_unique<const AdaptiveEngine>(
        *stack->engine_, options.adaptive, options.profile);
    stack->manager_ = std::make_unique<SessionManager>(
        *stack->adaptive_, std::move(manager_options));
  } else {
    IVR_ASSIGN_OR_RETURN(
        stack->live_,
        LiveEngine::Open(std::move(collection), std::move(options)));
    const LiveEngine* live = stack->live_.get();
    stack->manager_ = std::make_unique<SessionManager>(
        [live] { return live->Acquire()->adaptive; },
        std::move(manager_options));
  }
  return stack;
}

HealthReport ServingStack::Health() const {
  HealthReport report = manager_->Health();
  if (live_ != nullptr) {
    const IngestStats stats = live_->Stats();
    report.ingest_orphan_segments_dropped = stats.orphan_segments_dropped;
    report.ingest_torn_segments_dropped = stats.torn_segments_dropped;
    report.ingest_torn_manifest_chunks = stats.torn_manifest_chunks;
    report.ingest_stale_temp_files_removed = stats.stale_temp_files_removed;
  }
  return report;
}

}  // namespace ivr
