#ifndef IVR_RETRIEVAL_SUB_INDEX_H_
#define IVR_RETRIEVAL_SUB_INDEX_H_

#include <memory>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/index/document_store.h"
#include "ivr/index/inverted_index.h"
#include "ivr/retrieval/concept_index.h"
#include "ivr/retrieval/engine_options.h"
#include "ivr/video/collection.h"

namespace ivr {

/// An immutable per-segment retrieval bundle: inverted text index,
/// document store and (optionally) concept index over one contiguous
/// slice of a segmented collection. It holds no keyframe copy: visual
/// search scans the slice's own `Shot::keyframe`s in place. Built ONCE
/// from the delta at publish time and shared by every engine generation
/// that serves the segment, so publish cost scales with the delta, not
/// the corpus.
///
/// The slice uses local ids 0..n-1; `shot_key_offset` is the global id of
/// the slice's shot 0 in the concatenated collection. Postings, document
/// stats and the slice's keyframes use local ids (the engine offsets at
/// query time); only the simulated concept detector is seeded with the
/// global key, exactly as a monolithic build would seed it — which is
/// what keeps segmented serving bit-identical to a full rebuild.
class SubIndex {
 public:
  /// Builds the bundle over `slice` (shared ownership: the sub-index
  /// keeps its source slice alive). Fault site "concept.build" degrades
  /// the concept modality of this segment (concepts() == nullptr,
  /// concepts_degraded() == true) without failing the build.
  static Result<std::shared_ptr<const SubIndex>> Build(
      std::shared_ptr<const VideoCollection> slice,
      const EngineOptions& options, ShotId shot_key_offset);

  SubIndex(const SubIndex&) = delete;
  SubIndex& operator=(const SubIndex&) = delete;

  const VideoCollection& collection() const { return *slice_; }
  const InvertedIndex& index() const { return index_; }
  const DocumentStore& docs() const { return docs_; }
  /// Null when concepts are disabled — or requested but degraded away
  /// (construction faulted at site "concept.build").
  const ConceptIndex* concepts() const { return concepts_.get(); }
  bool concepts_degraded() const { return concepts_degraded_; }
  size_t num_shots() const { return slice_->num_shots(); }

 private:
  explicit SubIndex(std::shared_ptr<const VideoCollection> slice)
      : slice_(std::move(slice)) {}

  Status BuildText(const EngineOptions& options);

  std::shared_ptr<const VideoCollection> slice_;
  InvertedIndex index_;
  DocumentStore docs_;  // local DocId == local ShotId
  std::unique_ptr<ConceptIndex> concepts_;
  bool concepts_degraded_ = false;
};

}  // namespace ivr

#endif  // IVR_RETRIEVAL_SUB_INDEX_H_
