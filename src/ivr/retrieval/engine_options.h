#ifndef IVR_RETRIEVAL_ENGINE_OPTIONS_H_
#define IVR_RETRIEVAL_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "ivr/features/concept_detector.h"
#include "ivr/features/similarity.h"

namespace ivr {

struct EngineOptions {
  /// "bm25" | "tfidf" | "lm".
  std::string scorer = "bm25";
  /// Fusion weights for text vs. visual evidence (normalised internally).
  double text_weight = 0.75;
  double visual_weight = 0.25;
  /// Similarity used for query-by-visual-example.
  VisualSimilarity visual_similarity =
      VisualSimilarity::kHistogramIntersection;
  /// Index story headlines together with shot transcripts.
  bool index_headlines = true;
  /// Build a concept index (simulated detector bank over the collection's
  /// topic space) and allow concept-bag queries.
  bool use_concepts = false;
  double concept_weight = 0.25;
  SimulatedConceptDetector::Options detector;
  uint64_t detector_seed = 7;
  /// Candidate pool size per modality where lists are fused (several
  /// modalities, or CombSum over visual examples). A lone text or concept
  /// list is fetched only min(k, pool) deep (CandidateDepth in engine.h):
  /// its top k are the prefix of its top pool.
  size_t candidate_pool = 1000;
};

}  // namespace ivr

#endif  // IVR_RETRIEVAL_ENGINE_OPTIONS_H_
