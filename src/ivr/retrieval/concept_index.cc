#include "ivr/retrieval/concept_index.h"

namespace ivr {

ConceptIndex::ConceptIndex(const VideoCollection& collection,
                           const SimulatedConceptDetector& detector,
                           ShotId shot_key_offset)
    : num_shots_(collection.num_shots()),
      num_concepts_(detector.num_concepts()) {
  confidences_.resize(num_shots_ * num_concepts_, 0.0);
  for (const Shot& shot : collection.shots()) {
    const std::vector<double> scores =
        detector.DetectAll(shot_key_offset + shot.id, shot.concepts);
    for (size_t c = 0; c < num_concepts_ && c < scores.size(); ++c) {
      confidences_[static_cast<size_t>(shot.id) * num_concepts_ + c] =
          scores[c];
    }
  }
}

double ConceptIndex::Confidence(ShotId shot, ConceptId concept_id) const {
  if (shot >= num_shots_ || concept_id >= num_concepts_) return 0.0;
  return confidences_[static_cast<size_t>(shot) * num_concepts_ +
                      concept_id];
}

ResultList ConceptIndex::Search(ConceptId concept_id, size_t k) const {
  return SearchAll({concept_id}, k);
}

ResultList ConceptIndex::SearchAll(const std::vector<ConceptId>& concepts,
                                   size_t k) const {
  if (concepts.empty()) return ResultList();
  std::vector<RankedShot> items;
  items.reserve(num_shots_);
  for (size_t shot = 0; shot < num_shots_; ++shot) {
    double total = 0.0;
    for (ConceptId c : concepts) {
      total += Confidence(static_cast<ShotId>(shot), c);
    }
    items.push_back(RankedShot{static_cast<ShotId>(shot),
                               total / static_cast<double>(concepts.size())});
  }
  return ResultList::TopK(std::move(items), k);
}

}  // namespace ivr
