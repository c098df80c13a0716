#include "ivr/retrieval/sub_index.h"

#include <string>
#include <utility>

#include "ivr/core/fault_injection.h"
#include "ivr/core/logging.h"

namespace ivr {

Result<std::shared_ptr<const SubIndex>> SubIndex::Build(
    std::shared_ptr<const VideoCollection> slice,
    const EngineOptions& options, ShotId shot_key_offset) {
  if (slice == nullptr) {
    return Status::InvalidArgument("SubIndex::Build: null slice");
  }
  std::shared_ptr<SubIndex> sub(new SubIndex(std::move(slice)));
  IVR_RETURN_IF_ERROR(sub->BuildText(options));
  if (options.use_concepts) {
    // Graceful degradation: a faulted detector bank (site "concept.build")
    // must not take the segment down — text and visual retrieval are
    // still worth serving, and the engine reports the missing modality.
    if (FaultInjector::Global().ShouldFail("concept.build")) {
      sub->concepts_degraded_ = true;
      IVR_LOG(Warning) << "concept sub-index construction faulted; "
                          "segment serves without the concept modality";
    } else {
      const SimulatedConceptDetector detector(sub->slice_->num_topics(),
                                              options.detector,
                                              options.detector_seed);
      sub->concepts_ = std::make_unique<ConceptIndex>(*sub->slice_, detector,
                                                      shot_key_offset);
    }
  }
  return std::shared_ptr<const SubIndex>(std::move(sub));
}

Status SubIndex::BuildText(const EngineOptions& options) {
  for (const Shot& shot : slice_->shots()) {
    Document doc;
    doc.external_id = shot.external_id;
    doc.text = shot.asr_transcript;
    if (options.index_headlines) {
      IVR_ASSIGN_OR_RETURN(const NewsStory* story, slice_->story(shot.story));
      doc.fields["headline"] = story->headline;
    }
    IVR_ASSIGN_OR_RETURN(DocId id, docs_.Add(std::move(doc)));
    if (id != shot.id) {
      return Status::Internal("DocId / ShotId misalignment");
    }
    // Index transcript and headline together.
    std::string text = shot.asr_transcript;
    if (options.index_headlines) {
      IVR_ASSIGN_OR_RETURN(const Document* stored, docs_.Get(id));
      text += " ";
      text += stored->fields.at("headline");
    }
    IVR_RETURN_IF_ERROR(index_.IndexText(id, text));
  }
  return Status::OK();
}

}  // namespace ivr
