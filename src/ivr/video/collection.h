#ifndef IVR_VIDEO_COLLECTION_H_
#define IVR_VIDEO_COLLECTION_H_

#include <functional>
#include <string>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/video/types.h"

namespace ivr {

/// Resolves a ShotId to its shot, nullptr when unknown. The feedback and
/// profile layers take this instead of a whole VideoCollection so a
/// segmented engine can serve them without materializing a monolithic
/// collection.
using ShotLookup = std::function<const Shot*(ShotId)>;

/// An in-memory digital video library: broadcasts, their stories, and the
/// shots inside them, with topic metadata. Ids are dense indices into the
/// respective vectors; the builder (generator) guarantees consistency.
class VideoCollection {
 public:
  VideoCollection() = default;

  VideoCollection(const VideoCollection&) = delete;
  VideoCollection& operator=(const VideoCollection&) = delete;
  VideoCollection(VideoCollection&&) = default;
  VideoCollection& operator=(VideoCollection&&) = default;

  // --- construction (used by the generator / loaders) ---
  VideoId AddVideo(Video video);
  StoryId AddStory(NewsStory story);
  ShotId AddShot(Shot shot);
  void SetTopicNames(std::vector<std::string> names);

  // --- access ---
  size_t num_videos() const { return videos_.size(); }
  size_t num_stories() const { return stories_.size(); }
  size_t num_shots() const { return shots_.size(); }
  size_t num_topics() const { return topic_names_.size(); }

  const std::vector<Video>& videos() const { return videos_; }
  const std::vector<NewsStory>& stories() const { return stories_; }
  const std::vector<Shot>& shots() const { return shots_; }
  const std::vector<std::string>& topic_names() const { return topic_names_; }

  Result<const Video*> video(VideoId id) const;
  Result<const NewsStory*> story(StoryId id) const;
  Result<const Shot*> shot(ShotId id) const;

  /// Mutable access for builders (e.g. to backfill a story's shot list
  /// after its shots have been added). Returns nullptr on a bad id.
  NewsStory* mutable_story(StoryId id);
  Video* mutable_video(VideoId id);

  /// Name of a topic label ("politics"); "topic<k>" fallback for labels
  /// beyond the named range.
  std::string TopicName(TopicLabel label) const;

  /// The story a shot belongs to (OutOfRange on bad id).
  Result<const NewsStory*> StoryOfShot(ShotId id) const;

  /// All shot ids whose primary topic is `label`.
  std::vector<ShotId> ShotsWithPrimaryTopic(TopicLabel label) const;

 private:
  std::vector<Video> videos_;
  std::vector<NewsStory> stories_;
  std::vector<Shot> shots_;
  std::vector<std::string> topic_names_;
};

}  // namespace ivr

#endif  // IVR_VIDEO_COLLECTION_H_
