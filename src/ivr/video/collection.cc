#include "ivr/video/collection.h"

#include <utility>

#include "ivr/core/string_util.h"

namespace ivr {

VideoId VideoCollection::AddVideo(Video video) {
  const VideoId id = static_cast<VideoId>(videos_.size());
  video.id = id;
  videos_.push_back(std::move(video));
  return id;
}

StoryId VideoCollection::AddStory(NewsStory story) {
  const StoryId id = static_cast<StoryId>(stories_.size());
  story.id = id;
  stories_.push_back(std::move(story));
  return id;
}

ShotId VideoCollection::AddShot(Shot shot) {
  const ShotId id = static_cast<ShotId>(shots_.size());
  shot.id = id;
  shots_.push_back(std::move(shot));
  return id;
}

void VideoCollection::SetTopicNames(std::vector<std::string> names) {
  topic_names_ = std::move(names);
}

Result<const Video*> VideoCollection::video(VideoId id) const {
  if (id >= videos_.size()) return Status::OutOfRange("bad VideoId");
  return &videos_[id];
}

Result<const NewsStory*> VideoCollection::story(StoryId id) const {
  if (id >= stories_.size()) return Status::OutOfRange("bad StoryId");
  return &stories_[id];
}

Result<const Shot*> VideoCollection::shot(ShotId id) const {
  if (id >= shots_.size()) return Status::OutOfRange("bad ShotId");
  return &shots_[id];
}

NewsStory* VideoCollection::mutable_story(StoryId id) {
  if (id >= stories_.size()) return nullptr;
  return &stories_[id];
}

Video* VideoCollection::mutable_video(VideoId id) {
  if (id >= videos_.size()) return nullptr;
  return &videos_[id];
}

std::string VideoCollection::TopicName(TopicLabel label) const {
  if (label < topic_names_.size()) return topic_names_[label];
  return StrFormat("topic%u", label);
}

Result<const NewsStory*> VideoCollection::StoryOfShot(ShotId id) const {
  IVR_ASSIGN_OR_RETURN(const Shot* s, shot(id));
  return story(s->story);
}

std::vector<ShotId> VideoCollection::ShotsWithPrimaryTopic(
    TopicLabel label) const {
  std::vector<ShotId> out;
  for (const Shot& s : shots_) {
    if (s.primary_topic == label) out.push_back(s.id);
  }
  return out;
}

}  // namespace ivr
