#include "ivr/video/collection.h"

#include <gtest/gtest.h>

namespace ivr {
namespace {

VideoCollection MakeSmallCollection() {
  VideoCollection c;
  c.SetTopicNames({"politics", "sports"});

  Video v;
  v.name = "day0";
  const VideoId vid = c.AddVideo(v);

  NewsStory story;
  story.video = vid;
  story.topic = 1;
  story.headline = "sports final";
  const StoryId sid = c.AddStory(story);
  c.mutable_video(vid)->stories.push_back(sid);

  for (int i = 0; i < 3; ++i) {
    Shot shot;
    shot.story = sid;
    shot.video = vid;
    shot.primary_topic = i == 2 ? 0u : 1u;
    shot.concepts = {i == 2, i != 2};
    shot.duration_ms = 5000;
    shot.external_id = "v0/s0/k" + std::to_string(i);
    const ShotId id = c.AddShot(shot);
    c.mutable_story(sid)->shots.push_back(id);
  }
  return c;
}

TEST(VideoCollectionTest, AddAssignsDenseIds) {
  const VideoCollection c = MakeSmallCollection();
  EXPECT_EQ(c.num_videos(), 1u);
  EXPECT_EQ(c.num_stories(), 1u);
  EXPECT_EQ(c.num_shots(), 3u);
  EXPECT_EQ(c.shots()[0].id, 0u);
  EXPECT_EQ(c.shots()[2].id, 2u);
}

TEST(VideoCollectionTest, AccessorsValidateIds) {
  const VideoCollection c = MakeSmallCollection();
  EXPECT_TRUE(c.video(0).ok());
  EXPECT_TRUE(c.video(5).status().IsOutOfRange());
  EXPECT_TRUE(c.story(0).ok());
  EXPECT_TRUE(c.story(1).status().IsOutOfRange());
  EXPECT_TRUE(c.shot(2).ok());
  EXPECT_TRUE(c.shot(3).status().IsOutOfRange());
  EXPECT_TRUE(c.shot(kInvalidShotId).status().IsOutOfRange());
}

TEST(VideoCollectionTest, MutableAccessors) {
  VideoCollection c = MakeSmallCollection();
  EXPECT_NE(c.mutable_story(0), nullptr);
  EXPECT_EQ(c.mutable_story(9), nullptr);
  EXPECT_NE(c.mutable_video(0), nullptr);
  EXPECT_EQ(c.mutable_video(9), nullptr);
}

TEST(VideoCollectionTest, TopicNames) {
  const VideoCollection c = MakeSmallCollection();
  EXPECT_EQ(c.num_topics(), 2u);
  EXPECT_EQ(c.TopicName(0), "politics");
  EXPECT_EQ(c.TopicName(1), "sports");
  EXPECT_EQ(c.TopicName(7), "topic7");  // beyond the named range
}

TEST(VideoCollectionTest, StoryOfShot) {
  const VideoCollection c = MakeSmallCollection();
  const NewsStory* story = c.StoryOfShot(1).value();
  EXPECT_EQ(story->id, 0u);
  EXPECT_EQ(story->headline, "sports final");
  EXPECT_TRUE(c.StoryOfShot(99).status().IsOutOfRange());
}

TEST(VideoCollectionTest, ShotsWithPrimaryTopic) {
  const VideoCollection c = MakeSmallCollection();
  EXPECT_EQ(c.ShotsWithPrimaryTopic(1),
            (std::vector<ShotId>{0, 1}));
  EXPECT_EQ(c.ShotsWithPrimaryTopic(0), (std::vector<ShotId>{2}));
  EXPECT_TRUE(c.ShotsWithPrimaryTopic(9).empty());
}

TEST(VideoCollectionTest, StoryShotListBackfilled) {
  const VideoCollection c = MakeSmallCollection();
  const NewsStory* story = c.story(0).value();
  EXPECT_EQ(story->shots.size(), 3u);
  const Video* video = c.video(0).value();
  EXPECT_EQ(video->stories.size(), 1u);
}

}  // namespace
}  // namespace ivr
