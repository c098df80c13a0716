#include "ivr/video/qrels.h"

#include <gtest/gtest.h>

namespace ivr {
namespace {

TEST(QrelsTest, SetAndGrade) {
  Qrels qrels;
  qrels.Set(1, 10, 2);
  qrels.Set(1, 11, 1);
  EXPECT_EQ(qrels.Grade(1, 10), 2);
  EXPECT_EQ(qrels.Grade(1, 11), 1);
  EXPECT_EQ(qrels.Grade(1, 12), 0);
  EXPECT_EQ(qrels.Grade(2, 10), 0);
}

TEST(QrelsTest, SettingZeroRecordsJudgedNonrelevant) {
  Qrels qrels;
  qrels.Set(1, 10, 2);
  qrels.Set(1, 10, 0);
  // Grade 0 downgrades the judgement but keeps the shot in the pool:
  // judged-nonrelevant, not unjudged.
  EXPECT_EQ(qrels.Grade(1, 10), 0);
  EXPECT_TRUE(qrels.IsJudged(1, 10));
  EXPECT_FALSE(qrels.IsRelevant(1, 10));
  EXPECT_EQ(qrels.Topics(), (std::vector<SearchTopicId>{1}));
  EXPECT_EQ(qrels.TotalJudgments(), 1u);
  EXPECT_EQ(qrels.NumJudged(1), 1u);
  EXPECT_EQ(qrels.NumRelevant(1), 0u);
}

TEST(QrelsTest, NegativeGradeRemoves) {
  Qrels qrels;
  qrels.Set(1, 10, 2);
  qrels.Set(1, 10, -1);
  EXPECT_EQ(qrels.Grade(1, 10), 0);
  EXPECT_FALSE(qrels.IsJudged(1, 10));
  EXPECT_TRUE(qrels.Topics().empty());
  EXPECT_EQ(qrels.TotalJudgments(), 0u);
}

TEST(QrelsTest, IsJudgedDistinguishesPoolFromRelevance) {
  Qrels qrels;
  qrels.Set(1, 10, 1);
  qrels.Set(1, 11, 0);
  EXPECT_TRUE(qrels.IsJudged(1, 10));
  EXPECT_TRUE(qrels.IsJudged(1, 11));
  EXPECT_FALSE(qrels.IsJudged(1, 12));
  EXPECT_FALSE(qrels.IsJudged(2, 10));
  EXPECT_EQ(qrels.NumJudged(1), 2u);
  EXPECT_EQ(qrels.NumRelevant(1), 1u);
}

TEST(QrelsTest, IsRelevantRespectsMinGrade) {
  Qrels qrels;
  qrels.Set(1, 10, 1);
  qrels.Set(1, 20, 2);
  EXPECT_TRUE(qrels.IsRelevant(1, 10));
  EXPECT_FALSE(qrels.IsRelevant(1, 10, 2));
  EXPECT_TRUE(qrels.IsRelevant(1, 20, 2));
  EXPECT_FALSE(qrels.IsRelevant(1, 30));
}

TEST(QrelsTest, RelevantShotsSortedAndFiltered) {
  Qrels qrels;
  qrels.Set(1, 30, 1);
  qrels.Set(1, 10, 2);
  qrels.Set(1, 20, 1);
  EXPECT_EQ(qrels.RelevantShots(1), (std::vector<ShotId>{10, 20, 30}));
  EXPECT_EQ(qrels.RelevantShots(1, 2), (std::vector<ShotId>{10}));
  EXPECT_TRUE(qrels.RelevantShots(9).empty());
}

TEST(QrelsTest, CountsAndTopics) {
  Qrels qrels;
  qrels.Set(3, 1, 1);
  qrels.Set(1, 2, 2);
  qrels.Set(1, 3, 1);
  EXPECT_EQ(qrels.NumRelevant(1), 2u);
  EXPECT_EQ(qrels.NumRelevant(1, 2), 1u);
  EXPECT_EQ(qrels.NumRelevant(7), 0u);
  EXPECT_EQ(qrels.Topics(), (std::vector<SearchTopicId>{1, 3}));
  EXPECT_EQ(qrels.TotalJudgments(), 3u);
}

TEST(QrelsTest, TrecFormatRoundTrip) {
  Qrels qrels;
  qrels.Set(1, 5, 2);
  qrels.Set(1, 9, 1);
  qrels.Set(4, 2, 1);
  const std::string text = qrels.ToTrecFormat();
  EXPECT_EQ(text, "1 0 shot5 2\n1 0 shot9 1\n4 0 shot2 1\n");
  const Qrels parsed = Qrels::FromTrecFormat(text).value();
  EXPECT_EQ(parsed.ToTrecFormat(), text);
}

TEST(QrelsTest, ParseKeepsZeroGradeJudgements) {
  const Qrels parsed =
      Qrels::FromTrecFormat("\n1 0 shot5 2\n\n2 0 shot3 0\n").value();
  EXPECT_EQ(parsed.Grade(1, 5), 2);
  EXPECT_EQ(parsed.Grade(2, 3), 0);
  EXPECT_TRUE(parsed.IsJudged(2, 3));
  EXPECT_EQ(parsed.TotalJudgments(), 2u);
}

TEST(QrelsTest, ZeroGradeRoundTripsThroughTrecFormat) {
  Qrels qrels;
  qrels.Set(1, 5, 2);
  qrels.Set(1, 6, 0);
  const std::string text = qrels.ToTrecFormat();
  EXPECT_EQ(text, "1 0 shot5 2\n1 0 shot6 0\n");
  const Qrels parsed = Qrels::FromTrecFormat(text).value();
  EXPECT_TRUE(parsed.IsJudged(1, 6));
  EXPECT_EQ(parsed.ToTrecFormat(), text);
}

TEST(QrelsTest, ParseRejectsMalformedLines) {
  EXPECT_TRUE(Qrels::FromTrecFormat("1 0 shot5").status().IsCorruption());
  EXPECT_TRUE(
      Qrels::FromTrecFormat("1 0 doc5 2").status().IsCorruption());
  EXPECT_TRUE(
      Qrels::FromTrecFormat("x 0 shot5 2").status().IsInvalidArgument());
  EXPECT_TRUE(
      Qrels::FromTrecFormat("1 0 shotX 2").status().IsInvalidArgument());
}

TEST(QrelsTest, ParseRejectsIdsOutOfRange) {
  // Ids wider than 32 bits must not wrap onto a real topic or shot.
  EXPECT_TRUE(Qrels::FromTrecFormat("1 0 shot4294967297 1")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Qrels::FromTrecFormat("4294967297 0 shot5 1")
                  .status()
                  .IsCorruption());
  // shot4294967295 is kInvalidShotId, never a real shot.
  EXPECT_TRUE(Qrels::FromTrecFormat("1 0 shot4294967295 1")
                  .status()
                  .IsCorruption());
  // The largest ids that fit still load.
  const Qrels qrels =
      Qrels::FromTrecFormat("4294967295 0 shot4294967294 1").value();
  EXPECT_EQ(qrels.Grade(4294967295u, 4294967294u), 1);
}

}  // namespace
}  // namespace ivr
