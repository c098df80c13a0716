#include "ivr/eval/trec_run.h"

#include <gtest/gtest.h>

namespace ivr {
namespace {

TEST(TrecRunTest, SerializesRankedOrder) {
  std::map<SearchTopicId, ResultList> runs;
  runs[1] = ResultList({{5, 2.0}, {9, 1.0}});
  const std::string text = RunsToTrecFormat(runs, "mytag");
  EXPECT_EQ(text,
            "1 Q0 shot5 1 2 mytag\n"
            "1 Q0 shot9 2 1 mytag\n");
}

TEST(TrecRunTest, RoundTrip) {
  std::map<SearchTopicId, ResultList> runs;
  runs[1] = ResultList({{5, 2.5}, {9, 1.25}});
  runs[3] = ResultList({{2, 0.75}});
  std::string tag;
  const auto parsed =
      RunsFromTrecFormat(RunsToTrecFormat(runs, "t"), &tag).value();
  EXPECT_EQ(tag, "t");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.at(1).ShotIds(), runs.at(1).ShotIds());
  EXPECT_DOUBLE_EQ(parsed.at(1).ScoreOf(5), 2.5);
  EXPECT_EQ(parsed.at(3).ShotIds(), runs.at(3).ShotIds());
}

TEST(TrecRunTest, ParseSkipsBlankLines) {
  const auto parsed =
      RunsFromTrecFormat("\n1 Q0 shot5 1 2.0 x\n\n").value();
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(TrecRunTest, ParseRejectsMalformed) {
  EXPECT_TRUE(RunsFromTrecFormat("1 Q0 shot5 1 2.0").status()
                  .IsCorruption());
  EXPECT_TRUE(RunsFromTrecFormat("1 Q0 doc5 1 2.0 x").status()
                  .IsCorruption());
  EXPECT_TRUE(RunsFromTrecFormat("a Q0 shot5 1 2.0 x").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunsFromTrecFormat("1 Q0 shot5 1 abc x").status()
                  .IsInvalidArgument());
}

TEST(TrecRunTest, ParseRejectsIdsOutOfRange) {
  // Ids wider than 32 bits must not wrap onto a real topic or shot.
  EXPECT_TRUE(RunsFromTrecFormat("1 Q0 shot4294967297 1 9.0 t")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(RunsFromTrecFormat("4294967297 Q0 shot5 1 9.0 t")
                  .status()
                  .IsCorruption());
  // shot4294967295 is kInvalidShotId, never a real shot.
  EXPECT_TRUE(RunsFromTrecFormat("1 Q0 shot4294967295 1 9.0 t")
                  .status()
                  .IsCorruption());
  // The largest ids that fit still load.
  const auto parsed =
      RunsFromTrecFormat("4294967295 Q0 shot4294967294 1 9.0 t").value();
  EXPECT_EQ(parsed.at(4294967295u).ShotIds(),
            (std::vector<ShotId>{4294967294u}));
}

TEST(TrecRunTest, ParseKeepsMaxScoreOfRepeatedShot) {
  const auto parsed = RunsFromTrecFormat(
                          "2 Q0 shot7 1 1.5 t\n"
                          "2 Q0 shot3 2 2.0 t\n"
                          "2 Q0 shot7 3 4.0 t\n")
                          .value();
  EXPECT_EQ(parsed.at(2).items(),
            (std::vector<RankedShot>{{7, 4.0}, {3, 2.0}}));
}

TEST(TrecRunTest, EmptyInputAndOutput) {
  EXPECT_TRUE(RunsFromTrecFormat("").value().empty());
  EXPECT_EQ(RunsToTrecFormat({}, "x"), "");
}

}  // namespace
}  // namespace ivr
