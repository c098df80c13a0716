#include "ivr/eval/trec_run.h"

#include <cstdint>
#include <vector>

#include "ivr/core/string_util.h"

namespace ivr {

std::string RunsToTrecFormat(
    const std::map<SearchTopicId, ResultList>& runs,
    const std::string& tag) {
  std::string out;
  for (const auto& [topic, list] : runs) {
    for (size_t rank = 0; rank < list.size(); ++rank) {
      out += StrFormat("%u Q0 shot%u %zu %.17g %s\n", topic,
                       list.at(rank).shot, rank + 1, list.at(rank).score,
                       tag.c_str());
    }
  }
  return out;
}

Result<std::map<SearchTopicId, ResultList>> RunsFromTrecFormat(
    const std::string& text, std::string* tag_out) {
  std::map<SearchTopicId, std::vector<RankedShot>> entries;
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    const std::vector<std::string> cols = SplitWhitespace(line);
    if (cols.size() != 6) {
      return Status::Corruption("run line must have 6 columns: " + line);
    }
    IVR_ASSIGN_OR_RETURN(int64_t topic, ParseInt(cols[0]));
    if (!StartsWith(cols[2], "shot")) {
      return Status::Corruption("run doc id must look like shotN: " +
                                cols[2]);
    }
    IVR_ASSIGN_OR_RETURN(int64_t shot,
                         ParseInt(std::string_view(cols[2]).substr(4)));
    IVR_ASSIGN_OR_RETURN(double score, ParseDouble(cols[4]));
    if (topic < 0 || shot < 0) {
      return Status::Corruption("negative id in run line: " + line);
    }
    if (topic > UINT32_MAX || shot >= kInvalidShotId) {
      return Status::Corruption("id out of range in run line: " + line);
    }
    entries[static_cast<SearchTopicId>(topic)].push_back(
        RankedShot{static_cast<ShotId>(shot), score});
    if (tag_out != nullptr) *tag_out = cols[5];
  }
  // Duplicates of a shot within a topic keep the max score.
  std::map<SearchTopicId, ResultList> runs;
  for (auto& [topic, items] : entries) {
    runs.emplace(topic, ResultList(std::move(items)));
  }
  return runs;
}

}  // namespace ivr
