#include "ivr/video/qrels.h"

#include <algorithm>
#include <cstdint>

#include "ivr/core/string_util.h"

namespace ivr {

void Qrels::Set(SearchTopicId topic, ShotId shot, int grade) {
  if (grade < 0) {
    auto it = judgments_.find(topic);
    if (it != judgments_.end()) {
      it->second.erase(shot);
      if (it->second.empty()) judgments_.erase(it);
    }
    return;
  }
  // Grade 0 stays as an explicit judged-nonrelevant entry: bpref-style
  // metrics must distinguish judged-nonrelevant from never-judged.
  judgments_[topic][shot] = grade;
}

bool Qrels::IsJudged(SearchTopicId topic, ShotId shot) const {
  auto it = judgments_.find(topic);
  if (it == judgments_.end()) return false;
  return it->second.count(shot) > 0;
}

int Qrels::Grade(SearchTopicId topic, ShotId shot) const {
  auto it = judgments_.find(topic);
  if (it == judgments_.end()) return 0;
  auto jt = it->second.find(shot);
  return jt == it->second.end() ? 0 : jt->second;
}

bool Qrels::IsRelevant(SearchTopicId topic, ShotId shot,
                       int min_grade) const {
  return Grade(topic, shot) >= min_grade;
}

std::vector<ShotId> Qrels::RelevantShots(SearchTopicId topic,
                                         int min_grade) const {
  std::vector<ShotId> out;
  auto it = judgments_.find(topic);
  if (it == judgments_.end()) return out;
  for (const auto& [shot, grade] : it->second) {
    if (grade >= min_grade) out.push_back(shot);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Qrels::NumRelevant(SearchTopicId topic, int min_grade) const {
  size_t n = 0;
  auto it = judgments_.find(topic);
  if (it == judgments_.end()) return 0;
  for (const auto& [shot, grade] : it->second) {
    (void)shot;
    if (grade >= min_grade) ++n;
  }
  return n;
}

size_t Qrels::NumJudged(SearchTopicId topic) const {
  auto it = judgments_.find(topic);
  return it == judgments_.end() ? 0 : it->second.size();
}

std::vector<SearchTopicId> Qrels::Topics() const {
  std::vector<SearchTopicId> out;
  out.reserve(judgments_.size());
  for (const auto& [topic, shots] : judgments_) {
    (void)shots;
    out.push_back(topic);
  }
  return out;
}

size_t Qrels::TotalJudgments() const {
  size_t n = 0;
  for (const auto& [topic, shots] : judgments_) {
    (void)topic;
    n += shots.size();
  }
  return n;
}

std::string Qrels::ToTrecFormat() const {
  std::string out;
  for (const auto& [topic, shots] : judgments_) {
    // Order shots for byte-stable output.
    std::vector<std::pair<ShotId, int>> sorted(shots.begin(), shots.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [shot, grade] : sorted) {
      out += StrFormat("%u 0 shot%u %d\n", topic, shot, grade);
    }
  }
  return out;
}

Result<Qrels> Qrels::FromTrecFormat(const std::string& text) {
  Qrels qrels;
  for (const std::string& line : Split(text, '\n')) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const std::vector<std::string> cols = SplitWhitespace(trimmed);
    if (cols.size() != 4) {
      return Status::Corruption("qrels line must have 4 columns: " + line);
    }
    IVR_ASSIGN_OR_RETURN(int64_t topic, ParseInt(cols[0]));
    if (!StartsWith(cols[2], "shot")) {
      return Status::Corruption("qrels doc id must look like shotN: " +
                                cols[2]);
    }
    IVR_ASSIGN_OR_RETURN(int64_t shot,
                         ParseInt(std::string_view(cols[2]).substr(4)));
    IVR_ASSIGN_OR_RETURN(int64_t grade, ParseInt(cols[3]));
    if (topic < 0 || shot < 0) {
      return Status::Corruption("negative id in qrels: " + line);
    }
    if (topic > UINT32_MAX || shot >= kInvalidShotId) {
      return Status::Corruption("id out of range in qrels: " + line);
    }
    if (grade >= 0) {
      qrels.Set(static_cast<SearchTopicId>(topic),
                static_cast<ShotId>(shot), static_cast<int>(grade));
    }
  }
  return qrels;
}

}  // namespace ivr
