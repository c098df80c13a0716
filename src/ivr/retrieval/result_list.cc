#include "ivr/retrieval/result_list.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ivr {
namespace {

bool Better(const RankedShot& a, const RankedShot& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.shot < b.shot;
}

[[maybe_unused]] bool IsRanked(const std::vector<RankedShot>& items) {
  if (std::adjacent_find(items.begin(), items.end(),
                         [](const RankedShot& a, const RankedShot& b) {
                           return !Better(a, b);
                         }) != items.end()) {
    return false;
  }
  std::vector<ShotId> shots;
  shots.reserve(items.size());
  for (const RankedShot& r : items) shots.push_back(r.shot);
  std::sort(shots.begin(), shots.end());
  return std::adjacent_find(shots.begin(), shots.end()) == shots.end();
}

}  // namespace

ResultList::ResultList(std::vector<RankedShot> items)
    : items_(std::move(items)) {
  // Deduplicate by shot (keeping the max score), then order by score.
  std::sort(items_.begin(), items_.end(),
            [](const RankedShot& a, const RankedShot& b) {
              if (a.shot != b.shot) return a.shot < b.shot;
              return a.score > b.score;
            });
  items_.erase(std::unique(items_.begin(), items_.end(),
                           [](const RankedShot& a, const RankedShot& b) {
                             return a.shot == b.shot;
                           }),
               items_.end());
  std::sort(items_.begin(), items_.end(), Better);
}

ResultList ResultList::FromRanked(std::vector<RankedShot> ranked) {
  assert(IsRanked(ranked));
  ResultList out;
  out.items_ = std::move(ranked);
  return out;
}

void ResultList::Truncate(size_t k) {
  if (items_.size() > k) items_.resize(k);
}

std::optional<size_t> ResultList::RankOf(ShotId shot) const {
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].shot == shot) return i;
  }
  return std::nullopt;
}

double ResultList::ScoreOf(ShotId shot) const {
  const std::optional<size_t> rank = RankOf(shot);
  return rank.has_value() ? items_[*rank].score : 0.0;
}

std::vector<ShotId> ResultList::ShotIds() const {
  std::vector<ShotId> out;
  out.reserve(items_.size());
  for (const RankedShot& r : items_) {
    out.push_back(r.shot);
  }
  return out;
}

}  // namespace ivr
